#pragma once

/// \file shard_executor.hpp
/// Worker-thread pool for sharded simulations. A platform::Cluster advances
/// its shards in sync-horizon rounds; each round is a `parallelFor` over
/// shard indices. The executor is deliberately minimal:
///
///  * Persistent workers. A campaign runs thousands of barrier rounds;
///    spawning threads per round would dominate. Workers are created once
///    and handed rounds through a wait-free generation barrier: the caller
///    publishes the job, bumps an atomic generation word, and workers
///    spin-then-park on that word (`std::atomic::wait`), so a round handoff
///    is one atomic store plus one futex wake — no mutex, no condvar
///    broadcast storm.
///  * The caller participates. `parallelFor(n, fn)` has the calling thread
///    pull indices alongside the pool, so `workers == 1` (or an empty pool)
///    degenerates to a plain loop with no synchronization — the serial path
///    of a 1-worker cluster pays nothing.
///  * Adaptive serial fast path. The caller estimates how much of a round's
///    work can overlap: the events the round will dispatch *outside its
///    busiest index*, since that index runs on some thread either way and
///    only the rest can move to another core. platform::Cluster measures
///    this from each shard's events dispatched on its last activation.
///    Rounds whose `workEstimate` is at or below `kSerialWorkThreshold` run
///    entirely on the calling thread without waking the pool: a futex wake
///    costs microseconds, and a round dominated by one shard, or holding
///    only a few hundred events, gains nothing from a second core.
///  * Deterministic failure. Exceptions from `fn(i)` are captured in
///    per-index slots and the lowest-index one is rethrown after the round
///    completes, so which error surfaces does not depend on thread
///    interleaving. The serial path keeps the same semantics (all indices
///    run; lowest-index exception rethrown).
///
/// ## Round protocol (why a worker can sleep through rounds safely)
///
/// The generation word alternates odd/even: odd while the caller writes the
/// round context (job pointer, size, chunk, claim word, done count), even
/// once the round is open. A worker joins a round by (1) waiting for an
/// even generation it has not seen, (2) reading the context atomics, and
/// (3) re-reading the generation — if it moved, the context straddled two
/// rounds and is discarded (classic seqlock validation; all participants
/// use seq_cst so observing a context write implies the later generation
/// read sees at least the odd marker that preceded it).
///
/// Index distribution packs (generation tag, next index) into one atomic
/// word claimed in chunks with a CAS loop. The tag makes claims race-free
/// across rounds: a worker holding a stale generation can never claim
/// indices of a fresh round (its CAS expects the stale tag), it just
/// observes the mismatch and re-parks. Round completion is counted per
/// finished index (`done_`), not per checked-in worker, so the caller never
/// waits for a parked worker that missed the round — the round is over the
/// instant its last index finishes, whoever ran it. Distribution order is
/// still "work stealing by another name"; that is safe for simulation
/// shards because shard results are independent of *which thread* runs
/// them — determinism lives in the shards, not in the schedule.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace calciom::sim {

/// Non-owning reference to a `void(std::size_t)` callable (a function_ref).
/// A round's body lives in the caller's frame for the whole parallelFor
/// call, so the executor needs no copy of it — and no std::function, whose
/// small buffer cannot hold a lambda capturing three references and would
/// box the body on the heap once per round.
class IndexFn {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, IndexFn> &&
             std::is_invocable_v<F&, std::size_t>)
  IndexFn(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, std::size_t i) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(i);
        }) {}

  void operator()(std::size_t i) const { call_(obj_, i); }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t);
};

class ShardExecutor {
 public:
  /// Rounds with `workEstimate` at or below this many overlappable events
  /// dispatched run serially on the caller without waking the pool.
  /// Calibration: waking a parked worker costs a futex syscall
  /// (microseconds) and a simulated event a few hundred nanoseconds to a
  /// few microseconds, so a few hundred events that could run beside the
  /// busiest shard are about the least work that repays the handoff. The
  /// estimate excludes the busiest shard, so a round where one shard does
  /// everything stays on the caller however large it is.
  static constexpr std::size_t kSerialWorkThreshold = 256;

  /// Passed as `workEstimate` when the round should always go parallel.
  static constexpr std::size_t kNoEstimate = static_cast<std::size_t>(-1);

  /// Creates a pool that runs rounds on `workers` threads total (the caller
  /// counts as one, so `workers - 1` threads are spawned). `workers` is
  /// clamped to at least 1.
  explicit ShardExecutor(unsigned workers);
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;
  ~ShardExecutor();

  /// Invokes `fn(i)` exactly once for every i in [0, n), distributed over
  /// the pool plus the calling thread; blocks until all calls finished.
  /// `fn` is referenced, not copied: it only has to live through the call.
  /// `fn` must be safe to call concurrently for distinct indices. If any
  /// call threw, the lowest-index exception is rethrown. `workEstimate` is
  /// an optional hint of the round's overlappable events dispatched: the
  /// work outside its busiest index, the part another thread could take.
  /// At or below `kSerialWorkThreshold` the round stays on the calling
  /// thread. Returns true if the round was handed to the pool, false if it
  /// ran serially on the caller. `n` must fit in 32 bits (index shares an
  /// atomic word with the round generation).
  bool parallelFor(std::size_t n, IndexFn fn,
                   std::size_t workEstimate = kNoEstimate);

  /// Total threads a round runs on (pool + caller).
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

 private:
  static constexpr unsigned kIndexBits = 32;
  static constexpr std::uint64_t kIndexMask =
      (std::uint64_t{1} << kIndexBits) - 1;
  /// Spin iterations before parking on the futex. Rounds in a busy campaign
  /// arrive back-to-back; spinning briefly keeps the common handoff
  /// syscall-free.
  static constexpr int kSpinIterations = 4096;

  void workerLoop();
  /// Claims chunks tagged with `genTag` and runs them; returns when the
  /// round is exhausted or the tag no longer matches (stale round).
  void runIndices(const IndexFn& fn, std::size_t n, std::size_t chunk,
                  std::uint64_t genTag);
  void runSerial(std::size_t n, const IndexFn& fn);
  void rethrowLowest(std::size_t n);

  std::vector<std::thread> threads_;
  /// Round generation: odd = context under construction, even = round open.
  /// Workers park on this word.
  std::atomic<std::uint64_t> roundGen_{0};
  /// Round context, valid only when a seqlock read validates (see file
  /// comment). Atomics so a stale reader races with nothing.
  std::atomic<const IndexFn*> job_{nullptr};
  std::atomic<std::size_t> jobSize_{0};
  std::atomic<std::size_t> chunkSize_{1};
  /// (generation tag << 32) | next unclaimed index, claimed by CAS.
  std::atomic<std::uint64_t> claim_{0};
  /// Indices finished this round; the round is complete at done_ == n.
  std::atomic<std::uint64_t> done_{0};
  std::atomic<bool> shutdown_{false};
  /// One slot per index; distinct indices write distinct slots, so no lock.
  std::vector<std::exception_ptr> errors_;
};

}  // namespace calciom::sim
