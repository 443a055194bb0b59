#pragma once

/// \file engine.hpp
/// Deterministic discrete-event engine. Events are (time, sequence) ordered;
/// equal-time events run in scheduling order, which makes every simulation
/// bit-reproducible for a given seed and construction order.
///
/// The event queue is a flat 4-ary min-heap of fixed-size records whose
/// callbacks live in small-buffer `EventFn` storage, so scheduling and
/// dispatching an event performs no per-event heap allocation. The dispatch
/// loop consumes *batches*: every event at the head timestamp is drained
/// from the heap in one `DaryHeap::popBatch` pass and then run in sequence
/// order, which amortizes heap maintenance during completion storms
/// (collective checkpoint ends schedule thousands of equal-time events).
/// `stats()` exposes throughput counters (events processed, batches
/// dispatched, wall-clock events/sec, peak queue depth) for the perf benches.
///
/// Each engine owns a private RNG stream (`rng()`), seeded at construction,
/// so sharded simulations (platform::Cluster) draw shard-local randomness
/// without cross-shard coupling. `Engine::current()` names the engine whose
/// event loop is running on this thread — shard-owned components
/// (net::FlowNet) use it to reject cross-shard mutation.

#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/dary_heap.hpp"
#include "sim/event_fn.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace calciom::sim {

/// Throughput counters for the event loop; see Engine::stats().
struct EngineStats {
  /// Events dispatched so far.
  std::uint64_t processedEvents = 0;
  /// Events ever scheduled (processed + pending). The engine has no
  /// cancellation path: components that outrun their own events (FlowNet
  /// completions, StorageServer transitions) supersede them with generation
  /// counters and the stale event still dispatches as a no-op.
  std::uint64_t scheduledEvents = 0;
  /// Events currently in the queue.
  std::size_t pendingEvents = 0;
  /// High-water mark of the event queue.
  std::size_t maxQueueDepth = 0;
  /// Equal-time batches dispatched; processedEvents / dispatchBatches is the
  /// mean storm size the popBatch amortization saw.
  std::uint64_t dispatchBatches = 0;
  /// Wall-clock seconds spent inside run()/runUntil(). Not deterministic —
  /// excluded from cross-thread-count invariance comparisons.
  double wallSeconds = 0.0;
  /// processedEvents / wallSeconds (0 before the first run).
  double eventsPerSecond = 0.0;
};

/// Single-threaded discrete-event simulation engine. Distinct engines are
/// fully independent (platform::Cluster runs one per shard on a thread
/// pool); a single engine must only ever be driven from one thread at a
/// time.
///
/// Usage:
///   Engine eng;
///   auto done = eng.spawn(myTask(eng, ...));
///   eng.run();                       // until no events remain
class Engine {
 public:
  Engine() = default;
  /// Seeds this engine's private RNG stream (see rng()).
  explicit Engine(std::uint64_t rngSeed) : rng_(rngSeed) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time in seconds.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Engine-local deterministic RNG stream. Shard-local workloads must draw
  /// from here (not a shared generator) so results are independent of the
  /// order shards run in.
  [[nodiscard]] Xoshiro256& rng() noexcept { return rng_; }

  /// The engine whose event loop is executing on the calling thread, or
  /// nullptr outside any event loop (setup/teardown code).
  [[nodiscard]] static Engine* current() noexcept;

  /// Schedules `fn` to run at absolute simulated time `t` (must be >= now).
  void scheduleAt(Time t, EventFn fn);

  /// Schedules `fn` to run `dt` seconds from now (dt < 0 is clamped to 0).
  void scheduleAfter(Time dt, EventFn fn);

  /// Takes ownership of `task`, schedules its first step at the current time
  /// and returns its completion trigger (fired when the task body returns).
  /// The task joins the live list; tasks still suspended when the engine is
  /// destroyed have their frames destroyed in spawn order, oldest first.
  std::shared_ptr<Trigger> spawn(Task task);

  /// Runs until the event queue is empty. Rethrows the first exception that
  /// escaped any task body.
  void run();

  /// Runs all events with timestamp <= t, then sets the clock to `t`.
  void runUntil(Time t);

  /// Time of the earliest pending event, or kNever if none.
  [[nodiscard]] Time nextEventTime() const noexcept;

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t pendingEvents() const noexcept {
    return events_.size();
  }
  [[nodiscard]] std::uint64_t processedEvents() const noexcept {
    return processed_;
  }
  /// Number of spawned tasks whose bodies have not yet finished.
  [[nodiscard]] std::size_t liveTasks() const noexcept { return liveCount_; }

  /// Snapshot of event-loop throughput counters.
  [[nodiscard]] EngineStats stats() const noexcept;

 private:
  friend struct Task::promise_type;
  friend struct Task::promise_type::FinalAwaiter;
  friend struct detail::DelayAwaiter;

  struct Event {
    Time t;
    std::uint64_t seq;
    EventFn fn;
  };
  struct EventBefore {
    [[nodiscard]] bool operator()(const Event& a,
                                  const Event& b) const noexcept {
      return a.t < b.t || (a.t == b.t && a.seq < b.seq);
    }
  };

  /// Called from a task's final suspend: the frame is dead and can be
  /// destroyed at the next safe point (top of the event loop).
  void retire(Task::Handle h);
  /// Live-list maintenance: append at the tail on spawn, unlink on retire.
  void link(Task::promise_type& p) noexcept;
  void unlink(Task::promise_type& p) noexcept;
  /// Records the first exception escaping a task body.
  void reportTaskFailure(std::exception_ptr e) noexcept;

  void drainZombies() noexcept;
  void rethrowIfFailed();

  /// Drains the head-timestamp batch into a scratch buffer and dispatches
  /// it in sequence order. On an exception (direct throw from an event, or
  /// a task failure rethrown between events) the unconsumed tail of the
  /// batch is pushed back into the heap so pending counts stay exact.
  void dispatchHeadBatch();
  /// Returns the innermost active dispatch's unconsumed events to the heap
  /// so a nested run()/runUntil() dispatches them in order instead of
  /// advancing the clock past them (which would rewind time afterwards).
  void flushActiveBatch();

  DaryHeap<Event, EventBefore> events_;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t maxQueueDepth_ = 0;
  std::uint64_t dispatchBatches_ = 0;
  double wallSeconds_ = 0.0;
  std::vector<Event> batch_;  // dispatch scratch, reused across batches
  // Innermost in-flight dispatch (stack discipline via dispatchHeadBatch's
  // Restore guard); lets nested runs reclaim the unconsumed tail.
  std::vector<Event>* activeBatch_ = nullptr;
  std::size_t* activeNext_ = nullptr;
  Xoshiro256 rng_{0};
  std::vector<Task::Handle> zombies_;
  // Spawned tasks whose bodies have not finished, in spawn order: an
  // intrusive doubly-linked list through Task::promise_type.
  Task::promise_type* liveHead_ = nullptr;
  Task::promise_type* liveTail_ = nullptr;
  std::size_t liveCount_ = 0;
  std::exception_ptr failure_;
};

}  // namespace calciom::sim
