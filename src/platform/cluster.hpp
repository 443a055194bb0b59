#pragma once

/// \file cluster.hpp
/// A sharded simulation platform: N `Machine` shards, each with its own
/// `sim::Engine` (private event heap, clock, and RNG stream), advancing
/// together in *sync-horizon* rounds on a `sim::ShardExecutor` thread pool.
///
/// Why this is exact, not approximate: every simulated component (FlowNet
/// resources and flows, storage servers, port registries) belongs to exactly
/// one shard, and nothing *inside a round* lets components in different
/// shards interact — a flow's path can only name resources of its shard's
/// FlowNet, and coordination ports live per machine. Shard state within a
/// round is therefore a function of the shard's own event sequence. The one
/// sanctioned coupling is the *barrier hook* (sim/barrier_hook.hpp): between
/// rounds, when no shard loop is running, registered hooks may read every
/// shard and schedule events into any shard engine — this is how
/// calciom::GlobalArbiter coordinates applications living on different
/// shards. Because hooks run at barriers whose times are pure functions of
/// simulated state, a campaign still partitions deterministically: results
/// are bit-identical for 1, 4, or 16 worker threads (the thread-count
/// invariance tests in tests/platform_cluster_test.cpp and
/// tests/global_arbiter_test.cpp hold the codebase to this).
///
/// See src/sim/README.md for the determinism model in full.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/machine.hpp"
#include "sim/barrier_hook.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace calciom::platform {

struct ClusterSpec {
  std::string name = "cluster";
  /// Machine spec replicated per shard; each shard's machine is named
  /// `<spec.name>/shard<i>`.
  MachineSpec shard;
  std::size_t shards = 1;
  /// Base seed for the per-shard engine RNG streams (shard i draws from an
  /// independent SplitMix64-derived stream).
  std::uint64_t seed = 0x5EEDC1C1u;
  /// Length of a sync-horizon round in simulated seconds: each round runs
  /// every shard from the global earliest pending event to that event's
  /// time plus this horizon, then barriers. Larger horizons mean fewer
  /// barriers (less synchronization overhead) but coarser clock alignment
  /// between shards.
  sim::Time syncHorizonSeconds = 0.5;
  /// One-way latency of coordination messages that cross shards at a
  /// barrier (machine-to-machine, vs MachineSpec::coordinationLatencySeconds
  /// for hops within one machine). Paid by barrier hooks when they deliver
  /// into another shard (e.g. calciom::GlobalArbiter grant/pause/resume).
  double crossShardLatencySeconds = 1e-3;

  void validate() const {
    CALCIOM_EXPECTS(shards >= 1);
    CALCIOM_EXPECTS(syncHorizonSeconds > 0.0);
    CALCIOM_EXPECTS(crossShardLatencySeconds >= 0.0);
    shard.validate();
  }
};

/// Aggregated event-loop counters across shards (see Cluster::stats()).
/// Every field except the wall-clock timers (total.wallSeconds, cpuSeconds)
/// and pooledRounds is a pure function of simulated state, identical for
/// any worker count. pooledRounds is deterministic too, but depends on the
/// worker count as well; like the timers it stays out of every fingerprint
/// and worker-count invariance comparison.
struct ClusterStats {
  /// Sums over shards; maxQueueDepth is the per-shard maximum,
  /// wallSeconds the per-shard maximum (busiest single shard, NOT the
  /// campaign's elapsed time), and eventsPerSecond is events per
  /// CPU-second (processedEvents / cpuSeconds). For wall-clock throughput
  /// time the campaign externally — under multiple workers the per-shard
  /// timers overlap (their sum exceeds elapsed time), and under the serial
  /// fast path they are disjoint slices of the caller's time (their sum
  /// approximates elapsed time but also lands inside any external timer),
  /// so no combination of them is elapsed time and adding them to an
  /// external measurement double-counts. Bench tiers report cpuSeconds and
  /// the externally timed wall clock as separate columns for this reason.
  sim::EngineStats total;
  /// Seconds spent inside shard event loops, summed over shards — total
  /// CPU burned. With W workers, perfect scaling gives an elapsed time of
  /// about cpuSeconds / W.
  double cpuSeconds = 0.0;
  std::size_t shards = 0;
  /// Rounds that dispatched two or more shards — rounds that genuinely
  /// required cross-shard synchronization. Rounds advancing a single shard
  /// (soloRounds) run inline on the calling thread with no joins; counting
  /// them as "sync" would overstate the barrier tax by the sparse-activation
  /// win. Worker-count invariant.
  std::uint64_t syncRounds = 0;
  /// Every pass of the horizon loop (the pre-sparse-activation notion of a
  /// round): syncRounds + soloRounds.
  std::uint64_t horizonSteps = 0;
  /// Rounds whose horizon reached exactly one shard.
  std::uint64_t soloRounds = 0;
  /// Total shards dispatched over all rounds; dispatchedShards /
  /// horizonSteps is the mean round width (16-shard clusters running
  /// ~1-wide rounds are the sparse-activation motivation).
  std::uint64_t dispatchedShards = 0;
  /// Barrier-hook invocations that scheduled at least one new event
  /// (non-empty exchange) vs. those that scheduled nothing.
  std::uint64_t barrierExchangesNonEmpty = 0;
  std::uint64_t barrierExchangesEmpty = 0;
  /// Barriers not fired because every hook's `nextBarrierNeededBy` vote
  /// declared them no-ops (sim/barrier_hook.hpp).
  std::uint64_t barriersSkipped = 0;
  /// Rounds handed to the worker pool rather than run on the calling
  /// thread: rounds whose overlappable work (events the active shards
  /// dispatched on their last activation, minus the busiest shard's) beat
  /// sim::ShardExecutor::kSerialWorkThreshold. A pure function of simulated
  /// state and the worker count; 0 at 1 worker.
  std::uint64_t pooledRounds = 0;
};

/// Owner of the shard engines and machines; see file comment.
class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::size_t shardCount() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] sim::Engine& engine(std::size_t shard);
  [[nodiscard]] Machine& machine(std::size_t shard);
  [[nodiscard]] const ClusterSpec& spec() const noexcept { return spec_; }

  /// Runs every shard until no events remain anywhere, using `workers`
  /// threads (clamped to >= 1). Rethrows the lowest-shard-index failure.
  void run(unsigned workers = 1);

  /// Runs every shard through simulated time `t` inclusive (like
  /// Engine::runUntil: each shard's clock ends at exactly `t`).
  void runUntil(sim::Time t, unsigned workers = 1);

  /// Earliest pending event across shards, kNever when drained.
  [[nodiscard]] sim::Time nextEventTime() const noexcept;
  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] ClusterStats stats() const noexcept;

  /// Latest shard clock — the barrier time used when every queue is
  /// drained. A pure function of simulated state (each shard's clock ends
  /// at the last horizon it participated in).
  [[nodiscard]] sim::Time maxShardClock() const noexcept;

  // ---- Barrier hooks (the only cross-shard coupling; see
  // ---- sim/barrier_hook.hpp for the determinism contract) ---------------

  /// Registers a non-owning hook, invoked at every barrier in registration
  /// order. The hook must outlive the cluster's runs.
  void addBarrierHook(sim::BarrierHook* hook);
  /// Registers a hook the cluster owns. Owned hooks are destroyed *before*
  /// the shards (member order below is load-bearing): a hook's destructor
  /// may still reach into shard machines, e.g. ArbiterStub closing its
  /// port on a machine's registry. Returns the adopted hook.
  sim::BarrierHook& adoptBarrierHook(std::unique_ptr<sim::BarrierHook> hook);

 private:
  struct Shard {
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<Machine> machine;
    /// Events dispatched on the shard's last activation, written only by
    /// the thread running the shard in a round (the executor's done-count
    /// publishes it to the caller). Feeds the next round's work estimate.
    std::uint64_t lastWork = 0;
    /// False until the first activation; until then the estimate reads the
    /// shard's pending-event count instead of lastWork.
    bool activated = false;
  };

  /// Sync-horizon rounds until no event remains at or before `limit` and no
  /// barrier hook injects further work.
  void runRounds(sim::Time limit, unsigned workers);
  /// Invokes every hook; true if any scheduled new events. Counts the
  /// exchange as empty or non-empty.
  bool fireBarrierHooks(sim::Time barrierTime);
  /// Minimum `nextBarrierNeededBy` vote over all hooks, clamped to `now`
  /// (past votes mean "now"). kNever with no hooks registered — callers
  /// only consult votes when hooks exist.
  [[nodiscard]] sim::Time minBarrierVote(sim::Time now) const;

  ClusterSpec spec_;
  std::vector<Shard> shards_;
  std::vector<sim::BarrierHook*> hooks_;
  std::vector<std::unique_ptr<sim::BarrierHook>> ownedHooks_;
  std::uint64_t syncRounds_ = 0;
  std::uint64_t horizonSteps_ = 0;
  std::uint64_t soloRounds_ = 0;
  std::uint64_t dispatchedShards_ = 0;
  std::uint64_t barrierExchangesNonEmpty_ = 0;
  std::uint64_t barrierExchangesEmpty_ = 0;
  std::uint64_t barriersSkipped_ = 0;
  std::uint64_t pooledRounds_ = 0;
  /// Horizon of the last dispatched round; shards that skipped trailing
  /// rounds are aligned to it when the round loop exits, reproducing the
  /// dense-dispatch final clocks exactly.
  sim::Time lastHorizon_ = 0.0;
  bool anyRoundRan_ = false;
  /// Scratch for the active-shard set (avoids a per-round allocation).
  std::vector<std::size_t> activeScratch_;
};

}  // namespace calciom::platform
