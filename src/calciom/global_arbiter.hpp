#pragma once

/// \file global_arbiter.hpp
/// Cross-shard frontend of the CALCioM decision core: one machine-wide
/// arbiter coordinating applications that live on different shards of a
/// `platform::Cluster`. This is the paper's actual object of study — a
/// single coordination layer over a partitioned platform — and it mirrors
/// how LASSi aggregates per-application telemetry centrally and how
/// control-theoretic storage congestion management closes a global loop
/// over distributed clients at a fixed sampling period; the cluster's sync
/// horizon is exactly that sampling period.
///
/// Topology and protocol:
///
///   shard 0: Session --> ports --> ArbiterStub ┐ (outbox, round-local)
///   shard 1: Session --> ports --> ArbiterStub ┤
///   shard k: Session --> ports --> ArbiterStub ┘
///                                       │ drained at each sync-horizon
///                                       ▼ barrier, (shard, seq) order
///                               ArbiterCore (one global decision state)
///                                       │ Grant/Pause/Resume commands
///                                       ▼
///   target shard engine: scheduleAt(max(barrier, clock) + crossShardLatency)
///                        --> ports.deliverNow(appPort) --> Session
///
/// Each shard's `ArbiterStub` owns msg::arbiterPort() in that shard's port
/// registry, so sessions are completely unaware whether their arbiter is
/// local or global: Inform/Release/Complete/PauseAck pay the machine's
/// coordination latency to reach the stub, sit in its outbox until the
/// round's barrier, and are applied to the shared `ArbiterCore` in
/// deterministic (shard, seq) order with the barrier time as their decision
/// timestamp. Outbound commands pay the cluster's configured cross-shard
/// message latency and land strictly after the barrier, which keeps every
/// delivery inside the next round — the determinism argument of
/// src/sim/README.md ("only barrier-exchanged state crosses shards").

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "calciom/arbiter_core.hpp"
#include "calciom/flat_id_map.hpp"
#include "calciom/recovery.hpp"
#include "calciom/wire.hpp"
#include "mpi/port.hpp"
#include "sim/barrier_hook.hpp"
#include "sim/shard_affinity.hpp"
#include "sim/time.hpp"

namespace calciom::platform {
class Cluster;
}  // namespace calciom::platform

namespace calciom::fault {
class Injector;
}  // namespace calciom::fault

namespace calciom {

/// Shard-local endpoint of the global arbiter: absorbs arbiter-bound
/// traffic during a round into an outbox the barrier exchange drains.
class ArbiterStub {
 public:
  struct Message {
    /// Arrival order at this stub (shard-local, deterministic). The merge
    /// is (shard, seq)-ordered; arrival *times* are deliberately not kept —
    /// the barrier applies every message at the barrier instant.
    std::uint64_t seq = 0;
    std::uint32_t fromApp = 0;
    core::Message payload;
  };

  /// Claims msg::arbiterPort() in `ports` (the shard must not also run a
  /// local core::Arbiter).
  explicit ArbiterStub(mpi::PortRegistry& ports);
  ~ArbiterStub();
  ArbiterStub(const ArbiterStub&) = delete;
  ArbiterStub& operator=(const ArbiterStub&) = delete;

  /// Replaces `into` with the messages absorbed since the last drain, in
  /// arrival (seq) order. The two buffers are swapped, so the outbox keeps
  /// the caller's capacity instead of regrowing from empty every round.
  /// Barrier context only (CALCIOM_SHARD_CHECKS builds trap a drain from
  /// inside any shard loop): the outbox is round-local to the stub's shard
  /// and crosses shards exclusively at barriers.
  void drain(std::vector<Message>& into);

  [[nodiscard]] bool outboxEmpty() const noexcept { return outbox_.empty(); }

 private:
  mpi::PortRegistry& ports_;
  /// Rule-1 guard: only the stub's own shard loop appends to the outbox.
  sim::ShardAffinity affinity_;
  std::vector<Message> outbox_;
  std::uint64_t seq_ = 0;
};

/// Machine-wide arbiter over a sharded platform; see file comment. Owned by
/// the cluster it coordinates (install() registers it via adoptBarrierHook).
class GlobalArbiter final : public sim::BarrierHook {
 public:
  /// Creates the global arbiter over every shard of `cluster`: registers an
  /// ArbiterStub on each shard's port registry, installs the arbiter as a
  /// barrier hook and hands ownership to the cluster. Call after cluster
  /// construction, before the first run. Commands pay the cluster's
  /// ClusterSpec::crossShardLatencySeconds.
  ///
  /// With leases configured the core's lease sweep runs at every barrier
  /// — the barrier period is the arbiter's tick, no separate timer needed;
  /// the checkpoint cadence is likewise checked at barriers.
  static GlobalArbiter& install(platform::Cluster& cluster,
                                std::unique_ptr<core::Policy> policy,
                                const core::ArbiterConfig& config = {});

  /// sim::BarrierHook: merge the round's stub outboxes into the decision
  /// core and schedule command deliveries. Returns whether any delivery was
  /// scheduled.
  bool onBarrier(sim::Time barrierTime) override;

  /// Horizon vote, a pure read of barrier-time state (determinism rule 7,
  /// src/sim/README.md): `now` — "fire every barrier" —
  /// whenever skipping one could be observable: any stub outbox holds
  /// traffic, scheduler events or dead-id bookkeeping are pending, the
  /// arbiter is down or recovering, or a feature that does per-round work
  /// (leases, checkpointing, fault injection — blackout draws hash the
  /// round number) is configured. Otherwise the arbiter is provably a
  /// no-op at this instant and votes one sync horizon out. That never
  /// *stretches* a round (the grid horizon `next + syncHorizon` is at
  /// least as late, since next >= now) — it only lets the cluster skip
  /// drain barriers that would merge nothing, keeping the exchange counter
  /// and every decision timestamp byte-identical to the fire-always
  /// cadence.
  sim::Time nextBarrierNeededBy(sim::Time now) override;

  /// Job-scheduler integration: the termination is applied at the next
  /// barrier, ordered before that barrier's message traffic. From that
  /// barrier on the id is *dead*: traffic from it is discarded at every
  /// later barrier too, because a message may still be in latency flight
  /// (or parked on a relay/forwarding hop) when the termination lands and
  /// only reach a stub one or more rounds later — a stale Inform merged
  /// then would re-register the dead job, grant it, and deadlock the queue
  /// behind an accessor that never completes.
  void onApplicationTerminated(std::uint32_t appId);

  /// Job-scheduler integration, the launch side: clears the dead marker for
  /// an application id the scheduler reuses (sequential campaigns). Only
  /// after this call is traffic from a previously terminated id merged
  /// again. Ids never terminated need no launch call. Applied at the next
  /// barrier in call order relative to terminations, so terminate+relaunch
  /// within one round revives the id (and launch+terminate kills it).
  void onApplicationLaunched(std::uint32_t appId);

  /// Wires the per-shard fault injectors (fault/injector.hpp) into the
  /// barrier exchange: `injectors[s]` decides shard s's stub blackouts and
  /// the fate of commands delivered into shard s (the same drop / delay /
  /// duplicate draws the message path uses). Non-owning; pass one pointer
  /// per shard (nullptr = no faults on that shard), or an empty vector to
  /// detach. The stubs themselves stay fault-free — faults happen on the
  /// wire (PortRegistry) and at the barrier, never inside the outbox.
  void setStubInjectors(std::vector<fault::Injector*> injectors);

  [[nodiscard]] const core::ArbiterCore& core() const noexcept {
    return host_.core();
  }
  /// Write access for taking the core's logs once the run is over.
  [[nodiscard]] core::ArbiterCore& core() noexcept { return host_.core(); }
  [[nodiscard]] const std::vector<core::DecisionRecord>& decisions()
      const noexcept {
    return core().decisions();
  }
  [[nodiscard]] std::size_t grantsIssued() const noexcept {
    return core().grantsIssued();
  }
  [[nodiscard]] std::size_t pausesIssued() const noexcept {
    return core().pausesIssued();
  }
  /// Shard an application was first heard on (routing table for replies);
  /// SIZE_MAX if the application never informed.
  [[nodiscard]] std::size_t shardOf(std::uint32_t appId) const noexcept;
  /// Barrier exchanges that merged at least one message or termination.
  [[nodiscard]] std::uint64_t exchanges() const noexcept { return exchanges_; }
  /// Messages merged into the core over the arbiter's lifetime.
  [[nodiscard]] std::uint64_t messagesMerged() const noexcept {
    return merged_;
  }
  [[nodiscard]] double crossShardLatency() const noexcept { return latency_; }
  /// Stub messages discarded because their shard was blacked out, plus
  /// commands dropped on delivery into a blacked-out shard.
  [[nodiscard]] std::uint64_t blackoutDiscarded() const noexcept {
    return blackoutDiscarded_;
  }

  // ---- Crash recovery -----------------------------------------------------

  /// Kills the arbiter process: from the next barrier on, stub traffic is
  /// drained and discarded (the relays cannot reach a dead arbiter) and no
  /// decision is taken, until restart(). Scheduler events queue up and are
  /// applied after the restart. Call from a barrier hook (or between runs)
  /// only — the same no-shard-running requirement as onBarrier itself.
  /// Idempotent.
  void crash();
  /// Restarts the crashed arbiter at barrier time `barrierTime`: restarts
  /// the host (ArbiterHost::restart: checkpoint + WAL, then the
  /// reconciliation window with a fresh arbiter incarnation), restores the
  /// checkpointed routing table and dead-id set, and delivers the resulting
  /// Recover commands. Same barrier-only calling convention as crash().
  void restart(sim::Time barrierTime);
  [[nodiscard]] bool down() const noexcept { return host_.down(); }
  [[nodiscard]] std::uint64_t restarts() const noexcept {
    return host_.restarts();
  }
  /// Stub messages drained-and-discarded while the arbiter was down.
  [[nodiscard]] std::uint64_t crashDiscarded() const noexcept {
    return crashDiscarded_;
  }
  /// The stable-storage model (checkpoint + WAL counters, for tests).
  [[nodiscard]] const core::CheckpointStore& checkpointStore() const noexcept {
    return host_.checkpointStore();
  }

  // ---- Dead-id set bounds (kDeadRetentionRounds) --------------------------

  /// Rounds a terminated-and-never-relaunched id is remembered in the
  /// dead-id discard set before eviction. Must comfortably exceed the worst
  /// in-flight delay measured in rounds (a fault-delayed message from a
  /// dead predecessor can only be discarded while the id is still
  /// remembered); beyond that, the incarnation fence (Message::incarnation)
  /// catches stamped stragglers on its own.
  static constexpr std::uint64_t kDeadRetentionRounds = 1024;

  [[nodiscard]] std::size_t deadSetSize() const noexcept {
    return dead_.size();
  }
  /// High-water mark of the dead-id set — the regression gate for bounded
  /// retention over month-scale replays.
  [[nodiscard]] std::size_t deadSetPeak() const noexcept { return deadPeak_; }
  [[nodiscard]] std::uint64_t deadEvicted() const noexcept {
    return deadEvicted_;
  }

 private:
  GlobalArbiter(platform::Cluster& cluster,
                std::unique_ptr<core::Policy> policy,
                const core::ArbiterConfig& config);

  platform::Cluster& cluster_;
  double latency_ = 0.0;
  core::ArbiterHost host_;
  std::vector<std::unique_ptr<ArbiterStub>> stubs_;  // one per shard
  /// Drain buffer of the merge, reused across stubs and barriers.
  std::vector<ArbiterStub::Message> drained_;
  /// Shard route of every app, refreshed on each contact.
  core::FlatIdMap<std::size_t> appShard_;
  /// Queued job-scheduler notifications, applied at the next barrier in
  /// call order (so terminate-then-relaunch of a reused id revives it).
  struct SchedulerEvent {
    std::uint32_t app = 0;
    bool termination = true;
  };
  std::vector<SchedulerEvent> pendingSchedulerEvents_;
  /// Marks `app` dead as of the current round and tracks the peak.
  void markDead(std::uint32_t app);
  /// Evicts dead-id entries older than kDeadRetentionRounds. A
  /// fault-delayed message from a dead predecessor can only be discarded
  /// while the id is remembered (regression: "IdReuseRacesDelayed
  /// PredecessorInform" in tests/global_arbiter_test.cpp), so retention
  /// must exceed the worst in-flight delay in rounds; past that, only the
  /// incarnation fence protects — which is exactly when it is redundant to
  /// keep remembering. Bounds the set over month-scale replays (tens of
  /// thousands of distinct terminated ids otherwise).
  void evictDead();
  /// Schedules delivery of every command in `scratch_` into its target
  /// shard (shared by onBarrier and restart). Returns whether any delivery
  /// was scheduled.
  bool deliverCommands(sim::Time barrierTime);

  /// Ids terminated and not since relaunched, with the round each was
  /// marked dead; their traffic is discarded while remembered. Bounded by
  /// eviction (kDeadRetentionRounds); `deadQueue_` keeps the
  /// insertion order the evictor walks. An id re-terminated after a
  /// relaunch gets a fresh entry; stale queue entries (relaunched, or
  /// superseded by a newer round) are skipped at eviction time.
  std::map<std::uint32_t, std::uint64_t> dead_;
  std::deque<std::pair<std::uint64_t, std::uint32_t>> deadQueue_;
  std::size_t deadPeak_ = 0;
  std::uint64_t deadEvicted_ = 0;
  /// Per-shard fault deciders (non-owning, may be empty / hold nullptrs).
  std::vector<fault::Injector*> injectors_;
  core::ArbiterCore::Commands scratch_;
  /// Delivery-grouping scratch (deliverCommands): command indices of
  /// scratch_ stably grouped by target shard, plus the list of shards
  /// touched this barrier. Reused across barriers to avoid per-round
  /// allocation.
  std::vector<std::vector<std::size_t>> shardGroups_;
  std::vector<std::size_t> touchedShards_;
  std::uint64_t exchanges_ = 0;
  std::uint64_t merged_ = 0;
  /// Barrier exchanges seen so far (the blackout round number: 1-based).
  std::uint64_t rounds_ = 0;
  std::uint64_t blackoutDiscarded_ = 0;
  std::uint64_t crashDiscarded_ = 0;
  /// Transport-side state checkpointed alongside the core (a restarted
  /// arbiter needs the routing table to address its Recover commands and
  /// the dead set to keep fencing stale traffic): the routing table and the
  /// dead-id set as of the last checkpoint.
  core::FlatIdMap<std::size_t> ckptRoutes_;
  std::map<std::uint32_t, std::uint64_t> ckptDead_;
  std::deque<std::pair<std::uint64_t, std::uint32_t>> ckptDeadQueue_;
};

}  // namespace calciom
