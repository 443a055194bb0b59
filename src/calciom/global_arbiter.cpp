#include "calciom/global_arbiter.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "platform/cluster.hpp"
#include "sim/contracts.hpp"
#include "sim/engine.hpp"

namespace calciom {

ArbiterStub::ArbiterStub(mpi::PortRegistry& ports)
    : ports_(ports), affinity_(&ports.engine()) {
  CALCIOM_EXPECTS(!ports_.hasPort(core::msg::arbiterPort()));
  ports_.openPort(core::msg::arbiterPort(),
                  [this](std::uint32_t from, core::Message payload) {
                    // Deliveries land on the owning shard's engine, so this
                    // only fires from its loop; the guard documents — and in
                    // CALCIOM_SHARD_CHECKS builds traps — any future path
                    // that invokes the handler from a foreign loop.
                    affinity_.check("calciom::ArbiterStub outbox append");
                    outbox_.push_back(
                        Message{seq_++, from, std::move(payload)});
                  });
}

ArbiterStub::~ArbiterStub() { ports_.closePort(core::msg::arbiterPort()); }

void ArbiterStub::drain(std::vector<Message>& into) {
  sim::ShardAffinity::checkBarrierContext("calciom::ArbiterStub::drain");
  into.clear();
  into.swap(outbox_);
}

GlobalArbiter::GlobalArbiter(platform::Cluster& cluster,
                             std::unique_ptr<core::Policy> policy,
                             const core::ArbiterConfig& config)
    : cluster_(cluster),
      latency_(cluster.spec().crossShardLatencySeconds),
      host_(std::move(policy), config) {
  stubs_.reserve(cluster_.shardCount());
  for (std::size_t s = 0; s < cluster_.shardCount(); ++s) {
    stubs_.push_back(
        std::make_unique<ArbiterStub>(cluster_.machine(s).ports()));
  }
}

GlobalArbiter& GlobalArbiter::install(platform::Cluster& cluster,
                                      std::unique_ptr<core::Policy> policy,
                                      const core::ArbiterConfig& config) {
  auto arbiter = std::unique_ptr<GlobalArbiter>(
      new GlobalArbiter(cluster, std::move(policy), config));
  GlobalArbiter& ref = *arbiter;
  cluster.adoptBarrierHook(std::move(arbiter));
  return ref;
}

void GlobalArbiter::onApplicationTerminated(std::uint32_t appId) {
  pendingSchedulerEvents_.push_back({appId, /*termination=*/true});
}

void GlobalArbiter::onApplicationLaunched(std::uint32_t appId) {
  pendingSchedulerEvents_.push_back({appId, /*termination=*/false});
}

std::size_t GlobalArbiter::shardOf(std::uint32_t appId) const noexcept {
  const std::size_t* shard = appShard_.find(appId);
  return shard == nullptr ? static_cast<std::size_t>(-1) : *shard;
}

void GlobalArbiter::markDead(std::uint32_t app) {
  if (dead_.insert_or_assign(app, rounds_).second) {
    deadQueue_.emplace_back(rounds_, app);
    deadPeak_ = std::max(deadPeak_, dead_.size());
  }
  // Re-termination of a still-remembered id refreshed its round in the map;
  // the old queue entry becomes stale and is skipped at eviction time (no
  // second queue entry, so the queue stays bounded by distinct insertions).
}

void GlobalArbiter::evictDead() {
  while (!deadQueue_.empty() &&
         deadQueue_.front().first + kDeadRetentionRounds < rounds_) {
    const auto [round, app] = deadQueue_.front();
    deadQueue_.pop_front();
    const auto it = dead_.find(app);
    if (it == dead_.end() || it->second != round) {
      continue;  // relaunched meanwhile, or refreshed by a re-termination
    }
    dead_.erase(it);
    ++deadEvicted_;
  }
}

bool GlobalArbiter::onBarrier(sim::Time barrierTime) {
  // The merge reads every shard's stub and schedules into foreign engines:
  // only legal when no shard loop runs (rule 4).
  sim::ShardAffinity::checkBarrierContext("calciom::GlobalArbiter::onBarrier");
  ++rounds_;
  evictDead();
  if (host_.down()) {
    // A dead arbiter: the shard-local stubs cannot forward, so the
    // round's traffic is lost on the floor (sessions ride it out through
    // retries and heartbeats, or degrade). Scheduler events stay queued —
    // the scheduler re-delivers its view once the process is back.
    for (const auto& stub : stubs_) {
      stub->drain(drained_);
      crashDiscarded_ += drained_.size();
    }
    return false;
  }
  scratch_.clear();
  bool mergedAny = false;
  // Scheduler events first: a barrier models one sampling instant, and the
  // job scheduler's view ("these jobs are gone") precedes their stale traffic —
  // so traffic from a terminated id is discarded below rather than merged
  // (a stale Inform would otherwise re-register the dead job, grant it, and
  // deadlock the queue behind an accessor that never completes). The id
  // stays in `dead_` across barriers: a message in latency flight — or
  // held back by an injected delay — when the termination lands
  // reaches its stub only in a later round, and must be discarded then too.
  // Only an explicit onApplicationLaunched (the scheduler reusing the id)
  // revives it.
  for (const SchedulerEvent& ev : pendingSchedulerEvents_) {
    if (ev.termination) {
      markDead(ev.app);
      host_.onTerminated(barrierTime, ev.app, scratch_);
      ++merged_;
      mergedAny = true;
    } else {
      // Relaunch of a reused id; call order decides, so a launch queued
      // after a same-round termination revives the id (and vice versa).
      dead_.erase(ev.app);
    }
  }
  pendingSchedulerEvents_.clear();
  // Merge the round's traffic in (shard, seq) order — deterministic because
  // each stub's outbox order is its shard's (deterministic) event order.
  for (std::size_t s = 0; s < stubs_.size(); ++s) {
    // An injected stub blackout loses the whole round for this shard —
    // everything the stub absorbed is discarded, never merged. Sessions
    // recover through retries / heartbeats like after any message loss.
    const bool blackedOut = cluster_.machine(s).ports().blackedOut(rounds_);
    stubs_[s]->drain(drained_);
    for (const ArbiterStub::Message& m : drained_) {
      if (blackedOut) {
        ++blackoutDiscarded_;
        continue;
      }
      if (dead_.contains(m.fromApp)) {
        continue;  // stale traffic from a terminated application
      }
      // Refresh the route on every contact: an app id reused on another
      // shard (sequential campaigns) must not inherit the old shard.
      appShard_.upsert(m.fromApp) = s;
      host_.onMessage(barrierTime, m.fromApp, m.payload, scratch_);
      ++merged_;
      mergedAny = true;
    }
  }
  if (mergedAny) {
    ++exchanges_;
  }
  // With leases configured the barrier doubles as the lease sweep: the
  // sync-horizon period is the global arbiter's natural tick.
  host_.core().onTick(barrierTime, scratch_);
  if (host_.maybeCheckpoint(barrierTime)) {
    ckptRoutes_ = appShard_;
    ckptDead_ = dead_;
    ckptDeadQueue_ = deadQueue_;
  }
  if (scratch_.empty()) {
    return false;
  }
  return deliverCommands(barrierTime);
}

sim::Time GlobalArbiter::nextBarrierNeededBy(sim::Time now) {
  // Conservative whenever a fired barrier could be observable. Each term
  // guards a side effect of onBarrier at this instant: merge work (stub
  // outboxes, scheduler events), dead-id bookkeeping (markDead discard
  // windows and round-numbered eviction), crash/recovery handling, the
  // lease sweep, the checkpoint cadence, and fault injection (blackout
  // draws hash the barrier round number, so the numbering itself must keep
  // the fire-always cadence; a shard's delivery filter is its injector).
  if (host_.down() || core().recovering() ||
      !pendingSchedulerEvents_.empty() || !dead_.empty() ||
      !deadQueue_.empty() || core().leases().enabled() ||
      host_.checkpointing()) {
    return now;
  }
  for (std::size_t s = 0; s < stubs_.size(); ++s) {
    if (!stubs_[s]->outboxEmpty() ||
        cluster_.machine(s).ports().hasDeliveryFilter()) {
      return now;
    }
  }
  // Quiescent: onBarrier now would merge nothing, tick nothing, deliver
  // nothing. Vote one sampling period out — never further, because the
  // next round absorbs new traffic the following barrier must merge. The
  // grid horizon `next + syncHorizon` is always at least this late
  // (next >= now), so this vote can only skip no-op drain barriers, never
  // stretch a round.
  return now + cluster_.spec().syncHorizonSeconds;
}

bool GlobalArbiter::deliverCommands(sim::Time barrierTime) {
  // Scheduling happens on the barrier thread while no shard loop runs
  // (Engine::current() is null), so planting events into foreign engines is
  // race-free. Commands keep their decision order within each shard, which
  // fixes both the engine's seq order for equal timestamps and the order in
  // which the shard's filter sees them.
  bool deliveredAny = false;
  for (const core::ArbiterCommand& cmd : scratch_) {
    const std::size_t* route = appShard_.find(cmd.app);
    if (route == nullptr) {
      // Only reachable after a restart: the app's route was learned inside
      // the lost tail and the restored table predates it. Heal passively —
      // its next message (heartbeat, retry) refreshes the route and, while
      // the window is open, elicits a fresh Recover.
      continue;
    }
    mpi::PortRegistry& ports = cluster_.machine(*route).ports();
    // A blacked-out shard is unreachable both ways. Checked before the
    // filter sees the command, so a blackout consumes no fault draw.
    if (ports.blackedOut(rounds_)) {
      ++blackoutDiscarded_;
      continue;
    }
    // Delivery lands strictly after the barrier and pays the cross-shard
    // hop; a shard that skipped rounds may trail the barrier, so clamp to
    // its own clock. The command crosses into the shard through the same
    // faulty medium the shard's sessions send through: its registry's
    // filter.
    const sim::Time at =
        std::max(barrierTime, ports.engine().now()) + latency_;
    deliveredAny |= ports.deliverAt(at, core::msg::appPort(cmd.app),
                                    /*fromApp=*/0, core::encodeCommand(cmd));
  }
  scratch_.clear();
  return deliveredAny;
}

void GlobalArbiter::crash() {
  sim::ShardAffinity::checkBarrierContext("calciom::GlobalArbiter::crash");
  host_.crash();
}

void GlobalArbiter::restart(sim::Time barrierTime) {
  sim::ShardAffinity::checkBarrierContext("calciom::GlobalArbiter::restart");
  scratch_.clear();
  host_.restart(barrierTime, scratch_);
  appShard_ = ckptRoutes_;
  dead_ = ckptDead_;
  deadQueue_ = ckptDeadQueue_;
  // Queued scheduler events (including any reported during the outage) are
  // merged by the next onBarrier, ordered before that round's traffic as
  // always. Only the Recover broadcast goes out now.
  deliverCommands(barrierTime);
}

}  // namespace calciom
