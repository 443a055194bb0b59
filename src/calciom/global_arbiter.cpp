#include "calciom/global_arbiter.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "fault/injector.hpp"
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

void GlobalArbiter::setStubInjectors(std::vector<fault::Injector*> injectors) {
  CALCIOM_EXPECTS(injectors.empty() || injectors.size() == stubs_.size());
  injectors_ = std::move(injectors);
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
    // A dead arbiter: the shard-local relays cannot forward, so the
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
  // delayed further on a relay/forwarding hop — when the termination lands
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
    const bool blackedOut = s < injectors_.size() &&
                            injectors_[s] != nullptr &&
                            injectors_[s]->stubBlackedOut(rounds_);
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
  // the fire-always cadence).
  if (host_.down() || core().recovering() ||
      !pendingSchedulerEvents_.empty() || !dead_.empty() ||
      !deadQueue_.empty() || !injectors_.empty() ||
      core().leases().enabled() || host_.checkpointing()) {
    return now;
  }
  for (const auto& stub : stubs_) {
    if (!stub->outboxEmpty()) {
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
  // Stable-group the commands by target shard. Stability is load-bearing
  // twice: the per-shard relative order fixes both the engine seq order of
  // the scheduled deliveries and the injector's per-shard message-index
  // sequence, so grouped delivery is bit-identical to a per-command loop —
  // the grouping only hoists route/engine/ports/blackout resolution and
  // the delivery timestamp to once per shard, and coalesces command
  // storage into one shared batch per shard instead of one closure-owned
  // copy per command.
  if (shardGroups_.size() < cluster_.shardCount()) {
    shardGroups_.resize(cluster_.shardCount());
  }
  for (auto& group : shardGroups_) {
    group.clear();
  }
  touchedShards_.clear();
  for (std::size_t c = 0; c < scratch_.size(); ++c) {
    const std::size_t* route = appShard_.find(scratch_[c].app);
    if (route == nullptr) {
      // Only reachable after a restart: the app's route was learned inside
      // the lost tail and the restored table predates it. Heal passively —
      // its next message (heartbeat, retry) refreshes the route and, while
      // the window is open, elicits a fresh Recover.
      continue;
    }
    if (shardGroups_[*route].empty()) {
      touchedShards_.push_back(*route);
    }
    shardGroups_[*route].push_back(c);
  }
  bool deliveredAny = false;
  // Deliver per shard. Scheduling happens on the barrier thread while no
  // shard loop runs (Engine::current() is null), so planting events into
  // foreign engines is race-free; commands keep their decision order
  // because same-timestamp events dispatch in scheduling order. Shard
  // visitation order is free — per-engine seq order depends only on the
  // per-shard subsequence, and injector counters are per shard.
  for (const std::size_t shard : touchedShards_) {
    const std::vector<std::size_t>& group = shardGroups_[shard];
    sim::Engine& eng = cluster_.engine(shard);
    mpi::PortRegistry& ports = cluster_.machine(shard).ports();
    // Delivery lands strictly after the barrier and pays the cross-shard
    // hop; a shard that skipped rounds may trail the barrier, so clamp to
    // its own clock.
    const sim::Time baseAt = std::max(barrierTime, eng.now()) + latency_;
    // Commands cross into the shard through the same faulty medium the
    // shard's sessions send through: ask its injector. deliverNow bypasses
    // the registry's DeliveryFilter by design (it is the barrier path), so
    // the consultation happens here, where the scheduled time can absorb
    // the injected delay. A stub blackout is a pure hash of the round
    // number — one verdict covers the whole group.
    fault::Injector* const injector =
        shard < injectors_.size() ? injectors_[shard] : nullptr;
    if (injector != nullptr && injector->stubBlackedOut(rounds_)) {
      blackoutDiscarded_ += group.size();  // the shard is unreachable both ways
      continue;
    }
    auto batch = std::make_shared<std::vector<core::ArbiterCommand>>();
    batch->reserve(group.size());
    for (const std::size_t c : group) {
      const core::ArbiterCommand& cmd = scratch_[c];
      sim::Time at = baseAt;
      if (injector != nullptr) {
        const mpi::DeliveryFilter::Verdict v = injector->onSend(
            core::msg::appPort(cmd.app), 0, core::encodeCommand(cmd));
        if (v.duplicate) {
          // The copy first (smaller seq), matching the filtered send path.
          eng.scheduleAt(at + std::max(v.duplicateExtraDelaySeconds, 0.0),
                         [&ports, cmd] {
                           ports.deliverNow(core::msg::appPort(cmd.app),
                                            /*fromApp=*/0,
                                            core::encodeCommand(cmd));
                         });
        }
        if (v.drop) {
          continue;
        }
        at += std::max(v.extraDelaySeconds, 0.0);
      }
      const std::size_t idx = batch->size();
      batch->push_back(cmd);
      // One engine event per command, on purpose: event counts, queue
      // depths, and same-instant seq interleaving are part of the
      // deterministic observable surface, so a single merged event per
      // shard is not an option — the coalescing lives in the shared batch
      // storage and the registry's memoized resolution. The command is
      // encoded, and its port named, only when it lands.
      eng.scheduleAt(at, [&ports, batch, idx] {
        const core::ArbiterCommand& entry = (*batch)[idx];
        // The hop latency is already in the event's timestamp; deliverNow
        // must not add a second one.
        ports.deliverNow(core::msg::appPort(entry.app), /*fromApp=*/0,
                         core::encodeCommand(entry));
      });
      deliveredAny = true;
    }
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
