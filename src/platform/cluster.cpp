#include "platform/cluster.hpp"

#include <algorithm>
#include <utility>

#include "sim/rng.hpp"
#include "sim/shard_executor.hpp"

namespace calciom::platform {

Cluster::Cluster(ClusterSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  sim::SplitMix64 seeder(spec_.seed);
  shards_.reserve(spec_.shards);
  for (std::size_t i = 0; i < spec_.shards; ++i) {
    Shard s;
    s.engine = std::make_unique<sim::Engine>(seeder.next());
    MachineSpec ms = spec_.shard;
    ms.name = spec_.name + "/shard" + std::to_string(i);
    s.machine = std::make_unique<Machine>(*s.engine, std::move(ms));
    shards_.push_back(std::move(s));
  }
}

sim::Engine& Cluster::engine(std::size_t shard) {
  CALCIOM_EXPECTS(shard < shards_.size());
  return *shards_[shard].engine;
}

Machine& Cluster::machine(std::size_t shard) {
  CALCIOM_EXPECTS(shard < shards_.size());
  return *shards_[shard].machine;
}

sim::Time Cluster::nextEventTime() const noexcept {
  sim::Time next = sim::kNever;
  for (const Shard& s : shards_) {
    next = std::min(next, s.engine->nextEventTime());
  }
  return next;
}

bool Cluster::empty() const noexcept {
  return std::all_of(shards_.begin(), shards_.end(),
                     [](const Shard& s) { return s.engine->empty(); });
}

sim::Time Cluster::maxShardClock() const noexcept {
  sim::Time t = 0.0;
  for (const Shard& s : shards_) {
    t = std::max(t, s.engine->now());
  }
  return t;
}

void Cluster::addBarrierHook(sim::BarrierHook* hook) {
  CALCIOM_EXPECTS(hook != nullptr);
  hooks_.push_back(hook);
}

sim::BarrierHook& Cluster::adoptBarrierHook(
    std::unique_ptr<sim::BarrierHook> hook) {
  CALCIOM_EXPECTS(hook != nullptr);
  addBarrierHook(hook.get());
  ownedHooks_.push_back(std::move(hook));
  return *ownedHooks_.back();
}

bool Cluster::fireBarrierHooks(sim::Time barrierTime) {
  bool scheduled = false;
  for (sim::BarrierHook* hook : hooks_) {
    // No short-circuit: every hook sees every fired barrier.
    scheduled = hook->onBarrier(barrierTime) || scheduled;
  }
  if (scheduled) {
    ++barrierExchangesNonEmpty_;
  } else {
    ++barrierExchangesEmpty_;
  }
  return scheduled;
}

sim::Time Cluster::minBarrierVote(sim::Time now) const {
  sim::Time vote = sim::kNever;
  for (sim::BarrierHook* hook : hooks_) {
    const sim::Time v = hook->nextBarrierNeededBy(now);
#if defined(CALCIOM_SHARD_CHECKS)
    // Rule 7 probe: a horizon vote must be a pure function of simulated
    // state at the barrier. Ask twice — a hook that mutates state inside
    // its vote, or reads ambient entropy, disagrees with itself and would
    // silently skew every later barrier decision.
    if (hook->nextBarrierNeededBy(now) != v) {
      throw InvariantError(
          "impure horizon vote: nextBarrierNeededBy returned different "
          "values for the same barrier time (determinism rule 7, "
          "src/sim/README.md)");
    }
#endif
    vote = std::min(vote, v);
  }
  // Votes in the past mean "now": a hook cannot need a barrier earlier than
  // the present, and clamping keeps the horizon formula monotone.
  return std::max(vote, now);
}

void Cluster::runRounds(sim::Time limit, unsigned workers) {
  sim::ShardExecutor exec(workers);
  for (;;) {
    // The horizon is a pure function of simulated state at the barrier, so
    // the round sequence — and with it every shard's final clock — is
    // identical for any worker count.
    const sim::Time next = nextEventTime();
    if (next == sim::kNever || next > limit) {
      // Shard queues are drained (to `limit`), but barrier hooks may hold
      // undelivered cross-shard state (e.g. arbiter traffic absorbed by
      // stubs during the last round). Run a drain barrier at the latest
      // shard clock — unless every hook's vote says it would be a no-op; a
      // unanimous kNever (or any vote beyond the drain time) ends the loop
      // instead of firing forever. If nothing lands at or before `limit`,
      // we are done — later events stay queued for a future run.
      if (hooks_.empty()) {
        break;
      }
      const sim::Time drainTime = std::min(maxShardClock(), limit);
      if (minBarrierVote(drainTime) > drainTime) {
        ++barriersSkipped_;
        break;
      }
      if (!fireBarrierHooks(drainTime)) {
        break;
      }
      const sim::Time injected = nextEventTime();
      if (injected == sim::kNever || injected > limit) {
        break;
      }
      continue;
    }
    // Adaptive horizon: the grid step `next + syncHorizon`, stretched to the
    // earliest hook vote when every hook declares it needs no barrier before
    // then — quiescent stretches take one round instead of hundreds. Votes
    // never shrink the grid step (conservative hooks vote `now`, and
    // max(grid, vote) keeps the baseline cadence for them).
    const sim::Time gridHorizon = next + spec_.syncHorizonSeconds;
    sim::Time horizon = std::min(limit, gridHorizon);
    if (!hooks_.empty()) {
      horizon = std::min(limit,
                         std::max(gridHorizon, minBarrierVote(maxShardClock())));
    }
    // Sparse activation: dispatch only shards the horizon can reach. A
    // 16-shard round where one shard has work pays one engine call, not 16.
    // The work estimate expects each active shard to dispatch as many
    // events as on its last activation, and counts only what can overlap:
    // the busiest shard runs on some thread either way.
    activeScratch_.clear();
    std::uint64_t work = 0;
    std::uint64_t busiest = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& s = shards_[i];
      const sim::Time t = s.engine->nextEventTime();
      if (t != sim::kNever && t <= horizon) {
        activeScratch_.push_back(i);
        const std::uint64_t w =
            s.activated ? s.lastWork : s.engine->pendingEvents();
        work += w;
        busiest = std::max(busiest, w);
      }
    }
    // Non-empty by construction: the shard owning `next` qualifies.
    ++horizonSteps_;
    dispatchedShards_ += activeScratch_.size();
    if (activeScratch_.size() >= 2) {
      ++syncRounds_;
    } else {
      ++soloRounds_;
    }
    // An unbounded horizon (unanimous kNever votes with no limit) runs the
    // active shards to completion instead of to +infinity.
    const bool unbounded = horizon == sim::kNever;
    const bool pooled = exec.parallelFor(
        activeScratch_.size(),
        [&](std::size_t k) {
          Shard& shard = shards_[activeScratch_[k]];
          sim::Engine& eng = *shard.engine;
          const std::uint64_t before = eng.processedEvents();
          if (unbounded) {
            eng.run();
          } else if (eng.now() < horizon) {
            // A shard already at the horizon (possible only when it clamps
            // to `limit` the shard has reached) has nothing to do.
            eng.runUntil(horizon);
          }
          shard.lastWork = eng.processedEvents() - before;
          shard.activated = true;
        },
        static_cast<std::size_t>(work - busiest));
    if (pooled) {
      ++pooledRounds_;
    }
    const sim::Time barrierTime = unbounded ? maxShardClock() : horizon;
    lastHorizon_ = barrierTime;
    anyRoundRan_ = true;
    if (!hooks_.empty()) {
      // Fire-or-skip is all-or-nothing across hooks: a skipped barrier is
      // one *every* hook voted past, so skipping is a no-op for each of
      // them and per-hook invocation counts stay in lockstep.
      if (minBarrierVote(barrierTime) <= barrierTime) {
        fireBarrierHooks(barrierTime);
      } else {
        ++barriersSkipped_;
      }
    }
  }
  // Sparse activation leaves shards that skipped trailing rounds with
  // clocks behind the last horizon; align them so final clocks match the
  // dense-dispatch baseline bit-for-bit. Nothing runs: every exit path
  // above implies no pending event at or before lastHorizon_.
  if (anyRoundRan_) {
    for (Shard& s : shards_) {
      if (s.engine->now() < lastHorizon_) {
        s.engine->runUntil(lastHorizon_);
      }
    }
  }
}

void Cluster::run(unsigned workers) {
  runRounds(sim::kNever, workers);
}

void Cluster::runUntil(sim::Time t, unsigned workers) {
  runRounds(t, workers);
  // Align every clock to exactly t (cheap: queues hold nothing <= t now).
  for (Shard& s : shards_) {
    if (s.engine->now() < t) {
      s.engine->runUntil(t);
    }
  }
}

ClusterStats Cluster::stats() const noexcept {
  ClusterStats out;
  out.shards = shards_.size();
  out.syncRounds = syncRounds_;
  out.horizonSteps = horizonSteps_;
  out.soloRounds = soloRounds_;
  out.dispatchedShards = dispatchedShards_;
  out.barrierExchangesNonEmpty = barrierExchangesNonEmpty_;
  out.barrierExchangesEmpty = barrierExchangesEmpty_;
  out.barriersSkipped = barriersSkipped_;
  out.pooledRounds = pooledRounds_;
  for (const Shard& s : shards_) {
    const sim::EngineStats es = s.engine->stats();
    out.total.processedEvents += es.processedEvents;
    out.total.scheduledEvents += es.scheduledEvents;
    out.total.pendingEvents += es.pendingEvents;
    out.total.maxQueueDepth = std::max(out.total.maxQueueDepth,
                                       es.maxQueueDepth);
    out.total.dispatchBatches += es.dispatchBatches;
    out.total.wallSeconds = std::max(out.total.wallSeconds, es.wallSeconds);
    out.cpuSeconds += es.wallSeconds;
  }
  // Per-CPU-second rate: per-shard timers overlap under multiple workers
  // (and cover only a fraction of elapsed time under one), so neither their
  // max nor their sum is the campaign's wall time. Time the campaign
  // externally for wall-clock throughput (bench/perf_cluster.cpp does).
  out.total.eventsPerSecond =
      out.cpuSeconds > 0.0
          ? static_cast<double>(out.total.processedEvents) / out.cpuSeconds
          : 0.0;
  return out;
}

}  // namespace calciom::platform
