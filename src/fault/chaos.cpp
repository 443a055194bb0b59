#include "fault/chaos.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "calciom/arbiter.hpp"
#include "calciom/global_arbiter.hpp"
#include "calciom/session.hpp"
#include "io/hooks.hpp"
#include "mpi/port.hpp"
#include "platform/cluster.hpp"
#include "sim/barrier_hook.hpp"
#include "sim/contracts.hpp"
#include "sim/engine.hpp"
#include "sim/fingerprint.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/wall_timer.hpp"

namespace calciom::fault {

namespace {

using core::Session;
using core::SessionConfig;
using sim::Delay;
using sim::Engine;
using sim::Task;

/// Hash-indexed draw for plan derivation (distinct stream from the
/// injector's own decision hashes: different constant).
[[nodiscard]] std::uint64_t draw(std::uint64_t seed, std::uint64_t i) {
  return sim::mix64(sim::mix64(seed ^ 0xC4A05EEDull) ^ i);
}

io::PhaseInfo chaosPhase(std::uint32_t appId, const ChaosConfig& cfg) {
  io::PhaseInfo info;
  info.appId = appId;
  info.appName = "chaos" + std::to_string(appId);
  info.processes = 64;
  info.files = 1;
  info.roundsPerFile = cfg.roundsPerPhase;
  info.totalBytes = 1000;
  info.bytesPerRound =
      1000 / static_cast<std::uint64_t>(std::max(cfg.roundsPerPhase, 1));
  info.estimatedAloneSeconds = cfg.roundsPerPhase * cfg.roundSeconds;
  return info;
}

/// One synthetic application: staggered start, `phases` phases of
/// `roundsPerPhase` rounds, hooks driven like the real writer drives them.
/// Checks killed() after every suspension — a crash can land anywhere.
Task chaosApp(Engine& eng, Session& s, const ChaosConfig& cfg, int index,
              ChaosAppOutcome* out) {
  co_await Delay{cfg.startStaggerSeconds * index};
  for (int p = 0; p < cfg.phases; ++p) {
    if (s.killed()) {
      co_return;
    }
    if (p > 0) {
      co_await Delay{cfg.idleSeconds};
      if (s.killed()) {
        co_return;
      }
    }
    co_await eng.spawn(s.beginPhase(chaosPhase(s.config().appId, cfg)));
    if (s.killed()) {
      co_return;
    }
    for (int r = 0; r < cfg.roundsPerPhase; ++r) {
      co_await Delay{cfg.roundSeconds};
      if (s.killed()) {
        co_return;
      }
      ++out->roundsCompleted;
      if (r + 1 < cfg.roundsPerPhase) {
        co_await eng.spawn(s.roundBoundary(
            static_cast<double>(r + 1) /
            static_cast<double>(cfg.roundsPerPhase)));
        if (s.killed()) {
          co_return;
        }
      }
    }
    co_await eng.spawn(s.endPhase());
    ++out->phasesCompleted;
  }
  out->completed = true;
}

SessionConfig sessionConfig(std::uint32_t appId, int index,
                            const ChaosConfig& cfg) {
  SessionConfig sc;
  sc.appId = appId;
  sc.appName = "chaos" + std::to_string(appId);
  sc.cores = 32 + 32 * (index % 4);
  sc.granularity = core::HookGranularity::PerRound;
  if (cfg.hardened) {
    sc.heartbeatSeconds = ChaosConfig::kHeartbeatSeconds;
    sc.informRetrySeconds = ChaosConfig::kInformRetrySeconds;
    sc.degradeAfterSeconds = ChaosConfig::kDegradeAfterSeconds;
  }
  return sc;
}

void summarize(const core::ArbiterCore& core,
               const std::vector<std::unique_ptr<Session>>& sessions,
               double simSeconds, ChaosResult& out) {
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    ChaosAppOutcome& a = out.apps[i];
    a.killed = sessions[i]->killed();
    a.degradedPhases = sessions[i]->degradedPhases();
    if (!a.killed) {
      ++out.survivors;
      if (a.completed) {
        ++out.survivorsCompleted;
      }
    }
    if (a.degradedPhases > 0) {
      ++out.degradedSessions;
      if (!a.killed && !a.completed) {
        out.degradedAllCompleted = false;
      }
    }
    out.roundsCompleted += a.roundsCompleted;
  }
  out.arbiterIdle = core.idle();
  out.simSeconds = simSeconds;
  out.cpuSecondsWaited = core.cpuSecondsWaited();
  out.decisionCount = core.decisions().size();
  out.grants = core.grantsIssued();
  out.pauses = core.pausesIssued();
  out.leaseReclaims = core.leaseReclaims();
  out.maxConcurrentAccessors = core.maxConcurrentAccessors();
  out.grantLog = core.grantLog();
  out.decisions = core.decisions();
  out.snapshotEncoding = core::encodeSnapshot(core.snapshot(simSeconds));
  out.recoverCommandsIssued = core.recoverCommandsIssued();
  out.reinstatedAccessors = core.reinstatedAccessors();
  for (const auto& s : sessions) {
    out.recoverAnswers += s->recoverAnswers();
    out.staleArbiterCommands += s->staleArbiterCommands();
  }
  out.throughputRoundsPerSecond =
      simSeconds > 0.0 ? static_cast<double>(out.roundsCompleted) / simSeconds
                       : 0.0;
  sim::Fingerprint fp;
  for (const core::DecisionRecord& d : core.decisions()) {
    fp.foldString(core::toJson(d));
  }
  for (const core::GrantRecord& g : core.grantLog()) {
    char line[64];
    const int n = std::snprintf(line, sizeof line, "g %.9g %" PRIu32 " %c",
                                g.time, g.app, g.resume ? 'r' : 'g');
    fp.foldString({line, static_cast<std::size_t>(n)});
  }
  out.fingerprint = fp.value();
}

/// The arbiter settings of `cfg`, the same on both transports: leases,
/// audit and checkpointing when hardened, the bare protocol otherwise.
core::ArbiterConfig arbiterConfig(const ChaosConfig& cfg) {
  if (!cfg.hardened) {
    return {};
  }
  return core::ArbiterConfig{
      .leases = core::LeaseConfig{ChaosConfig::kLeaseSeconds,
                                  ChaosConfig::kCommandRetrySeconds},
      .auditInvariants = true,
      .checkpointEverySeconds = ChaosConfig::kCheckpointEverySeconds};
}

ChaosResult runSameEngine(const ChaosConfig& cfg) {
  Engine eng;
  mpi::PortRegistry ports(eng, ChaosConfig::kMessageLatencySeconds);
  Injector injector(cfg.plan, /*shard=*/0);
  if (cfg.installInjector) {
    ports.setDeliveryFilter(&injector);
  }
  core::Arbiter arbiter(eng, ports, core::makePolicy(cfg.policy),
                        arbiterConfig(cfg),
                        cfg.hardened ? ChaosConfig::kArbiterTickSeconds : 0.0);

  ChaosResult out;
  out.apps.resize(static_cast<std::size_t>(cfg.apps));
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < cfg.apps; ++i) {
    const auto appId = static_cast<std::uint32_t>(i + 1);
    sessions.push_back(
        std::make_unique<Session>(eng, ports, sessionConfig(appId, i, cfg)));
    eng.spawn(chaosApp(eng, *sessions.back(), cfg, i,
                       &out.apps[static_cast<std::size_t>(i)]));
  }
  for (const CrashSpec& c : cfg.plan.crashes) {
    if (c.app == 0 || c.app > static_cast<std::uint32_t>(cfg.apps)) {
      continue;
    }
    Session* victim = sessions[c.app - 1].get();
    eng.scheduleAt(c.at, [victim] { victim->kill(); });
    ++out.appCrashesInjected;
    if (c.reported) {
      // Scheduled second at the same timestamp: the scheduler notices the
      // death after the process is gone, never before.
      eng.scheduleAt(c.at, [&arbiter, app = c.app] {
        arbiter.onApplicationTerminated(app);
      });
    }
  }
  for (const ArbiterCrashSpec& a : cfg.plan.arbiterCrashes) {
    // Guarded: overlapping specs collapse into one outage (crash() is
    // idempotent and a restart only applies to a crashed arbiter).
    eng.scheduleAt(a.at, [&arbiter, &out] {
      if (!arbiter.down()) {
        arbiter.crash();
        ++out.arbiterCrashes;
      }
    });
    eng.scheduleAt(a.at + a.downSeconds, [&arbiter] {
      if (arbiter.down()) {
        arbiter.restart();
      }
    });
  }
  const sim::Stopwatch wall;
  eng.run();
  out.wallSeconds = wall.seconds();
  out.engineCpuSeconds = eng.stats().wallSeconds;
  summarize(arbiter.core(), sessions, eng.now(), out);
  out.messagesSeen = injector.messagesSeen();
  out.messagesDropped = injector.messagesDropped();
  out.messagesDelayed = injector.messagesDelayed();
  out.messagesDuplicated = injector.messagesDuplicated();
  out.messagesReordered = injector.messagesReordered();
  out.arbiterRestarts = arbiter.restarts();
  out.checkpoints = arbiter.checkpointStore().checkpoints();
  out.walAppended = arbiter.checkpointStore().walAppended();
  out.walDropped = arbiter.checkpointStore().walDropped();
  return out;
}

/// Barrier hook driving the cluster-side chaos plumbing:
///  * applies *reported* crashes to the global arbiter's job-scheduler
///    interface once their crash time has passed (at a barrier, the only
///    race-free place to touch the arbiter from outside shard loops);
///  * keeps the cluster's rounds alive while the core still holds state —
///    dead-silent apps produce no events, and the lease sweep only runs at
///    barriers — bounded by ChaosConfig::kMaxSimSeconds as a liveness-bug
///    backstop.
class ChaosDriver final : public sim::BarrierHook {
 public:
  /// One arbiter-process lifecycle edge, applied at the first barrier at or
  /// after its time — the only race-free place to kill or restart the
  /// arbiter on a sharded platform.
  struct ArbiterEvent {
    sim::Time at = 0.0;
    bool restartEdge = false;  ///< false = crash, true = restart
  };

  ChaosDriver(platform::Cluster& cluster, GlobalArbiter& arbiter,
              std::vector<CrashSpec> reported,
              std::vector<ArbiterEvent> arbiterEvents, double stepSeconds)
      : cluster_(cluster),
        arbiter_(arbiter),
        reported_(std::move(reported)),
        arbiterEvents_(std::move(arbiterEvents)),
        stepSeconds_(stepSeconds) {
    // Time order, crash edges before restart edges at equal times, so an
    // outage shorter than one round still crashes-then-recovers in order.
    std::stable_sort(arbiterEvents_.begin(), arbiterEvents_.end(),
                     [](const ArbiterEvent& a, const ArbiterEvent& b) {
                       return a.at != b.at ? a.at < b.at
                                           : !a.restartEdge && b.restartEdge;
                     });
  }

  bool onBarrier(sim::Time barrierTime) override {
    bool scheduled = false;
    for (CrashSpec& c : reported_) {
      if (c.app != 0 && c.at <= barrierTime) {
        arbiter_.onApplicationTerminated(c.app);
        c.app = 0;  // applied
        scheduled = true;
      }
    }
    while (nextArbiterEvent_ < arbiterEvents_.size() &&
           arbiterEvents_[nextArbiterEvent_].at <= barrierTime) {
      const ArbiterEvent& e = arbiterEvents_[nextArbiterEvent_++];
      // Guarded: overlapping outages collapse into one (crash() is
      // idempotent; a restart only applies to a down arbiter).
      if (!e.restartEdge && !arbiter_.down()) {
        arbiter_.crash();
        ++arbiterCrashesApplied_;
      } else if (e.restartEdge && arbiter_.down()) {
        arbiter_.restart(barrierTime);
        scheduled = true;
      }
    }
    const bool pendingReports = std::any_of(
        reported_.begin(), reported_.end(),
        [&](const CrashSpec& c) { return c.app != 0; });
    const bool pendingArbiter =
        nextArbiterEvent_ < arbiterEvents_.size() || arbiter_.down();
    if ((pendingReports || pendingArbiter || !arbiter_.core().idle()) &&
        barrierTime < ChaosConfig::kMaxSimSeconds) {
      // A no-op heartbeat event: forces another round so queued scheduler
      // events, the lease sweep, and pending arbiter lifecycle edges keep
      // executing on a drained cluster.
      cluster_.engine(0).scheduleAt(barrierTime + stepSeconds_, [] {});
      scheduled = true;
    }
    return scheduled;
  }

  [[nodiscard]] std::uint64_t arbiterCrashesApplied() const noexcept {
    return arbiterCrashesApplied_;
  }

 private:
  platform::Cluster& cluster_;
  GlobalArbiter& arbiter_;
  std::vector<CrashSpec> reported_;
  std::vector<ArbiterEvent> arbiterEvents_;
  std::size_t nextArbiterEvent_ = 0;
  std::uint64_t arbiterCrashesApplied_ = 0;
  double stepSeconds_;
};

ChaosResult runCluster(const ChaosConfig& cfg) {
  CALCIOM_EXPECTS(cfg.shards >= 1);
  platform::ClusterSpec spec;
  spec.name = "chaos";
  spec.shards = cfg.shards;
  spec.syncHorizonSeconds = cfg.syncHorizonSeconds;
  platform::Cluster cl(spec);

  std::vector<std::unique_ptr<Injector>> injectors;
  std::vector<Injector*> injectorPtrs;
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    injectors.push_back(std::make_unique<Injector>(cfg.plan, s));
    injectorPtrs.push_back(injectors.back().get());
    if (cfg.installInjector) {
      cl.machine(s).ports().setDeliveryFilter(injectors.back().get());
    }
  }

  GlobalArbiter& ga = GlobalArbiter::install(
      cl, core::makePolicy(cfg.policy), arbiterConfig(cfg));
  if (cfg.installInjector) {
    ga.setStubInjectors(injectorPtrs);
  }

  ChaosResult out;
  out.apps.resize(static_cast<std::size_t>(cfg.apps));
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < cfg.apps; ++i) {
    const auto appId = static_cast<std::uint32_t>(i + 1);
    const std::size_t shard = static_cast<std::size_t>(i) % cfg.shards;
    Engine& eng = cl.engine(shard);
    sessions.push_back(std::make_unique<Session>(
        eng, cl.machine(shard).ports(), sessionConfig(appId, i, cfg)));
    eng.spawn(chaosApp(eng, *sessions.back(), cfg, i,
                       &out.apps[static_cast<std::size_t>(i)]));
  }
  std::vector<CrashSpec> reported;
  for (const CrashSpec& c : cfg.plan.crashes) {
    if (c.app == 0 || c.app > static_cast<std::uint32_t>(cfg.apps)) {
      continue;
    }
    const std::size_t shard =
        static_cast<std::size_t>(c.app - 1) % cfg.shards;
    Session* victim = sessions[c.app - 1].get();
    cl.engine(shard).scheduleAt(c.at, [victim] { victim->kill(); });
    ++out.appCrashesInjected;
    if (c.reported) {
      reported.push_back(c);
    }
  }
  std::vector<ChaosDriver::ArbiterEvent> arbiterEvents;
  for (const ArbiterCrashSpec& a : cfg.plan.arbiterCrashes) {
    arbiterEvents.push_back({a.at, false});
    arbiterEvents.push_back({a.at + a.downSeconds, true});
  }
  ChaosDriver driver(cl, ga, std::move(reported), std::move(arbiterEvents),
                     cfg.syncHorizonSeconds);
  cl.addBarrierHook(&driver);

  const sim::Stopwatch wall;
  cl.run(cfg.workers);
  out.wallSeconds = wall.seconds();
  out.engineCpuSeconds = cl.stats().cpuSeconds;
  summarize(ga.core(), sessions, cl.maxShardClock(), out);
  for (const auto& inj : injectors) {
    out.messagesSeen += inj->messagesSeen();
    out.messagesDropped += inj->messagesDropped();
    out.messagesDelayed += inj->messagesDelayed();
    out.messagesDuplicated += inj->messagesDuplicated();
    out.messagesReordered += inj->messagesReordered();
  }
  out.blackoutDiscarded = ga.blackoutDiscarded();
  out.arbiterCrashes = driver.arbiterCrashesApplied();
  out.arbiterRestarts = ga.restarts();
  out.crashDiscarded = ga.crashDiscarded();
  out.checkpoints = ga.checkpointStore().checkpoints();
  out.walAppended = ga.checkpointStore().walAppended();
  out.walDropped = ga.checkpointStore().walDropped();
  return out;
}

}  // namespace

Plan chaosPlan(std::uint64_t seed, int apps) {
  CALCIOM_EXPECTS(apps >= 1);
  Plan plan;
  plan.seed = seed;
  // Shape draws; each index is an independent stream off the seed.
  constexpr double kDrop[] = {0.0, 0.02, 0.05, 0.10, 0.25};
  constexpr double kDelayP[] = {0.0, 0.10, 0.25};
  constexpr double kDelayMax[] = {0.05, 0.5, 2.0};
  constexpr double kDup[] = {0.0, 0.05, 0.15};
  constexpr double kReorder[] = {0.0, 0.10};
  constexpr double kBlackout[] = {0.0, 0.05, 0.15};
  plan.dropProbability = kDrop[draw(seed, 1) % 5];
  plan.delayProbability = kDelayP[draw(seed, 2) % 3];
  plan.maxDelaySeconds = kDelayMax[draw(seed, 3) % 3];
  plan.duplicateProbability = kDup[draw(seed, 4) % 3];
  plan.reorderProbability = kReorder[draw(seed, 5) % 2];
  plan.reorderDelaySeconds = 1.5e-3;  // ~1.5 message latencies: a real swap
  plan.blackoutProbability = kBlackout[draw(seed, 6) % 3];
  plan.blackoutRounds = 1 + static_cast<int>(draw(seed, 7) % 3);
  // Up to apps-1 crashes (at least one app always survives), spread over
  // the campaign's active window, each reported or silent.
  const int crashes = static_cast<int>(
      draw(seed, 8) % static_cast<std::uint64_t>(apps));
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < apps; ++i) {
    ids.push_back(static_cast<std::uint32_t>(i + 1));
  }
  for (int c = 0; c < crashes; ++c) {
    const std::uint64_t pick =
        draw(seed, 16 + static_cast<std::uint64_t>(c) * 3) % ids.size();
    CrashSpec spec;
    spec.app = ids[pick];
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
    const std::uint64_t tBits =
        draw(seed, 17 + static_cast<std::uint64_t>(c) * 3);
    spec.at = 0.25 + static_cast<double>(tBits % 1000) / 1000.0 * 6.0;
    spec.reported =
        (draw(seed, 18 + static_cast<std::uint64_t>(c) * 3) & 1) != 0;
    plan.crashes.push_back(spec);
  }
  return plan;
}

Plan withArbiterCrash(Plan plan, std::uint64_t seed) {
  ArbiterCrashSpec spec;
  // Crash time inside the contended window (the campaign's starts and first
  // phases), downtime always far under kDegradeAfterSeconds. Distinct draw
  // indices from chaosPlan()'s (which stop at 16 + 3*crashes <= 16 + 3*apps).
  const std::uint64_t tBits = draw(seed, 97);
  spec.at = 1.0 + static_cast<double>(tBits % 1000) / 1000.0 * 4.0;
  constexpr double kDown[] = {0.5, 1.2, 2.5};
  spec.downSeconds = kDown[draw(seed, 98) % 3];
  plan.arbiterCrashes.push_back(spec);
  return plan;
}

ChaosResult runChaos(const ChaosConfig& cfg) {
  CALCIOM_EXPECTS(cfg.apps >= 1);
  CALCIOM_EXPECTS(cfg.phases >= 1);
  CALCIOM_EXPECTS(cfg.roundsPerPhase >= 1);
  return cfg.transport == ChaosTransport::SameEngine ? runSameEngine(cfg)
                                                     : runCluster(cfg);
}

}  // namespace calciom::fault
