#include "analysis/replay.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/cluster_scenario.hpp"
#include "calciom/arbiter.hpp"
#include "mpi/port.hpp"
#include "platform/cluster.hpp"
#include "sim/contracts.hpp"
#include "sim/engine.hpp"
#include "sim/json.hpp"
#include "sim/task.hpp"

namespace calciom::analysis::replay {

namespace {

/// Session-side counters summed over completed jobs (the Sessions
/// themselves die with their job coroutine, keeping live state bounded by
/// the running set).
struct Aggregates {
  std::uint64_t jobs = 0;
  double waitSeconds = 0.0;
  double pausedSeconds = 0.0;
  std::uint64_t pausesHonored = 0;
};

/// One job's coordinated write phase: the job's full hook protocol (Inform
/// / wait / round boundaries / Complete) against whatever arbiter owns the
/// registry's arbiter port. Owns its Session so the app's port closes — and
/// its memory returns — the moment the job finishes.
sim::Task traceJob(sim::Engine& eng, std::unique_ptr<core::Session> session,
                   TraceIoShape shape, workload::SwfJob job,
                   Aggregates* agg) {
  const double phase = shape.phaseSeconds(job);
  const int rounds = std::max(1, shape.roundsPerPhase);
  io::PhaseInfo info;
  info.appId = static_cast<std::uint32_t>(job.jobId);
  info.appName = session->config().appName;
  info.processes = job.processors;
  info.files = 1;
  info.roundsPerFile = rounds;
  info.totalBytes =
      static_cast<std::uint64_t>(job.processors) * shape.bytesPerCore;
  info.bytesPerRound = info.totalBytes / static_cast<std::uint64_t>(rounds);
  info.estimatedAloneSeconds = phase;
  co_await eng.spawn(session->beginPhase(info));
  for (int r = 0; r < rounds; ++r) {
    co_await sim::Delay{phase / rounds};
    if (r + 1 < rounds) {
      co_await eng.spawn(session->roundBoundary(
          static_cast<double>(r + 1) / static_cast<double>(rounds)));
    }
  }
  co_await eng.spawn(session->endPhase());
  agg->jobs += 1;
  agg->waitSeconds += session->waitSeconds();
  agg->pausedSeconds += session->pausedSeconds();
  agg->pausesHonored += static_cast<std::uint64_t>(session->pausesHonored());
}

/// Creates the job's Session (capture wired) and spawns its phase. Runs
/// inside `eng`'s event loop at the job's start time.
void launchJob(sim::Engine& eng, mpi::PortRegistry& ports,
               const ReplayConfig& cfg, const workload::SwfJob& job,
               core::EventLog* log, Aggregates* agg) {
  auto session = std::make_unique<core::Session>(
      eng, ports,
      core::SessionConfig{
          .appId = static_cast<std::uint32_t>(job.jobId),
          .appName = "job" + std::to_string(job.jobId),
          .cores = job.processors,
          .granularity = cfg.granularity});
  session->captureTo(log);
  eng.spawn(traceJob(eng, std::move(session), cfg.io, job, agg));
}

/// Single-engine feeder: a chain of events, each launching one job at its
/// start time and scheduling the next — the stream is pulled one job ahead,
/// never materialized.
struct SessionFeeder {
  sim::Engine& eng;
  mpi::PortRegistry& ports;
  const ReplayConfig& cfg;
  workload::IntrepidStream stream;
  core::EventLog log;
  Aggregates agg;
  std::uint64_t injected = 0;
  double firstStart = 0.0;

  void scheduleNext() {
    std::optional<workload::SwfJob> job = stream.next();
    if (!job.has_value()) {
      return;
    }
    if (injected == 0) {
      firstStart = job->startSeconds();
    }
    ++injected;
    // max(now, start): reconstructed starts (submit + wait) can sit a few
    // ulps below the previous start, and the engine rejects scheduling
    // into the past.
    eng.scheduleAt(std::max(eng.now(), job->startSeconds()),
                   [this, job = *job] {
                     launchJob(eng, ports, cfg, job, &log, &agg);
                     scheduleNext();
                   });
  }
};

/// Cluster feeder: the job-scheduler side of the paper's §III-C ("the list
/// of running applications comes from the machine's job scheduler"),
/// implemented as a barrier hook. At every sync-horizon barrier it injects
/// — round-robin over the compute shards — every job starting inside the
/// next round's window, so live state stays bounded by one window plus the
/// running set. Injected launches land strictly after the barrier (job
/// starts are start-ordered and every already-injected start precedes the
/// next window), so determinism rule 4 of src/sim/README.md holds and the
/// replay is bit-identical for any worker count.
class TraceFeeder final : public sim::BarrierHook {
 public:
  explicit TraceFeeder(const ReplayConfig& cfg)
      : cfg_(cfg), stream_(cfg.model) {}

  void attach(platform::Cluster& cluster) {
    cluster_ = &cluster;
    horizon_ = cluster.spec().syncHorizonSeconds;
    logs_.resize(cfg_.computeShards);
    for (auto& log : logs_) {
      log = std::make_unique<core::EventLog>();
    }
    aggs_.resize(cfg_.computeShards);
    pending_ = stream_.next();
    if (pending_.has_value()) {
      firstStart_ = pending_->startSeconds();
    }
  }

  bool onBarrier(sim::Time barrierTime) override {
    bool scheduled = false;
    while (pending_.has_value()) {
      // Inject everything the next round can reach: its window is
      // [nextEventTime, nextEventTime + horizon], and injecting may pull
      // nextEventTime earlier, so re-evaluate each iteration. With all
      // queues drained the pending job itself defines the next round.
      const sim::Time next = cluster_->nextEventTime();
      if (next != sim::kNever &&
          pending_->startSeconds() > next + horizon_) {
        break;
      }
      inject(*pending_, barrierTime);
      pending_ = stream_.next();
      scheduled = true;
    }
    return scheduled;
  }

  /// Moves every shard's log into one merged stream (one k-way pass, each
  /// event moved once); the logs are empty afterwards.
  [[nodiscard]] std::vector<core::CapturedEvent> releaseMerged() {
    std::vector<std::vector<core::CapturedEvent>> logs;
    logs.reserve(logs_.size());
    for (const auto& log : logs_) {
      logs.push_back(log->release());
    }
    return core::mergeEventLogs(std::move(logs));
  }

  [[nodiscard]] Aggregates totals() const {
    Aggregates out;
    for (const Aggregates& a : aggs_) {
      out.jobs += a.jobs;
      out.waitSeconds += a.waitSeconds;
      out.pausedSeconds += a.pausedSeconds;
      out.pausesHonored += a.pausesHonored;
    }
    return out;
  }
  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }
  [[nodiscard]] double firstStart() const noexcept { return firstStart_; }
  [[nodiscard]] std::size_t peakBuffered() const noexcept {
    return stream_.peakBuffered();
  }

 private:
  void inject(const workload::SwfJob& job, sim::Time barrierTime) {
    const std::size_t shard = injected_ % cfg_.computeShards;
    ++injected_;
    sim::Engine& eng = cluster_->engine(shard);
    mpi::PortRegistry* ports = &cluster_->machine(shard).ports();
    core::EventLog* log = logs_[shard].get();
    Aggregates* agg = &aggs_[shard];
    const ReplayConfig* cfg = &cfg_;
    // max(barrierTime, start): the barrier-time induction keeps un-injected
    // starts ahead of the barrier, but reconstructed starts can regress a
    // few ulps below the previous one, so clamp like the session feeder —
    // against the barrier, not the shard clock, which may trail the barrier
    // when sparse activation skipped this shard's recent rounds.
    eng.scheduleAt(std::max(barrierTime, job.startSeconds()),
                   [&eng, ports, cfg, job, log, agg] {
                     launchJob(eng, *ports, *cfg, job, log, agg);
                   });
  }

  const ReplayConfig& cfg_;
  workload::IntrepidStream stream_;
  platform::Cluster* cluster_ = nullptr;
  sim::Time horizon_ = 0.0;
  std::optional<workload::SwfJob> pending_;
  std::vector<std::unique_ptr<core::EventLog>> logs_;
  std::vector<Aggregates> aggs_;
  std::uint64_t injected_ = 0;
  double firstStart_ = 0.0;
};

[[nodiscard]] constexpr std::size_t actionIndex(core::Action a) noexcept {
  return static_cast<std::size_t>(a);
}

}  // namespace

double TraceIoShape::phaseSeconds(const workload::SwfJob& job) const {
  CALCIOM_EXPECTS(ioFraction > 0.0 && ioFraction <= 1.0);
  CALCIOM_EXPECTS(minPhaseSeconds > 0.0);
  CALCIOM_EXPECTS(maxPhaseSeconds >= minPhaseSeconds);
  CALCIOM_EXPECTS(roundsPerPhase >= 1);
  return std::clamp(ioFraction * job.runSeconds, minPhaseSeconds,
                    maxPhaseSeconds);
}

bool DivergenceReport::exactlyZero() const noexcept {
  return firstDivergenceIndex == -1 && onlineGrants == oracleGrants &&
         unmatchedGrants == 0 && grantKindMismatches == 0 &&
         grantTimeL1DriftSeconds == 0.0 && cpuSecondsWaitedDelta == 0.0;
}

OracleSchedule oracleReplay(const std::vector<core::CapturedEvent>& events,
                            core::PolicyKind policy, double hopLatencySeconds,
                            core::DynamicOptions dynamicOptions) {
  CALCIOM_EXPECTS(hopLatencySeconds >= 0.0);
  core::ArbiterCore core(
      core::makePolicy(policy, nullptr, dynamicOptions));
  core::ArbiterCore::Commands commands;
  for (const core::CapturedEvent& e : events) {
    core.onMessage(e.time + hopLatencySeconds, e.app, e.payload, commands);
    // The oracle has no transport: commands go nowhere. The captured
    // stream already contains the application side's actual responses.
    commands.clear();
  }
  OracleSchedule out;
  out.decisions = core.releaseDecisions();
  out.grants = core.releaseGrantLog();
  out.grantsIssued = core.grantsIssued();
  out.pausesIssued = core.pausesIssued();
  out.cpuSecondsWaited = core.cpuSecondsWaited();
  return out;
}

DivergenceReport computeDivergence(
    const std::vector<core::DecisionRecord>& onlineDecisions,
    const std::vector<core::GrantRecord>& onlineGrants,
    double onlineCpuSecondsWaited, const OracleSchedule& oracle) {
  DivergenceReport r;
  r.onlineDecisions = onlineDecisions.size();
  r.oracleDecisions = oracle.decisions.size();
  r.comparedDecisions = std::min(r.onlineDecisions, r.oracleDecisions);
  for (std::size_t i = 0; i < r.comparedDecisions; ++i) {
    const core::DecisionRecord& a = oracle.decisions[i];
    const core::DecisionRecord& b = onlineDecisions[i];
    const bool requesterOk = a.requester == b.requester;
    const bool actionOk = a.action == b.action;
    const bool accessorsOk = a.accessors == b.accessors;
    if (requesterOk) {
      ++r.actionMatrix[actionIndex(a.action)][actionIndex(b.action)];
    } else {
      ++r.requesterMismatches;
    }
    if (!actionOk) {
      ++r.actionDisagreements;
    }
    if (!accessorsOk) {
      ++r.accessorMismatches;
    }
    if (requesterOk && actionOk && accessorsOk) {
      ++r.decisionAgreements;
    } else if (r.firstDivergenceIndex < 0) {
      r.firstDivergenceIndex = static_cast<std::ptrdiff_t>(i);
    }
  }
  if (r.firstDivergenceIndex < 0 &&
      r.onlineDecisions != r.oracleDecisions) {
    r.firstDivergenceIndex =
        static_cast<std::ptrdiff_t>(r.comparedDecisions);
  }

  // Grant alignment, pinned semantics (see DivergenceReport::
  // unmatchedGrants): per app, pair the first min(oracle, online) grants
  // by occurrence index; the surplus on either side — including every
  // grant of an app the other stream never granted — counts as unmatched
  // and is excluded from the drift/kind metrics, which would otherwise
  // misattribute cross-app or cross-index gaps as timing drift.
  r.onlineGrants = onlineGrants.size();
  r.oracleGrants = oracle.grants.size();
  // Group each stream by app with a stable sort of pointers: apps come out
  // ascending and each app's grants keep their occurrence order, so one
  // merge walk pairs them and the drift sum runs in (app, occurrence)
  // order.
  const auto byApp = [](const std::vector<core::GrantRecord>& grants) {
    std::vector<const core::GrantRecord*> sorted;
    sorted.reserve(grants.size());
    for (const core::GrantRecord& g : grants) {
      sorted.push_back(&g);
    }
    std::stable_sort(
        sorted.begin(), sorted.end(),
        [](const core::GrantRecord* a, const core::GrantRecord* b) {
          return a->app < b->app;
        });
    return sorted;
  };
  const std::vector<const core::GrantRecord*> oracleSorted =
      byApp(oracle.grants);
  const std::vector<const core::GrantRecord*> onlineSorted =
      byApp(onlineGrants);
  // The end of the run of `app` starting at `from`.
  const auto runEnd = [](const std::vector<const core::GrantRecord*>& v,
                         std::size_t from, std::uint32_t app) {
    while (from < v.size() && v[from]->app == app) {
      ++from;
    }
    return from;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < oracleSorted.size() || j < onlineSorted.size()) {
    const bool oracleNext = j == onlineSorted.size() ||
                            (i < oracleSorted.size() &&
                             oracleSorted[i]->app <= onlineSorted[j]->app);
    const std::uint32_t app =
        oracleNext ? oracleSorted[i]->app : onlineSorted[j]->app;
    const std::size_t iEnd = runEnd(oracleSorted, i, app);
    const std::size_t jEnd = runEnd(onlineSorted, j, app);
    const std::size_t matched = std::min(iEnd - i, jEnd - j);
    r.matchedGrants += matched;
    r.unmatchedGrants += std::max(iEnd - i, jEnd - j) - matched;
    for (std::size_t k = 0; k < matched; ++k) {
      const core::GrantRecord& a = *oracleSorted[i + k];
      const core::GrantRecord& b = *onlineSorted[j + k];
      if (a.resume != b.resume) {
        ++r.grantKindMismatches;
      }
      const double drift = std::abs(b.time - a.time);
      r.grantTimeL1DriftSeconds += drift;
      r.grantTimeMaxDriftSeconds =
          std::max(r.grantTimeMaxDriftSeconds, drift);
    }
    i = iEnd;
    j = jEnd;
  }

  r.cpuSecondsWaitedOnline = onlineCpuSecondsWaited;
  r.cpuSecondsWaitedOracle = oracle.cpuSecondsWaited;
  r.cpuSecondsWaitedDelta = onlineCpuSecondsWaited - oracle.cpuSecondsWaited;
  return r;
}

std::string toJson(const DivergenceReport& r) {
  sim::Json json;
  json.object(sim::Json::Style::Inline)
      .num("online_decisions", r.onlineDecisions)
      .num("oracle_decisions", r.oracleDecisions)
      .num("compared_decisions", r.comparedDecisions)
      .num("first_divergence_index", r.firstDivergenceIndex)
      .num("decision_agreements", r.decisionAgreements)
      .num("requester_mismatches", r.requesterMismatches)
      .num("action_disagreements", r.actionDisagreements)
      .num("accessor_mismatches", r.accessorMismatches)
      .array("action_matrix");
  for (const auto& row : r.actionMatrix) {
    json.array();
    for (const std::uint64_t n : row) {
      json.num(n);
    }
    json.close();
  }
  json.close()
      .num("online_grants", r.onlineGrants)
      .num("oracle_grants", r.oracleGrants)
      .num("matched_grants", r.matchedGrants)
      .num("unmatched_grants", r.unmatchedGrants)
      .num("grant_kind_mismatches", r.grantKindMismatches)
      .precise("grant_time_l1_drift_s", r.grantTimeL1DriftSeconds)
      .precise("grant_time_max_drift_s", r.grantTimeMaxDriftSeconds)
      .precise("cpu_seconds_waited_online", r.cpuSecondsWaitedOnline)
      .precise("cpu_seconds_waited_oracle", r.cpuSecondsWaitedOracle)
      .precise("cpu_seconds_waited_delta", r.cpuSecondsWaitedDelta)
      .flag("exactly_zero", r.exactlyZero())
      .close();
  return std::move(json).take();
}

ReplayResult replaySession(const ReplayConfig& cfg) {
  CALCIOM_EXPECTS(cfg.messageLatencySeconds >= 0.0);
  sim::Engine eng;
  mpi::PortRegistry ports(eng, cfg.messageLatencySeconds);
  core::Arbiter arbiter(
      eng, ports, core::makePolicy(cfg.policy, nullptr, cfg.dynamicOptions));
  SessionFeeder feeder{eng, ports, cfg, workload::IntrepidStream(cfg.model)};
  feeder.scheduleNext();
  eng.run();

  ReplayResult out;
  out.decisions = arbiter.core().releaseDecisions();
  out.grants = arbiter.core().releaseGrantLog();
  out.grantsIssued = arbiter.grantsIssued();
  out.pausesIssued = arbiter.pausesIssued();
  out.cpuSecondsWaited = arbiter.core().cpuSecondsWaited();
  out.captured = feeder.log.release();  // month-scale: move, don't copy
  out.jobs = feeder.injected;
  out.peakStreamBuffered = feeder.stream.peakBuffered();
  out.engineEvents = eng.stats().processedEvents;
  out.engineCpuSeconds = eng.stats().wallSeconds;
  out.sessionWaitSeconds = feeder.agg.waitSeconds;
  out.sessionPausedSeconds = feeder.agg.pausedSeconds;
  out.pausesHonored = feeder.agg.pausesHonored;
  if (!out.captured.empty()) {
    out.traceSpanSeconds = out.captured.back().time - feeder.firstStart;
  }
  out.oracle = oracleReplay(out.captured, cfg.policy,
                            cfg.messageLatencySeconds, cfg.dynamicOptions);
  out.divergence = computeDivergence(out.decisions, out.grants,
                                     out.cpuSecondsWaited, out.oracle);
  return out;
}

ReplayResult replayCluster(const ReplayConfig& cfg) {
  CALCIOM_EXPECTS(cfg.computeShards >= 1);
  CALCIOM_EXPECTS(cfg.messageLatencySeconds >= 0.0);
  TraceFeeder feeder(cfg);

  ClusterScenarioConfig ccfg;
  ccfg.machine.name = "replay";
  ccfg.machine.coordinationLatencySeconds = cfg.messageLatencySeconds;
  ccfg.shards = cfg.computeShards + 1;  // + the (idle) storage shard
  ccfg.syncHorizonSeconds = cfg.syncHorizonSeconds;
  ccfg.policy = cfg.policy;
  ccfg.dynamicOptions = cfg.dynamicOptions;
  ccfg.granularity = cfg.granularity;
  ccfg.workers = cfg.workers;
  ccfg.prepare = [&feeder](platform::Cluster& cluster, GlobalArbiter*) {
    cluster.addBarrierHook(&feeder);
    feeder.attach(cluster);
  };
  ClusterRunResult run = runCluster(ccfg);

  ReplayResult out;
  out.decisions = std::move(run.decisions);
  out.grants = std::move(run.grantLog);
  out.grantsIssued = run.grantsIssued;
  out.pausesIssued = run.pausesIssued;
  out.cpuSecondsWaited = run.cpuSecondsWaited;
  out.captured = feeder.releaseMerged();  // month-scale: move, don't copy
  out.jobs = feeder.injected();
  out.peakStreamBuffered = feeder.peakBuffered();
  out.syncRounds = run.syncRounds;
  out.horizonSteps = run.horizonSteps;
  out.engineCpuSeconds = run.engineCpuSeconds;
  for (std::uint64_t e : run.shardEvents) {
    out.engineEvents += e;
  }
  const Aggregates agg = feeder.totals();
  out.sessionWaitSeconds = agg.waitSeconds;
  out.sessionPausedSeconds = agg.pausedSeconds;
  out.pausesHonored = agg.pausesHonored;
  if (!out.captured.empty()) {
    out.traceSpanSeconds = out.captured.back().time - feeder.firstStart();
  }
  out.oracle = oracleReplay(out.captured, cfg.policy,
                            cfg.messageLatencySeconds, cfg.dynamicOptions);
  out.divergence = computeDivergence(out.decisions, out.grants,
                                     out.cpuSecondsWaited, out.oracle);
  return out;
}

}  // namespace calciom::analysis::replay
