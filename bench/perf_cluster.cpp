// Benchmark of the sharded simulation core (platform::Cluster + batched
// equal-time dispatch).
//
// Seven tiers, all JSON on stdout (committed baseline: BENCH_cluster.json):
// serial_100k, cluster_1m, cluster_arbiter, cluster_fig04, cluster_fig09,
// cluster_fig10 and storage_2k, plus the `--smoke` CI tripwire.
//
//  * serial_100k — one shard, the exact 100k-flow scenario of
//    bench/perf_flownet.cpp's largest tier (same generator, same seed), run
//    through the Cluster path with one worker. Guards the acceptance
//    criterion that batched dispatch and the sync-horizon loop do not
//    regress the serial path vs BENCH_flownet.json.
//
//  * cluster_1m — 16 shards x 15625 workers x 4 transfers = 1,000,000 flows
//    simulated to completion, repeated at 1/2/4/8 worker threads. Records
//    wall seconds, speedup vs 1 worker, and a per-run fingerprint folding
//    every shard's event counters, final clock bits and per-resource
//    delivered-byte bits; the fingerprints must be identical across worker
//    counts (thread-count invariance) or the bench exits non-zero. The JSON
//    also records hardware_threads: on a 1-core container the speedup
//    column measures scheduling overhead, not parallelism. pooled_rounds
//    counts the rounds handed to the worker pool (0 at 1 worker); it is
//    the one per-run counter that varies with the worker count.
//
//  * storage_2k — 8 shards x 256 = 2048 cache-enabled storage servers fed
//    by synchronized periodic burst writers (collective-checkpoint shape:
//    bursts start at aligned times, so completion storms exercise
//    batched equal-time dispatch). Aggregates StorageServer::TransitionProfile to answer the
//    ROADMAP "cache/locality model at scale" question: is the per-server
//    transition-event reschedule hot at thousands of servers? The verdict
//    is recorded in src/net/README.md.
//
//  * cluster_arbiter — 16 shards x 4 coordinated applications each, three
//    I/O phases per app, arbitrated by a calciom::GlobalArbiter at the
//    sync-horizon barriers (Dynamic policy). Repeated at 1/2/4/8 workers;
//    the fingerprint additionally folds every DecisionRecord (time bits,
//    requester, accessor set, action, metric-cost bits), so a divergence in
//    *decisions* — not just in shard event streams — fails the bench.
//
//  * cluster_fig04 — machine-wide Figure 4: real io::CollectiveWriter
//    applications on two compute shards share one PFS on a storage shard
//    (platform::SharedStorageModel) under a GlobalArbiter; B in {8, 64,
//    336} cores against A = 336, g5k-nancy shard spec. Reports aggregate
//    throughput and B's slowdown; exits non-zero if the paper's shape (B=8
//    crushed, slowdown easing as B grows) is lost, if a run does not
//    complete, or if the decision-stream + delivered-bytes fingerprint
//    diverges across 1/2/4 workers.
//
//  * cluster_fig09 — machine-wide Figure 9: the three static policies
//    (interfering / FCFS / interruption) on the asymmetric 744/24 split,
//    g5k-rennes shard spec, B arriving second. Reports both applications'
//    interference factors; exits non-zero unless interruption rescues the
//    small app where FCFS strands it, at near-zero cost for the big one.
//
//  * cluster_fig10 — machine-wide Figure 10: interruption granularity on
//    the surveyor shard spec, A writing 4 files against B's one, B's start
//    swept over ~1.5 file periods with the hook between files or between
//    collective-buffering rounds. Exits non-zero unless round-level frees B
//    at every offset while file-level shows the paper's saw (B waits out
//    A's current file), or if the file-level dt=0 pair's fingerprint
//    diverges across 1/2 workers.
//
// `--smoke` runs a small cluster at 1 and 2 workers — once pure flows, once
// with the global arbiter in the loop, once as a machine-wide I/O campaign
// (writers on distinct shards, shared PFS, Interrupt policy) — and exits
// non-zero if fingerprints diverge or the runs do not complete: the CI
// tripwire for shard, cross-shard-coordination and shared-storage
// determinism. The pure-flows run at 2 workers must also hand at least one
// round to the worker pool (pooled_rounds > 0), so a work estimate that
// stops seeing work fails CI instead of silently serializing. It then
// replays the full cluster_arbiter tier once and gates on its recorded
// decision fingerprint plus at least a 2x multi-shard sync-round reduction
// vs the 389 pre-horizon grid barriers (the barrier-tax win must not
// silently regress).

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/cluster_scenario.hpp"
#include "bench/bench_util.hpp"
#include "bench/flow_scenarios.hpp"
#include "calciom/global_arbiter.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "io/hooks.hpp"
#include "io/pattern.hpp"
#include "net/flow_net.hpp"
#include "platform/cluster.hpp"
#include "platform/presets.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/wall_timer.hpp"
#include "storage/server.hpp"
#include "workload/ior.hpp"

namespace {

using benchutil::Fingerprint;
using benchutil::Json;
using calciom::GlobalArbiter;
using calciom::core::makePolicy;
using calciom::core::PolicyKind;
using calciom::core::Session;
using calciom::core::SessionConfig;
using calciom::net::FlowNet;
using calciom::net::ResourceId;
using calciom::platform::Cluster;
using calciom::platform::ClusterSpec;
using calciom::scenarios::burstWriter;
using calciom::scenarios::flowWorker;
using calciom::scenarios::FlowScenario;
using calciom::scenarios::makeClusteredScenario;
using calciom::sim::Engine;
using calciom::storage::StorageServer;

// ---------------------------------------------------------------------------
// Determinism fingerprint: FNV-1a over every shard's deterministic counters,
// clock bits and per-resource delivered-byte bits. wallSeconds is explicitly
// NOT folded in (it is the one nondeterministic EngineStats field).

std::uint64_t clusterFingerprint(Cluster& cl) {
  Fingerprint fp;
  for (std::size_t i = 0; i < cl.shardCount(); ++i) {
    Engine& eng = cl.engine(i);
    const auto es = eng.stats();
    fp.fold(es.processedEvents);
    fp.fold(es.scheduledEvents);
    fp.fold(es.pendingEvents);
    fp.fold(es.maxQueueDepth);
    fp.fold(es.dispatchBatches);
    fp.foldBits(eng.now());
    FlowNet& net = cl.machine(i).net();
    for (ResourceId r = 0;
         r < static_cast<ResourceId>(net.resourceCount()); ++r) {
      fp.foldBits(net.deliveredThrough(r));
    }
  }
  return fp.value();
}

/// Folds the global arbiter's whole decision stream on top of the shard
/// fingerprint: a coordination-layer divergence (different decision time,
/// requester, accessor set, action or dynamic-policy cost) changes the
/// fingerprint even when shard event counts happen to agree.
std::uint64_t arbiterFingerprint(Cluster& cl, const GlobalArbiter& ga) {
  Fingerprint fp;
  fp.fold(clusterFingerprint(cl));
  fp.fold(ga.grantsIssued());
  fp.fold(ga.pausesIssued());
  fp.fold(ga.messagesMerged());
  fp.fold(ga.exchanges());
  fp.foldDecisions(ga.decisions());
  return fp.value();
}

// ---------------------------------------------------------------------------
// Flow-scenario cluster runs.

struct FlowTier {
  std::size_t shards;
  int clustersPerShard;
  int workersPerShard;
  int flowsPerWorker;
  std::uint64_t seed;
};

struct RunResult {
  /// Externally timed elapsed seconds of the measured window.
  double wallSeconds = 0.0;
  /// ClusterStats::cpuSeconds over the same window: CPU burned inside
  /// shard loops, summed over shards. Reported next to wallSeconds, never
  /// added to it (see the ClusterStats doc: the per-shard timers overlap
  /// under workers and nest inside the external timer when serial).
  double cpuSeconds = 0.0;
  std::uint64_t events = 0;
  /// events / wallSeconds — wall-clock throughput, the scaling metric.
  double eventsPerSecond = 0.0;
  std::uint64_t dispatchBatches = 0;
  std::size_t maxQueueDepth = 0;
  std::uint64_t syncRounds = 0;
  std::uint64_t horizonSteps = 0;
  std::uint64_t soloRounds = 0;
  std::uint64_t dispatchedShards = 0;
  std::uint64_t exchangesNonEmpty = 0;
  std::uint64_t exchangesEmpty = 0;
  std::uint64_t barriersSkipped = 0;
  /// ClusterStats::pooledRounds over the window: rounds handed to the
  /// worker pool. Varies with the worker count, so never fingerprinted.
  std::uint64_t pooledRounds = 0;
  std::uint64_t fingerprint = 0;
  bool complete = false;
};

/// Runs `cl` to completion with `workers` threads under the external
/// timer and collects the run: counter deltas since `base`, the stats
/// snapshot at the start of the measured window (default-constructed for
/// whole-campaign tiers), the shard fingerprint and the completion flag.
RunResult timedRun(Cluster& cl, unsigned workers,
                   const calciom::platform::ClusterStats& base = {}) {
  const calciom::sim::Stopwatch wall;
  cl.run(workers);
  RunResult out;
  out.wallSeconds = wall.seconds();
  const auto stats = cl.stats();
  out.cpuSeconds = stats.cpuSeconds - base.cpuSeconds;
  out.events = stats.total.processedEvents - base.total.processedEvents;
  out.eventsPerSecond = out.wallSeconds > 0.0
                            ? static_cast<double>(out.events) / out.wallSeconds
                            : 0.0;
  out.dispatchBatches =
      stats.total.dispatchBatches - base.total.dispatchBatches;
  out.maxQueueDepth = stats.total.maxQueueDepth;
  out.syncRounds = stats.syncRounds - base.syncRounds;
  out.horizonSteps = stats.horizonSteps - base.horizonSteps;
  out.soloRounds = stats.soloRounds - base.soloRounds;
  out.dispatchedShards = stats.dispatchedShards - base.dispatchedShards;
  out.exchangesNonEmpty =
      stats.barrierExchangesNonEmpty - base.barrierExchangesNonEmpty;
  out.exchangesEmpty = stats.barrierExchangesEmpty - base.barrierExchangesEmpty;
  out.barriersSkipped = stats.barriersSkipped - base.barriersSkipped;
  out.pooledRounds = stats.pooledRounds - base.pooledRounds;
  out.fingerprint = clusterFingerprint(cl);
  out.complete = cl.empty();
  return out;
}

/// Builds the cluster for a tier, runs it to completion with `workers`
/// threads and collects counters. `warmup` simulated seconds run first —
/// with the same worker count, so thread-pool spin-up is paid before the
/// timer starts — and are excluded from the timed window so the window
/// sees full concurrency, mirroring perf_flownet's measurement.
RunResult runFlowTier(const FlowTier& tier, unsigned workers, double warmup) {
  ClusterSpec spec;
  spec.name = "bench";
  spec.shards = tier.shards;
  spec.seed = tier.seed;
  Cluster cl(spec);
  // Owner of per-shard resource-id tables; scenarios die with this scope.
  std::vector<std::vector<ResourceId>> res(tier.shards);
  std::vector<FlowScenario> scenarios;
  scenarios.reserve(tier.shards);
  for (std::size_t s = 0; s < tier.shards; ++s) {
    scenarios.push_back(makeClusteredScenario(tier.seed + s, tier.clustersPerShard,
                                          tier.workersPerShard,
                                          tier.flowsPerWorker));
    FlowNet& net = cl.machine(s).net();
    for (double cap : scenarios[s].capacities) {
      res[s].push_back(net.addResource(cap));
    }
    for (const calciom::scenarios::WorkerPlan& plan : scenarios[s].workers) {
      cl.engine(s).spawn(flowWorker(net, plan, res[s]));
    }
  }
  cl.runUntil(warmup, workers);
  // Baseline every windowed counter at the same point, so events, batches
  // and rounds all describe the post-warmup window and events/batches is a
  // meaningful storm size. (maxQueueDepth stays campaign-cumulative: a
  // high-water mark has no window.)
  return timedRun(cl, workers, cl.stats());
}

// ---------------------------------------------------------------------------
// Storage tier: synchronized periodic burst writers over cache-enabled
// servers, profiling the transition-event reschedule at fleet scale.

struct StorageTier {
  std::size_t shards = 8;
  int serversPerShard = 256;
  int appsPerServer = 2;
  int periods = 6;
  double periodSeconds = 10.0;
  std::uint64_t seed = 0x57024A6Eull;
};

struct StorageResult {
  RunResult run;
  std::uint64_t transitionsScheduled = 0;
  std::uint64_t transitionsFired = 0;
  std::uint64_t transitionsStale = 0;
  std::uint64_t totalScheduled = 0;
};

StorageResult runStorageTier(const StorageTier& tier, unsigned workers) {
  ClusterSpec spec;
  spec.name = "storage-bench";
  spec.shards = tier.shards;
  spec.seed = tier.seed;
  Cluster cl(spec);
  std::vector<std::vector<std::unique_ptr<StorageServer>>> servers(
      tier.shards);
  for (std::size_t s = 0; s < tier.shards; ++s) {
    Engine& eng = cl.engine(s);
    FlowNet& net = cl.machine(s).net();
    for (int i = 0; i < tier.serversPerShard; ++i) {
      StorageServer::Config cfg;
      cfg.nicBandwidth = 1e9;
      cfg.diskBandwidth = 50e6;
      cfg.cacheBytes = 64e6;
      cfg.localityAlpha = 0.4;
      servers[s].push_back(std::make_unique<StorageServer>(
          eng, net, cfg, "srv" + std::to_string(i)));
      for (int a = 0; a < tier.appsPerServer; ++a) {
        const auto app = static_cast<std::uint32_t>(i * tier.appsPerServer + a);
        eng.spawn(burstWriter(eng, net, servers[s].back()->ingress(), app,
                              tier.periods, tier.periodSeconds));
      }
    }
  }
  StorageResult out;
  out.run = timedRun(cl, workers);
  out.totalScheduled = cl.stats().total.scheduledEvents;
  for (auto& shard : servers) {
    for (auto& srv : shard) {
      const auto& prof = srv->transitionProfile();
      out.transitionsScheduled += prof.scheduled;
      out.transitionsFired += prof.fired;
      out.transitionsStale += prof.stale;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cross-shard coordination tier: synthetic coordinated applications (delay
// rounds, real Session/stub/barrier protocol) arbitrated by a
// GlobalArbiter. Measures the barrier-exchange layer, not the I/O model.

struct ArbiterTier {
  std::size_t shards = 16;
  int appsPerShard = 4;
  int phases = 3;
  int rounds = 6;
  double roundSeconds = 0.05;
};

struct ArbiterResult {
  RunResult run;
  std::uint64_t decisions = 0;
  std::uint64_t merged = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t grants = 0;
  std::uint64_t pauses = 0;
};

calciom::sim::Task coordinatedApp(Engine& eng, Session& session, int phases,
                                  int rounds, double roundSeconds,
                                  double startAt, double idleSeconds) {
  co_await calciom::sim::Delay{startAt};
  for (int p = 0; p < phases; ++p) {
    if (p > 0) {
      co_await calciom::sim::Delay{idleSeconds};
    }
    calciom::io::PhaseInfo info;
    info.appId = session.config().appId;
    info.appName = session.config().appName;
    info.processes = session.config().cores;
    info.files = 1;
    info.roundsPerFile = rounds;
    info.totalBytes = 1000;
    info.bytesPerRound = 1000 / static_cast<std::uint64_t>(rounds);
    info.estimatedAloneSeconds = rounds * roundSeconds;
    co_await eng.spawn(session.beginPhase(info));
    for (int r = 0; r < rounds; ++r) {
      co_await calciom::sim::Delay{roundSeconds};
      if (r + 1 < rounds) {
        co_await eng.spawn(session.roundBoundary(
            static_cast<double>(r + 1) / static_cast<double>(rounds)));
      }
    }
    co_await eng.spawn(session.endPhase());
  }
}

ArbiterResult runArbiterTier(const ArbiterTier& tier, unsigned workers) {
  ClusterSpec spec;
  spec.name = "arbiter-bench";
  spec.shards = tier.shards;
  spec.syncHorizonSeconds = 0.25;
  Cluster cl(spec);
  GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(PolicyKind::Dynamic));
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t s = 0; s < tier.shards; ++s) {
    Engine& eng = cl.engine(s);
    for (int a = 0; a < tier.appsPerShard; ++a) {
      const auto id = static_cast<std::uint32_t>(
          s * static_cast<std::size_t>(tier.appsPerShard) +
          static_cast<std::size_t>(a) + 1);
      sessions.push_back(std::make_unique<Session>(
          eng, cl.machine(s).ports(),
          SessionConfig{.appId = id,
                        .appName = "app" + std::to_string(id),
                        .cores = 32 + 32 * static_cast<int>(id % 4)}));
      // Staggered arrivals: enough overlap that the arbiter queues and
      // interrupts across shards every few barriers.
      const double start = 0.1 * static_cast<double>(id % 23);
      const double idle = 0.3 + 0.1 * static_cast<double>(id % 3);
      eng.spawn(coordinatedApp(eng, *sessions.back(), tier.phases,
                               tier.rounds, tier.roundSeconds, start, idle));
    }
  }
  ArbiterResult out;
  out.run = timedRun(cl, workers);
  out.run.fingerprint = arbiterFingerprint(cl, ga);
  out.decisions = ga.decisions().size();
  out.merged = ga.messagesMerged();
  out.exchanges = ga.exchanges();
  out.grants = ga.grantsIssued();
  out.pauses = ga.pausesIssued();
  return out;
}

// ---------------------------------------------------------------------------
// Machine-wide figure tiers: real writers on compute shards, one shared PFS
// on a storage shard, coordinated through the GlobalArbiter.

using calciom::analysis::ClusterAppPlan;
using calciom::analysis::ClusterRunResult;
using calciom::analysis::ClusterScenarioConfig;
using calciom::platform::MachineSpec;
using calciom::workload::AppStats;
using calciom::workload::IorConfig;

/// Folds everything deterministic about a machine-wide campaign: shard
/// event counts and clock bits, the delivered-byte total, the decision
/// stream (time/requester/accessors/action/cost bits), the cross-shard
/// request log, and every app's timing — the ISSUE 4 "decision-stream +
/// delivered-bytes" fingerprint.
std::uint64_t machineWideFingerprint(const ClusterRunResult& r) {
  Fingerprint fp;
  for (std::uint64_t e : r.shardEvents) {
    fp.fold(e);
  }
  for (double c : r.shardClocks) {
    fp.foldBits(c);
  }
  fp.foldBits(r.bytesDelivered);
  fp.fold(r.grantsIssued);
  fp.fold(r.pausesIssued);
  fp.fold(r.storage.requestsForwarded);
  fp.fold(r.storage.completionsForwarded);
  fp.foldDecisions(r.decisions);
  for (const calciom::platform::RequestTrace& t : r.requestLog) {
    fp.fold(t.appId);
    fp.fold(t.originShard);
    fp.foldBits(t.issueTime);
    fp.foldBits(t.dispatchTime);
    fp.foldBits(t.completeTime);
    fp.fold(t.bytes);
  }
  for (const AppStats& app : r.apps) {
    fp.foldBits(app.firstStart);
    fp.foldBits(app.lastEnd);
    fp.fold(app.totalBytes());
  }
  return fp.value();
}

/// Writers on distinct compute shards (the i-th on shard i), storage on
/// shard 2. An app runs alone on the same 3-shard platform (identical
/// exchange overheads, so alone/with ratios isolate interference), where
/// the policy is irrelevant.
ClusterRunResult runMachineWide(
    const MachineSpec& machine, const std::vector<IorConfig>& apps,
    unsigned workers, double syncHorizonSeconds,
    PolicyKind policy = PolicyKind::Fcfs,
    calciom::core::HookGranularity granularity =
        calciom::core::HookGranularity::PerRound) {
  ClusterScenarioConfig cfg;
  cfg.machine = machine;
  cfg.shards = 3;
  cfg.syncHorizonSeconds = syncHorizonSeconds;
  cfg.policy = policy;
  cfg.workers = workers;
  cfg.granularity = granularity;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    cfg.apps.push_back(ClusterAppPlan{apps[i], i});
  }
  return calciom::analysis::runCluster(cfg);
}

double appThroughput(const AppStats& app) {
  const double io = app.totalIoSeconds();
  return io > 0.0 ? static_cast<double>(app.totalBytes()) / io : 0.0;
}

// ---------------------------------------------------------------------------

/// One run's fields, written into the inline object the caller opened
/// (and closes, after any tier-specific extras such as speedup_vs_1).
Json& runFields(Json& json, unsigned workers, const RunResult& r) {
  // wall_s is the external timer, cpu_s the sum of shard-loop timers;
  // they are separate columns on purpose (RunResult::cpuSeconds).
  return json.num("workers", workers)
      .fixed("wall_s", r.wallSeconds, 6)
      .fixed("cpu_s", r.cpuSeconds, 6)
      .num("events", r.events)
      .fixed("events_per_s", r.eventsPerSecond, 0)
      .num("batches", r.dispatchBatches)
      .num("sync_rounds", r.syncRounds)
      .num("horizon_steps", r.horizonSteps)
      .num("solo_rounds", r.soloRounds)
      .num("dispatched_shards", r.dispatchedShards)
      .num("exchanges_nonempty", r.exchangesNonEmpty)
      .num("exchanges_empty", r.exchangesEmpty)
      .num("barriers_skipped", r.barriersSkipped)
      .num("pooled_rounds", r.pooledRounds)
      .num("max_queue_depth", r.maxQueueDepth)
      .hex("fingerprint", r.fingerprint)
      .flag("complete", r.complete);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeFlag(
      argc, argv,
      "  --smoke  small cluster at 1/2 workers; exit 1 unless\n"
      "           runs complete with identical fingerprints\n"
      "           and the 2-worker flow run uses the pool\n");

  // Workers start their first flow within the first 2.05 simulated seconds
  // (startDelay is uniform in [0, 2)); measuring from there sees the full
  // advertised concurrency. Matches perf_flownet.
  constexpr double kWarmup = 2.05;
  constexpr auto kInline = Json::Style::Inline;

  bool ok = true;
  Json json;
  benchutil::jsonHeader(json, "perf_cluster", smoke ? "smoke" : "full");

  if (smoke) {
    const FlowTier tier{4, 64, 1000, 2, 0xC1C10ull};
    const RunResult r1 = runFlowTier(tier, 1, kWarmup);
    const RunResult r2 = runFlowTier(tier, 2, kWarmup);
    json.object("smoke")
        .num("flows", static_cast<int>(tier.shards) * tier.workersPerShard *
                          tier.flowsPerWorker)
        .array("runs");
    runFields(json.object(kInline), 1, r1).close();
    runFields(json.object(kInline), 2, r2).close();
    json.close().close();
    const bool flowsOk =
        r1.complete && r2.complete && r1.fingerprint == r2.fingerprint;
    std::fprintf(stderr,
                 "smoke: fingerprints %016" PRIx64 " / %016" PRIx64 " -> %s\n",
                 r1.fingerprint, r2.fingerprint,
                 flowsOk ? "OK" : "DETERMINISM REGRESSION");
    // Parallel-path tripwire: four busy flow shards must hand at least one
    // round to the pool at 2 workers. A work estimate that stops seeing
    // work silently serializes every campaign; this makes it fail CI (and
    // keeps the TSan job running shard loops concurrently).
    const bool pooledOk = r1.pooledRounds == 0 && r2.pooledRounds > 0;
    std::fprintf(stderr,
                 "smoke: pooled rounds %" PRIu64 " / %" PRIu64 " -> %s\n",
                 r1.pooledRounds, r2.pooledRounds,
                 pooledOk ? "OK" : "PARALLEL PATH NEVER ENGAGED");
    // Same tripwire with the global arbiter in the loop: the fingerprint
    // folds every DecisionRecord, so cross-shard coordination must be
    // worker-count invariant too.
    const ArbiterTier atier{4, 2, 2, 4, 0.1};
    const ArbiterResult a1 = runArbiterTier(atier, 1);
    const ArbiterResult a2 = runArbiterTier(atier, 2);
    json.object("smoke_global_arbiter")
        .num("apps", static_cast<int>(atier.shards) * atier.appsPerShard)
        .num("decisions", a1.decisions)
        .array("runs");
    runFields(json.object(kInline), 1, a1.run).close();
    runFields(json.object(kInline), 2, a2.run).close();
    json.close().close();
    const bool arbiterOk = a1.run.complete && a2.run.complete &&
                           a1.run.fingerprint == a2.run.fingerprint &&
                           a1.decisions > 0;
    std::fprintf(stderr,
                 "smoke_global_arbiter: fingerprints %016" PRIx64
                 " / %016" PRIx64 " (%" PRIu64 " decisions) -> %s\n",
                 a1.run.fingerprint, a2.run.fingerprint, a1.decisions,
                 arbiterOk ? "OK" : "DETERMINISM REGRESSION");
    // Machine-wide I/O gate: two real writers on distinct compute shards,
    // one shared PFS on the storage shard, Interrupt policy. The
    // fingerprint folds the decision stream, the cross-shard request log
    // and delivered bytes, so a worker-count-dependent divergence anywhere
    // in the session / global-arbiter / shared-storage path fails CI.
    MachineSpec mw;
    mw.name = "smoke-mw";
    mw.totalCores = 512;
    mw.coresPerNode = 8;
    mw.streamNicBandwidth = calciom::net::kUnlimited;
    mw.interconnect = calciom::mpi::CommCosts{.latency = 1e-5,
                                              .bandwidthPerProcess = 100e6};
    mw.fs.serverCount = 4;
    mw.fs.server.nicBandwidth = 16e6;
    mw.fs.server.diskBandwidth = 16e6;
    mw.fs.queuePenaltySeconds = 0.0;
    mw.cbBufferBytes = 1ull << 20;
    IorConfig big;
    big.name = "A";
    big.processes = 64;
    big.pattern = calciom::io::contiguousPattern(2u << 20);
    IorConfig small;
    small.name = "B";
    small.processes = 16;
    small.pattern = calciom::io::contiguousPattern(1u << 20);
    small.startOffset = 0.8;
    const ClusterRunResult m1 =
        runMachineWide(mw, {big, small}, 1, 0.25, PolicyKind::Interrupt);
    const ClusterRunResult m2 =
        runMachineWide(mw, {big, small}, 2, 0.25, PolicyKind::Interrupt);
    const std::uint64_t mfp1 = machineWideFingerprint(m1);
    const std::uint64_t mfp2 = machineWideFingerprint(m2);
    json.object("smoke_machine_wide")
        .num("apps", 2)
        .num("decisions", m1.decisions.size())
        .num("pauses", m1.pausesIssued)
        .num("requests_forwarded", m1.storage.requestsForwarded)
        .fixed("bytes_delivered", m1.bytesDelivered, 0)
        .array("fingerprints", kInline).hex(mfp1).hex(mfp2).close()
        .close();
    const bool machineWideOk =
        mfp1 == mfp2 && m1.pausesIssued > 0 &&
        m1.storage.requestsForwarded > 0 &&
        m1.storage.requestsForwarded == m1.storage.completionsForwarded;
    std::fprintf(stderr,
                 "smoke_machine_wide: fingerprints %016" PRIx64
                 " / %016" PRIx64 " (%zu decisions, %zu pauses) -> %s\n",
                 mfp1, mfp2, m1.decisions.size(), m1.pausesIssued,
                 machineWideOk ? "OK" : "DETERMINISM REGRESSION");
    // Barrier-tax gate: the full cluster_arbiter tier at 1 worker, pinned
    // to its recorded decision fingerprint AND to at least a 2x reduction
    // in multi-shard sync rounds vs the 389 grid barriers the pre-horizon
    // loop executed. Catches both kinds of regression: a horizon-vote or
    // sparse-activation change that alters decisions (fingerprint moves),
    // and one that silently re-inflates the barrier tax (sync_rounds
    // creeps back toward one-per-grid-step).
    constexpr std::uint64_t kArbiterFingerprint = 0xcf240e6e58704590ULL;
    constexpr std::uint64_t kLegacyGridRounds = 389;
    const ArbiterResult gate = runArbiterTier(ArbiterTier{}, 1);
    const bool barrierTaxOk = gate.run.complete &&
                              gate.run.fingerprint == kArbiterFingerprint &&
                              gate.run.syncRounds * 2 <= kLegacyGridRounds;
    json.object("smoke_barrier_tax")
        .hex("expected_fingerprint", kArbiterFingerprint)
        .num("legacy_grid_rounds", kLegacyGridRounds);
    runFields(json.object("run", kInline), 1, gate.run).close();
    json.close().close();
    std::fprintf(stderr,
                 "smoke_barrier_tax: fingerprint %016" PRIx64
                 " (want %016" PRIx64 "), sync_rounds %" PRIu64
                 " (want <= %" PRIu64 ") -> %s\n",
                 gate.run.fingerprint, kArbiterFingerprint,
                 gate.run.syncRounds, kLegacyGridRounds / 2,
                 barrierTaxOk ? "OK" : "BARRIER TAX REGRESSION");
    ok = flowsOk && pooledOk && arbiterOk && machineWideOk && barrierTaxOk;
    return ok ? 0 : 1;
  }

  // --- serial parity: the BENCH_flownet 100k tier through the Cluster path.
  {
    // Seed 0xCA1C10F + 2 is literally what perf_flownet uses for its
    // 100k-flow tier, so the event stream is identical.
    const FlowTier tier{1, 2048, 100000, 2, 0xCA1C10Full + 2};
    const RunResult r = runFlowTier(tier, 1, kWarmup);
    json.object("serial_100k")
        .num("flows", 200000)
        .str("note", "perf_flownet 100k tier, cluster path, 1 worker");
    runFields(json.object("run", kInline), 1, r).close();
    json.close();
    ok = ok && r.complete;
  }

  // --- thread scaling at 1M flows.
  {
    const FlowTier tier{16, 512, 15625, 4, 0xC1A57E2ull};
    const std::vector<unsigned> counts = {1, 2, 4, 8};
    std::vector<RunResult> runs;
    runs.reserve(counts.size());
    for (unsigned w : counts) {
      runs.push_back(runFlowTier(tier, w, kWarmup));
    }
    json.object("cluster_1m")
        .num("flows", static_cast<int>(tier.shards) * tier.workersPerShard *
                          tier.flowsPerWorker)
        .num("shards", tier.shards)
        .array("runs");
    bool deterministic = true;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      ok = ok && r.complete;
      deterministic = deterministic && r.fingerprint == runs[0].fingerprint;
      const double speedup =
          r.wallSeconds > 0.0 ? runs[0].wallSeconds / r.wallSeconds : 0.0;
      runFields(json.object(kInline), counts[i], r)
          .fixed("speedup_vs_1", speedup, 2)
          .close();
    }
    // On a 1-hardware-thread container the speedup column measures
    // executor overhead, not parallelism (ROADMAP multi-core-baseline
    // caveat, machine-readable so dashboards cannot misread the curve).
    json.close()
        .flag("deterministic_across_workers", deterministic)
        .flag("executor_overhead_only", benchutil::hardwareThreads() <= 1)
        .close();
    ok = ok && deterministic;
  }

  // --- cross-shard coordination: GlobalArbiter at the barrier exchange.
  {
    const ArbiterTier tier;
    const std::vector<unsigned> counts = {1, 2, 4, 8};
    std::vector<ArbiterResult> runs;
    runs.reserve(counts.size());
    for (unsigned w : counts) {
      runs.push_back(runArbiterTier(tier, w));
    }
    json.object("cluster_arbiter")
        .num("shards", tier.shards)
        .num("apps", static_cast<int>(tier.shards) * tier.appsPerShard)
        .num("phases_per_app", tier.phases)
        .num("decisions", runs[0].decisions)
        .num("messages_merged", runs[0].merged)
        .num("barrier_exchanges", runs[0].exchanges)
        .num("grants", runs[0].grants)
        .num("pauses", runs[0].pauses)
        .array("runs");
    bool deterministic = true;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const ArbiterResult& r = runs[i];
      ok = ok && r.run.complete;
      deterministic =
          deterministic && r.run.fingerprint == runs[0].run.fingerprint &&
          r.decisions == runs[0].decisions;
      runFields(json.object(kInline), counts[i], r.run).close();
    }
    json.close().flag("deterministic_across_workers", deterministic).close();
    ok = ok && deterministic;
  }

  // --- machine-wide Figure 4: aggregate throughput vs interferer size,
  // --- real writers on distinct shards sharing one PFS.
  {
    const MachineSpec machine = calciom::platform::grid5000Nancy();
    IorConfig appA;
    appA.name = "A";
    appA.processes = 336;
    appA.pattern = calciom::io::contiguousPattern(16u << 20);
    // 0.02 s horizon: a round of two-phase I/O takes ~1 s on this
    // machine, so barrier quantization stays a few percent and the
    // figure's axes measure interference, not the exchange.
    constexpr double kFigHorizon = 0.02;
    const ClusterRunResult aloneA =
        runMachineWide(machine, {appA}, 1, kFigHorizon);
    const double aloneAThroughput = appThroughput(aloneA.apps[0]);

    json.object("cluster_fig04")
        .str("machine", machine.name)
        .num("shards", 3)
        .num("a_cores", 336)
        .fixed("alone_a_mb_s", aloneAThroughput / 1e6, 0)
        .array("points");
    double slowdownAt8 = 0.0;
    double slowdownAt336 = 0.0;
    std::uint64_t fp1 = 0;  // the 336/336 worker-1 fingerprint, from the loop
    bool complete = aloneA.storage.requestsForwarded > 0;
    for (const int cores : {8, 64, 336}) {
      IorConfig appB;
      appB.name = "B";
      appB.processes = cores;
      appB.pattern = calciom::io::contiguousPattern(16u << 20);
      // B at 336 cores is physically identical to A alone (the name does
      // not affect the model) — reuse aloneA instead of re-simulating the
      // most expensive alone campaign.
      const ClusterRunResult aloneB =
          cores == 336 ? aloneA
                       : runMachineWide(machine, {appB}, 1, kFigHorizon);
      const ClusterRunResult pair = runMachineWide(
          machine, {appA, appB}, 1, kFigHorizon, PolicyKind::Interfere);
      const double aggregate = pair.bytesDelivered / pair.spanSeconds;
      const double slowdown =
          appThroughput(aloneB.apps[0]) / appThroughput(pair.apps[1]);
      const std::uint64_t fp = machineWideFingerprint(pair);
      if (cores == 8) {
        slowdownAt8 = slowdown;
      }
      if (cores == 336) {
        slowdownAt336 = slowdown;
        fp1 = fp;
      }
      complete = complete && pair.storage.requestsForwarded > 0;
      json.object(kInline)
          .num("b_cores", cores)
          .fixed("aggregate_mb_s", aggregate / 1e6, 0)
          .fixed("b_alone_mb_s", appThroughput(aloneB.apps[0]) / 1e6, 0)
          .fixed("b_with_a_mb_s", appThroughput(pair.apps[1]) / 1e6, 0)
          .fixed("b_slowdown", slowdown, 2)
          .hex("fingerprint", fp)
          .close();
    }
    json.close();
    // Worker-count invariance on the largest pair (the worker-1 run is the
    // loop's 336-core point — no need to pay for it twice), decision
    // stream + delivered bytes folded in.
    IorConfig appB336 = appA;
    appB336.name = "B";
    const std::uint64_t fp2 = machineWideFingerprint(runMachineWide(
        machine, {appA, appB336}, 2, kFigHorizon, PolicyKind::Interfere));
    const std::uint64_t fp4 = machineWideFingerprint(runMachineWide(
        machine, {appA, appB336}, 4, kFigHorizon, PolicyKind::Interfere));
    const bool deterministic = fp1 == fp2 && fp1 == fp4;
    // Paper shape: B=8 is crushed (~6x), equal apps are not; interference
    // is machine-wide real, not an artifact of the serial runner.
    const bool shape =
        slowdownAt8 > 3.0 && slowdownAt336 < slowdownAt8 / 1.5;
    json.flag("deterministic_across_workers", deterministic)
        .flag("shape_ok", shape)
        .close();
    ok = ok && deterministic && shape && complete;
  }

  // --- machine-wide Figure 9: the three policies on the 744/24 split,
  // --- B arriving second (dt = +2 s), cluster-wide.
  {
    const MachineSpec machine = calciom::platform::grid5000Rennes();
    IorConfig appA;
    appA.name = "A";
    appA.processes = 744;
    appA.pattern = calciom::io::stridedPattern(1u << 20, 8);
    IorConfig appB;
    appB.name = "B";
    appB.processes = 24;
    appB.pattern = calciom::io::stridedPattern(1u << 20, 8);
    appB.startOffset = 2.0;
    constexpr double kFigHorizon = 0.02;
    const ClusterRunResult aloneA =
        runMachineWide(machine, {appA}, 1, kFigHorizon);
    IorConfig appBAlone = appB;
    appBAlone.startOffset = 0.0;
    const ClusterRunResult aloneB =
        runMachineWide(machine, {appBAlone}, 1, kFigHorizon);

    json.object("cluster_fig09")
        .str("machine", machine.name)
        .num("shards", 3)
        .str("split", "744/24")
        .fixed("dt_s", 2.0, 1)
        .array("policies");
    struct PolicyRow {
      const char* name;
      PolicyKind kind;
      double factorA;
      double factorB;
    } rows[] = {{"interfering", PolicyKind::Interfere, 0.0, 0.0},
                {"fcfs", PolicyKind::Fcfs, 0.0, 0.0},
                {"interruption", PolicyKind::Interrupt, 0.0, 0.0}};
    for (PolicyRow& row : rows) {
      const ClusterRunResult pair =
          runMachineWide(machine, {appA, appB}, 1, kFigHorizon, row.kind);
      row.factorA =
          pair.apps[0].totalIoSeconds() / aloneA.apps[0].totalIoSeconds();
      row.factorB =
          pair.apps[1].totalIoSeconds() / aloneB.apps[0].totalIoSeconds();
      json.object(kInline)
          .str("policy", row.name)
          .fixed("factor_a", row.factorA, 2)
          .fixed("factor_b", row.factorB, 2)
          .num("pauses", pair.pausesIssued)
          .hex("fingerprint", machineWideFingerprint(pair))
          .close();
    }
    // Paper shape (Fig 9b/9d): FCFS strands the small app behind the big
    // one; interruption rescues it at near-zero cost for the big app.
    const bool shape = rows[1].factorB > 2.0 * rows[2].factorB &&
                       rows[2].factorB < 2.5 && rows[2].factorA < 1.3 &&
                       rows[0].factorB > 2.0;
    json.close().flag("shape_ok", shape).close();
    ok = ok && shape;
  }

  // --- machine-wide Figure 10: interruption granularity, cluster-wide.
  // --- A writes 4 files, B one file; interruption honoured between files
  // --- (application level) or between collective-buffering rounds (ADIO
  // --- level). File-level yields the paper's "saw": B waits out A's
  // --- current file, so B's time sweeps a file period as dt moves.
  {
    MachineSpec machine = calciom::platform::surveyor();
    // Small collective buffers so one file spans several rounds: this is
    // what makes the two hook placements differ (same trick as the serial
    // fig10 bench).
    machine.cbBufferBytes = 4ull << 20;
    IorConfig appA;
    appA.name = "A";
    appA.processes = 256;
    appA.pattern = calciom::io::contiguousPattern(4u << 20);
    appA.filesPerPhase = 4;
    IorConfig appB;
    appB.name = "B";
    appB.processes = 256;
    appB.pattern = calciom::io::contiguousPattern(4u << 20);
    appB.filesPerPhase = 1;
    constexpr double kFigHorizon = 0.02;
    using calciom::core::HookGranularity;

    const ClusterRunResult aloneA =
        runMachineWide(machine, {appA}, 1, kFigHorizon);
    const ClusterRunResult aloneB =
        runMachineWide(machine, {appB}, 1, kFigHorizon);
    const double aloneASeconds = aloneA.apps[0].totalIoSeconds();
    const double aloneBSeconds = aloneB.apps[0].totalIoSeconds();
    const double filePeriod = aloneASeconds / 4.0;

    json.object("cluster_fig10")
        .str("machine", machine.name)
        .num("shards", 3)
        .str("split", "256/256")
        .num("a_files", 4)
        .fixed("alone_a_s", aloneASeconds, 3)
        .fixed("alone_b_s", aloneBSeconds, 3)
        .fixed("file_period_s", filePeriod, 3)
        .array("points");
    // Sweep ~1.5 file periods so the file-level saw rises and resets.
    constexpr int kPoints = 8;
    double fileB[kPoints];
    double roundB[kPoints];
    for (int i = 0; i < kPoints; ++i) {
      const double dt = 1.5 * filePeriod * static_cast<double>(i) /
                        static_cast<double>(kPoints - 1);
      IorConfig b = appB;
      b.startOffset = dt;
      const ClusterRunResult file =
          runMachineWide(machine, {appA, b}, 1, kFigHorizon,
                         PolicyKind::Interrupt, HookGranularity::PerFile);
      const ClusterRunResult round =
          runMachineWide(machine, {appA, b}, 1, kFigHorizon,
                         PolicyKind::Interrupt, HookGranularity::PerRound);
      fileB[i] = file.apps[1].totalIoSeconds();
      roundB[i] = round.apps[1].totalIoSeconds();
      json.object(kInline)
          .fixed("dt_s", dt, 3)
          .fixed("b_file_level_s", fileB[i], 3)
          .fixed("b_round_level_s", roundB[i], 3)
          .num("file_pauses", file.pausesIssued)
          .num("round_pauses", round.pausesIssued)
          .close();
    }
    json.close();
    double fileBMax = fileB[0];
    double fileBMin = fileB[0];
    double roundBMax = roundB[0];
    for (int i = 1; i < kPoints; ++i) {
      fileBMax = std::max(fileBMax, fileB[i]);
      fileBMin = std::min(fileBMin, fileB[i]);
      roundBMax = std::max(roundBMax, roundB[i]);
    }
    // Worker-count invariance on the dt=0 file-level pair.
    const std::uint64_t ffp1 = machineWideFingerprint(
        runMachineWide(machine, {appA, appB}, 1, kFigHorizon,
                       PolicyKind::Interrupt, HookGranularity::PerFile));
    const std::uint64_t ffp2 = machineWideFingerprint(
        runMachineWide(machine, {appA, appB}, 2, kFigHorizon,
                       PolicyKind::Interrupt, HookGranularity::PerFile));
    const bool deterministic = ffp1 == ffp2;
    // Paper shape (Fig 10a/b): round-level frees B almost immediately at
    // every dt; file-level makes B wait out A's current file somewhere in
    // the sweep, with about a file period of amplitude.
    const bool shape = roundBMax < aloneBSeconds + 0.75 * filePeriod &&
                       fileBMax > aloneBSeconds + 0.6 * filePeriod &&
                       fileBMax - fileBMin > 0.5 * filePeriod;
    json.fixed("b_file_level_max_s", fileBMax, 3)
        .fixed("b_file_level_min_s", fileBMin, 3)
        .fixed("b_round_level_max_s", roundBMax, 3)
        .flag("deterministic_across_workers", deterministic)
        .flag("shape_ok", shape)
        .close();
    ok = ok && deterministic && shape;
  }

  // --- storage transition-reschedule profile at 2048 servers.
  {
    const StorageTier tier;
    const StorageResult sr = runStorageTier(tier, 1);
    const double transitionShare =
        sr.totalScheduled > 0
            ? static_cast<double>(sr.transitionsScheduled) /
                  static_cast<double>(sr.totalScheduled)
            : 0.0;
    const double staleShare =
        sr.transitionsScheduled > 0
            ? static_cast<double>(sr.transitionsStale) /
                  static_cast<double>(sr.transitionsScheduled)
            : 0.0;
    json.object("storage_2k")
        .num("servers", static_cast<int>(tier.shards) * tier.serversPerShard)
        .num("writers", static_cast<int>(tier.shards) * tier.serversPerShard *
                            tier.appsPerServer);
    runFields(json.object("run", kInline), 1, sr.run).close();
    json.object("transitions", kInline)
        .num("scheduled", sr.transitionsScheduled)
        .num("fired", sr.transitionsFired)
        .num("stale", sr.transitionsStale)
        .fixed("share_of_scheduled", transitionShare, 4)
        .fixed("stale_fraction", staleShare, 4)
        .close()
        .close();
    ok = ok && sr.run.complete;
  }

  json.close();
  return ok ? 0 : 1;
}
