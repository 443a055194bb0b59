#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cluster_scenario.hpp"
#include "analysis/replay.hpp"
#include "bench/flow_scenarios.hpp"
#include "calciom/capture.hpp"
#include "calciom/global_arbiter.hpp"
#include "calciom/metrics.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "io/hooks.hpp"
#include "io/pattern.hpp"
#include "mpi/port.hpp"
#include "net/flow_net.hpp"
#include "platform/cluster.hpp"
#include "platform/presets.hpp"
#include "platform/shared_storage.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "workload/ior.hpp"
#include "workload/trace.hpp"

namespace perfbench {

const std::vector<LayerMetric> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.batches", "count"},
    {"sim.loop_s", "s"},
    {"sim.ns_per_event", "ns/event"},
    {"sim.max_queue_depth", "count"},
    {"sim.self_pct", "%"},
    {"executor.busy_threads", "threads"},
    {"executor.speedup_est", "x"},
    {"cluster.horizon_steps", "count"},
    {"cluster.sync_rounds", "count"},
    {"cluster.round_width", "shards"},
    {"cluster.barriers_skipped", "count"},
    {"cluster.outside_loop_s", "s"},
    {"cluster.us_per_step", "us/step"},
    {"campaign.self_pct", "%"},
    {"hook.storage_pct", "%"},
    {"hook.arbiter_pct", "%"},
    {"hook.feeder_pct", "%"},
    {"hook.vote_pct", "%"},
    {"storage.requests", "count"},
    {"storage.completions", "count"},
    {"arbiter.merged", "count"},
    {"arbiter.decisions", "count"},
    {"arbiter.pauses", "count"},
    {"net.flows", "count"},
    {"net.start_pct", "%"},
    {"net.recomputes", "count"},
    {"net.affected_per_recompute", "resources"},
    {"storage.transitions_scheduled", "count"},
    {"storage.transitions_stale", "count"},
    {"pfs.bytes", "bytes"},
    {"ports.delivered", "count"},
    {"core.pct", "%"},
    {"core.messages", "count"},
    {"core.ns_per_message", "ns/msg"},
    {"replay.divergence_pct", "%"},
    {"trace.stream_pct", "%"},
    {"trace.jobs", "count"},
    {"tracing.overhead_pct", "%"},
    {"host.spin_threads", "threads"},
    {"host.speed", "x"},
};

namespace {

namespace core = calciom::core;
namespace net = calciom::net;
namespace platform = calciom::platform;
namespace replay = calciom::analysis::replay;
namespace scenarios = calciom::scenarios;
namespace sim = calciom::sim;
namespace workload = calciom::workload;
using calciom::GlobalArbiter;
using calciom::analysis::ClusterAppPlan;
using calciom::analysis::ClusterRunResult;
using calciom::analysis::ClusterScenarioConfig;

// ---------------------------------------------------------------------------
// Per-layer counting.

/// Raw per-layer counts of a traced campaign, summed over its parts.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t maxQueueDepth = 0;
  /// EngineStats::wallSeconds summed over every engine.
  double loopSeconds = 0.0;
  std::uint64_t horizonSteps = 0;
  std::uint64_t syncRounds = 0;
  std::uint64_t dispatchedShards = 0;
  std::uint64_t barriersSkipped = 0;
  std::uint64_t storageRequests = 0;
  std::uint64_t storageCompletions = 0;
  std::uint64_t arbiterMerged = 0;
  std::uint64_t arbiterDecisions = 0;
  std::uint64_t arbiterPauses = 0;
  std::uint64_t flows = 0;
  double netStartSeconds = 0.0;
  std::uint64_t recomputes = 0;
  std::uint64_t affected = 0;
  std::uint64_t transitionsScheduled = 0;
  std::uint64_t transitionsStale = 0;
  double pfsBytes = 0.0;
  std::uint64_t portsDelivered = 0;
  std::uint64_t coreMessages = 0;
  std::uint64_t jobs = 0;
};

/// Shard-local FlowNet counters: written only from the owning shard's loop
/// (its rates listener and flow workers run there), read after the run.
/// Aligned so shards on different workers never share a cache line.
struct alignas(64) NetCounter {
  std::uint64_t flows = 0;
  double startSeconds = 0.0;
  std::uint64_t recomputes = 0;
  std::uint64_t affected = 0;
};

/// Counts every rate recomputation of `fnet` and the resources it touched.
/// Listeners only observe, so the simulation is unchanged.
void countRecomputes(net::FlowNet& fnet, NetCounter& c) {
  fnet.addRatesListener([&c](const net::AffectedResources& a) {
    ++c.recomputes;
    c.affected += a.ids().size();
  });
}

/// Adds what a finished cluster exposes: engine totals, round-loop
/// counters, port deliveries and the shard-local FlowNet counters.
void addCluster(LayerCounts& c, platform::Cluster& cl,
                const std::vector<NetCounter>& nets) {
  const platform::ClusterStats st = cl.stats();
  c.events += st.total.processedEvents;
  c.batches += st.total.dispatchBatches;
  c.maxQueueDepth =
      std::max<std::uint64_t>(c.maxQueueDepth, st.total.maxQueueDepth);
  c.loopSeconds += st.cpuSeconds;
  c.horizonSteps += st.horizonSteps;
  c.syncRounds += st.syncRounds;
  c.dispatchedShards += st.dispatchedShards;
  c.barriersSkipped += st.barriersSkipped;
  for (std::size_t s = 0; s < cl.shardCount(); ++s) {
    c.portsDelivered += cl.machine(s).ports().messagesDelivered();
  }
  for (const NetCounter& n : nets) {
    c.flows += n.flows;
    c.netStartSeconds += n.startSeconds;
    c.recomputes += n.recomputes;
    c.affected += n.affected;
  }
}

/// The per-layer metrics of a traced campaign. Layer times that only some
/// workloads have are shares of the campaign's wall time, so a layer a
/// workload lacks reads 0 % rather than a constant 0 s.
LayerValues layerValues(const LayerCounts& c, const SpanLog& spans,
                        const Campaign& k) {
  const double wall = k.wallSeconds;
  const auto pct = [wall](double s) {
    return wall > 0.0 ? 100.0 * s / wall : 0.0;
  };
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto num = [](std::uint64_t v) { return static_cast<double>(v); };
  const double hooks = spans.total(Layer::HookStorage) +
                       spans.total(Layer::HookArbiter) +
                       spans.total(Layer::HookFeeder);
  const double votes = spans.total(Layer::Vote);
  const double coreSeconds = spans.total(Layer::Core);
  const double divergence = spans.total(Layer::Divergence);
  // Time outside the shard loops is wall minus the loop sum, which only
  // holds while loops do not overlap. Once they run in parallel the sum can
  // exceed the wall time; the remainders are then clamped to 0 rather than
  // read as a negative (better-looking) figure.
  const auto rest = [](double s) { return std::max(0.0, s); };
  const double outside = rest(wall - c.loopSeconds);
  LayerValues v;
  v["sim.events"] = num(c.events);
  v["sim.batches"] = num(c.batches);
  v["sim.loop_s"] = c.loopSeconds;
  v["sim.ns_per_event"] = 1e9 * per(c.loopSeconds, num(c.events));
  v["sim.max_queue_depth"] = num(c.maxQueueDepth);
  v["sim.self_pct"] = pct(c.loopSeconds - c.netStartSeconds);
  v["executor.busy_threads"] = per(k.cpuSeconds, wall);
  v["executor.speedup_est"] = per(c.loopSeconds, wall);
  v["cluster.horizon_steps"] = num(c.horizonSteps);
  v["cluster.sync_rounds"] = num(c.syncRounds);
  v["cluster.round_width"] = per(num(c.dispatchedShards), num(c.horizonSteps));
  v["cluster.barriers_skipped"] = num(c.barriersSkipped);
  v["cluster.outside_loop_s"] = outside;
  v["cluster.us_per_step"] =
      1e6 * per(rest(outside - coreSeconds - divergence), num(c.horizonSteps));
  v["campaign.self_pct"] =
      pct(rest(outside - hooks - votes - coreSeconds - divergence));
  v["hook.storage_pct"] = pct(spans.total(Layer::HookStorage));
  v["hook.arbiter_pct"] = pct(spans.total(Layer::HookArbiter));
  v["hook.feeder_pct"] = pct(spans.total(Layer::HookFeeder));
  v["hook.vote_pct"] = pct(votes);
  v["storage.requests"] = num(c.storageRequests);
  v["storage.completions"] = num(c.storageCompletions);
  v["arbiter.merged"] = num(c.arbiterMerged);
  v["arbiter.decisions"] = num(c.arbiterDecisions);
  v["arbiter.pauses"] = num(c.arbiterPauses);
  v["net.flows"] = num(c.flows);
  v["net.start_pct"] = pct(c.netStartSeconds);
  v["net.recomputes"] = num(c.recomputes);
  v["net.affected_per_recompute"] = per(num(c.affected), num(c.recomputes));
  v["storage.transitions_scheduled"] = num(c.transitionsScheduled);
  v["storage.transitions_stale"] = num(c.transitionsStale);
  v["pfs.bytes"] = c.pfsBytes;
  v["ports.delivered"] = num(c.portsDelivered);
  v["core.pct"] = pct(coreSeconds);
  v["core.messages"] = num(c.coreMessages);
  v["core.ns_per_message"] = 1e9 * per(coreSeconds, num(c.coreMessages));
  v["replay.divergence_pct"] = pct(divergence);
  v["trace.stream_pct"] = pct(spans.total(Layer::Stream));
  v["trace.jobs"] = num(c.jobs);
  return v;
}

/// Runs `body` as (part of) the measured window of `k`; a traced campaign
/// also records it as a Campaign span.
template <class Fn>
void measure(Campaign& k, SpanLog* spans, Fn&& body) {
  const double c0 = cpuNow();
  const double w0 = wallNow();
  body();
  const double w1 = wallNow();
  k.cpuSeconds += cpuNow() - c0;
  k.wallSeconds += w1 - w0;
  if (spans != nullptr) {
    spans->add(Layer::Campaign, w0, w1);
  }
}

/// Adds the host time since `t0` to the campaign's set-up.
void endSetup(Campaign& k, SpanLog* spans, double t0) {
  const double t1 = wallNow();
  k.setupSeconds += t1 - t0;
  if (spans != nullptr) {
    spans->add(Layer::Setup, t0, t1);
  }
}

// ---------------------------------------------------------------------------
// Fingerprints (the folds of bench/perf_cluster.cpp and bench/perf_replay.cpp).

void foldDecisions(Fingerprint& fp,
                   const std::vector<core::DecisionRecord>& decisions) {
  for (const core::DecisionRecord& d : decisions) {
    fp.foldBits(d.time);
    fp.fold(d.requester);
    fp.fold(static_cast<std::uint64_t>(d.action));
    fp.fold(d.accessors.size());
    for (std::uint32_t a : d.accessors) {
      fp.fold(a);
    }
    for (const auto& c : d.costs) {
      fp.fold(static_cast<std::uint64_t>(c.action));
      fp.foldBits(c.metricCost);
    }
  }
}

/// Every shard's event counters, final clock and per-resource delivered
/// bytes.
std::uint64_t clusterFingerprint(platform::Cluster& cl) {
  Fingerprint fp;
  for (std::size_t i = 0; i < cl.shardCount(); ++i) {
    sim::Engine& eng = cl.engine(i);
    const sim::EngineStats es = eng.stats();
    fp.fold(es.processedEvents);
    fp.fold(es.scheduledEvents);
    fp.fold(es.pendingEvents);
    fp.fold(es.maxQueueDepth);
    fp.fold(es.dispatchBatches);
    fp.foldBits(eng.now());
    net::FlowNet& fnet = cl.machine(i).net();
    for (net::ResourceId r = 0;
         r < static_cast<net::ResourceId>(fnet.resourceCount()); ++r) {
      fp.foldBits(fnet.deliveredThrough(r));
    }
  }
  return fp.value();
}

/// Shard events and clocks, delivered bytes, the decision stream, the
/// cross-shard request log and every application's timing.
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
  foldDecisions(fp, r.decisions);
  for (const platform::RequestTrace& t : r.requestLog) {
    fp.fold(t.appId);
    fp.fold(t.originShard);
    fp.foldBits(t.issueTime);
    fp.foldBits(t.dispatchTime);
    fp.foldBits(t.completeTime);
    fp.fold(t.bytes);
  }
  for (const workload::AppStats& app : r.apps) {
    fp.foldBits(app.firstStart);
    fp.foldBits(app.lastEnd);
    fp.fold(app.totalBytes());
  }
  return fp.value();
}

/// The decision stream, the grant schedule, the captured-event count and
/// the divergence JSON, plus the engine-event and round counts.
std::uint64_t replayFingerprint(const replay::ReplayResult& r) {
  Fingerprint fp;
  fp.fold(r.jobs);
  fp.fold(r.captured.size());
  foldDecisions(fp, r.decisions);
  for (const core::GrantRecord& g : r.grants) {
    fp.foldBits(g.time);
    fp.fold(g.app);
    fp.fold(g.resume ? 1u : 0u);
  }
  fp.foldString(replay::toJson(r.divergence));
  fp.fold(r.engineEvents);
  fp.fold(r.syncRounds);
  fp.fold(r.horizonSteps);
  return fp.value();
}

// ---------------------------------------------------------------------------
// flows_sharded: the cluster_1m shape of bench/perf_cluster.cpp, scaled
// down to seconds a campaign. No barrier hooks and no coordination code.

struct FlowShape {
  std::size_t shards;
  int clustersPerShard;
  int workersPerShard;
  int flowsPerWorker;
};

/// scenarios::flowWorker with FlowNet::start timed: the same flows,
/// started in the same order.
sim::Task timedFlowWorker(net::FlowNet& fnet,
                          const scenarios::WorkerPlan& plan,
                          const std::vector<net::ResourceId>& res,
                          NetCounter* counter) {
  co_await sim::Delay{plan.startDelay};
  for (std::size_t i = 0; i < plan.bytes.size(); ++i) {
    net::FlowSpec spec;
    spec.bytes = plan.bytes[i];
    spec.path = {res[plan.link], res[plan.server]};
    spec.weight = plan.weight[i];
    spec.rateCap = plan.rateCap[i];
    spec.group = plan.app;
    const double t0 = wallNow();
    const net::FlowId id = fnet.start(std::move(spec));
    counter->startSeconds += wallNow() - t0;
    ++counter->flows;
    co_await fnet.completion(id);
  }
}

class FlowsSharded final : public Workload {
 public:
  FlowsSharded(std::uint64_t seed, bool small)
      : seed_(seed),
        shape_(small ? FlowShape{4, 64, 400, 2}
                     : FlowShape{16, 512, 2000, 4}) {}

  // Measured at one worker. The host at times gives 4 threads one core in
  // total for minutes (host.spin_threads 1.0), and then the same campaign
  // at 4 workers takes 0.49 s instead of 0.33 s, a shift no host gauge
  // sees. The 4-worker campaign runs as the replica, so worker-count
  // identity is still checked and its times still go to standard error.
  Campaign run() override { return campaign(1, nullptr, nullptr); }
  Campaign replica() override { return campaign(kWorkers, nullptr, nullptr); }
  Campaign traced(SpanLog& spans, LayerValues& out) override {
    LayerCounts counts;
    Campaign k = campaign(1, &spans, &counts);
    out = layerValues(counts, spans, k);
    return k;
  }

 private:
  Campaign campaign(unsigned workers, SpanLog* spans, LayerCounts* counts) {
    Campaign k;
    const double t0 = wallNow();
    platform::ClusterSpec spec;
    spec.name = "flows";
    spec.shards = shape_.shards;
    spec.seed = seed_;
    platform::Cluster cl(spec);
    sim::SplitMix64 shardSeeds(seed_);
    std::vector<scenarios::FlowScenario> plans;
    plans.reserve(shape_.shards);
    std::vector<std::vector<net::ResourceId>> res(shape_.shards);
    std::vector<NetCounter> nets(counts != nullptr ? shape_.shards : 0);
    double bytes = 0.0;
    for (std::size_t s = 0; s < shape_.shards; ++s) {
      plans.push_back(scenarios::makeClusteredScenario(
          shardSeeds.next(), shape_.clustersPerShard, shape_.workersPerShard,
          shape_.flowsPerWorker));
      net::FlowNet& fnet = cl.machine(s).net();
      for (double cap : plans[s].capacities) {
        res[s].push_back(fnet.addResource(cap));
      }
      if (counts != nullptr) {
        countRecomputes(fnet, nets[s]);
      }
      for (const scenarios::WorkerPlan& plan : plans[s].workers) {
        for (double b : plan.bytes) {
          bytes += b;
        }
        cl.engine(s).spawn(
            counts != nullptr ? timedFlowWorker(fnet, plan, res[s], &nets[s])
                              : scenarios::flowWorker(fnet, plan, res[s]));
      }
    }
    endSetup(k, spans, t0);

    measure(k, spans, [&] { cl.run(workers); });

    k.fingerprint = clusterFingerprint(cl);
    // Every flow crosses exactly one server resource (the first of each
    // {server, link, link} cluster), so the servers carry every byte.
    // The simulated seconds are server-seconds: what each server needs at
    // full capacity for the bytes it carried, summed over servers. Shard
    // clocks are set by the rare worker whose flows are all rate-capped
    // and move by 15 % from seed to seed; this sum follows only the bytes
    // and capacities.
    double delivered = 0.0;
    for (std::size_t s = 0; s < shape_.shards; ++s) {
      for (std::size_t r = 0; r < res[s].size(); r += 3) {
        const double b = cl.machine(s).net().deliveredThrough(res[s][r]);
        delivered += b;
        k.simSeconds += b / plans[s].capacities[r];
      }
    }
    if (!cl.empty()) {
      k.failure = "flows_sharded: events left after the run";
    } else if (std::abs(delivered - bytes) > 1e-6 * bytes) {
      k.failure = "flows_sharded: servers delivered " +
                  std::to_string(delivered) + " of " + std::to_string(bytes) +
                  " bytes";
    }
    if (counts != nullptr) {
      addCluster(*counts, cl, nets);
    }
    return k;
  }

  std::uint64_t seed_;
  FlowShape shape_;
};

// ---------------------------------------------------------------------------
// io_shared: IOR applications on eight compute shards writing through
// SharedStorageModel to one PFS, first uncoordinated, then under Dynamic.

/// Fisher–Yates shuffle driven by the workload's generator.
template <class T>
void shuffle(std::vector<T>& v, sim::Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

/// The campaign's applications. Every campaign holds the same fixed set of
/// shapes — each of 8/16/32/64 cores × contiguous/strided × 1–4 MiB once —
/// and the same fixed slots, each a (start offset, compute time) pair
/// staggered over 0–5 s and 2–10 s. `seed` only deals shapes to slots and
/// slots to compute shards, so the total bytes, the total compute and the
/// simulated span stay fixed while the contention pattern changes.
ClusterScenarioConfig makeIoConfig(std::uint64_t seed, bool small) {
  ClusterScenarioConfig cfg;
  // The cached Nancy backend, so the storage servers run cache transitions.
  cfg.machine = platform::grid5000Nancy(/*withCache=*/true);
  const std::size_t computeShards = small ? 2 : 8;
  const std::size_t appsPerShard = small ? 2 : 4;
  cfg.shards = computeShards + 1;  // the last shard hosts the PFS
  cfg.syncHorizonSeconds = 0.1;
  cfg.workers = kWorkers;
  const std::size_t count = computeShards * appsPerShard;
  std::vector<std::size_t> shapes(count);
  std::vector<std::size_t> slots(count);
  for (std::size_t i = 0; i < count; ++i) {
    shapes[i] = i;
    slots[i] = i;
  }
  sim::Xoshiro256 rng(seed);
  shuffle(shapes, rng);
  shuffle(slots, rng);
  const double last = static_cast<double>(std::max<std::size_t>(count, 2) - 1);
  for (std::size_t i = 0; i < count; ++i) {
    // Shape s: bits 0-1 the size, bit 2 the pattern, bits 3-4 the cores.
    const std::size_t s = shapes[i] % 32;
    const auto mib = static_cast<std::uint64_t>(1 + s % 4);
    workload::IorConfig app;
    app.name = "ior" + std::to_string(i);
    app.processes = 8 << (s / 8);  // 8 to 64 cores
    app.pattern = (s / 4) % 2 == 1
                      ? calciom::io::stridedPattern(1u << 20,
                                                    static_cast<int>(mib))
                      : calciom::io::contiguousPattern(mib << 20);
    app.iterations = small ? 2 : 6;
    const double slot = static_cast<double>(slots[i]);
    app.startOffset = 5.0 * slot / last;
    app.computeSeconds = 2.0 + 8.0 * slot / last;
    cfg.apps.push_back(ClusterAppPlan{app, i % computeShards});
  }
  return cfg;
}

/// analysis::runCluster, assembled here so set-up is timed apart and, when
/// traced, probes sit around the storage and arbiter hooks. Construction,
/// registration and spawning follow runCluster step for step, so outputs
/// are bit-identical to it (the replica compares them).
ClusterRunResult runIoHalf(const ClusterScenarioConfig& cfg, Campaign& k,
                           SpanLog* spans, LayerCounts* counts) {
  const double t0 = wallNow();
  std::unique_ptr<ProbeChain> probes;
  if (spans != nullptr) {
    std::vector<Layer> hooks = {Layer::HookStorage};
    if (cfg.coordinated) {
      hooks.push_back(Layer::HookArbiter);
    }
    probes = std::make_unique<ProbeChain>(*spans, std::move(hooks));
  }
  platform::Cluster cluster(platform::shardedCluster(
      cfg.machine, cfg.shards, cfg.syncHorizonSeconds));
  if (probes) {
    cluster.addBarrierHook(probes->probe(0));
  }
  platform::SharedStorageModel::Config storageCfg;
  storageCfg.storageShard = cfg.storageShard;
  platform::SharedStorageModel& storage =
      platform::SharedStorageModel::install(cluster, storageCfg);
  if (probes) {
    cluster.addBarrierHook(probes->probe(1));
  }
  GlobalArbiter* arbiter = nullptr;
  if (cfg.coordinated) {
    arbiter = &GlobalArbiter::install(
        cluster, core::makePolicy(cfg.policy,
                                  std::make_shared<core::CpuSecondsWasted>(),
                                  cfg.dynamicOptions));
    if (probes) {
      cluster.addBarrierHook(probes->probe(2));
    }
  }
  std::vector<NetCounter> nets(counts != nullptr ? cfg.shards : 0);
  for (std::size_t s = 0; s < nets.size(); ++s) {
    countRecomputes(cluster.machine(s).net(), nets[s]);
  }

  std::vector<std::unique_ptr<core::Session>> sessions;
  std::vector<std::unique_ptr<workload::IorApp>> apps;
  calciom::io::NoopHooks noop;
  ClusterRunResult out;
  out.apps.resize(cfg.apps.size());
  for (std::size_t i = 0; i < cfg.apps.size(); ++i) {
    const ClusterAppPlan& plan = cfg.apps[i];
    const auto appId = static_cast<std::uint32_t>(i + 1);
    platform::ProvisionedApp provisioned = storage.provisionApp(
        plan.shard, appId, plan.app.name, plan.app.processes);
    apps.push_back(std::make_unique<workload::IorApp>(
        cluster.engine(plan.shard),
        storage.makeClient(plan.shard, std::move(provisioned.clientContext)),
        provisioned.writerConfig, plan.app));
    calciom::io::IoCoordinationHooks* hooks = &noop;
    if (cfg.coordinated) {
      sessions.push_back(std::make_unique<core::Session>(
          cluster.engine(plan.shard), cluster.machine(plan.shard).ports(),
          core::SessionConfig{.appId = appId,
                              .appName = plan.app.name,
                              .cores = plan.app.processes,
                              .granularity = cfg.granularity}));
      hooks = sessions.back().get();
    }
    cluster.engine(plan.shard).spawn(apps[i]->run(*hooks, &out.apps[i]));
  }
  endSetup(k, spans, t0);

  measure(k, spans, [&] { cluster.run(cfg.workers); });

  out.bytesDelivered = storage.fs().totalDelivered();
  if (arbiter != nullptr) {
    out.decisions = arbiter->decisions();
    out.grantsIssued = arbiter->grantsIssued();
    out.pausesIssued = arbiter->pausesIssued();
  }
  out.storage = storage.stats();
  out.requestLog = storage.requestLog();
  for (std::size_t s = 0; s < cluster.shardCount(); ++s) {
    out.shardEvents.push_back(cluster.engine(s).processedEvents());
    out.shardClocks.push_back(cluster.engine(s).now());
  }
  // Simulated seconds are PFS-seconds: what the PFS needs at its sustained
  // aggregate bandwidth for the bytes the half wrote. The seed deals a
  // fixed set of shapes, so these stay fixed while the shard clocks move
  // with the contention pattern by 5 % from seed to seed.
  k.simSeconds +=
      out.bytesDelivered / storage.fs().sustainedAggregateBandwidth();

  if (counts != nullptr) {
    addCluster(*counts, cluster, nets);
    counts->storageRequests += out.storage.requestsForwarded;
    counts->storageCompletions += out.storage.completionsForwarded;
    if (arbiter != nullptr) {
      counts->arbiterMerged += arbiter->messagesMerged();
      counts->arbiterDecisions += arbiter->decisions().size();
      counts->arbiterPauses += arbiter->pausesIssued();
    }
    counts->pfsBytes += out.bytesDelivered;
    for (int i = 0; i < storage.fs().serverCount(); ++i) {
      const auto& profile = storage.fs().server(i).transitionProfile();
      counts->transitionsScheduled += profile.scheduled;
      counts->transitionsStale += profile.stale;
    }
  }
  return out;
}

/// Every application finished every iteration, the PFS holds exactly the
/// bytes they wrote, and every forwarded request came back.
std::string checkIoHalf(const ClusterScenarioConfig& cfg,
                        const ClusterRunResult& r) {
  const std::string half =
      cfg.coordinated ? "io_shared/dynamic" : "io_shared/uncoordinated";
  double written = 0.0;
  for (std::size_t i = 0; i < cfg.apps.size(); ++i) {
    if (static_cast<int>(r.apps[i].iterations.size()) !=
        cfg.apps[i].app.iterations) {
      return half + ": " + cfg.apps[i].app.name + " did not finish";
    }
    written += static_cast<double>(r.apps[i].totalBytes());
  }
  if (std::abs(r.bytesDelivered - written) > 1e-6 * written) {
    return half + ": the PFS received " + std::to_string(r.bytesDelivered) +
           " of " + std::to_string(written) + " bytes";
  }
  if (r.storage.requestsForwarded == 0 ||
      r.storage.requestsForwarded != r.storage.completionsForwarded) {
    return half + ": requests and completions disagree";
  }
  if (cfg.coordinated && r.decisions.empty()) {
    return half + ": the arbiter took no decision";
  }
  return {};
}

class IoShared final : public Workload {
 public:
  IoShared(std::uint64_t seed, bool small) : seed_(seed), small_(small) {}

  Campaign run() override { return campaign(nullptr, nullptr); }
  Campaign replica() override {
    Campaign k;
    Fingerprint fp;
    for (ClusterScenarioConfig cfg : halves(makeIoConfig(seed_, small_))) {
      cfg.workers = 1;
      ClusterRunResult r;
      measure(k, nullptr, [&] { r = calciom::analysis::runCluster(cfg); });
      fp.fold(machineWideFingerprint(r));
      if (k.failure.empty()) {
        k.failure = checkIoHalf(cfg, r);
      }
    }
    k.fingerprint = fp.value();
    return k;
  }
  Campaign traced(SpanLog& spans, LayerValues& out) override {
    LayerCounts counts;
    Campaign k = campaign(&spans, &counts);
    out = layerValues(counts, spans, k);
    return k;
  }

 private:
  /// The paper's interference measurement: the campaign uncoordinated,
  /// then the same campaign under the dynamic policy.
  static std::vector<ClusterScenarioConfig> halves(
      const ClusterScenarioConfig& cfg) {
    ClusterScenarioConfig uncoordinated = cfg;
    uncoordinated.coordinated = false;
    uncoordinated.policy = core::PolicyKind::Interfere;
    ClusterScenarioConfig dynamic = cfg;
    dynamic.coordinated = true;
    dynamic.policy = core::PolicyKind::Dynamic;
    return {uncoordinated, dynamic};
  }

  Campaign campaign(SpanLog* spans, LayerCounts* counts) {
    Campaign k;
    const double t0 = wallNow();
    const ClusterScenarioConfig cfg = makeIoConfig(seed_, small_);
    endSetup(k, spans, t0);
    Fingerprint fp;
    for (const ClusterScenarioConfig& half : halves(cfg)) {
      const ClusterRunResult r = runIoHalf(half, k, spans, counts);
      fp.fold(machineWideFingerprint(r));
      if (k.failure.empty()) {
        k.failure = checkIoHalf(half, r);
      }
    }
    k.fingerprint = fp.value();
    return k;
  }

  std::uint64_t seed_;
  bool small_;
};

// ---------------------------------------------------------------------------
// replay_cluster / replay_session: an Intrepid month through the
// coordinator, on the cluster transport and on the same-engine transport.

/// The month a campaign replays. One month a campaign, so a run holds
/// enough campaigns for a steady median.
replay::ReplayConfig makeMonth(std::uint64_t seed, bool small) {
  replay::ReplayConfig cfg;
  cfg.model.seed = sim::SplitMix64(seed).next();
  if (small) {
    cfg.model.horizonSeconds = 3600.0 * 24 * 2;
  }
  cfg.policy = core::PolicyKind::Dynamic;
  cfg.computeShards = 4;
  cfg.syncHorizonSeconds = 30.0;
  cfg.workers = kWorkers;
  return cfg;
}

/// Scenario generation of the replay workloads: drains the month's job
/// stream once, which yields the job count its replay must reproduce.
std::uint64_t countJobs(const replay::ReplayConfig& month) {
  workload::IntrepidStream stream(month.model);
  while (stream.next().has_value()) {
  }
  return stream.jobsEmitted();
}

std::string checkReplay(const replay::ReplayResult& r, std::uint64_t jobs,
                        bool sessionPath) {
  const std::string name = sessionPath ? "replay_session" : "replay_cluster";
  if (r.jobs != jobs) {
    return name + ": replayed " + std::to_string(r.jobs) + " of " +
           std::to_string(jobs) + " jobs";
  }
  if (r.decisions.empty()) {
    return name + ": the arbiter took no decision";
  }
  // The same-engine transport adds one fixed hop per message, so it must
  // match the oracle exactly; the cluster transport samples at the sync
  // horizon, so it must diverge, with oracle grants matched.
  if (sessionPath && !r.divergence.exactlyZero()) {
    return name + ": diverged from the offline oracle";
  }
  if (!sessionPath &&
      (r.divergence.exactlyZero() || r.divergence.matchedGrants == 0)) {
    return name + ": no sampling cost measured against the oracle";
  }
  return {};
}

/// Session-side totals of a replay, summed over finished jobs.
struct JobTotals {
  std::uint64_t jobs = 0;
  double waitSeconds = 0.0;
  double pausedSeconds = 0.0;
  std::uint64_t pausesHonored = 0;
};

/// One job's coordinated write phase, driven as analysis/replay.cpp drives
/// it.
sim::Task traceJob(sim::Engine& eng, std::unique_ptr<core::Session> session,
                   replay::TraceIoShape shape, workload::SwfJob job,
                   JobTotals* totals) {
  const double phase = shape.phaseSeconds(job);
  const int rounds = std::max(1, shape.roundsPerPhase);
  calciom::io::PhaseInfo info;
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
  totals->jobs += 1;
  totals->waitSeconds += session->waitSeconds();
  totals->pausedSeconds += session->pausedSeconds();
  totals->pausesHonored +=
      static_cast<std::uint64_t>(session->pausesHonored());
}

void launchJob(sim::Engine& eng, calciom::mpi::PortRegistry& ports,
               const replay::ReplayConfig& cfg, const workload::SwfJob& job,
               core::EventLog* log, JobTotals* totals) {
  auto session = std::make_unique<core::Session>(
      eng, ports,
      core::SessionConfig{.appId = static_cast<std::uint32_t>(job.jobId),
                          .appName = "job" + std::to_string(job.jobId),
                          .cores = job.processors,
                          .granularity = cfg.granularity});
  session->captureTo(log);
  eng.spawn(traceJob(eng, std::move(session), cfg.io, job, totals));
}

/// The barrier-hook job feeder of replayCluster: at every barrier it
/// injects, round-robin over the compute shards, every job starting inside
/// the next round's window.
class ClusterFeeder final : public sim::BarrierHook {
 public:
  explicit ClusterFeeder(const replay::ReplayConfig& cfg)
      : cfg_(cfg), stream_(cfg.model) {}

  void attach(platform::Cluster& cluster) {
    cluster_ = &cluster;
    horizon_ = cluster.spec().syncHorizonSeconds;
    logs_.resize(cfg_.computeShards);
    for (auto& log : logs_) {
      log = std::make_unique<core::EventLog>();
    }
    totals_.resize(cfg_.computeShards);
    pending_ = stream_.next();
    if (pending_.has_value()) {
      firstStart_ = pending_->startSeconds();
    }
  }

  bool onBarrier(sim::Time barrierTime) override {
    bool scheduled = false;
    while (pending_.has_value()) {
      const sim::Time next = cluster_->nextEventTime();
      if (next != sim::kNever && pending_->startSeconds() > next + horizon_) {
        break;
      }
      inject(*pending_, barrierTime);
      pending_ = stream_.next();
      scheduled = true;
    }
    return scheduled;
  }

  [[nodiscard]] std::vector<core::CapturedEvent> mergedEvents() const {
    std::vector<const core::EventLog*> logs;
    logs.reserve(logs_.size());
    for (const auto& log : logs_) {
      logs.push_back(log.get());
    }
    return core::mergeEventLogs(logs);
  }
  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }
  [[nodiscard]] double firstStart() const noexcept { return firstStart_; }

 private:
  void inject(const workload::SwfJob& job, sim::Time barrierTime) {
    const std::size_t shard = injected_ % cfg_.computeShards;
    ++injected_;
    sim::Engine& eng = cluster_->engine(shard);
    calciom::mpi::PortRegistry* ports = &cluster_->machine(shard).ports();
    core::EventLog* log = logs_[shard].get();
    JobTotals* totals = &totals_[shard];
    const replay::ReplayConfig* cfg = &cfg_;
    eng.scheduleAt(std::max(barrierTime, job.startSeconds()),
                   [&eng, ports, cfg, job, log, totals] {
                     launchJob(eng, *ports, *cfg, job, log, totals);
                   });
  }

  const replay::ReplayConfig& cfg_;
  workload::IntrepidStream stream_;
  platform::Cluster* cluster_ = nullptr;
  sim::Time horizon_ = 0.0;
  std::optional<workload::SwfJob> pending_;
  std::vector<std::unique_ptr<core::EventLog>> logs_;
  std::vector<JobTotals> totals_;
  std::uint64_t injected_ = 0;
  double firstStart_ = 0.0;
};

/// The oracle replay and the divergence of a finished online replay, each
/// timed as its own span.
void finishOracle(replay::ReplayResult& out, const replay::ReplayConfig& cfg,
                  SpanLog& spans) {
  const double t0 = wallNow();
  out.oracle = replay::oracleReplay(out.captured, cfg.policy,
                                    cfg.messageLatencySeconds,
                                    cfg.dynamicOptions);
  const double t1 = wallNow();
  out.divergence = replay::computeDivergence(out.decisions, out.grants,
                                             out.cpuSecondsWaited, out.oracle);
  spans.add(Layer::Core, t0, t1);
  spans.add(Layer::Divergence, t1, wallNow());
}

/// replayCluster assembled here, with probes around the storage, arbiter
/// and feeder hooks. Follows runCluster's construction and registration
/// order, so the result is bit-identical to replayCluster's.
replay::ReplayResult tracedReplayCluster(const replay::ReplayConfig& cfg,
                                         Campaign& k, SpanLog& spans,
                                         LayerCounts& counts) {
  const double t0 = wallNow();
  ClusterFeeder feeder(cfg);
  ProbeChain probes(spans, {Layer::HookStorage, Layer::HookArbiter,
                            Layer::HookFeeder});
  platform::MachineSpec machine;
  machine.name = "replay";
  machine.coordinationLatencySeconds = cfg.messageLatencySeconds;
  platform::Cluster cluster(platform::shardedCluster(
      machine, cfg.computeShards + 1, cfg.syncHorizonSeconds));
  cluster.addBarrierHook(probes.probe(0));
  platform::SharedStorageModel::install(
      cluster, platform::SharedStorageModel::Config{});
  cluster.addBarrierHook(probes.probe(1));
  GlobalArbiter& arbiter = GlobalArbiter::install(
      cluster, core::makePolicy(cfg.policy,
                                std::make_shared<core::CpuSecondsWasted>(),
                                cfg.dynamicOptions));
  cluster.addBarrierHook(probes.probe(2));
  cluster.addBarrierHook(&feeder);
  cluster.addBarrierHook(probes.probe(3));
  feeder.attach(cluster);
  endSetup(k, &spans, t0);

  replay::ReplayResult out;
  measure(k, &spans, [&] {
    cluster.run(cfg.workers);
    out.decisions = arbiter.decisions();
    out.grants = arbiter.core().grantLog();
    out.grantsIssued = arbiter.grantsIssued();
    out.pausesIssued = arbiter.pausesIssued();
    out.cpuSecondsWaited = arbiter.core().cpuSecondsWaited();
    out.captured = feeder.mergedEvents();
    out.jobs = feeder.injected();
    const platform::ClusterStats st = cluster.stats();
    out.syncRounds = st.syncRounds;
    out.horizonSteps = st.horizonSteps;
    out.engineCpuSeconds = st.cpuSeconds;
    out.engineEvents = st.total.processedEvents;
    if (!out.captured.empty()) {
      out.traceSpanSeconds = out.captured.back().time - feeder.firstStart();
    }
    finishOracle(out, cfg, spans);
  });

  addCluster(counts, cluster, {});
  counts.arbiterMerged += arbiter.messagesMerged();
  counts.arbiterDecisions += arbiter.decisions().size();
  counts.arbiterPauses += arbiter.pausesIssued();
  counts.coreMessages += out.captured.size();
  counts.jobs += out.jobs;
  return out;
}

/// replaySession through the library. The same-engine transport has no
/// barrier hooks to probe, so the oracle and the divergence the call ends
/// with are run once more on its output and timed as their spans; the
/// engine counts come from the result.
replay::ReplayResult tracedReplaySession(const replay::ReplayConfig& cfg,
                                         Campaign& k, SpanLog& spans,
                                         LayerCounts& counts) {
  replay::ReplayResult out;
  measure(k, &spans, [&] { out = replay::replaySession(cfg); });
  finishOracle(out, cfg, spans);
  counts.events += out.engineEvents;
  counts.loopSeconds += out.engineCpuSeconds;
  counts.arbiterDecisions += out.decisions.size();
  counts.arbiterPauses += out.pausesIssued;
  counts.coreMessages += out.captured.size();
  counts.jobs += out.jobs;
  return out;
}

class Replay final : public Workload {
 public:
  Replay(std::uint64_t seed, bool small, bool sessionPath)
      : seed_(seed), small_(small), sessionPath_(sessionPath) {}

  Campaign run() override { return campaign(kWorkers); }
  Campaign replica() override { return campaign(1); }
  Campaign traced(SpanLog& spans, LayerValues& out) override {
    Campaign k;
    const double t0 = wallNow();
    const replay::ReplayConfig month = makeMonth(seed_, small_);
    const std::uint64_t jobs = countJobs(month);
    spans.add(Layer::Stream, t0, wallNow());
    endSetup(k, &spans, t0);
    LayerCounts counts;
    const replay::ReplayResult r =
        sessionPath_ ? tracedReplaySession(month, k, spans, counts)
                     : tracedReplayCluster(month, k, spans, counts);
    finish(k, month, r, jobs);
    out = layerValues(counts, spans, k);
    return k;
  }

 private:
  /// The month through the library's one-call replay at `workers` threads
  /// (the same-engine transport has none to vary).
  Campaign campaign(unsigned workers) {
    Campaign k;
    const double t0 = wallNow();
    replay::ReplayConfig month = makeMonth(seed_, small_);
    const std::uint64_t jobs = countJobs(month);
    endSetup(k, nullptr, t0);
    month.workers = workers;
    replay::ReplayResult r;
    measure(k, nullptr, [&] {
      r = sessionPath_ ? replay::replaySession(month)
                       : replay::replayCluster(month);
    });
    finish(k, month, r, jobs);
    return k;
  }

  void finish(Campaign& k, const replay::ReplayConfig& month,
              const replay::ReplayResult& r, std::uint64_t jobs) const {
    // The month of submissions replayed. The span up to the last captured
    // event adds the backlog left at the month's end, which moves with the
    // seed.
    k.simSeconds = month.model.horizonSeconds;
    k.fingerprint = replayFingerprint(r);
    k.failure = checkReplay(r, jobs, sessionPath_);
  }

  std::uint64_t seed_;
  bool small_;
  bool sessionPath_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool small) {
  if (name == "flows_sharded") {
    return std::make_unique<FlowsSharded>(seed, small);
  }
  if (name == "io_shared") {
    return std::make_unique<IoShared>(seed, small);
  }
  if (name == "replay_cluster") {
    return std::make_unique<Replay>(seed, small, false);
  }
  if (name == "replay_session") {
    return std::make_unique<Replay>(seed, small, true);
  }
  return nullptr;
}

}  // namespace perfbench
