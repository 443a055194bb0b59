// Microbenchmark of the incremental max–min allocator against the retained
// global-recompute reference (tests/support/flow_net_reference.hpp).
//
// Topology: C independent storage clusters, each one server plus two
// application links; every flow crosses {link, server} of its cluster. This
// is the fleet-scale shape the incremental allocator is built for — many
// applications on mostly disjoint storage paths, interference local to a
// cluster — and matches the paper's scenarios multiplied out: each flow
// event should cost O(component), not O(machine).
//
// Output is JSON on stdout: per tier (1k / 10k / 100k concurrent flows),
// events processed, wall seconds and events/sec for both allocators, plus
// the engine's queue high-water mark. The reference allocator is measured
// under an event budget at 10k flows (a full run would take minutes and the
// per-event rate is what matters; the budgeted ramp-up phase *understates*
// the reference's steady-state cost, so the printed speedup is a lower
// bound) and skipped at 100k. `--smoke` runs the 1k tier only and exits
// non-zero if the speedup drops below 2x — the CI regression tripwire.
//
// The committed baseline lives in BENCH_flownet.json.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/flow_scenarios.hpp"
#include "net/flow_net.hpp"
#include "tests/support/flow_net_reference.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/wall_timer.hpp"

namespace {

using calciom::net::FlowNet;
using calciom::net::ReferenceFlowNet;
using calciom::net::ResourceId;
using calciom::scenarios::flowWorker;
using calciom::scenarios::FlowScenario;
using calciom::scenarios::makeClusteredScenario;
using calciom::sim::Engine;
using calciom::sim::Json;

struct RunResult {
  std::uint64_t events = 0;
  double wallSeconds = 0.0;
  double eventsPerSecond = 0.0;
  std::size_t maxQueueDepth = 0;
  bool ranToCompletion = false;
};

/// Runs the scenario, measuring events/sec from `warmupTime` (simulated
/// seconds; by then every worker has started its first flow, so the window
/// sees full concurrency) until `eventBudget` further events have been
/// processed or the simulation drains. The warmup is excluded from timing.
template <class Net>
RunResult runScenario(const FlowScenario& sc, double warmupTime,
                      std::uint64_t eventBudget) {
  Engine eng;
  Net net(eng);
  std::vector<ResourceId> res;
  res.reserve(sc.capacities.size());
  for (double cap : sc.capacities) {
    res.push_back(net.addResource(cap));
  }
  for (const calciom::scenarios::WorkerPlan& plan : sc.workers) {
    eng.spawn(flowWorker(net, plan, res));
  }
  eng.runUntil(warmupTime);
  const std::uint64_t base = eng.processedEvents();
  const calciom::sim::Stopwatch wall;
  while (!eng.empty() && eng.processedEvents() - base < eventBudget) {
    eng.runUntil(eng.nextEventTime());
  }
  RunResult out;
  out.wallSeconds = wall.seconds();
  out.events = eng.processedEvents() - base;
  out.eventsPerSecond =
      out.wallSeconds > 0.0 ? static_cast<double>(out.events) / out.wallSeconds
                            : 0.0;
  out.maxQueueDepth = eng.stats().maxQueueDepth;
  out.ranToCompletion = eng.empty();
  return out;
}

void printRun(Json& json, const char* key, const RunResult& r) {
  json.object(key, Json::Style::Inline)
      .num("events", r.events)
      .fixed("wall_s", r.wallSeconds, 6)
      .fixed("events_per_s", r.eventsPerSecond, 0)
      .num("max_queue_depth", r.maxQueueDepth)
      .flag("complete", r.ranToCompletion)
      .close();
}

struct Tier {
  int flows;
  int clusters;
  int flowsPerWorker;
  std::uint64_t referenceBudget;  // 0 = skip the reference allocator
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeFlag(
      argc, argv, "  --smoke  1k-flow tier only, exit 1 on <2x speedup\n");
  constexpr std::uint64_t kNoBudget = ~0ULL;

  // Workers start their first flow within the first 2.05 simulated seconds;
  // measuring from there sees the full advertised concurrency.
  constexpr double kWarmup = 2.05;

  std::vector<Tier> tiers;
  if (smoke) {
    tiers.push_back(Tier{1000, 64, 4, kNoBudget});
  } else {
    tiers.push_back(Tier{1000, 64, 4, kNoBudget});
    tiers.push_back(Tier{10000, 256, 2, 800});
    tiers.push_back(Tier{100000, 2048, 2, 0});
  }

  double smokeSpeedup = -1.0;
  Json json;
  benchutil::jsonHeader(json, "perf_flownet", smoke ? "smoke" : "full");
  json.array("cases");
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const Tier& tier = tiers[t];
    const FlowScenario sc = makeClusteredScenario(0xCA1C10Full + t, tier.clusters,
                                     tier.flows, tier.flowsPerWorker);
    const RunResult inc = runScenario<FlowNet>(sc, kWarmup, kNoBudget);
    RunResult ref;
    const bool haveRef = tier.referenceBudget != 0;
    if (haveRef) {
      ref = runScenario<ReferenceFlowNet>(sc, kWarmup, tier.referenceBudget);
    }
    json.object()
        .num("flows", tier.flows)
        .num("clusters", tier.clusters)
        .num("resources", sc.capacities.size());
    printRun(json, "incremental", inc);
    if (haveRef) {
      printRun(json, "reference", ref);
      const double speedup = ref.eventsPerSecond > 0.0
                                 ? inc.eventsPerSecond / ref.eventsPerSecond
                                 : 0.0;
      json.fixed("speedup_events_per_s", speedup, 2);
      if (tier.flows == 1000) {
        smokeSpeedup = speedup;
      }
    }
    json.close();
  }
  json.close().close();
  std::puts(json.text().c_str());

  if (smoke) {
    const bool ok = smokeSpeedup >= 2.0;
    std::fprintf(stderr,
                 "smoke: incremental/reference speedup %.2fx (threshold 2x) "
                 "-> %s\n",
                 smokeSpeedup, ok ? "OK" : "REGRESSION");
    return ok ? 0 : 1;
  }
  return 0;
}
