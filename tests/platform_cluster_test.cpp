// Tests for the sharded simulation core: thread-count invariance (the same
// campaign must produce bit-identical results on 1, 2 and 8 worker
// threads), shard-local safety guards, sync-horizon clock semantics, and
// deterministic failure propagation.

#include "platform/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/flow_scenarios.hpp"
#include "net/flow_net.hpp"
#include "sim/engine.hpp"
#include "sim/shard_executor.hpp"
#include "sim/task.hpp"
#include "storage/server.hpp"

namespace {

using calciom::PreconditionError;
using calciom::net::FlowId;
using calciom::net::FlowNet;
using calciom::net::FlowSpec;
using calciom::net::ResourceId;
using calciom::platform::Cluster;
using calciom::platform::ClusterSpec;
using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::ShardExecutor;
using calciom::sim::Task;
using calciom::sim::Time;

// ---------------------------------------------------------------------------
// A small but non-trivial per-shard workload: flow traffic over private
// resources plus a cache-enabled storage server whose transition events and
// generation-superseding churn run under the shard executor. All randomness
// comes from the shard engine's own stream, so the workload is a pure
// function of the shard.

struct ShardHarness {
  std::vector<ResourceId> res;
  std::unique_ptr<calciom::storage::StorageServer> server;
};

Task flowLoop(Engine& eng, FlowNet& net, ResourceId link, ResourceId sink,
              std::uint32_t app, int transfers) {
  co_await Delay{eng.rng().uniform(0.0, 0.5)};
  for (int i = 0; i < transfers; ++i) {
    FlowSpec spec;
    spec.bytes = eng.rng().uniform(1e6, 20e6);
    spec.path = {link, sink};
    spec.weight = eng.rng().uniform(1.0, 8.0);
    spec.group = app;
    const FlowId id = net.start(std::move(spec));
    co_await net.completion(id);
  }
}

ClusterSpec smallSpec(std::size_t shards) {
  ClusterSpec spec;
  spec.name = "test";
  spec.shards = shards;
  spec.seed = 0xD15C0;
  spec.syncHorizonSeconds = 0.25;
  return spec;
}

/// Builds the standard test campaign on a fresh cluster.
std::vector<ShardHarness> buildCampaign(Cluster& cl) {
  std::vector<ShardHarness> harness(cl.shardCount());
  for (std::size_t s = 0; s < cl.shardCount(); ++s) {
    Engine& eng = cl.engine(s);
    FlowNet& net = cl.machine(s).net();
    ShardHarness& h = harness[s];
    h.res.push_back(net.addResource(90e6));   // shared sink
    h.res.push_back(net.addResource(150e6));  // link A
    h.res.push_back(net.addResource(120e6));  // link B
    calciom::storage::StorageServer::Config cfg;
    cfg.nicBandwidth = 200e6;
    cfg.diskBandwidth = 40e6;
    cfg.cacheBytes = 24e6;
    cfg.localityAlpha = 0.3;
    h.server = std::make_unique<calciom::storage::StorageServer>(
        eng, net, cfg, "srv" + std::to_string(s));
    for (std::uint32_t app = 0; app < 6; ++app) {
      const ResourceId link = h.res[1 + app % 2];
      const ResourceId sink = app < 3 ? h.res[0] : h.server->ingress();
      eng.spawn(flowLoop(eng, net, link, sink, app, 4));
    }
  }
  return harness;
}

/// Everything deterministic a run produces, per shard. Doubles are compared
/// with EXPECT_EQ, i.e. bit-for-bit.
struct ShardResult {
  std::uint64_t processed = 0;
  std::uint64_t scheduled = 0;
  std::size_t pending = 0;
  std::size_t maxQueueDepth = 0;
  std::uint64_t batches = 0;
  Time now = 0.0;
  std::vector<double> delivered;
  double cacheLevel = 0.0;
  std::uint64_t transitionsScheduled = 0;
};

std::vector<ShardResult> runCampaign(std::size_t shards, unsigned workers) {
  Cluster cl(smallSpec(shards));
  std::vector<ShardHarness> harness = buildCampaign(cl);
  cl.run(workers);
  std::vector<ShardResult> out(cl.shardCount());
  for (std::size_t s = 0; s < cl.shardCount(); ++s) {
    const auto es = cl.engine(s).stats();
    ShardResult& r = out[s];
    r.processed = es.processedEvents;
    r.scheduled = es.scheduledEvents;
    r.pending = es.pendingEvents;
    r.maxQueueDepth = es.maxQueueDepth;
    r.batches = es.dispatchBatches;
    r.now = cl.engine(s).now();
    FlowNet& net = cl.machine(s).net();
    for (ResourceId res = 0;
         res < static_cast<ResourceId>(net.resourceCount()); ++res) {
      r.delivered.push_back(net.deliveredThrough(res));
    }
    r.cacheLevel = harness[s].server->cacheLevel();
    r.transitionsScheduled = harness[s].server->transitionProfile().scheduled;
  }
  return out;
}

TEST(ClusterDeterminismTest, BitIdenticalAcross1_2_8Workers) {
  const auto base = runCampaign(8, 1);
  // Sanity: the campaign actually does something on every shard.
  for (const ShardResult& r : base) {
    EXPECT_GT(r.processed, 50u);
    EXPECT_EQ(r.pending, 0u);
    const double totalDelivered =
        std::accumulate(r.delivered.begin(), r.delivered.end(), 0.0);
    EXPECT_GT(totalDelivered, 0.0);
  }
  for (unsigned workers : {2u, 8u}) {
    const auto got = runCampaign(8, workers);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t s = 0; s < base.size(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s) + ", workers " +
                   std::to_string(workers));
      EXPECT_EQ(got[s].processed, base[s].processed);
      EXPECT_EQ(got[s].scheduled, base[s].scheduled);
      EXPECT_EQ(got[s].pending, base[s].pending);
      EXPECT_EQ(got[s].maxQueueDepth, base[s].maxQueueDepth);
      EXPECT_EQ(got[s].batches, base[s].batches);
      EXPECT_EQ(got[s].now, base[s].now);  // bit-identical double
      ASSERT_EQ(got[s].delivered.size(), base[s].delivered.size());
      for (std::size_t r = 0; r < base[s].delivered.size(); ++r) {
        EXPECT_EQ(got[s].delivered[r], base[s].delivered[r]);
      }
      EXPECT_EQ(got[s].cacheLevel, base[s].cacheLevel);
      EXPECT_EQ(got[s].transitionsScheduled, base[s].transitionsScheduled);
    }
  }
}

TEST(ClusterTest, RunUntilAlignsEveryShardClock) {
  Cluster cl(smallSpec(3));
  auto harness = buildCampaign(cl);
  cl.runUntil(1.5, 2);
  for (std::size_t s = 0; s < cl.shardCount(); ++s) {
    EXPECT_DOUBLE_EQ(cl.engine(s).now(), 1.5);
  }
  // Resuming after a bounded run still drains cleanly.
  cl.run(2);
  EXPECT_TRUE(cl.empty());
}

TEST(ClusterTest, StatsAggregateAcrossShards) {
  Cluster cl(smallSpec(4));
  auto harness = buildCampaign(cl);
  cl.run(1);
  const auto cs = cl.stats();
  EXPECT_EQ(cs.shards, 4u);
  EXPECT_GT(cs.syncRounds, 0u);
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < cl.shardCount(); ++s) {
    sum += cl.engine(s).stats().processedEvents;
  }
  EXPECT_EQ(cs.total.processedEvents, sum);
  EXPECT_EQ(cs.total.pendingEvents, 0u);
}

TEST(ClusterTest, ShardEnginesHaveIndependentRngStreams) {
  Cluster cl(smallSpec(2));
  // Same spec seed, different shards: streams must differ.
  const double a = cl.engine(0).rng().uniform01();
  const double b = cl.engine(1).rng().uniform01();
  EXPECT_NE(a, b);
  // And a rebuilt cluster reproduces them exactly.
  Cluster cl2(smallSpec(2));
  EXPECT_EQ(cl2.engine(0).rng().uniform01(), a);
  EXPECT_EQ(cl2.engine(1).rng().uniform01(), b);
}

// ---------------------------------------------------------------------------
// Shard safety: mutating another shard's FlowNet from inside a running
// event loop must throw, single-threaded or not.

TEST(ShardSafetyTest, CrossShardFlowStartThrows) {
  Engine engA;
  Engine engB;
  FlowNet netB(engB);
  const ResourceId r = netB.addResource(1e6);
  bool checked = false;
  engA.scheduleAt(1.0, [&] {
    FlowSpec spec;
    spec.bytes = 1.0;
    spec.path = {r};
    EXPECT_THROW(netB.start(std::move(spec)), PreconditionError);
    EXPECT_THROW(netB.setCapacity(r, 2e6), PreconditionError);
    EXPECT_THROW(netB.addRatesListener([](const auto&) {}), PreconditionError);
    checked = true;
  });
  engA.run();
  EXPECT_TRUE(checked);
  // From outside any event loop the same calls are fine (setup path).
  netB.setCapacity(r, 2e6);
  EXPECT_EQ(netB.capacity(r), 2e6);
}

TEST(ShardSafetyTest, CrossEngineScheduleThrows) {
  Engine engA;
  Engine engB;
  bool checked = false;
  engA.scheduleAt(1.0, [&] {
    EXPECT_THROW(engB.scheduleAt(5.0, [] {}), PreconditionError);
    checked = true;
  });
  engA.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(engB.pendingEvents(), 0u);
}

// ---------------------------------------------------------------------------
// Failure propagation through the shard executor.

Task failingTask(Engine& eng, const char* what) {
  co_await Delay{0.5};
  (void)eng;
  throw std::runtime_error(what);
}

TEST(ClusterTest, LowestShardFailureWinsDeterministically) {
  for (unsigned workers : {1u, 4u}) {
    Cluster cl(smallSpec(4));
    // Two shards fail at the same simulated time; shard 1's error must be
    // the one reported regardless of worker count.
    cl.engine(1).spawn(failingTask(cl.engine(1), "shard-1 failure"));
    cl.engine(3).spawn(failingTask(cl.engine(3), "shard-3 failure"));
    try {
      cl.run(workers);
      FAIL() << "expected failure with " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard-1 failure");
    }
  }
}

// ---------------------------------------------------------------------------
// Regression: sub-ulp cache-transition livelock. With many cache-enabled
// servers under synchronized bursts, some server's level lands within
// (kLevelEpsilon, fill * ulp(now)) of the threshold; the transition eta is
// then positive but below the clock's resolution, and before the
// nextafter clamp in StorageServer::scheduleTransition the event re-fired
// at a frozen timestamp forever (dt == 0, level never integrates). This
// exact campaign (same seed, server count, and the same
// scenarios::burstWriter the perf_cluster storage tier compiles)
// livelocked at t~30.07; the test hangs into the ctest timeout if the
// clamp regresses.

TEST(StorageAtScaleTest, SynchronizedBurstCampaignDrainsWithoutLivelock) {
  ClusterSpec spec;
  spec.shards = 1;
  spec.seed = 0x57024A6Eull;
  Cluster cl(spec);
  Engine& eng = cl.engine(0);
  FlowNet& net = cl.machine(0).net();
  std::vector<std::unique_ptr<calciom::storage::StorageServer>> servers;
  for (int i = 0; i < 32; ++i) {
    calciom::storage::StorageServer::Config cfg;
    cfg.nicBandwidth = 1e9;
    cfg.diskBandwidth = 50e6;
    cfg.cacheBytes = 64e6;
    cfg.localityAlpha = 0.4;
    servers.push_back(std::make_unique<calciom::storage::StorageServer>(
        eng, net, cfg, std::string("s").append(std::to_string(i))));
    for (int a = 0; a < 2; ++a) {
      eng.spawn(calciom::scenarios::burstWriter(
          eng, net, servers.back()->ingress(),
          static_cast<std::uint32_t>(i * 2 + a), 6, 10.0));
    }
  }
  cl.run(1);
  EXPECT_TRUE(cl.empty());
  EXPECT_EQ(eng.liveTasks(), 0u);
  // The transition churn actually happened (the profile is live), and every
  // server ended drained and unsaturated.
  std::uint64_t scheduled = 0;
  for (const auto& srv : servers) {
    scheduled += srv->transitionProfile().scheduled;
    EXPECT_FALSE(srv->cacheSaturated());
  }
  EXPECT_GT(scheduled, 100u);
}

// Satellite regression (ISSUE 4): the same sub-ulp clamp exercised the way
// production runs it — a multi-shard Cluster on a worker pool, with batched
// equal-time dispatch consuming the synchronized burst storms AND a barrier
// hook active at every sync horizon (the hook path re-enters the engines
// between rounds, which the 1-shard regression above never covers). Hangs
// into the ctest timeout if the nextafter clamp in
// StorageServer::scheduleTransition regresses under this dispatch mode.

TEST(StorageAtScaleTest, LivelockClampHoldsUnderMultiShardBatchedDispatch) {
  struct CountingHook final : calciom::sim::BarrierHook {
    std::uint64_t calls = 0;
    bool onBarrier(Time) override {
      ++calls;
      return false;  // observes every barrier, schedules nothing
    }
  };
  ClusterSpec spec;
  spec.shards = 4;
  spec.seed = 0x57024A6Eull;  // the livelocking campaign's seed
  Cluster cl(spec);
  CountingHook hook;
  cl.addBarrierHook(&hook);
  std::vector<std::vector<std::unique_ptr<calciom::storage::StorageServer>>>
      servers(4);
  for (std::size_t s = 0; s < 4; ++s) {
    Engine& eng = cl.engine(s);
    FlowNet& net = cl.machine(s).net();
    for (int i = 0; i < 32; ++i) {
      calciom::storage::StorageServer::Config cfg;
      cfg.nicBandwidth = 1e9;
      cfg.diskBandwidth = 50e6;
      cfg.cacheBytes = 64e6;
      cfg.localityAlpha = 0.4;
      servers[s].push_back(std::make_unique<calciom::storage::StorageServer>(
          eng, net, cfg, std::string("s").append(std::to_string(i))));
      for (int a = 0; a < 2; ++a) {
        eng.spawn(calciom::scenarios::burstWriter(
            eng, net, servers[s].back()->ingress(),
            static_cast<std::uint32_t>(i * 2 + a), 6, 10.0));
      }
    }
  }
  cl.run(2);
  EXPECT_TRUE(cl.empty());
  const auto stats = cl.stats();
  // The batch path actually engaged: synchronized bursts put several events
  // on the same timestamp, so batches must be fewer than events.
  EXPECT_LT(stats.total.dispatchBatches, stats.total.processedEvents);
  EXPECT_GT(hook.calls, 0u);  // barrier hooks were live during the campaign
  std::uint64_t scheduled = 0;
  for (const auto& shard : servers) {
    for (const auto& srv : shard) {
      scheduled += srv->transitionProfile().scheduled;
      EXPECT_FALSE(srv->cacheSaturated());
    }
  }
  EXPECT_GT(scheduled, 400u);  // the transition churn happened on all shards
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cl.engine(s).liveTasks(), 0u) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// Work estimate: Cluster::runRounds wakes the pool only for work that can
// overlap — events the active shards dispatched on their last activation,
// minus the busiest shard's. Flow workers wait on completion triggers, so
// after they start a shard holds a few pending events while it settles
// hundreds of flows per round; the estimate has to see that work, and has
// to leave a round that one shard dominates on the caller.

/// Shards running perf_cluster's clustered flow scenario (or idle tickers).
/// Scenario plans and resource tables live here: flow workers reference
/// them for the whole run.
struct FlowCampaign {
  explicit FlowCampaign(std::size_t shards)
      : cluster(smallSpec(shards)), res(shards), plans(shards) {}

  void addFlows(std::size_t shard, int clusters, int workers) {
    plans[shard] = calciom::scenarios::makeClusteredScenario(
        0xF10A5ull + shard, clusters, workers, /*flowsPerWorker=*/4);
    FlowNet& net = cluster.machine(shard).net();
    for (double cap : plans[shard].capacities) {
      res[shard].push_back(net.addResource(cap));
    }
    for (const auto& plan : plans[shard].workers) {
      cluster.engine(shard).spawn(
          calciom::scenarios::flowWorker(net, plan, res[shard]));
    }
  }

  Cluster cluster;
  std::vector<std::vector<ResourceId>> res;
  std::vector<calciom::scenarios::FlowScenario> plans;
};

/// One event every `period` simulated seconds: a shard that is active in
/// every round but does almost nothing.
Task ticker(int ticks, Time period) {
  for (int i = 0; i < ticks; ++i) {
    co_await Delay{period};
  }
}

/// Eight equally busy flow shards. Workers start within 2 simulated
/// seconds; `pooledAfterStart` counts only rounds after that, when the
/// pending-event count no longer sees the flows being settled.
struct BalancedRun {
  calciom::platform::ClusterStats stats;
  std::uint64_t pooledAfterStart = 0;
  std::vector<std::uint64_t> processed;
  std::vector<Time> now;
};

BalancedRun runBalanced(unsigned workers) {
  FlowCampaign fc(8);
  for (std::size_t s = 0; s < 8; ++s) {
    fc.addFlows(s, /*clusters=*/64, /*workers=*/256);
  }
  fc.cluster.runUntil(2.05, workers);
  const std::uint64_t pooledAtStart = fc.cluster.stats().pooledRounds;
  fc.cluster.run(workers);
  BalancedRun out;
  out.stats = fc.cluster.stats();
  out.pooledAfterStart = out.stats.pooledRounds - pooledAtStart;
  for (std::size_t s = 0; s < 8; ++s) {
    out.processed.push_back(fc.cluster.engine(s).processedEvents());
    out.now.push_back(fc.cluster.engine(s).now());
  }
  EXPECT_TRUE(fc.cluster.empty());
  return out;
}

TEST(ClusterWorkEstimateTest, BalancedBusyFlowShardsUseThePool) {
  const BalancedRun run = runBalanced(4);
  EXPECT_GT(run.stats.pooledRounds, 0u);
  EXPECT_GT(run.pooledAfterStart, 0u);
}

TEST(ClusterWorkEstimateTest, OneHeavyShardAmongIdleOnesStaysOnTheCaller) {
  FlowCampaign fc(6);
  fc.addFlows(0, /*clusters=*/128, /*workers=*/1024);
  for (std::size_t s = 1; s < 6; ++s) {
    fc.cluster.engine(s).spawn(ticker(/*ticks=*/100, /*period=*/0.1));
  }
  fc.cluster.run(4);
  const auto st = fc.cluster.stats();
  // Every round reaches the idle shards, so the pool had its chance...
  EXPECT_GT(st.syncRounds, 20u);
  EXPECT_GT(fc.cluster.engine(0).processedEvents(), 4000u);
  // ...but their events are all that could overlap with the heavy shard.
  EXPECT_EQ(st.pooledRounds, 0u);
}

TEST(ClusterWorkEstimateTest, OnlyPooledRoundsVaryWithWorkerCount) {
  const BalancedRun one = runBalanced(1);
  const BalancedRun four = runBalanced(4);
  EXPECT_EQ(one.stats.pooledRounds, 0u);
  EXPECT_GT(four.stats.pooledRounds, 0u);
  const auto& a = one.stats;
  const auto& b = four.stats;
  EXPECT_EQ(a.total.processedEvents, b.total.processedEvents);
  EXPECT_EQ(a.total.scheduledEvents, b.total.scheduledEvents);
  EXPECT_EQ(a.total.pendingEvents, b.total.pendingEvents);
  EXPECT_EQ(a.total.maxQueueDepth, b.total.maxQueueDepth);
  EXPECT_EQ(a.total.dispatchBatches, b.total.dispatchBatches);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.syncRounds, b.syncRounds);
  EXPECT_EQ(a.horizonSteps, b.horizonSteps);
  EXPECT_EQ(a.soloRounds, b.soloRounds);
  EXPECT_EQ(a.dispatchedShards, b.dispatchedShards);
  EXPECT_EQ(a.barrierExchangesNonEmpty, b.barrierExchangesNonEmpty);
  EXPECT_EQ(a.barrierExchangesEmpty, b.barrierExchangesEmpty);
  EXPECT_EQ(a.barriersSkipped, b.barriersSkipped);
  EXPECT_EQ(one.processed, four.processed);
  EXPECT_EQ(one.now, four.now);  // bit-identical clocks
}

// ---------------------------------------------------------------------------
// ShardExecutor unit coverage (serial path, pool path, error slots).

TEST(ShardExecutorTest, RunsEveryIndexExactlyOnce) {
  for (unsigned workers : {1u, 2u, 8u}) {
    ShardExecutor exec(workers);
    std::vector<std::atomic<int>> hits(64);
    exec.parallelFor(64, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // Reusable across rounds.
    exec.parallelFor(64, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 2) << "index " << i;
    }
  }
}

TEST(ShardExecutorTest, LowestIndexExceptionRethrown) {
  ShardExecutor exec(4);
  try {
    exec.parallelFor(16, [](std::size_t i) {
      if (i == 3 || i == 11) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
  // The executor survives a failed round.
  int count = 0;
  exec.parallelFor(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

}  // namespace
