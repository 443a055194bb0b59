// Machine-wide I/O campaign tests: real io::CollectiveWriter applications
// pinned on distinct compute shards of a platform::Cluster, sharing one PFS
// on a dedicated storage shard (platform::SharedStorageModel), coordinated
// by a calciom::GlobalArbiter at the sync-horizon barriers. The ISSUE 4
// acceptance criteria live here:
//  (a) campaigns are bit-identical for 1, 2 and 8 worker threads;
//  (b) the cluster path reproduces the single-machine Arbiter's decision
//      stream on the collapsed workload, delivers the same bytes, and
//      matches its aggregate throughput up to barrier/hop latency;
//  (c) a Writer paused at a cross-shard grant boundary issues no PFS
//      requests while the other shard's app holds the grant, and its
//      resumed transfer throughput matches the single-machine run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/cluster_scenario.hpp"
#include "analysis/scenario.hpp"
#include "io/pattern.hpp"
#include "net/flow_net.hpp"
#include "platform/cluster.hpp"
#include "platform/shared_storage.hpp"
#include "sim/barrier_hook.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace {

using calciom::analysis::ClusterAppPlan;
using calciom::analysis::ClusterRunResult;
using calciom::analysis::ClusterScenarioConfig;
using calciom::analysis::runCluster;
using calciom::core::Action;
using calciom::core::PolicyKind;
using calciom::io::contiguousPattern;
using calciom::platform::Cluster;
using calciom::platform::ClusterSpec;
using calciom::platform::MachineSpec;
using calciom::platform::RequestTrace;
using calciom::platform::SharedStorageModel;
using calciom::workload::IorConfig;

/// Small, fast machine: 4 servers x 16 MB/s disk (64 MB/s aggregate), 1 MB
/// collective buffers so a 64 MB phase runs 8 rounds of ~0.125 s each.
MachineSpec ioMachine() {
  MachineSpec m;
  m.name = "cio";
  m.totalCores = 512;
  m.coresPerNode = 8;
  m.coresPerIon = 0;
  m.streamNicBandwidth = calciom::net::kUnlimited;
  m.interconnect = calciom::mpi::CommCosts{.latency = 1e-5,
                                           .bandwidthPerProcess = 100e6};
  m.fs.serverCount = 4;
  m.fs.server.nicBandwidth = 16e6;
  m.fs.server.diskBandwidth = 16e6;
  m.fs.server.cacheBytes = 0.0;
  m.fs.server.localityAlpha = 0.0;
  m.fs.stripeBytes = 64 * 1024;
  m.fs.queuePenaltySeconds = 0.0;
  m.cbBufferBytes = 1ull << 20;
  m.coordinationLatencySeconds = 250e-6;
  return m;
}

IorConfig writerApp(const char* name, int processes, std::uint64_t mbPerProc,
                    double start, int iterations = 1,
                    double computeSeconds = 0.0) {
  IorConfig cfg;
  cfg.name = name;
  cfg.processes = processes;
  cfg.pattern = contiguousPattern(mbPerProc << 20);
  cfg.iterations = iterations;
  cfg.computeSeconds = computeSeconds;
  cfg.startOffset = start;
  return cfg;
}

void expectSameDecisionSchedule(
    const std::vector<calciom::core::DecisionRecord>& a,
    const std::vector<calciom::core::DecisionRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].requester, b[i].requester) << "decision " << i;
    EXPECT_EQ(a[i].accessors, b[i].accessors) << "decision " << i;
    EXPECT_EQ(a[i].action, b[i].action) << "decision " << i;
  }
}

// ---------------------------------------------------------------------------
// SharedStorageModel plumbing.

TEST(SharedStorageModelTest, DefaultsToLastShardAndInheritsLatency) {
  ClusterSpec spec;
  spec.shard = ioMachine();
  spec.shards = 3;
  spec.crossShardLatencySeconds = 2e-3;
  Cluster cl(spec);
  SharedStorageModel& model = SharedStorageModel::install(cl);
  EXPECT_EQ(model.storageShard(), 2u);
  EXPECT_DOUBLE_EQ(model.crossShardLatency(), 2e-3);
}

TEST(SharedStorageModelTest, LatencyFollowsClusterSpec) {
  ClusterSpec spec;
  spec.shard = ioMachine();
  spec.shards = 2;
  for (const double latency : {2e-3, 0.0}) {
    spec.crossShardLatencySeconds = latency;
    Cluster cl(spec);
    SharedStorageModel& model = SharedStorageModel::install(
        cl, SharedStorageModel::Config{.storageShard = 0});
    // 0.0 means free hops, not "unset".
    EXPECT_EQ(model.crossShardLatency(), latency);
    EXPECT_EQ(model.storageShard(), 0u);
  }
}

TEST(SharedStorageModelTest, AppIdReusableAfterClientDestroyed) {
  // Sequential campaigns reuse application ids (the arbiter side supports
  // this via onApplicationLaunched); destroying the old remote client must
  // release its storage-side executor so the id can be provisioned again.
  ClusterSpec spec;
  spec.shard = ioMachine();
  spec.shards = 2;
  Cluster cl(spec);
  SharedStorageModel& model = SharedStorageModel::install(cl);
  calciom::pfs::ClientContext ctx;
  ctx.appId = 5;
  ctx.appName = "seq";
  { auto client = model.makeClient(0, ctx); }
  const auto again = model.makeClient(0, ctx);
  EXPECT_NE(again, nullptr);
}

TEST(SharedStorageModelTest, StorageShardAppBypassesTheExchange) {
  // One app placed on the storage shard itself: the serial special case —
  // no requests cross the exchange, yet the write lands on the shared fs.
  ClusterScenarioConfig cfg;
  cfg.machine = ioMachine();
  cfg.shards = 2;  // shard 1 is storage
  cfg.apps = {{writerApp("local", 32, 1, 0.0), 1}};
  cfg.coordinated = false;
  const ClusterRunResult r = runCluster(cfg);
  EXPECT_EQ(r.storage.requestsForwarded, 0u);
  EXPECT_TRUE(r.requestLog.empty());
  EXPECT_NEAR(r.bytesDelivered, 32.0 * (1 << 20), 1.0);
}

TEST(SharedStorageModelTest, RemoteWritePaysBarrierAndHop) {
  // The same app on a compute shard: bytes land via the exchange, and the
  // phase costs more than the storage-shard run by the request/completion
  // crossings — but only barrier-quantization-scale more.
  ClusterScenarioConfig local;
  local.machine = ioMachine();
  local.shards = 2;
  local.syncHorizonSeconds = 0.005;
  local.apps = {{writerApp("w", 32, 1, 0.0), 1}};
  local.coordinated = false;
  const ClusterRunResult onStorage = runCluster(local);

  ClusterScenarioConfig remote = local;
  remote.apps = {{writerApp("w", 32, 1, 0.0), 0}};
  const ClusterRunResult offStorage = runCluster(remote);

  EXPECT_GT(offStorage.storage.requestsForwarded, 0u);
  EXPECT_EQ(offStorage.storage.requestsForwarded,
            offStorage.storage.completionsForwarded);
  EXPECT_NEAR(offStorage.bytesDelivered, onStorage.bytesDelivered, 1.0);
  EXPECT_GT(offStorage.spanSeconds, onStorage.spanSeconds);
  // 8 rounds x (horizon + 2 hops) is the worst case on top of the transfer.
  EXPECT_LT(offStorage.spanSeconds, onStorage.spanSeconds * 1.5);
}

/// Records every barrier time; never asks for a barrier of its own.
class BarrierLog final : public calciom::sim::BarrierHook {
 public:
  bool onBarrier(calciom::sim::Time barrierTime) override {
    times.push_back(barrierTime);
    return false;
  }
  calciom::sim::Time nextBarrierNeededBy(calciom::sim::Time) override {
    return calciom::sim::kNever;
  }
  std::vector<calciom::sim::Time> times;
};

calciom::sim::Task writeOnce(calciom::sim::Engine& eng,
                             calciom::pfs::PfsClient& client,
                             calciom::sim::Time* firedAt) {
  co_await *client.writeRange("f", 0, 4ull << 20, 4.0);
  *firedAt = eng.now();
}

TEST(SharedStorageModelTest, CompletionLandsOneHopAfterItsBarrier) {
  // A reduced storage tier: one remote write. Its completion is forwarded
  // at the first barrier after the storage shard finished it and lands on
  // the origin shard at max(barrier, origin clock) + latency. The origin
  // shard sits idle meanwhile, so its clock trails the barrier.
  ClusterSpec spec;
  spec.shard = ioMachine();
  spec.shards = 2;  // shard 1 is storage
  spec.syncHorizonSeconds = 0.01;
  spec.crossShardLatencySeconds = 0.003;
  Cluster cl(spec);
  SharedStorageModel& model = SharedStorageModel::install(cl);
  auto owned = std::make_unique<BarrierLog>();
  BarrierLog& log = *owned;
  cl.adoptBarrierHook(std::move(owned));
  calciom::platform::ProvisionedApp app = model.provisionApp(0, 1, "w", 32);
  const auto client = model.makeClient(0, std::move(app.clientContext));
  calciom::sim::Time firedAt = -1.0;
  cl.engine(0).spawn(writeOnce(cl.engine(0), *client, &firedAt));
  cl.run();

  ASSERT_EQ(model.requestLog().size(), 1u);
  const calciom::sim::Time done = model.requestLog()[0].completeTime;
  ASSERT_GT(done, 0.0);
  const auto barrier =
      std::find_if(log.times.begin(), log.times.end(),
                   [&](calciom::sim::Time t) { return t > done; });
  ASSERT_NE(barrier, log.times.end());
  EXPECT_EQ(model.stats().completionsForwarded, 1u);
  EXPECT_EQ(firedAt, *barrier + spec.crossShardLatencySeconds);
}

// ---------------------------------------------------------------------------
// (a) Bit-identical campaigns across worker counts.

ClusterScenarioConfig contendedCampaign(unsigned workers) {
  // 3 compute shards + 1 storage shard, 6 writers with staggered arrivals
  // and two iterations each under the dynamic policy: enough overlap that
  // the arbiter queues and interrupts across shards.
  ClusterScenarioConfig cfg;
  cfg.machine = ioMachine();
  cfg.shards = 4;
  cfg.policy = PolicyKind::Dynamic;
  cfg.workers = workers;
  for (int i = 0; i < 6; ++i) {
    IorConfig app = writerApp(("app" + std::to_string(i + 1)).c_str(),
                              16 + 16 * (i % 3), 1, 0.4 * i,
                              /*iterations=*/2, /*computeSeconds=*/1.0);
    cfg.apps.push_back({app, static_cast<std::size_t>(i % 3)});
  }
  return cfg;
}

TEST(ClusterIoTest, CampaignBitIdenticalAcrossWorkerCounts) {
  const ClusterRunResult r1 = runCluster(contendedCampaign(1));
  const ClusterRunResult r2 = runCluster(contendedCampaign(2));
  const ClusterRunResult r8 = runCluster(contendedCampaign(8));

  // The campaign must actually exercise cross-shard coordination and I/O.
  EXPECT_GE(r1.decisions.size(), 4u);
  EXPECT_GT(r1.storage.requestsForwarded, 0u);

  for (const ClusterRunResult* other : {&r2, &r8}) {
    ASSERT_EQ(r1.decisions.size(), other->decisions.size());
    for (std::size_t i = 0; i < r1.decisions.size(); ++i) {
      EXPECT_EQ(r1.decisions[i].time, other->decisions[i].time);
      EXPECT_EQ(r1.decisions[i].requester, other->decisions[i].requester);
      EXPECT_EQ(r1.decisions[i].accessors, other->decisions[i].accessors);
      EXPECT_EQ(r1.decisions[i].action, other->decisions[i].action);
    }
    EXPECT_EQ(r1.grantsIssued, other->grantsIssued);
    EXPECT_EQ(r1.pausesIssued, other->pausesIssued);
    // Whole-platform state: every shard's event count and final clock, the
    // delivered-byte total, and every app's timing, bit for bit.
    EXPECT_EQ(r1.shardEvents, other->shardEvents);
    EXPECT_EQ(r1.shardClocks, other->shardClocks);
    EXPECT_EQ(r1.bytesDelivered, other->bytesDelivered);
    EXPECT_EQ(r1.syncRounds, other->syncRounds);
    ASSERT_EQ(r1.apps.size(), other->apps.size());
    for (std::size_t i = 0; i < r1.apps.size(); ++i) {
      EXPECT_EQ(r1.apps[i].firstStart, other->apps[i].firstStart);
      EXPECT_EQ(r1.apps[i].lastEnd, other->apps[i].lastEnd);
      EXPECT_EQ(r1.apps[i].totalBytes(), other->apps[i].totalBytes());
    }
    // The exchange itself: same requests, in the same order, at the same
    // (bit-identical) issue and dispatch times.
    ASSERT_EQ(r1.requestLog.size(), other->requestLog.size());
    for (std::size_t i = 0; i < r1.requestLog.size(); ++i) {
      EXPECT_EQ(r1.requestLog[i].appId, other->requestLog[i].appId);
      EXPECT_EQ(r1.requestLog[i].originShard,
                other->requestLog[i].originShard);
      EXPECT_EQ(r1.requestLog[i].issueTime, other->requestLog[i].issueTime);
      EXPECT_EQ(r1.requestLog[i].dispatchTime,
                other->requestLog[i].dispatchTime);
      EXPECT_EQ(r1.requestLog[i].bytes, other->requestLog[i].bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// (b) Collapse equivalence: same apps, cluster path vs the single-machine
// Arbiter (analysis::runMany). Coordination events are spaced wider than
// the sync horizon, so the decision schedule must agree exactly; transfer
// physics are identical, so delivered bytes agree exactly; the span differs
// only by barrier/hop latency, so aggregate throughput agrees within 10%.

std::vector<IorConfig> spacedApps() {
  return {
      writerApp("A", 64, 1, 0.0),   // 64 MB, 8 rounds, ~1 s of transfer
      writerApp("B", 32, 1, 2.0),   // arrives while A writes
      writerApp("C", 16, 1, 6.0),   // arrives after both finished
  };
}

calciom::analysis::ManyResult runCollapsed(PolicyKind policy) {
  calciom::analysis::ManyConfig cfg;
  cfg.machine = ioMachine();
  cfg.policy = policy;
  cfg.apps = spacedApps();
  return calciom::analysis::runMany(cfg);
}

ClusterRunResult runMachineWide(PolicyKind policy, unsigned workers) {
  ClusterScenarioConfig cfg;
  cfg.machine = ioMachine();
  cfg.shards = 4;  // A, B, C on shards 0..2; storage on 3
  cfg.syncHorizonSeconds = 0.005;
  cfg.policy = policy;
  cfg.workers = workers;
  const std::vector<IorConfig> apps = spacedApps();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    cfg.apps.push_back({apps[i], i});
  }
  return runCluster(cfg);
}

void expectCollapseEquivalent(PolicyKind policy) {
  const ClusterRunResult global = runMachineWide(policy, 2);
  const calciom::analysis::ManyResult collapsed = runCollapsed(policy);
  expectSameDecisionSchedule(global.decisions, collapsed.decisions);
  EXPECT_NEAR(global.bytesDelivered, collapsed.bytesDelivered, 1.0);
  const double aggGlobal = global.bytesDelivered / global.spanSeconds;
  const double aggCollapsed =
      collapsed.bytesDelivered / collapsed.spanSeconds;
  EXPECT_NEAR(aggGlobal, aggCollapsed, 0.10 * aggCollapsed);
}

TEST(ClusterIoTest, MatchesCollapsedRunUnderFcfs) {
  expectCollapseEquivalent(PolicyKind::Fcfs);
}

TEST(ClusterIoTest, MatchesCollapsedRunUnderInterrupt) {
  expectCollapseEquivalent(PolicyKind::Interrupt);
}

TEST(ClusterIoTest, MatchesCollapsedRunUnderDynamic) {
  expectCollapseEquivalent(PolicyKind::Dynamic);
}

// ---------------------------------------------------------------------------
// (c) Pause/resume at a cross-shard grant boundary.

TEST(ClusterIoTest, PausedWriterIssuesNoRequestsWhileOtherHoldsGrant) {
  ClusterScenarioConfig cfg;
  cfg.machine = ioMachine();
  cfg.shards = 3;  // A on 0, B on 1, storage on 2
  cfg.syncHorizonSeconds = 0.005;
  cfg.policy = PolicyKind::Interrupt;
  cfg.workers = 2;
  cfg.apps = {{writerApp("A", 64, 2, 0.0), 0},   // 128 MB, 16 rounds
              {writerApp("B", 16, 1, 0.8), 1}};  // 16 MB, 2 rounds
  const ClusterRunResult r = runCluster(cfg);

  // The interrupt actually happened, across shards.
  EXPECT_EQ(r.pausesIssued, 1u);
  EXPECT_EQ(r.apps[0].pausesHonored, 1);
  EXPECT_GT(r.apps[0].sessionPausedSeconds, 0.0);
  EXPECT_LT(r.apps[1].lastEnd, r.apps[0].lastEnd);

  // While B held the grant, A issued nothing: every A request was issued
  // either before B's first request or after B finished. (A's in-flight
  // round from before the pause ack may still *complete* inside B's window
  // — the paper pauses at request granularity, not mid-transfer.)
  double bFirstIssue = -1.0;
  for (const RequestTrace& t : r.requestLog) {
    if (t.appId == 2) {
      bFirstIssue = t.issueTime;
      break;
    }
  }
  ASSERT_GE(bFirstIssue, 0.0);
  const double bEnd = r.apps[1].lastEnd;
  int aBefore = 0;
  int aAfter = 0;
  for (const RequestTrace& t : r.requestLog) {
    if (t.appId != 1) {
      continue;
    }
    const bool before = t.issueTime < bFirstIssue;
    const bool after = t.issueTime >= bEnd;
    EXPECT_TRUE(before || after)
        << "A issued a request at t=" << t.issueTime
        << " inside B's access window [" << bFirstIssue << ", " << bEnd
        << ")";
    aBefore += before ? 1 : 0;
    aAfter += after ? 1 : 0;
  }
  EXPECT_GT(aBefore, 0);  // A was writing before the interrupt
  EXPECT_GT(aAfter, 0);   // and resumed after B released

  // Resumed throughput: A's pure transfer time must match the
  // single-machine Arbiter on the collapsed workload (the flows run at
  // identical rates; only coordination latency differs).
  calciom::analysis::ManyConfig collapsed;
  collapsed.machine = ioMachine();
  collapsed.policy = PolicyKind::Interrupt;
  collapsed.apps = {writerApp("A", 64, 2, 0.0), writerApp("B", 16, 1, 0.8)};
  const calciom::analysis::ManyResult single =
      calciom::analysis::runMany(collapsed);
  ASSERT_EQ(single.pausesIssued, 1u);
  // Writer-side writeSeconds contains the exchange's barrier/hop latency,
  // so the apples-to-apples quantity is the storage-side transfer time:
  // sum of dispatch->complete per request, which must equal the collapsed
  // run's transfer time (the flows run at identical rates in both).
  double clusterTransfer = 0.0;
  for (const RequestTrace& t : r.requestLog) {
    if (t.appId == 1) {
      ASSERT_GT(t.completeTime, t.dispatchTime);
      clusterTransfer += t.completeTime - t.dispatchTime;
    }
  }
  const double singleWrite = single.apps[0].iterations[0].writeSeconds();
  EXPECT_NEAR(clusterTransfer, singleWrite, 1e-6 + 1e-6 * singleWrite);
  EXPECT_EQ(r.apps[0].totalBytes(), single.apps[0].totalBytes());
  // End-to-end span (coordination cost included) stays within 15%.
  const double clusterSpanA = r.apps[0].lastEnd - r.apps[0].firstStart;
  const double singleSpanA =
      single.apps[0].lastEnd - single.apps[0].firstStart;
  EXPECT_NEAR(clusterSpanA, singleSpanA, 0.15 * singleSpanA);
}

// ---------------------------------------------------------------------------
// Machine-wide interference sanity: with no coordination, two writers on
// different shards really do contend inside the one shared file system.

TEST(ClusterIoTest, UncoordinatedWritersInterfereThroughSharedPfs) {
  ClusterScenarioConfig together;
  together.machine = ioMachine();
  together.machine.fs.server.localityAlpha = 0.10;
  together.shards = 3;
  together.syncHorizonSeconds = 0.005;
  together.coordinated = false;
  together.apps = {{writerApp("A", 64, 1, 0.0), 0},
                   {writerApp("B", 64, 1, 0.0), 1}};
  const ClusterRunResult pair = runCluster(together);

  ClusterScenarioConfig aloneCfg = together;
  aloneCfg.apps = {{writerApp("A", 64, 1, 0.0), 0}};
  const ClusterRunResult alone = runCluster(aloneCfg);

  const double aloneSpan = alone.apps[0].lastEnd - alone.apps[0].firstStart;
  const double withBSpan = pair.apps[0].lastEnd - pair.apps[0].firstStart;
  // Equal-weight sharing plus locality loss: A should take ~2x or worse.
  EXPECT_GT(withBSpan, 1.8 * aloneSpan);
  EXPECT_NEAR(pair.bytesDelivered, 2.0 * alone.bytesDelivered, 1.0);
}

}  // namespace
