// Cross-shard coordination tests: a GlobalArbiter over platform::Cluster
// must (a) actually serialize applications living on different shards,
// (b) produce bit-identical DecisionRecord streams for 1, 2 and 8 worker
// threads (the ISSUE 3 acceptance criterion), and (c) make the same
// decisions the same-engine Arbiter makes when the workload is collapsed
// onto one machine — both frontends drive the same ArbiterCore, and the
// barrier exchange must not change the schedule when coordination events
// are spaced wider than the sync horizon.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "calciom/arbiter.hpp"
#include "calciom/global_arbiter.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "io/hooks.hpp"
#include "mpi/port.hpp"
#include "platform/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace {

using calciom::ArbiterStub;
using calciom::GlobalArbiter;
using calciom::core::Action;
using calciom::core::Arbiter;
using calciom::core::DecisionRecord;
using calciom::core::HookGranularity;
using calciom::core::makePolicy;
using calciom::core::PolicyKind;
using calciom::core::Session;
using calciom::core::SessionConfig;
using calciom::io::PhaseInfo;
using calciom::mpi::PortRegistry;
using calciom::platform::Cluster;
using calciom::platform::ClusterSpec;
using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::Task;
using calciom::sim::Time;

struct AppResult {
  Time start = -1.0;
  Time end = -1.0;
};

PhaseInfo phaseInfo(std::uint32_t appId, int rounds, double roundSeconds) {
  PhaseInfo info;
  info.appId = appId;
  info.appName = "app" + std::to_string(appId);
  info.processes = 64;
  info.files = 1;
  info.roundsPerFile = rounds;
  info.totalBytes = 1000;
  info.bytesPerRound = 1000 / static_cast<std::uint64_t>(rounds);
  info.estimatedAloneSeconds = rounds * roundSeconds;
  return info;
}

/// A synthetic application phase: `rounds` rounds of `roundSeconds`, hooks
/// driven exactly like the real writer drives them; repeated `phases`
/// times with `idleSeconds` of compute between phases.
Task synthApp(Engine& eng, Session& session, int rounds, double roundSeconds,
              Time startAt, int phases, double idleSeconds, AppResult* out) {
  co_await Delay{startAt};
  out->start = eng.now();
  for (int p = 0; p < phases; ++p) {
    if (p > 0) {
      co_await Delay{idleSeconds};
    }
    co_await eng.spawn(session.beginPhase(
        phaseInfo(session.config().appId, rounds, roundSeconds)));
    for (int r = 0; r < rounds; ++r) {
      co_await Delay{roundSeconds};
      if (r + 1 < rounds) {
        co_await eng.spawn(session.roundBoundary(
            static_cast<double>(r + 1) / static_cast<double>(rounds)));
      }
    }
    co_await eng.spawn(session.endPhase());
  }
  out->end = eng.now();
}

struct AppPlan {
  std::uint32_t id = 0;
  std::size_t shard = 0;
  int cores = 64;
  int rounds = 1;
  double roundSeconds = 1.0;
  double start = 0.0;
  int phases = 1;
  double idleSeconds = 1.0;
};

struct CampaignResult {
  std::vector<DecisionRecord> decisions;
  std::vector<AppResult> apps;
  std::size_t grants = 0;
  std::size_t pauses = 0;
  std::uint64_t merged = 0;
  std::uint64_t exchanges = 0;
  std::vector<std::uint64_t> shardEvents;
  std::vector<double> shardClocks;
};

CampaignResult runGlobal(const std::vector<AppPlan>& plans,
                         std::size_t shards, PolicyKind kind,
                         unsigned workers) {
  ClusterSpec spec;
  spec.name = "xshard";
  spec.shards = shards;
  spec.syncHorizonSeconds = 0.5;
  Cluster cl(spec);
  GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(kind));
  std::vector<std::unique_ptr<Session>> sessions;
  CampaignResult out;
  out.apps.resize(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const AppPlan& p = plans[i];
    Engine& eng = cl.engine(p.shard);
    sessions.push_back(std::make_unique<Session>(
        eng, cl.machine(p.shard).ports(),
        SessionConfig{.appId = p.id,
                      .appName = "app" + std::to_string(p.id),
                      .cores = p.cores,
                      .granularity = HookGranularity::PerRound}));
    eng.spawn(synthApp(eng, *sessions.back(), p.rounds, p.roundSeconds,
                       p.start, p.phases, p.idleSeconds, &out.apps[i]));
  }
  cl.run(workers);
  out.decisions = ga.decisions();
  out.grants = ga.grantsIssued();
  out.pauses = ga.pausesIssued();
  out.merged = ga.messagesMerged();
  out.exchanges = ga.exchanges();
  for (std::size_t s = 0; s < cl.shardCount(); ++s) {
    out.shardEvents.push_back(cl.engine(s).processedEvents());
    out.shardClocks.push_back(cl.engine(s).now());
  }
  return out;
}

CampaignResult runCollapsed(const std::vector<AppPlan>& plans,
                            PolicyKind kind) {
  Engine eng;
  PortRegistry ports(eng, 250e-6);
  Arbiter arbiter(eng, ports, makePolicy(kind));
  std::vector<std::unique_ptr<Session>> sessions;
  CampaignResult out;
  out.apps.resize(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const AppPlan& p = plans[i];
    sessions.push_back(std::make_unique<Session>(
        eng, ports,
        SessionConfig{.appId = p.id,
                      .appName = "app" + std::to_string(p.id),
                      .cores = p.cores,
                      .granularity = HookGranularity::PerRound}));
    eng.spawn(synthApp(eng, *sessions.back(), p.rounds, p.roundSeconds,
                       p.start, p.phases, p.idleSeconds, &out.apps[i]));
  }
  eng.run();
  out.decisions = arbiter.decisions();
  out.grants = arbiter.grantsIssued();
  out.pauses = arbiter.pausesIssued();
  return out;
}

void expectDecisionsBitIdentical(const std::vector<DecisionRecord>& a,
                                 const std::vector<DecisionRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "decision " << i;
    EXPECT_EQ(a[i].requester, b[i].requester) << "decision " << i;
    EXPECT_EQ(a[i].accessors, b[i].accessors) << "decision " << i;
    EXPECT_EQ(a[i].action, b[i].action) << "decision " << i;
    ASSERT_EQ(a[i].costs.size(), b[i].costs.size()) << "decision " << i;
    for (std::size_t j = 0; j < a[i].costs.size(); ++j) {
      EXPECT_EQ(a[i].costs[j].action, b[i].costs[j].action);
      EXPECT_EQ(a[i].costs[j].metricCost, b[i].costs[j].metricCost);
      ASSERT_EQ(a[i].costs[j].terms.size(), b[i].costs[j].terms.size());
      for (std::size_t k = 0; k < a[i].costs[j].terms.size(); ++k) {
        EXPECT_EQ(a[i].costs[j].terms[k].cores, b[i].costs[j].terms[k].cores);
        EXPECT_EQ(a[i].costs[j].terms[k].ioSeconds,
                  b[i].costs[j].terms[k].ioSeconds);
        EXPECT_EQ(a[i].costs[j].terms[k].aloneSeconds,
                  b[i].costs[j].terms[k].aloneSeconds);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Functional behaviour across shards.

TEST(GlobalArbiterTest, SerializesAppsOnDifferentShards) {
  // Two apps on two shards under FCFS: B must not overlap A even though
  // nothing else couples the shards.
  const std::vector<AppPlan> plans = {
      {.id = 1, .shard = 0, .rounds = 4, .roundSeconds = 1.0, .start = 0.0},
      {.id = 2, .shard = 1, .rounds = 2, .roundSeconds = 1.0, .start = 1.5},
  };
  const CampaignResult r = runGlobal(plans, 2, PolicyKind::Fcfs, 1);
  EXPECT_EQ(r.grants, 2u);
  EXPECT_EQ(r.pauses, 0u);
  // A runs ~[0.5, 4.5]; B informs at 1.5 and must wait for A's completion
  // to cross a barrier before its grant arrives.
  EXPECT_GT(r.apps[1].end - r.apps[1].start, 4.0);  // waited, then wrote 2s
  EXPECT_GT(r.apps[1].end, r.apps[0].end);          // strictly after A
  ASSERT_EQ(r.decisions.size(), 1u);
  EXPECT_EQ(r.decisions[0].requester, 2u);
  EXPECT_EQ(r.decisions[0].action, Action::Queue);
  EXPECT_EQ(r.decisions[0].accessors, std::vector<std::uint32_t>{1});
  EXPECT_GT(r.merged, 0u);
  EXPECT_GT(r.exchanges, 0u);
}

TEST(GlobalArbiterTest, InterruptCrossesShards) {
  // A long writer on shard 0 is paused for a short app on shard 2; the
  // pause, ack, grant, and resume all cross the barrier.
  const std::vector<AppPlan> plans = {
      {.id = 1, .shard = 0, .rounds = 10, .roundSeconds = 1.0, .start = 0.0},
      {.id = 2, .shard = 2, .rounds = 2, .roundSeconds = 1.0, .start = 4.2},
  };
  const CampaignResult r = runGlobal(plans, 3, PolicyKind::Interrupt, 1);
  EXPECT_EQ(r.pauses, 1u);
  ASSERT_EQ(r.decisions.size(), 1u);
  EXPECT_EQ(r.decisions[0].action, Action::Interrupt);
  // The interrupter finishes while the long writer is paused.
  EXPECT_LT(r.apps[1].end, r.apps[0].end);
  // The long writer lost ~the interrupter's phase plus coordination time.
  EXPECT_GT(r.apps[0].end - r.apps[0].start, 12.0);
}

TEST(GlobalArbiterTest, GrantPaysCrossShardLatency) {
  const std::vector<AppPlan> plans = {
      {.id = 1, .shard = 0, .rounds = 2, .roundSeconds = 1.0, .start = 0.0},
  };
  const CampaignResult r = runGlobal(plans, 2, PolicyKind::Fcfs, 1);
  // Inform waits for a barrier (≥ horizon quantization) and the grant pays
  // the cross-shard hop, so the lone app cannot finish in 2s flat.
  EXPECT_GT(r.apps[0].end - r.apps[0].start, 2.0 + 1e-3);
  EXPECT_EQ(r.grants, 1u);
  EXPECT_TRUE(r.decisions.empty());  // no contention, no decision
}

// ---------------------------------------------------------------------------
// Acceptance: bit-identical decisions for 1/2/8 workers.

std::vector<AppPlan> contendedCampaign() {
  // 8 shards x 2 apps with staggered arrivals, mixed sizes and two phases
  // each: enough overlap that the arbiter queues and interrupts, enough
  // apps that several messages share a barrier.
  std::vector<AppPlan> plans;
  for (std::uint32_t i = 0; i < 16; ++i) {
    AppPlan p;
    p.id = i + 1;
    p.shard = i % 8;
    p.cores = 32 + 32 * static_cast<int>(i % 4);       // 32..128
    p.rounds = 3 + static_cast<int>(i % 5);            // 3..7
    p.roundSeconds = 0.2 + 0.05 * static_cast<double>(i % 3);
    p.start = 0.3 * static_cast<double>(i);            // staggered arrivals
    p.phases = 2;
    p.idleSeconds = 1.0 + 0.25 * static_cast<double>(i % 4);
    plans.push_back(p);
  }
  return plans;
}

TEST(GlobalArbiterTest, DecisionsBitIdenticalAcrossWorkerCounts) {
  const std::vector<AppPlan> plans = contendedCampaign();
  const CampaignResult r1 = runGlobal(plans, 8, PolicyKind::Dynamic, 1);
  const CampaignResult r2 = runGlobal(plans, 8, PolicyKind::Dynamic, 2);
  const CampaignResult r8 = runGlobal(plans, 8, PolicyKind::Dynamic, 8);

  // The campaign must actually exercise coordination.
  EXPECT_GE(r1.decisions.size(), 10u);
  EXPECT_GT(r1.pauses, 0u);

  expectDecisionsBitIdentical(r1.decisions, r2.decisions);
  expectDecisionsBitIdentical(r1.decisions, r8.decisions);

  // And the whole simulated platform state, not just the arbiter: event
  // counts, final clocks and app spans are bit-identical too.
  EXPECT_EQ(r1.shardEvents, r2.shardEvents);
  EXPECT_EQ(r1.shardEvents, r8.shardEvents);
  EXPECT_EQ(r1.shardClocks, r2.shardClocks);
  EXPECT_EQ(r1.shardClocks, r8.shardClocks);
  ASSERT_EQ(r1.apps.size(), r8.apps.size());
  for (std::size_t i = 0; i < r1.apps.size(); ++i) {
    EXPECT_EQ(r1.apps[i].start, r2.apps[i].start);
    EXPECT_EQ(r1.apps[i].end, r2.apps[i].end);
    EXPECT_EQ(r1.apps[i].start, r8.apps[i].start);
    EXPECT_EQ(r1.apps[i].end, r8.apps[i].end);
  }
  EXPECT_EQ(r1.merged, r2.merged);
  EXPECT_EQ(r1.merged, r8.merged);
  EXPECT_EQ(r1.exchanges, r2.exchanges);
  EXPECT_EQ(r1.exchanges, r8.exchanges);
}

// ---------------------------------------------------------------------------
// Acceptance: the global arbiter matches the same-engine arbiter when the
// workload is collapsed onto one machine. Coordination events are spaced
// wider than the sync horizon so barrier quantization cannot reorder them;
// decision *times* shift by the barrier delay, but requester, accessor set
// and chosen action must agree exactly.

void expectSameSchedule(const CampaignResult& global,
                        const CampaignResult& collapsed) {
  ASSERT_EQ(global.decisions.size(), collapsed.decisions.size());
  for (std::size_t i = 0; i < global.decisions.size(); ++i) {
    EXPECT_EQ(global.decisions[i].requester, collapsed.decisions[i].requester)
        << "decision " << i;
    EXPECT_EQ(global.decisions[i].accessors, collapsed.decisions[i].accessors)
        << "decision " << i;
    EXPECT_EQ(global.decisions[i].action, collapsed.decisions[i].action)
        << "decision " << i;
  }
  EXPECT_EQ(global.grants, collapsed.grants);
  EXPECT_EQ(global.pauses, collapsed.pauses);
}

std::vector<AppPlan> spacedCampaign() {
  return {
      {.id = 1, .shard = 0, .cores = 128, .rounds = 10, .roundSeconds = 1.0,
       .start = 0.0},
      {.id = 2, .shard = 1, .cores = 64, .rounds = 2, .roundSeconds = 1.0,
       .start = 4.2},
      {.id = 3, .shard = 2, .cores = 32, .rounds = 2, .roundSeconds = 1.0,
       .start = 9.2},
  };
}

TEST(GlobalArbiterTest, MatchesCollapsedArbiterUnderInterrupt) {
  const std::vector<AppPlan> plans = spacedCampaign();
  const CampaignResult global =
      runGlobal(plans, 3, PolicyKind::Interrupt, 2);
  const CampaignResult collapsed =
      runCollapsed(plans, PolicyKind::Interrupt);
  ASSERT_EQ(collapsed.decisions.size(), 2u);
  EXPECT_EQ(collapsed.decisions[0].action, Action::Interrupt);
  expectSameSchedule(global, collapsed);
}

TEST(GlobalArbiterTest, MatchesCollapsedArbiterUnderFcfs) {
  const std::vector<AppPlan> plans = spacedCampaign();
  const CampaignResult global = runGlobal(plans, 3, PolicyKind::Fcfs, 2);
  const CampaignResult collapsed = runCollapsed(plans, PolicyKind::Fcfs);
  ASSERT_EQ(collapsed.decisions.size(), 2u);
  EXPECT_EQ(collapsed.decisions[0].action, Action::Queue);
  expectSameSchedule(global, collapsed);
}

TEST(GlobalArbiterTest, MatchesCollapsedArbiterUnderDynamic) {
  const std::vector<AppPlan> plans = spacedCampaign();
  const CampaignResult global = runGlobal(plans, 3, PolicyKind::Dynamic, 2);
  const CampaignResult collapsed = runCollapsed(plans, PolicyKind::Dynamic);
  expectSameSchedule(global, collapsed);
}

// ---------------------------------------------------------------------------
// Stub/termination plumbing.

TEST(GlobalArbiterTest, TerminationAppliedAtNextBarrierUnblocksQueue) {
  ClusterSpec spec;
  spec.shards = 2;
  spec.syncHorizonSeconds = 0.5;
  Cluster cl(spec);
  GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs));
  std::vector<std::unique_ptr<Session>> sessions;
  AppResult a;
  AppResult b;
  sessions.push_back(std::make_unique<Session>(
      cl.engine(0), cl.machine(0).ports(),
      SessionConfig{.appId = 1, .appName = "a", .cores = 64}));
  sessions.push_back(std::make_unique<Session>(
      cl.engine(1), cl.machine(1).ports(),
      SessionConfig{.appId = 2, .appName = "b", .cores = 64}));
  // A informs and then never completes (only a beginPhase, no rounds):
  // simulate a crashed job by terminating it mid-flight.
  cl.engine(0).spawn([](Engine& eng, Session& s, AppResult* out) -> Task {
    out->start = eng.now();
    co_await eng.spawn(s.beginPhase(phaseInfo(1, 100, 1.0)));
    co_await Delay{1000.0};  // "hangs" holding the access
    out->end = eng.now();
  }(cl.engine(0), *sessions[0], &a));
  cl.engine(1).spawn(synthApp(cl.engine(1), *sessions[1], 2, 1.0, 1.0, 1, 1.0,
                              &b));
  // Let A acquire and B queue up, then kill A.
  cl.runUntil(3.0, 1);
  EXPECT_EQ(ga.grantsIssued(), 1u);
  ga.onApplicationTerminated(1);
  cl.runUntil(10.0, 1);
  EXPECT_EQ(ga.grantsIssued(), 2u);  // B admitted after the termination
  EXPECT_GT(b.end, 0.0);
  EXPECT_EQ(ga.shardOf(2), 1u);
}

TEST(GlobalArbiterTest, TerminationDiscardsInFlightTrafficFromDeadApp) {
  // A's Inform is absorbed by its shard's stub in the same round in which
  // the job scheduler reports A terminated. The stale Inform must NOT
  // re-register (and grant) the dead job at the barrier — that accessor
  // would never complete and the queue behind it would deadlock.
  ClusterSpec spec;
  spec.shards = 2;
  spec.syncHorizonSeconds = 0.5;
  Cluster cl(spec);
  GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs));
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.push_back(std::make_unique<Session>(
      cl.engine(0), cl.machine(0).ports(),
      SessionConfig{.appId = 1, .appName = "a", .cores = 64}));
  sessions.push_back(std::make_unique<Session>(
      cl.engine(1), cl.machine(1).ports(),
      SessionConfig{.appId = 2, .appName = "b", .cores = 64}));
  AppResult a;
  AppResult b;
  cl.engine(0).spawn([](Engine& eng, Session& s, AppResult* out) -> Task {
    out->start = eng.now();
    co_await eng.spawn(s.beginPhase(phaseInfo(1, 100, 1.0)));
    out->end = eng.now();  // unreachable: killed before the grant
  }(cl.engine(0), *sessions[0], &a));
  cl.engine(1).spawn(synthApp(cl.engine(1), *sessions[1], 2, 1.0, 3.0, 1, 1.0,
                              &b));
  // A's Inform is in the stub outbox (sent at t=0, absorbed at ~250us) but
  // no barrier has run yet; the termination must win at the first barrier.
  ga.onApplicationTerminated(1);
  cl.run(2);
  EXPECT_EQ(ga.grantsIssued(), 1u);  // only B; the dead A was never granted
  EXPECT_TRUE(ga.core().currentAccessors().empty());
  EXPECT_GT(b.end, 0.0);  // B was not stuck behind a zombie accessor
  EXPECT_LT(a.end, 0.0);  // A never got in
}

TEST(GlobalArbiterTest, LatencyFollowsClusterSpec) {
  ClusterSpec spec;
  spec.shards = 2;
  for (const double latency : {2e-3, 0.0}) {
    spec.crossShardLatencySeconds = latency;
    Cluster cl(spec);
    GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs));
    // 0.0 means free hops, not "unset".
    EXPECT_EQ(ga.crossShardLatency(), latency);
  }
  // Negatives never reach a component: the spec itself is rejected.
  spec.crossShardLatencySeconds = -1.0;
  EXPECT_THROW({ Cluster cl(spec); }, calciom::PreconditionError);
}

TEST(GlobalArbiterTest, TerminationDiscardsTrafficArrivingAtLaterBarriers) {
  // A's Inform is still in latency flight (or delayed on a forwarding hop)
  // when the termination is applied at a barrier, and only reaches its stub
  // one or more rounds later. The discard must extend past the termination
  // barrier: a stale Inform merged later would re-register the dead job,
  // grant it, and deadlock the queue behind an accessor that never
  // completes.
  ClusterSpec spec;
  spec.shards = 2;
  spec.syncHorizonSeconds = 0.5;
  Cluster cl(spec);
  GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs));
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.push_back(std::make_unique<Session>(
      cl.engine(0), cl.machine(0).ports(),
      SessionConfig{.appId = 1, .appName = "a", .cores = 64}));
  sessions.push_back(std::make_unique<Session>(
      cl.engine(1), cl.machine(1).ports(),
      SessionConfig{.appId = 2, .appName = "b", .cores = 64}));
  AppResult a;
  AppResult b;
  // A informs at t=0.6: early shard-1 activity forces a barrier at ~0.5,
  // so the termination (applied at that first barrier) predates the
  // absorption of A's Inform — the cross-barrier case.
  cl.engine(0).spawn([](Engine& eng, Session& s, AppResult* out) -> Task {
    co_await Delay{0.6};
    out->start = eng.now();
    co_await eng.spawn(s.beginPhase(phaseInfo(1, 100, 1.0)));
    out->end = eng.now();  // unreachable: dead before the grant
  }(cl.engine(0), *sessions[0], &a));
  cl.engine(1).spawn(synthApp(cl.engine(1), *sessions[1], 2, 1.0, 1.0, 1, 1.0,
                              &b));
  ga.onApplicationTerminated(1);
  cl.run(2);
  EXPECT_EQ(ga.grantsIssued(), 1u);  // only B; the dead A was never granted
  EXPECT_TRUE(ga.core().currentAccessors().empty());
  EXPECT_GT(b.end, 0.0);   // B was not stuck behind a zombie accessor
  EXPECT_LT(a.end, 0.0);   // A never got in
}

TEST(GlobalArbiterTest, LaunchRevivesATerminatedId) {
  // Job-scheduler id reuse: after onApplicationLaunched, traffic from a
  // previously terminated id is merged again (sequential campaigns).
  ClusterSpec spec;
  spec.shards = 2;
  spec.syncHorizonSeconds = 0.5;
  Cluster cl(spec);
  GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs));
  {
    Session dead(cl.engine(0), cl.machine(0).ports(),
                 SessionConfig{.appId = 1, .appName = "a", .cores = 64});
    AppResult a;
    cl.engine(0).spawn([](Engine& eng, Session& s, AppResult* out) -> Task {
      out->start = eng.now();
      co_await eng.spawn(s.beginPhase(phaseInfo(1, 100, 1.0)));
      out->end = eng.now();
    }(cl.engine(0), dead, &a));
    ga.onApplicationTerminated(1);
    cl.run(1);
    EXPECT_EQ(ga.grantsIssued(), 0u);  // discarded: id 1 is dead
  }
  ga.onApplicationLaunched(1);
  Session fresh(cl.engine(1), cl.machine(1).ports(),
                SessionConfig{.appId = 1, .appName = "a2", .cores = 32});
  AppResult a2;
  cl.engine(1).spawn(synthApp(cl.engine(1), fresh, 1, 1.0, 0.5, 1, 1.0,
                              &a2));
  cl.run(1);
  EXPECT_EQ(ga.grantsIssued(), 1u);  // the relaunched id is served again
  EXPECT_GT(a2.end, 0.0);
  EXPECT_EQ(ga.shardOf(1), 1u);  // and routed to its new shard
}

TEST(GlobalArbiterTest, LaunchQueuedAfterSameRoundTerminationRevives) {
  // Scheduler kills the previous incarnation of id 1 and relaunches it
  // within the same round, before any barrier flushed the termination.
  // Events must apply in call order at the barrier: the relaunched app is
  // live and gets served, not permanently starved by a dead-set entry
  // inserted after the launch's (no-op) erase.
  ClusterSpec spec;
  spec.shards = 2;
  spec.syncHorizonSeconds = 0.5;
  Cluster cl(spec);
  GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs));
  Session s(cl.engine(0), cl.machine(0).ports(),
            SessionConfig{.appId = 1, .appName = "a", .cores = 64});
  AppResult a;
  cl.engine(0).spawn(synthApp(cl.engine(0), s, 2, 1.0, 0.0, 1, 1.0, &a));
  ga.onApplicationTerminated(1);
  ga.onApplicationLaunched(1);
  cl.run(1);
  EXPECT_EQ(ga.grantsIssued(), 1u);
  EXPECT_GT(a.end, 0.0);
}

TEST(GlobalArbiterTest, IdReuseRacesDelayedPredecessorInform) {
  // The dead-id discard set's hard case (see the capacity note on `dead_`
  // in global_arbiter.hpp): the predecessor's Inform is delayed in flight
  // — here by a targeted DeliveryFilter, the same hook fault::Injector
  // uses — and surfaces only after the scheduler reused the id and the
  // revival erased it from the discard set. The discard set cannot help
  // then; the incarnation fence must drop the stale Inform instead, or the
  // dead predecessor's request re-registers and wedges the queue forever.
  struct DelayFirstCoordMessage final : calciom::mpi::DeliveryFilter {
    Verdict onSend(calciom::mpi::PortId, std::uint32_t,
                   const calciom::core::Message&) override {
      Verdict v;
      if (!done_) {
        done_ = true;
        v.extraDelaySeconds = 2.0;
      }
      return v;
    }
    bool done_ = false;
  };

  ClusterSpec spec;
  spec.shards = 2;
  spec.syncHorizonSeconds = 0.5;
  Cluster cl(spec);
  GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs));
  DelayFirstCoordMessage delay;
  cl.machine(0).ports().setDeliveryFilter(&delay);
  // Predecessor: incarnation 1 on shard 0. Its Inform leaves at t=0 but
  // reaches the shard's stub only at t~2.0, long after its death.
  Session dead(cl.engine(0), cl.machine(0).ports(),
               SessionConfig{.appId = 1,
                             .appName = "a",
                             .cores = 64,
                             .incarnation = 1});
  AppResult deadResult;
  cl.engine(0).spawn(synthApp(cl.engine(0), dead, 1, 1.0, 0.0, 1, 1.0,
                              &deadResult));
  ga.onApplicationTerminated(1);
  // Successor: incarnation 2 of the same id on shard 1, launched before
  // the predecessor's Inform ever surfaces.
  ga.onApplicationLaunched(1);
  Session fresh(cl.engine(1), cl.machine(1).ports(),
                SessionConfig{.appId = 1,
                              .appName = "a2",
                              .cores = 32,
                              .incarnation = 2});
  AppResult freshResult;
  cl.engine(1).spawn(synthApp(cl.engine(1), fresh, 1, 1.0, 0.5, 1, 1.0,
                              &freshResult));
  cl.run(1);
  EXPECT_TRUE(delay.done_);  // the predecessor Inform really was delayed
  // The successor completed normally; the stale Inform neither granted the
  // dead predecessor nor left a phantom request behind: the core drained.
  EXPECT_EQ(ga.grantsIssued(), 1u);
  EXPECT_GT(freshResult.end, 0.0);
  EXPECT_TRUE(ga.core().idle());
}

TEST(GlobalArbiterTest, StubRejectsSecondArbiterOnSameShard) {
  ClusterSpec spec;
  spec.shards = 1;
  Cluster cl(spec);
  GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs));
  // The stub owns the arbiter port now; a same-shard Arbiter would race it.
  EXPECT_THROW(ArbiterStub second(cl.machine(0).ports()),
               calciom::PreconditionError);
}

}  // namespace
