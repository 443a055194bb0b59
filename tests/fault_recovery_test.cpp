// Arbiter crash-recovery suite: checkpoint/restore bit-exactness (sim
// determinism rule 6), WAL tail replay, the reconciliation protocol for the
// un-checkpointed tail, bounded dead-id retention over a month of Intrepid
// terminations, and the end-to-end chaos gates — >= 100 seeded schedules
// with arbiter crashes across both transports, three policies and 1/2/8
// workers, plus the divergence bound: a crash-recovered run may differ from
// a never-crashed oracle only at and after the crash, with the drift priced
// by the divergence report.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "analysis/replay.hpp"
#include "calciom/arbiter_core.hpp"
#include "calciom/global_arbiter.hpp"
#include "calciom/policy.hpp"
#include "calciom/recovery.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "platform/cluster.hpp"
#include "sim/contracts.hpp"
#include "workload/trace.hpp"

namespace {

using calciom::GlobalArbiter;
using calciom::core::ArbiterConfig;
using calciom::core::ArbiterCore;
using calciom::core::ArbiterHost;
using calciom::core::ArbiterSnapshot;
using calciom::core::CheckpointStore;
using calciom::core::CommandType;
using calciom::core::encodeSnapshot;
using calciom::core::IoDescriptor;
using calciom::core::LeaseConfig;
using calciom::core::makePolicy;
using calciom::core::PolicyKind;
using calciom::fault::ArbiterCrashSpec;
using calciom::fault::ChaosConfig;
using calciom::fault::chaosPlan;
using calciom::fault::ChaosResult;
using calciom::fault::ChaosTransport;
using calciom::fault::runChaos;
using calciom::fault::withArbiterCrash;
using calciom::core::Message;
using calciom::core::SessionState;
namespace replay = calciom::analysis::replay;

constexpr PolicyKind kPolicies[] = {PolicyKind::Fcfs, PolicyKind::Interrupt,
                                    PolicyKind::Dynamic};

Message informWire(std::uint32_t id, int cores = 64, double estAlone = 10.0) {
  IoDescriptor d;
  d.appId = id;
  d.cores = cores;
  d.estAloneSeconds = estAlone;
  return Message::inform(d);
}

/// A recovery report: the Inform a session answers a Recover with.
Message reportWire(std::uint32_t id, SessionState claim) {
  Message w = informWire(id);
  w.setSessionState(claim);
  return w;
}

// ---------------------------------------------------------------------------
// Snapshot / restore determinism (sim/README.md rule 6).

TEST(RecoverySnapshot, RestoreRoundTripIsBitExact) {
  // Drive the core into a nontrivial state: a half-settled interrupt, a
  // paused app, a queued newcomer — then snapshot, restore into a fresh
  // core, and demand bit-identical encodings and identical behavior after.
  ArbiterCore a(makePolicy(PolicyKind::Interrupt));
  a.configureLeases(LeaseConfig{1.5, 0.4});
  ArbiterCore::Commands out;
  a.onInform(1.0, 1, informWire(1), out);  // granted
  a.onInform(1.5, 2, informWire(2), out);  // interrupt: Pause to 1
  a.onPauseAck(2.0, 1, Message::pauseAck(0.4), out);  // 2 granted, 1 paused
  a.onInform(2.2, 3, informWire(3), out);  // queues behind the interrupt
  const ArbiterSnapshot snap = a.snapshot(2.5);
  const std::string enc = encodeSnapshot(snap);

  ArbiterCore b(makePolicy(PolicyKind::Interrupt));
  b.configureLeases(LeaseConfig{1.5, 0.4});
  b.restore(snap);
  EXPECT_EQ(encodeSnapshot(b.snapshot(2.5)), enc);

  // The restored core schedules exactly like the original from here on.
  ArbiterCore::Commands outA;
  ArbiterCore::Commands outB;
  a.onComplete(3.0, 2, outA);
  b.onComplete(3.0, 2, outB);
  ASSERT_EQ(outA.size(), outB.size());
  for (std::size_t i = 0; i < outA.size(); ++i) {
    EXPECT_EQ(outA[i].app, outB[i].app);
    EXPECT_EQ(outA[i].type, outB[i].type);
    EXPECT_EQ(outA[i].cmdSeq, outB[i].cmdSeq);
  }
  EXPECT_EQ(encodeSnapshot(a.snapshot(3.5)), encodeSnapshot(b.snapshot(3.5)));
}

TEST(RecoverySnapshot, CostSignalsSurviveRestoreAndContinue) {
  // Regression pin for the policy cost signals: cpuSecondsWaited and the
  // grant log are schedule *history*, and a crash must not zero them — the
  // dynamic policy's efficiency metric and the replay harness's divergence
  // pricing both read them after recovery. Crash mid-campaign, restore,
  // and demand the signals (a) round-trip exactly and (b) keep accruing
  // from the checkpointed value, not from zero.
  ArbiterCore live(makePolicy(PolicyKind::Fcfs));
  ArbiterCore::Commands out;
  live.onInform(1.0, 1, informWire(1), out);  // granted at once: no wait
  live.onInform(1.5, 2, informWire(2), out);  // queues behind app 1
  live.onComplete(3.0, 1, out);               // 2 granted: waited 1.5 s x 64
  ASSERT_DOUBLE_EQ(live.cpuSecondsWaited(), 1.5 * 64.0);
  ASSERT_EQ(live.grantLog().size(), 2u);

  // "Crash": all that survives is the snapshot.
  const ArbiterSnapshot snap = live.snapshot(3.5);
  ArbiterCore restored(makePolicy(PolicyKind::Fcfs));
  restored.restore(snap);
  EXPECT_DOUBLE_EQ(restored.cpuSecondsWaited(), live.cpuSecondsWaited());
  EXPECT_EQ(restored.grantLog(), live.grantLog());

  // The campaign continues on both cores: app 3 queues behind app 2, is
  // granted when 2 completes, and the wait it accrues lands on TOP of the
  // checkpointed total on the restored core.
  ArbiterCore::Commands outLive;
  ArbiterCore::Commands outRestored;
  live.onInform(4.0, 3, informWire(3), outLive);
  restored.onInform(4.0, 3, informWire(3), outRestored);
  live.onComplete(5.0, 2, outLive);
  restored.onComplete(5.0, 2, outRestored);
  EXPECT_DOUBLE_EQ(live.cpuSecondsWaited(), 1.5 * 64.0 + 1.0 * 64.0);
  EXPECT_DOUBLE_EQ(restored.cpuSecondsWaited(), live.cpuSecondsWaited());
  ASSERT_EQ(restored.grantLog().size(), 3u);
  EXPECT_EQ(restored.grantLog(), live.grantLog());
}

TEST(RecoverySnapshot, EncodingDiscriminatesCostSignals) {
  // The checkpoint encoding must distinguish states that differ *only* in
  // a cost signal — otherwise a torn write could swap them silently and
  // the post-recovery efficiency metric would price the wrong schedule.
  ArbiterCore a(makePolicy(PolicyKind::Fcfs));
  ArbiterCore::Commands out;
  a.onInform(1.0, 1, informWire(1), out);
  a.onInform(1.5, 2, informWire(2), out);
  a.onComplete(3.0, 1, out);
  const ArbiterSnapshot snap = a.snapshot(3.5);
  const std::string enc = encodeSnapshot(snap);

  ArbiterSnapshot waitedBumped = snap;
  waitedBumped.cpuSecondsWaited += 1.0;
  EXPECT_NE(encodeSnapshot(waitedBumped), enc);

  ArbiterSnapshot grantDropped = snap;
  ASSERT_FALSE(grantDropped.grantLog.empty());
  grantDropped.grantLog.pop_back();
  EXPECT_NE(encodeSnapshot(grantDropped), enc);

  ArbiterSnapshot grantRetimed = snap;
  grantRetimed.grantLog.back().time += 0.25;
  EXPECT_NE(encodeSnapshot(grantRetimed), enc);
}

TEST(RecoverySnapshot, EncodingDistinguishesDifferentStates) {
  ArbiterCore a(makePolicy(PolicyKind::Fcfs));
  ArbiterCore::Commands out;
  a.onInform(1.0, 1, informWire(1), out);
  const std::string one = encodeSnapshot(a.snapshot(2.0));
  a.onInform(1.5, 2, informWire(2), out);
  EXPECT_NE(encodeSnapshot(a.snapshot(2.0)), one);
  // takenAt is part of the encoding too (it is state: the checkpoint time).
  EXPECT_NE(encodeSnapshot(a.snapshot(2.5)), encodeSnapshot(a.snapshot(2.0)));
}

// ---------------------------------------------------------------------------
// CheckpointStore: WAL tail replay and the bounded-WAL overflow contract.

TEST(RecoveryStore, WalReplayReproducesTheLiveCore) {
  CheckpointStore store(8);
  ArbiterCore live(makePolicy(PolicyKind::Fcfs));
  ArbiterCore::Commands out;
  const auto feed = [&](double t, std::uint32_t app, const Message& w) {
    store.logMessage(t, app, w);
    live.onMessage(t, app, w, out);
  };
  feed(1.0, 1, informWire(1));
  store.checkpoint(live, 1.0);  // folds the Inform into the snapshot
  feed(2.0, 2, informWire(2));  // -- WAL tail from here --
  feed(3.0, 1, Message::complete());
  store.logTermination(3.5, 2);
  live.onApplicationTerminated(3.5, 2, out);

  ArbiterCore rebuilt(makePolicy(PolicyKind::Fcfs));
  EXPECT_EQ(store.restoreInto(rebuilt), 3u);
  EXPECT_EQ(encodeSnapshot(rebuilt.snapshot(4.0)),
            encodeSnapshot(live.snapshot(4.0)));
  EXPECT_EQ(rebuilt.decisions().size(), live.decisions().size());
  EXPECT_EQ(rebuilt.grantLog(), live.grantLog());
}

TEST(RecoveryStore, WalOverflowIsCountedNotGrown) {
  CheckpointStore store(2);
  for (std::uint32_t i = 1; i <= 5; ++i) {
    store.logMessage(static_cast<double>(i), i, informWire(i));
  }
  EXPECT_EQ(store.walSize(), 2u);
  EXPECT_EQ(store.walAppended(), 5u);
  EXPECT_EQ(store.walDropped(), 3u);
  // Restore still works: the dropped tail is reconciliation's job.
  ArbiterCore core(makePolicy(PolicyKind::Fcfs));
  EXPECT_EQ(store.restoreInto(core), 2u);
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{1});
}

// ---------------------------------------------------------------------------
// ArbiterHost: the checkpoint cadence and crash/restart lifecycle both
// transports share.

ArbiterHost makeHost(double checkpointEverySeconds) {
  return ArbiterHost(makePolicy(PolicyKind::Fcfs),
                     ArbiterConfig{.checkpointEverySeconds =
                                       checkpointEverySeconds});
}

TEST(RecoveryHost, FirstInputCheckpoints) {
  ArbiterHost host = makeHost(2.0);
  ArbiterCore::Commands out;
  host.onMessage(0.5, 1, informWire(1), out);
  EXPECT_TRUE(host.maybeCheckpoint(0.5));
  EXPECT_EQ(host.checkpointStore().checkpoints(), 1u);
  EXPECT_EQ(host.checkpointStore().lastCheckpointAt(), 0.5);
  EXPECT_EQ(host.checkpointStore().walAppended(), 1u);
}

TEST(RecoveryHost, LaterInputCheckpointsExactlyAtTheCadence) {
  ArbiterHost host = makeHost(2.0);
  ArbiterCore::Commands out;
  host.onMessage(1.0, 1, informWire(1), out);
  ASSERT_TRUE(host.maybeCheckpoint(1.0));
  host.onMessage(2.5, 2, informWire(2), out);
  EXPECT_FALSE(host.maybeCheckpoint(2.5));
  EXPECT_EQ(host.checkpointStore().walSize(), 1u);
  host.onTerminated(3.0, 2, out);
  EXPECT_TRUE(host.maybeCheckpoint(3.0));  // last + every, not after
  EXPECT_EQ(host.checkpointStore().checkpoints(), 2u);
  EXPECT_EQ(host.checkpointStore().walSize(), 0u);
  EXPECT_EQ(host.checkpointStore().walAppended(), 3u);
}

TEST(RecoveryHost, ZeroCadenceDisablesCheckpointsAndWal) {
  ArbiterHost host = makeHost(0.0);
  EXPECT_FALSE(host.checkpointing());
  ArbiterCore::Commands out;
  host.onMessage(1.0, 1, informWire(1), out);
  host.onTerminated(2.0, 1, out);
  EXPECT_FALSE(host.maybeCheckpoint(2.0));
  EXPECT_EQ(host.checkpointStore().walAppended(), 0u);
  EXPECT_EQ(host.checkpointStore().checkpoints(), 0u);
  EXPECT_EQ(out.size(), 1u);  // the inputs still reached the core
}

TEST(RecoveryHost, RestartOfALiveHostIsRejected) {
  ArbiterHost host = makeHost(1.0);
  ArbiterCore::Commands out;
  EXPECT_THROW(host.restart(1.0, out), calciom::PreconditionError);
}

TEST(RecoveryHost, RestartBumpsIncarnationAndOpensTheWindow) {
  ArbiterHost host = makeHost(1.0);
  ArbiterCore::Commands out;
  host.onMessage(1.0, 1, informWire(1), out);
  ASSERT_TRUE(host.maybeCheckpoint(1.0));
  host.crash();
  host.crash();  // idempotent
  EXPECT_TRUE(host.down());
  out.clear();
  host.restart(2.0, out);
  EXPECT_FALSE(host.down());
  EXPECT_EQ(host.restarts(), 1u);
  EXPECT_EQ(host.core().arbiterIncarnation(), 1u);
  EXPECT_TRUE(host.core().recovering());
  EXPECT_EQ(host.core().currentAccessors(), std::vector<std::uint32_t>{1});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().type, CommandType::Recover);
  host.crash();
  host.restart(3.0, out);
  EXPECT_EQ(host.restarts(), 2u);
  EXPECT_EQ(host.core().arbiterIncarnation(), 2u);
}

// ---------------------------------------------------------------------------
// Reconciliation protocol for the un-checkpointed tail.

TEST(RecoveryReconciliation, SessionReportsRebuildAnEmptyCore) {
  // Worst case: no checkpoint ever taken. The restarted arbiter knows
  // nobody, so it cannot even broadcast Recover — the surviving sessions'
  // heartbeats and Inform retries rebuild the state instead.
  ArbiterCore core(makePolicy(PolicyKind::Fcfs));
  core.configureLeases(LeaseConfig{1.5, 0.0});
  ArbiterCore::Commands out;
  core.restore(ArbiterSnapshot{});  // what restoreInto does with no snapshot
  core.beginRecovery(10.0, 1.0, 1, out);
  EXPECT_TRUE(core.recovering());
  EXPECT_EQ(core.arbiterIncarnation(), 1u);
  EXPECT_TRUE(out.empty());  // no known apps: nobody to ask

  // App 1 still holds the pre-crash grant; app 2 was waiting.
  core.onInform(10.1, 1, reportWire(1, SessionState::Accessing), out);
  core.onInform(10.2, 2, reportWire(2, SessionState::Waiting), out);
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{1});
  EXPECT_EQ(core.waitQueue(), std::vector<std::uint32_t>{2});
  EXPECT_EQ(core.reinstatedAccessors(), 1u);

  // Window closes: admission resumes, the reinstated holder keeps access.
  core.onTick(11.0, out);
  EXPECT_FALSE(core.recovering());
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{1});
  core.onComplete(11.5, 1, out);
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{2});
  EXPECT_LE(core.maxConcurrentAccessors(), 1u);  // safety throughout
}

TEST(RecoveryReconciliation, WaitingClaimAgainstRestoredAccessorReGrants) {
  // The checkpoint says app 1 is accessing, but the Grant itself died on
  // the wire with the old process: the session still claims "waiting".
  // Reconciliation must re-emit the Grant rather than strand both views.
  ArbiterCore a(makePolicy(PolicyKind::Fcfs));
  ArbiterCore::Commands out;
  a.onInform(1.0, 1, informWire(1), out);
  const ArbiterSnapshot snap = a.snapshot(2.0);

  ArbiterCore b(makePolicy(PolicyKind::Fcfs));
  b.restore(snap);
  out.clear();
  b.beginRecovery(3.0, 1.0, 1, out);
  ASSERT_EQ(out.size(), 1u);  // Recover broadcast to the known app
  EXPECT_EQ(out[0].type, CommandType::Recover);
  EXPECT_EQ(out[0].app, 1u);
  EXPECT_EQ(out[0].arbiterIncarnation, 1u);
  EXPECT_EQ(b.recoverCommandsIssued(), 1u);

  out.clear();
  b.onInform(3.1, 1, reportWire(1, SessionState::Waiting), out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().type, CommandType::Grant);
  EXPECT_EQ(out.back().app, 1u);
  EXPECT_EQ(b.currentAccessors(), std::vector<std::uint32_t>{1});
}

TEST(RecoveryReconciliation, SilentAppsAreSweptWhenTheWindowCloses) {
  ArbiterCore a(makePolicy(PolicyKind::Fcfs));
  a.configureLeases(LeaseConfig{1.5, 0.0});
  ArbiterCore::Commands out;
  a.onInform(1.0, 1, informWire(1), out);  // accessing
  a.onInform(1.2, 2, informWire(2), out);  // waiting
  const ArbiterSnapshot snap = a.snapshot(1.5);

  ArbiterCore b(makePolicy(PolicyKind::Fcfs));
  b.configureLeases(LeaseConfig{1.5, 0.0});
  b.restore(snap);
  out.clear();
  b.beginRecovery(10.0, 1.0, 1, out);  // long outage: both leases stale
  EXPECT_EQ(out.size(), 2u);           // Recover to both
  // Only app 2 answers; app 1 died with the crash.
  b.onInform(10.3, 2, reportWire(2, SessionState::Waiting), out);
  // Mid-window ticks sweep nothing (restored lease clocks predate the
  // crash; sweeping would reclaim apps before they could answer).
  b.onTick(10.5, out);
  EXPECT_EQ(b.leaseReclaims(), 0u);
  // The closing tick sweeps the silent app and admits the survivor.
  out.clear();
  b.onTick(11.0, out);
  EXPECT_FALSE(b.recovering());
  EXPECT_EQ(b.leaseReclaims(), 1u);
  EXPECT_EQ(b.currentAccessors(), std::vector<std::uint32_t>{2});
}

TEST(RecoveryReconciliation, NewcomersQueueUntilTheWindowCloses) {
  // A fresh Inform (no session-state report) during the window registers
  // but is not granted: no scheduling decision before the state is rebuilt.
  ArbiterCore core(makePolicy(PolicyKind::Fcfs));
  ArbiterCore::Commands out;
  core.beginRecovery(5.0, 1.0, 1, out);
  core.onInform(5.2, 7, informWire(7), out);
  EXPECT_TRUE(core.currentAccessors().empty());
  EXPECT_EQ(core.waitQueue(), std::vector<std::uint32_t>{7});
  out.clear();
  core.onTick(6.0, out);  // window closes: the newcomer is admitted
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{7});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().type, CommandType::Grant);
  EXPECT_EQ(out.back().arbiterIncarnation, 1u);
}

// ---------------------------------------------------------------------------
// Bounded dead-id retention (GlobalArbiter::kDeadRetentionRounds):
// a month of Intrepid jobs terminated through the scheduler interface must
// keep the discard set's peak far under the job count.

TEST(RecoveryDeadSet, MonthOfIntrepidTerminationsStaysBounded) {
  calciom::platform::ClusterSpec spec;
  spec.name = "deadset";
  spec.shards = 1;
  spec.syncHorizonSeconds = 30.0;
  calciom::platform::Cluster cl(spec);
  GlobalArbiter& ga = GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs));

  // Drive the job-scheduler interface directly, barrier by barrier — the
  // test exercises exactly the dead-id bookkeeping, no sessions needed.
  calciom::workload::IntrepidStream stream{calciom::workload::IntrepidModel{}};
  using EndEvent = std::pair<double, std::uint32_t>;
  std::priority_queue<EndEvent, std::vector<EndEvent>, std::greater<>> ending;
  std::optional<calciom::workload::SwfJob> pending = stream.next();
  std::uint64_t jobs = 0;
  double barrier = spec.syncHorizonSeconds;
  while (pending.has_value() || !ending.empty()) {
    while (pending.has_value() && pending->startSeconds() <= barrier) {
      const auto id = static_cast<std::uint32_t>(pending->jobId);
      ga.onApplicationLaunched(id);
      ending.emplace(pending->endSeconds(), id);
      ++jobs;
      pending = stream.next();
    }
    while (!ending.empty() && ending.top().first <= barrier) {
      ga.onApplicationTerminated(ending.top().second);
      ending.pop();
    }
    ga.onBarrier(barrier);
    barrier += spec.syncHorizonSeconds;
  }

  EXPECT_GT(jobs, 10000u);  // the month really streamed
  // Every terminated id is either still retained or was evicted — and the
  // peak stayed bounded by the retention window, not by the month.
  EXPECT_EQ(ga.deadEvicted() + ga.deadSetSize(), jobs);
  EXPECT_GT(ga.deadEvicted(), 0u);
  EXPECT_LT(ga.deadSetPeak(), 1024u);
  EXPECT_LE(ga.deadSetSize(), ga.deadSetPeak());
}

// ---------------------------------------------------------------------------
// End-to-end crash-recovery chaos. 60 same-engine + 45 cluster seeded
// schedules (105 total), three policies, 1/2/8 workers: every campaign must
// terminate with safety intact through crash and recovery.

void expectCrashInvariants(const ChaosConfig& cfg, const ChaosResult& r,
                           std::uint64_t seed) {
  SCOPED_TRACE("arbiter-crash seed " + std::to_string(seed));
  EXPECT_LT(r.simSeconds, ChaosConfig::kMaxSimSeconds);
  EXPECT_GE(r.survivors, 1);
  EXPECT_EQ(r.survivorsCompleted, r.survivors);
  EXPECT_TRUE(r.degradedAllCompleted);
  EXPECT_TRUE(r.arbiterIdle);
  if (cfg.policy != PolicyKind::Dynamic) {
    EXPECT_LE(r.maxConcurrentAccessors, 1u);
  }
  EXPECT_GE(r.arbiterCrashes, 1u);
  EXPECT_EQ(r.arbiterRestarts, r.arbiterCrashes);
  EXPECT_GE(r.checkpoints, 1u);
}

TEST(RecoveryChaos, SameEngineArbiterCrashSchedules) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    ChaosConfig cfg;
    cfg.transport = ChaosTransport::SameEngine;
    cfg.policy = kPolicies[seed % 3];
    cfg.plan = withArbiterCrash(chaosPlan(seed, cfg.apps), seed);
    expectCrashInvariants(cfg, runChaos(cfg), seed);
  }
}

TEST(RecoveryChaos, ClusterArbiterCrashSchedules) {
  constexpr unsigned kWorkers[] = {1, 2, 8};
  for (std::uint64_t seed = 1; seed <= 45; ++seed) {
    ChaosConfig cfg;
    cfg.transport = ChaosTransport::Cluster;
    cfg.policy = kPolicies[seed % 3];
    cfg.workers = kWorkers[(seed / 3) % 3];
    cfg.plan = withArbiterCrash(chaosPlan(seed, cfg.apps), seed);
    expectCrashInvariants(cfg, runChaos(cfg), seed);
  }
}

TEST(RecoveryChaos, ClusterCrashWorkerInvariance) {
  // Crash/recovery is barrier-applied, so the full run — fingerprint AND
  // the final core snapshot encoding — must be bit-identical on 1/2/8
  // workers (the checkpoint determinism gate, end to end).
  for (const std::uint64_t seed : {11ull, 29ull}) {
    ChaosConfig cfg;
    cfg.transport = ChaosTransport::Cluster;
    cfg.policy = kPolicies[seed % 3];
    cfg.plan = withArbiterCrash(chaosPlan(seed, cfg.apps), seed);
    cfg.workers = 1;
    const ChaosResult r1 = runChaos(cfg);
    cfg.workers = 2;
    const ChaosResult r2 = runChaos(cfg);
    cfg.workers = 8;
    const ChaosResult r8 = runChaos(cfg);
    SCOPED_TRACE("arbiter-crash seed " + std::to_string(seed));
    EXPECT_EQ(r1.fingerprint, r2.fingerprint);
    EXPECT_EQ(r1.fingerprint, r8.fingerprint);
    EXPECT_EQ(r1.snapshotEncoding, r2.snapshotEncoding);
    EXPECT_EQ(r1.snapshotEncoding, r8.snapshotEncoding);
    EXPECT_EQ(r1.arbiterRestarts, r8.arbiterRestarts);
    EXPECT_EQ(r1.crashDiscarded, r8.crashDiscarded);
  }
}

TEST(RecoveryChaos, SameEngineCrashRecoverySmoke) {
  // One clean outage mid-campaign, no other faults: everyone completes,
  // the recovery machinery demonstrably engaged.
  ChaosConfig cfg;
  cfg.transport = ChaosTransport::SameEngine;
  cfg.plan.arbiterCrashes.push_back(ArbiterCrashSpec{2.0, 1.2});
  const ChaosResult r = runChaos(cfg);
  EXPECT_EQ(r.arbiterCrashes, 1u);
  EXPECT_EQ(r.arbiterRestarts, 1u);
  EXPECT_EQ(r.survivorsCompleted, r.survivors);
  EXPECT_TRUE(r.arbiterIdle);
  EXPECT_LE(r.maxConcurrentAccessors, 1u);
  EXPECT_GE(r.checkpoints, 1u);
  EXPECT_GE(r.recoverCommandsIssued, 1u);
}

// ---------------------------------------------------------------------------
// The divergence bound (tentpole): decisions of a crash-recovered run match
// the never-crashed oracle bit-exactly before the crash; afterwards the
// drift is bounded and priced by the divergence report.

TEST(RecoveryDivergence, DivergenceIsConfinedToTheCrashWindow) {
  for (const double crashAt : {1.5, 2.5, 3.5}) {
    SCOPED_TRACE("crash at " + std::to_string(crashAt));
    ChaosConfig base;
    base.transport = ChaosTransport::SameEngine;
    base.policy = PolicyKind::Fcfs;
    const ChaosResult oracleRun = runChaos(base);  // never crashes

    ChaosConfig crashed = base;
    const double down = 1.2;
    crashed.plan.arbiterCrashes.push_back(ArbiterCrashSpec{crashAt, down});
    const ChaosResult online = runChaos(crashed);

    // Liveness and safety hold through the crash.
    EXPECT_EQ(online.survivorsCompleted, online.survivors);
    EXPECT_TRUE(online.arbiterIdle);
    EXPECT_LE(online.maxConcurrentAccessors, 1u);

    replay::OracleSchedule oracle;
    oracle.decisions = oracleRun.decisions;
    oracle.grants = oracleRun.grantLog;
    oracle.grantsIssued = oracleRun.grants;
    oracle.pausesIssued = oracleRun.pauses;
    oracle.cpuSecondsWaited = oracleRun.cpuSecondsWaited;
    const replay::DivergenceReport div = replay::computeDivergence(
        online.decisions, online.grantLog, online.cpuSecondsWaited, oracle);

    // The pre-crash prefix is bit-identical: whatever diverges first sits
    // at or after the crash instant, in both streams.
    if (div.firstDivergenceIndex >= 0) {
      const auto idx = static_cast<std::size_t>(div.firstDivergenceIndex);
      if (idx < online.decisions.size()) {
        EXPECT_GE(online.decisions[idx].time, crashAt);
      }
      if (idx < oracle.decisions.size()) {
        EXPECT_GE(oracle.decisions[idx].time, crashAt);
      }
    }
    for (const calciom::core::GrantRecord& g : online.grantLog) {
      if (g.time < crashAt) {
        // Every pre-crash grant exists verbatim in the oracle schedule.
        bool found = false;
        for (const calciom::core::GrantRecord& o : oracle.grants) {
          found = found || o == g;
        }
        EXPECT_TRUE(found) << "pre-crash grant drifted (app " << g.app << ")";
      }
    }
    // Bounded drift: outage + reconciliation window + retry slack.
    EXPECT_LE(div.grantTimeMaxDriftSeconds,
              down + ArbiterHost::kRecoveryWindowSeconds + 3.0);
  }
}

}  // namespace
