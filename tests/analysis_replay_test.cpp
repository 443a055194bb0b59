// Unit and end-to-end tests for the full-slice replay harness
// (analysis/replay.hpp): divergence-metric semantics (identical streams are
// exactly zero; single perturbations produce the documented index and
// counts), session-path zero-divergence over IntrepidModel slices for every
// policy, and worker-count bit-identity of the cluster replay (decision
// stream + divergence JSON), in the style of tests/cluster_io_test.cpp.

#include "analysis/replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "calciom/arbiter_core.hpp"
#include "calciom/descriptor.hpp"
#include "calciom/policy.hpp"

namespace {

using calciom::core::Action;
using calciom::core::CapturedEvent;
using calciom::core::DecisionRecord;
using calciom::core::GrantRecord;
using calciom::core::IoDescriptor;
using calciom::core::PolicyKind;
using namespace calciom::analysis::replay;

// ---------------------------------------------------------------------------
// A small hand-written captured stream: three overlapping apps, enough for
// queue decisions and one full grant chain.

CapturedEvent inform(double t, std::uint32_t app, double aloneSeconds) {
  IoDescriptor d;
  d.appId = app;
  d.cores = 64;
  d.estAloneSeconds = aloneSeconds;
  return CapturedEvent{t, app, calciom::core::Message::inform(d)};
}

CapturedEvent complete(double t, std::uint32_t app) {
  return CapturedEvent{t, app, calciom::core::Message::complete()};
}

std::vector<CapturedEvent> handStream() {
  std::vector<CapturedEvent> evs;
  evs.push_back(inform(0.0, 1, 6.0));
  evs.push_back(inform(2.0, 2, 3.0));   // queued behind 1
  evs.push_back(inform(4.0, 3, 2.0));   // queued behind 1
  evs.push_back(complete(6.0, 1));
  evs.push_back(complete(9.0, 2));
  evs.push_back(complete(11.0, 3));
  evs.push_back(inform(14.0, 4, 3.0));  // idle system: silent grant
  evs.push_back(complete(17.0, 4));
  return evs;
}

TEST(DivergenceMetricsTest, IdenticalStreamsAreExactlyZero) {
  const auto evs = handStream();
  const OracleSchedule a = oracleReplay(evs, PolicyKind::Fcfs, 250e-6);
  const OracleSchedule b = oracleReplay(evs, PolicyKind::Fcfs, 250e-6);
  ASSERT_EQ(a.decisions.size(), 2u);  // apps 2 and 3 found the system busy
  ASSERT_EQ(a.grants.size(), 4u);    // every app granted exactly once

  const DivergenceReport r =
      computeDivergence(a.decisions, a.grants, a.cpuSecondsWaited, b);
  EXPECT_TRUE(r.exactlyZero());
  EXPECT_EQ(r.firstDivergenceIndex, -1);
  EXPECT_EQ(r.onlineDecisions, 2u);
  EXPECT_EQ(r.oracleDecisions, 2u);
  EXPECT_EQ(r.decisionAgreements, 2u);
  EXPECT_EQ(r.requesterMismatches, 0u);
  EXPECT_EQ(r.actionDisagreements, 0u);
  EXPECT_EQ(r.accessorMismatches, 0u);
  EXPECT_EQ(r.matchedGrants, 4u);
  EXPECT_EQ(r.unmatchedGrants, 0u);
  EXPECT_DOUBLE_EQ(r.grantTimeL1DriftSeconds, 0.0);
  EXPECT_DOUBLE_EQ(r.cpuSecondsWaitedDelta, 0.0);
  // Every aligned pair was a Queue/Queue agreement.
  EXPECT_EQ(r.actionMatrix[static_cast<std::size_t>(Action::Queue)]
                          [static_cast<std::size_t>(Action::Queue)],
            2u);
}

TEST(DivergenceMetricsTest, SinglePerturbedGrantTimeIsPureDrift) {
  const auto evs = handStream();
  const OracleSchedule oracle = oracleReplay(evs, PolicyKind::Fcfs, 250e-6);
  std::vector<GrantRecord> online = oracle.grants;
  online[2].time += 0.5;  // one grant lands half a second late

  const DivergenceReport r = computeDivergence(
      oracle.decisions, online, oracle.cpuSecondsWaited + 32.0, oracle);
  // Decision streams untouched: no divergence index, no disagreements.
  EXPECT_EQ(r.firstDivergenceIndex, -1);
  EXPECT_EQ(r.decisionAgreements, 2u);
  // The drift is exactly the perturbation, on exactly one matched grant.
  EXPECT_EQ(r.matchedGrants, 4u);
  EXPECT_EQ(r.unmatchedGrants, 0u);
  EXPECT_DOUBLE_EQ(r.grantTimeL1DriftSeconds, 0.5);
  EXPECT_DOUBLE_EQ(r.grantTimeMaxDriftSeconds, 0.5);
  EXPECT_DOUBLE_EQ(r.cpuSecondsWaitedDelta, 32.0);
  EXPECT_FALSE(r.exactlyZero());
}

TEST(DivergenceMetricsTest, SinglePerturbedActionGivesIndexAndMatrixCell) {
  const auto evs = handStream();
  const OracleSchedule oracle = oracleReplay(evs, PolicyKind::Fcfs, 250e-6);
  std::vector<DecisionRecord> online = oracle.decisions;
  ASSERT_EQ(online[1].action, Action::Queue);
  online[1].action = Action::Interrupt;

  const DivergenceReport r = computeDivergence(
      online, oracle.grants, oracle.cpuSecondsWaited, oracle);
  EXPECT_EQ(r.firstDivergenceIndex, 1);
  EXPECT_EQ(r.decisionAgreements, 1u);
  EXPECT_EQ(r.actionDisagreements, 1u);
  EXPECT_EQ(r.requesterMismatches, 0u);
  // actionMatrix is [oracle][online]: one Queue decided as Interrupt.
  EXPECT_EQ(r.actionMatrix[static_cast<std::size_t>(Action::Queue)]
                          [static_cast<std::size_t>(Action::Interrupt)],
            1u);
  EXPECT_EQ(r.actionMatrix[static_cast<std::size_t>(Action::Queue)]
                          [static_cast<std::size_t>(Action::Queue)],
            1u);
  EXPECT_FALSE(r.exactlyZero());
}

TEST(DivergenceMetricsTest, PrefixTruncationDivergesAtTheShorterLength) {
  const auto evs = handStream();
  const OracleSchedule oracle = oracleReplay(evs, PolicyKind::Fcfs, 250e-6);
  std::vector<DecisionRecord> online = oracle.decisions;
  online.pop_back();

  const DivergenceReport r = computeDivergence(
      online, oracle.grants, oracle.cpuSecondsWaited, oracle);
  EXPECT_EQ(r.firstDivergenceIndex,
            static_cast<std::ptrdiff_t>(online.size()));
  EXPECT_EQ(r.decisionAgreements, online.size());
  EXPECT_FALSE(r.exactlyZero());
}

TEST(DivergenceMetricsTest, GrantSurplusAndKindMismatchesAreCounted) {
  const auto evs = handStream();
  const OracleSchedule oracle = oracleReplay(evs, PolicyKind::Fcfs, 250e-6);
  std::vector<GrantRecord> online = oracle.grants;
  online[1].resume = true;                    // kind flip at a matched slot
  online.push_back(GrantRecord{20.0, 9, false});  // app the oracle never saw

  const DivergenceReport r = computeDivergence(
      oracle.decisions, online, oracle.cpuSecondsWaited, oracle);
  EXPECT_EQ(r.matchedGrants, 4u);
  EXPECT_EQ(r.unmatchedGrants, 1u);
  EXPECT_EQ(r.grantKindMismatches, 1u);
  EXPECT_FALSE(r.exactlyZero());
}

TEST(DivergenceMetricsTest, AppPresentInOnlyOneStreamIsWhollyUnmatched) {
  // Pins the unmatchedGrants semantics documented on DivergenceReport:
  // grants align per application, so an app that appears in only one
  // stream contributes its WHOLE count to unmatchedGrants — in either
  // direction — and nothing to the drift metrics.
  OracleSchedule oracle;
  oracle.grants = {GrantRecord{1.0, 1, false}, GrantRecord{3.0, 2, false},
                   GrantRecord{5.0, 1, true}};
  const std::vector<GrantRecord> online = {GrantRecord{1.0, 1, false},
                                           GrantRecord{5.0, 1, true}};
  const DivergenceReport r = computeDivergence({}, online, 0.0, oracle);
  EXPECT_EQ(r.matchedGrants, 2u);    // app 1 pairs fully
  EXPECT_EQ(r.unmatchedGrants, 1u);  // all of app 2 (oracle-only)
  EXPECT_DOUBLE_EQ(r.grantTimeL1DriftSeconds, 0.0);
  EXPECT_DOUBLE_EQ(r.grantTimeMaxDriftSeconds, 0.0);
  EXPECT_FALSE(r.exactlyZero());

  // Mirror image: the surplus app lives only in the online stream.
  OracleSchedule slim;
  slim.grants = online;
  const DivergenceReport m =
      computeDivergence({}, oracle.grants, 0.0, slim);
  EXPECT_EQ(m.matchedGrants, 2u);
  EXPECT_EQ(m.unmatchedGrants, 1u);
  EXPECT_DOUBLE_EQ(m.grantTimeL1DriftSeconds, 0.0);
  EXPECT_FALSE(m.exactlyZero());
}

TEST(DivergenceMetricsTest, PerAppSurplusPairsByOccurrenceIndex) {
  // App 1 granted three times by the oracle but only twice online: the
  // first two occurrences pair IN ORDER (drift prices |1.25-1.0| + 0) and
  // the oracle's third grant is surplus. Its absurd timestamp must never
  // leak into the drift metrics — unmatched grants price nothing.
  OracleSchedule oracle;
  oracle.grants = {GrantRecord{1.0, 1, false}, GrantRecord{4.0, 1, true},
                   GrantRecord{999.0, 1, false}};
  const std::vector<GrantRecord> online = {GrantRecord{1.25, 1, false},
                                           GrantRecord{4.0, 1, true}};
  const DivergenceReport r = computeDivergence({}, online, 0.0, oracle);
  EXPECT_EQ(r.matchedGrants, 2u);
  EXPECT_EQ(r.unmatchedGrants, 1u);
  EXPECT_EQ(r.grantKindMismatches, 0u);  // matched kinds agree pairwise
  EXPECT_DOUBLE_EQ(r.grantTimeL1DriftSeconds, 0.25);
  EXPECT_DOUBLE_EQ(r.grantTimeMaxDriftSeconds, 0.25);
  EXPECT_FALSE(r.exactlyZero());
}

TEST(DivergenceMetricsTest, JsonDumpCarriesTheHeadlineFields) {
  const auto evs = handStream();
  const OracleSchedule oracle = oracleReplay(evs, PolicyKind::Fcfs, 250e-6);
  const DivergenceReport r = computeDivergence(
      oracle.decisions, oracle.grants, oracle.cpuSecondsWaited, oracle);
  const std::string json = toJson(r);
  EXPECT_NE(json.find("\"first_divergence_index\": -1"), std::string::npos);
  EXPECT_NE(json.find("\"exactly_zero\": true"), std::string::npos);
  EXPECT_NE(json.find("\"grant_time_l1_drift_s\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"action_matrix\": [[0, 0, 0], [0, 2, 0], "
                      "[0, 0, 0]]"),
            std::string::npos);
}

TEST(DivergenceMetricsTest, JsonDumpGoldenOutput) {
  DivergenceReport r;
  r.onlineDecisions = 5;
  r.oracleDecisions = 4;
  r.comparedDecisions = 4;
  r.firstDivergenceIndex = 2;
  r.decisionAgreements = 2;
  r.requesterMismatches = 1;
  r.actionDisagreements = 1;
  r.actionMatrix = {{{0, 0, 0}, {0, 2, 1}, {3, 0, 0}}};
  r.onlineGrants = 6;
  r.oracleGrants = 5;
  r.matchedGrants = 5;
  r.unmatchedGrants = 1;
  r.grantKindMismatches = 1;
  r.grantTimeL1DriftSeconds = 0.1 + 0.2;  // %.9g: 0.3
  r.grantTimeMaxDriftSeconds = 0.25;
  r.cpuSecondsWaitedOnline = 1234.5;
  r.cpuSecondsWaitedOracle = 1000.0 / 3.0;
  r.cpuSecondsWaitedDelta = -2.5e-7;
  EXPECT_EQ(toJson(r),
            "{\"online_decisions\": 5, \"oracle_decisions\": 4, "
            "\"compared_decisions\": 4, \"first_divergence_index\": 2, "
            "\"decision_agreements\": 2, \"requester_mismatches\": 1, "
            "\"action_disagreements\": 1, \"accessor_mismatches\": 0, "
            "\"action_matrix\": [[0, 0, 0], [0, 2, 1], [3, 0, 0]], "
            "\"online_grants\": 6, \"oracle_grants\": 5, "
            "\"matched_grants\": 5, \"unmatched_grants\": 1, "
            "\"grant_kind_mismatches\": 1, \"grant_time_l1_drift_s\": 0.3, "
            "\"grant_time_max_drift_s\": 0.25, "
            "\"cpu_seconds_waited_online\": 1234.5, "
            "\"cpu_seconds_waited_oracle\": 333.333333, "
            "\"cpu_seconds_waited_delta\": -2.5e-07, "
            "\"exactly_zero\": false}");
}

// ---------------------------------------------------------------------------
// End-to-end: the same-engine session path is exactly zero-divergent on
// IntrepidModel slices — the PR 3 core/transport guarantee held by a real
// month-shaped workload, for every policy.

ReplayConfig sliceConfig(PolicyKind policy) {
  ReplayConfig cfg;
  cfg.model.seed = 42;
  cfg.model.horizonSeconds = 3600.0 * 24 * 2;
  cfg.policy = policy;
  return cfg;
}

TEST(ReplaySessionTest, TwoDaySliceIsExactlyZeroDivergentForEveryPolicy) {
  for (PolicyKind policy :
       {PolicyKind::Fcfs, PolicyKind::Interrupt, PolicyKind::Dynamic}) {
    const ReplayResult r = replaySession(sliceConfig(policy));
    ASSERT_GT(r.jobs, 100u);
    EXPECT_GT(r.decisions.size(), 0u);
    // The grant log holds fresh grants plus post-pause resumes.
    const std::size_t freshGrants = static_cast<std::size_t>(
        std::count_if(r.grants.begin(), r.grants.end(),
                      [](const GrantRecord& g) { return !g.resume; }));
    EXPECT_EQ(freshGrants, r.grantsIssued);
    EXPECT_EQ(r.grants.size() - freshGrants, r.pausesHonored);
    EXPECT_EQ(r.captured.size(), 5u * r.jobs)
        << "1 inform + 3 releases + 1 complete per 4-round job";
    EXPECT_TRUE(r.divergence.exactlyZero())
        << calciom::core::toString(policy) << ": "
        << toJson(r.divergence);
    EXPECT_EQ(r.divergence.onlineDecisions, r.divergence.oracleDecisions);
    if (policy == PolicyKind::Interrupt) {
      EXPECT_GT(r.pausesIssued, 0u);
      EXPECT_GT(r.pausesHonored, 0u);
    }
  }
}

TEST(ReplaySessionTest, StreamStaysBounded) {
  const ReplayResult r = replaySession(sliceConfig(PolicyKind::Fcfs));
  EXPECT_GT(r.peakStreamBuffered, 0u);
  EXPECT_LT(r.peakStreamBuffered, r.jobs);
  EXPECT_GT(r.traceSpanSeconds, 0.0);
  EXPECT_GT(r.cpuSecondsWaited, 0.0);
}

// ---------------------------------------------------------------------------
// Cluster replay: bit-identical across worker counts (decision stream,
// grant schedule, captured events and divergence JSON), and the divergence
// against the zero-sampling oracle is a real, nonzero measurement.

TEST(ReplayClusterTest, SliceIsBitIdenticalAcrossWorkerCounts) {
  ReplayConfig cfg = sliceConfig(PolicyKind::Dynamic);
  cfg.computeShards = 4;
  cfg.syncHorizonSeconds = 30.0;

  std::vector<ReplayResult> runs;
  for (unsigned workers : {1u, 2u, 8u}) {
    cfg.workers = workers;
    runs.push_back(replayCluster(cfg));
  }
  const ReplayResult& base = runs[0];
  ASSERT_GT(base.decisions.size(), 0u);
  for (std::size_t w = 1; w < runs.size(); ++w) {
    const ReplayResult& r = runs[w];
    ASSERT_EQ(r.decisions.size(), base.decisions.size()) << "workers " << w;
    for (std::size_t i = 0; i < base.decisions.size(); ++i) {
      EXPECT_EQ(r.decisions[i].time, base.decisions[i].time);
      EXPECT_EQ(r.decisions[i].requester, base.decisions[i].requester);
      EXPECT_EQ(r.decisions[i].accessors, base.decisions[i].accessors);
      EXPECT_EQ(r.decisions[i].action, base.decisions[i].action);
      ASSERT_EQ(r.decisions[i].costs.size(), base.decisions[i].costs.size());
      for (std::size_t c = 0; c < base.decisions[i].costs.size(); ++c) {
        EXPECT_EQ(r.decisions[i].costs[c].action,
                  base.decisions[i].costs[c].action);
        EXPECT_EQ(r.decisions[i].costs[c].metricCost,
                  base.decisions[i].costs[c].metricCost);
      }
    }
    EXPECT_EQ(r.grants, base.grants);
    ASSERT_EQ(r.captured.size(), base.captured.size());
    for (std::size_t i = 0; i < base.captured.size(); ++i) {
      EXPECT_EQ(r.captured[i].time, base.captured[i].time);
      EXPECT_EQ(r.captured[i].app, base.captured[i].app);
    }
    EXPECT_EQ(toJson(r.divergence), toJson(base.divergence));
  }

  // The sampling cost is real: nonzero drift, but the schedules still
  // align app-by-app (grants matched, drift bounded by a few horizons).
  EXPECT_FALSE(base.divergence.exactlyZero());
  EXPECT_GT(base.divergence.matchedGrants, 0u);
  EXPECT_GT(base.divergence.grantTimeL1DriftSeconds, 0.0);
  const double meanDrift = base.divergence.grantTimeL1DriftSeconds /
                           static_cast<double>(base.divergence.matchedGrants);
  EXPECT_GT(meanDrift, 0.0);
}

TEST(ReplayClusterTest, SessionAndClusterPathsSeeTheSameWorkload) {
  ReplayConfig cfg = sliceConfig(PolicyKind::Fcfs);
  const ReplayResult session = replaySession(cfg);
  cfg.computeShards = 3;
  cfg.syncHorizonSeconds = 30.0;
  const ReplayResult cluster = replayCluster(cfg);
  // Same trace in, same jobs and same captured-event count out; only the
  // transport differs.
  EXPECT_EQ(session.jobs, cluster.jobs);
  EXPECT_EQ(session.captured.size(), cluster.captured.size());
  EXPECT_EQ(session.peakStreamBuffered, cluster.peakStreamBuffered);
}

}  // namespace
