// Tests for the scenario runners (runPair / runAlone / runMany) and the
// delta-graph harness.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "analysis/delta.hpp"
#include "analysis/scenario.hpp"
#include "calciom/arbiter_core.hpp"
#include "io/pattern.hpp"
#include "platform/presets.hpp"
#include "sim/fingerprint.hpp"

namespace {

using calciom::analysis::DeltaGraph;
using calciom::analysis::linspace;
using calciom::analysis::ManyConfig;
using calciom::analysis::ManyResult;
using calciom::analysis::PairResult;
using calciom::analysis::runAlone;
using calciom::analysis::runMany;
using calciom::analysis::runPair;
using calciom::analysis::ScenarioConfig;
using calciom::analysis::sweepDelta;
using calciom::core::Action;
using calciom::core::PolicyKind;
using calciom::io::contiguousPattern;
using calciom::platform::grid5000Rennes;
using calciom::workload::IorConfig;

IorConfig app(const char* name, int cores, int mb, double start = 0.0) {
  return IorConfig{.name = name,
                   .processes = cores,
                   .pattern = contiguousPattern(
                       static_cast<std::uint64_t>(mb) << 20),
                   .startOffset = start};
}

TEST(ScenarioTest, RunAloneIsIndependentOfOtherRuns) {
  const auto first = runAlone(grid5000Rennes(), app("x", 240, 8));
  const auto second = runAlone(grid5000Rennes(), app("x", 240, 8));
  EXPECT_EQ(first.totalIoSeconds(), second.totalIoSeconds());
}

TEST(ScenarioTest, NegativeDtStartsBFirst) {
  ScenarioConfig cfg;
  cfg.machine = grid5000Rennes();
  cfg.policy = PolicyKind::Interfere;
  cfg.appA = app("A", 240, 8);
  cfg.appB = app("B", 240, 8);
  cfg.dt = -4.0;
  const PairResult r = runPair(cfg);
  EXPECT_DOUBLE_EQ(r.a.firstStart, 4.0);
  EXPECT_DOUBLE_EQ(r.b.firstStart, 0.0);
}

TEST(ScenarioTest, BaseStartOffsetsCompose) {
  ScenarioConfig cfg;
  cfg.machine = grid5000Rennes();
  cfg.appA = app("A", 48, 4, /*start=*/1.0);
  cfg.appB = app("B", 48, 4, /*start=*/2.0);
  cfg.dt = 3.0;
  const PairResult r = runPair(cfg);
  EXPECT_DOUBLE_EQ(r.a.firstStart, 1.0);
  EXPECT_DOUBLE_EQ(r.b.firstStart, 5.0);  // base 2.0 + dt 3.0
}

TEST(ScenarioTest, SpanCoversBothApps) {
  ScenarioConfig cfg;
  cfg.machine = grid5000Rennes();
  cfg.appA = app("A", 240, 8);
  cfg.appB = app("B", 48, 4);
  cfg.dt = 2.0;
  const PairResult r = runPair(cfg);
  EXPECT_NEAR(r.spanSeconds,
              std::max(r.a.lastEnd, r.b.lastEnd) -
                  std::min(r.a.firstStart, r.b.firstStart),
              1e-12);
}

TEST(DeltaHarnessTest, GraphHasOnePointPerDtInOrder) {
  ScenarioConfig cfg;
  cfg.machine = grid5000Rennes();
  cfg.policy = PolicyKind::Interfere;
  cfg.appA = app("A", 240, 4);
  cfg.appB = app("B", 240, 4);
  const auto dts = linspace(-6.0, 6.0, 5);
  const DeltaGraph g = sweepDelta(cfg, dts);
  ASSERT_EQ(g.points.size(), 5u);
  for (std::size_t i = 0; i < dts.size(); ++i) {
    EXPECT_DOUBLE_EQ(g.points[i].dt, dts[i]);
  }
  EXPECT_GT(g.aloneA, 0.0);
  EXPECT_GT(g.aloneB, 0.0);
}

TEST(DeltaHarnessTest, ExpectedColumnsMatchAnalyticModel) {
  ScenarioConfig cfg;
  cfg.machine = grid5000Rennes();
  cfg.policy = PolicyKind::Interfere;
  cfg.appA = app("A", 240, 4);
  cfg.appB = app("B", 240, 4);
  const DeltaGraph g = sweepDelta(cfg, {0.0});
  // Equal apps at dt=0: expectation is 2*T_alone for both.
  EXPECT_NEAR(g.points[0].expectedA, 2.0 * g.aloneA, 1e-9);
  EXPECT_NEAR(g.points[0].expectedB, 2.0 * g.aloneB, 1e-9);
}

TEST(DeltaHarnessTest, DecisionCaptured) {
  ScenarioConfig cfg;
  cfg.machine = grid5000Rennes();
  cfg.policy = PolicyKind::Interrupt;
  cfg.appA = app("A", 480, 8);
  cfg.appB = app("B", 48, 4);
  const DeltaGraph g = sweepDelta(cfg, {2.0});
  ASSERT_TRUE(g.points[0].hasDecision);
  EXPECT_EQ(g.points[0].decision, Action::Interrupt);
}

TEST(RunManyTest, ConservesBytesAcrossAllApps) {
  ManyConfig cfg;
  cfg.machine = grid5000Rennes();
  cfg.policy = PolicyKind::Dynamic;
  cfg.apps = {app("a", 240, 8, 0.0), app("b", 96, 4, 1.0),
              app("c", 48, 4, 2.0), app("d", 24, 2, 3.0)};
  const ManyResult r = runMany(cfg);
  double expected = 0.0;
  for (const auto& s : r.apps) {
    expected += static_cast<double>(s.totalBytes());
  }
  EXPECT_NEAR(r.bytesDelivered, expected, expected * 1e-9 + 1.0);
  EXPECT_EQ(r.apps.size(), 4u);
}

TEST(RunManyTest, FcfsServesManyAppsInArrivalOrder) {
  ManyConfig cfg;
  cfg.machine = grid5000Rennes();
  cfg.policy = PolicyKind::Fcfs;
  cfg.apps = {app("a", 240, 8, 0.0), app("b", 240, 8, 0.5),
              app("c", 240, 8, 1.0)};
  const ManyResult r = runMany(cfg);
  EXPECT_LT(r.apps[0].lastEnd, r.apps[1].lastEnd);
  EXPECT_LT(r.apps[1].lastEnd, r.apps[2].lastEnd);
  // First app untouched.
  const double alone =
      runAlone(cfg.machine, cfg.apps[0]).totalIoSeconds();
  EXPECT_NEAR(r.apps[0].totalIoSeconds(), alone, alone * 0.02);
}

TEST(RunManyTest, DeterministicAcrossRuns) {
  ManyConfig cfg;
  cfg.machine = grid5000Rennes();
  cfg.policy = PolicyKind::Dynamic;
  cfg.apps = {app("a", 360, 8, 0.0), app("b", 96, 8, 1.0),
              app("c", 48, 2, 2.5)};
  const ManyResult r1 = runMany(cfg);
  const ManyResult r2 = runMany(cfg);
  for (std::size_t i = 0; i < r1.apps.size(); ++i) {
    EXPECT_EQ(r1.apps[i].totalIoSeconds(), r2.apps[i].totalIoSeconds());
  }
  EXPECT_EQ(r1.decisions.size(), r2.decisions.size());
  EXPECT_EQ(r1.pausesIssued, r2.pausesIssued);
}

// Pins runMany bit-for-bit: a 3-app campaign with staggered starts under
// each policy, plus the uncoordinated baseline. The fold covers what the
// runner assembles from the run: span, delivered bytes, the decision
// stream, pauses issued, and per app its first start, last end, bytes and
// the session stats copied back after the run.
TEST(RunManyTest, PinnedCampaignFingerprints) {
  struct Case {
    PolicyKind policy;
    bool coordinated;
    std::uint64_t fingerprint;
  };
  const Case cases[] = {
      {PolicyKind::Interfere, true, 0xd058b44f491dff59ULL},
      {PolicyKind::Fcfs, true, 0x4ce95bab4e24bd28ULL},
      {PolicyKind::Interrupt, true, 0xb9654f637de60882ULL},
      {PolicyKind::Dynamic, true, 0x70f91ab30f52cc7bULL},
      {PolicyKind::Interfere, false, 0x7713371ed471b97bULL},
  };
  for (const Case& c : cases) {
    ManyConfig cfg;
    cfg.machine = grid5000Rennes();
    cfg.policy = c.policy;
    cfg.coordinated = c.coordinated;
    cfg.apps = {app("a", 240, 8, 0.0), app("b", 96, 8, 1.5),
                app("c", 48, 4, 3.0)};
    const ManyResult r = runMany(cfg);
    calciom::sim::Fingerprint fp;
    fp.foldBits(r.spanSeconds);
    fp.foldBits(r.bytesDelivered);
    calciom::core::foldDecisions(fp, r.decisions);
    fp.fold(r.pausesIssued);
    for (const auto& s : r.apps) {
      fp.foldBits(s.firstStart);
      fp.foldBits(s.lastEnd);
      fp.fold(s.totalBytes());
      fp.foldBits(s.sessionWaitSeconds);
      fp.foldBits(s.sessionPausedSeconds);
      fp.fold(static_cast<std::uint64_t>(s.pausesHonored));
    }
    EXPECT_EQ(fp.value(), c.fingerprint)
        << toString(c.policy) << (c.coordinated ? "" : " uncoordinated")
        << " = 0x" << std::hex << fp.value();
  }
}

TEST(RunManyTest, EmptyAppListThrows) {
  ManyConfig cfg;
  cfg.machine = grid5000Rennes();
  EXPECT_THROW((void)runMany(cfg), calciom::PreconditionError);
}

}  // namespace
