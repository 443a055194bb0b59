// Cross-validation of the full simulation stack against the paper's
// analytic proportional-sharing model: on a machine with no queue-backlog
// penalty, no locality loss and no caches, measured delta-graph times must
// coincide with expectedPairTimes. This closes the loop between the
// machine model and the closed-form theory the paper plots as "Expected".

#include <gtest/gtest.h>

#include "analysis/delta.hpp"
#include "analysis/expected.hpp"
#include "io/pattern.hpp"
#include "platform/machine.hpp"

namespace {

using calciom::analysis::DeltaGraph;
using calciom::analysis::expectedDeltaTimes;
using calciom::analysis::ExpectedDeltaTimes;
using calciom::analysis::linspace;
using calciom::analysis::ScenarioConfig;
using calciom::analysis::sweepDelta;
using calciom::core::PolicyKind;
using calciom::io::contiguousPattern;
using calciom::platform::MachineSpec;
using calciom::workload::IorConfig;

/// An idealized machine: pure proportional sharing, no second-order
/// effects. 8 servers x 100 MB/s; clients unconstrained.
MachineSpec idealMachine() {
  MachineSpec m;
  m.name = "ideal";
  m.totalCores = 1024;
  m.coresPerNode = 8;
  m.fs.serverCount = 8;
  m.fs.server.nicBandwidth = 100e6;
  m.fs.server.diskBandwidth = 100e6;
  m.fs.server.cacheBytes = 0.0;
  m.fs.server.localityAlpha = 0.0;
  m.fs.queuePenaltySeconds = 0.0;
  m.fs.stripeBytes = 64 * 1024;
  m.coordinationLatencySeconds = 1e-6;
  return m;
}

TEST(CrossValidationTest, EqualAppsMatchTheExpectedDeltaCurve) {
  ScenarioConfig cfg;
  cfg.machine = idealMachine();
  cfg.policy = PolicyKind::Interfere;
  cfg.appA = IorConfig{.name = "A", .processes = 512,
                       .pattern = contiguousPattern(8 << 20)};
  cfg.appB = cfg.appA;
  cfg.appB.name = std::string("B");
  const auto dts = linspace(-8.0, 8.0, 9);
  const DeltaGraph g = sweepDelta(cfg, dts);
  for (const auto& p : g.points) {
    const ExpectedDeltaTimes expect = expectedDeltaTimes(
        g.aloneA, g.aloneB, p.dt, 512.0, 512.0);
    EXPECT_NEAR(p.ioTimeA, expect.timeA, expect.timeA * 0.02)
        << "dt=" << p.dt;
    EXPECT_NEAR(p.ioTimeB, expect.timeB, expect.timeB * 0.02)
        << "dt=" << p.dt;
  }
}

TEST(CrossValidationTest, AsymmetricWeightsMatchTheExpectedCurve) {
  ScenarioConfig cfg;
  cfg.machine = idealMachine();
  cfg.policy = PolicyKind::Interfere;
  cfg.appA = IorConfig{.name = "A", .processes = 768,
                       .pattern = contiguousPattern(8 << 20)};
  cfg.appB = IorConfig{.name = "B", .processes = 256,
                       .pattern = contiguousPattern(8 << 20)};
  const auto dts = linspace(-4.0, 12.0, 5);
  const DeltaGraph g = sweepDelta(cfg, dts);
  // Weights are aggregator counts; aggregators scale with process counts
  // (one per 8-core node), so process counts are the right weights here.
  for (const auto& p : g.points) {
    const ExpectedDeltaTimes expect = expectedDeltaTimes(
        g.aloneA, g.aloneB, p.dt, 768.0, 256.0);
    EXPECT_NEAR(p.ioTimeA, expect.timeA, expect.timeA * 0.03)
        << "dt=" << p.dt;
    EXPECT_NEAR(p.ioTimeB, expect.timeB, expect.timeB * 0.03)
        << "dt=" << p.dt;
  }
}

TEST(CrossValidationTest, FcfsMatchesTheSerializationFormula) {
  // Under FCFS, the second app's time is (T_first_remaining) + T_alone:
  // the paper's f_FCFS accounting (Section IV-D).
  ScenarioConfig cfg;
  cfg.machine = idealMachine();
  cfg.policy = PolicyKind::Fcfs;
  cfg.appA = IorConfig{.name = "A", .processes = 512,
                       .pattern = contiguousPattern(8 << 20)};
  cfg.appB = cfg.appA;
  cfg.appB.name = std::string("B");
  const auto dts = linspace(0.0, 4.0, 3);
  const DeltaGraph g = sweepDelta(cfg, dts);
  for (const auto& p : g.points) {
    const double expectedB = (g.aloneA - p.dt) + g.aloneB;
    EXPECT_NEAR(p.ioTimeB, expectedB, expectedB * 0.02) << "dt=" << p.dt;
    EXPECT_NEAR(p.ioTimeA, g.aloneA, g.aloneA * 0.01) << "dt=" << p.dt;
  }
}

TEST(CrossValidationTest, InterruptMatchesTheInterruptionFormula) {
  // Under interruption, the accessor's time stretches by the requester's
  // alone time: T_A + T_B (paper's f_Interrupt accounting), up to one
  // round of boundary slack.
  ScenarioConfig cfg;
  cfg.machine = idealMachine();
  cfg.policy = PolicyKind::Interrupt;
  cfg.appA = IorConfig{.name = "A", .processes = 512,
                       .pattern = contiguousPattern(8 << 20)};
  cfg.appB = IorConfig{.name = "B", .processes = 512,
                       .pattern = contiguousPattern(2 << 20)};
  cfg.dt = 1.0;
  const DeltaGraph g = sweepDelta(cfg, {1.0});
  const auto& p = g.points[0];
  // One collective-buffering round of A bounds the boundary slack.
  const double roundSeconds = g.aloneA / 4.0;  // 4GB / (64 agg x 16MB) = 4
  EXPECT_NEAR(p.ioTimeA, g.aloneA + g.aloneB, roundSeconds);
  EXPECT_NEAR(p.ioTimeB, g.aloneB, roundSeconds + 0.1);
}

}  // namespace
