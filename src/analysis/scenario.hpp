#pragma once

/// \file scenario.hpp
/// The same-engine experiment runner: builds a fresh machine, arbiter and
/// N applications, runs them with a chosen policy, and collects everything
/// the paper's figures report. `runMany` is the one assembly; `runPair`
/// (two apps and a start offset) and `runAlone` (one app, T_alone) are
/// configurations of it. Each run is an isolated simulation (own engine
/// and machine), so sweeps are embarrassingly reproducible.

#include <memory>
#include <vector>

#include "calciom/arbiter.hpp"
#include "calciom/metrics.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "platform/machine.hpp"
#include "platform/presets.hpp"
#include "workload/ior.hpp"

namespace calciom::analysis {

struct ScenarioConfig {
  platform::MachineSpec machine;
  core::PolicyKind policy = core::PolicyKind::Interfere;
  /// Metric for the dynamic policy (defaults to CpuSecondsWasted).
  std::shared_ptr<const core::EfficiencyMetric> metric;
  core::DynamicOptions dynamicOptions;
  workload::IorConfig appA;
  workload::IorConfig appB;
  /// B's start relative to A's (negative: B first).
  double dt = 0.0;
  core::HookGranularity granularity = core::HookGranularity::PerRound;
  bool coordinated = true;  ///< see ManyConfig::coordinated
};

struct PairResult {
  workload::AppStats a;
  workload::AppStats b;
  std::vector<core::DecisionRecord> decisions;
  /// Wall-clock span from the earlier start to the later end.
  double spanSeconds = 0.0;
  /// Total bytes landed on the file system.
  double bytesDelivered = 0.0;
};

/// Runs the two applications of `cfg` together.
[[nodiscard]] PairResult runPair(const ScenarioConfig& cfg);

/// Runs one application on an otherwise idle machine (T_alone).
[[nodiscard]] workload::AppStats runAlone(const platform::MachineSpec& spec,
                                          const workload::IorConfig& app);

/// N-application scenario (paper §III-A: "these strategies naturally
/// extend to more than two applications").
struct ManyConfig {
  platform::MachineSpec machine;
  core::PolicyKind policy = core::PolicyKind::Interfere;
  std::shared_ptr<const core::EfficiencyMetric> metric;
  core::DynamicOptions dynamicOptions;
  std::vector<workload::IorConfig> apps;
  core::HookGranularity granularity = core::HookGranularity::PerRound;
  /// false runs every app with NoopHooks: the raw, uncoordinated baseline
  /// (no arbiter messages at all).
  bool coordinated = true;
};

struct ManyResult {
  std::vector<workload::AppStats> apps;
  std::vector<core::DecisionRecord> decisions;
  double spanSeconds = 0.0;
  double bytesDelivered = 0.0;
  std::size_t pausesIssued = 0;
};

[[nodiscard]] ManyResult runMany(const ManyConfig& cfg);

}  // namespace calciom::analysis
