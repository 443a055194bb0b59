#pragma once

/// \file scenario.hpp
/// The campaign assembly and its same-engine binding. A campaign is N IOR
/// applications run together under one policy; `CampaignSettings` holds
/// what every campaign sets and `ManyResult` what every campaign reports,
/// on whichever platform it runs. `CampaignLaunch` is the one
/// launch-and-collect body: a runner builds its platform and (when
/// coordinated) its arbiter, hands each constructed `IorApp` to the launch
/// with the engine and port registry it runs on, runs the platform, and
/// lets the launch collect the results.
///
/// Two platform bindings call it. `runMany` here places every app on one
/// `Machine` coordinated by a same-engine `core::Arbiter`; `runPair` (two
/// apps and a start offset) and `runAlone` (one app, T_alone) are
/// configurations of it. `runCluster` (cluster_scenario.hpp) pins apps on
/// the shards of a `Cluster` that share one PFS, coordinated by a
/// `GlobalArbiter`. Each run is an isolated simulation (own engines and
/// platform), so sweeps are embarrassingly reproducible.

#include <cstddef>
#include <memory>
#include <vector>

#include "calciom/arbiter.hpp"
#include "calciom/metrics.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "io/hooks.hpp"
#include "platform/machine.hpp"
#include "platform/presets.hpp"
#include "workload/ior.hpp"

namespace calciom::analysis {

/// What every campaign sets, whichever platform it runs on.
struct CampaignSettings {
  platform::MachineSpec machine;
  core::PolicyKind policy = core::PolicyKind::Interfere;
  /// Metric for the dynamic policy (core::makePolicy defaults it to
  /// CpuSecondsWasted).
  std::shared_ptr<const core::EfficiencyMetric> metric;
  core::DynamicOptions dynamicOptions;
  core::HookGranularity granularity = core::HookGranularity::PerRound;
  /// false installs no arbiter and runs every app with NoopHooks: the raw,
  /// uncoordinated baseline (no coordination traffic at all).
  bool coordinated = true;
};

/// What every campaign reports, whichever platform it runs on.
struct ManyResult {
  std::vector<workload::AppStats> apps;
  /// Empty when uncoordinated.
  std::vector<core::DecisionRecord> decisions;
  /// Wall-clock span from the earliest start to the latest end.
  double spanSeconds = 0.0;
  /// Total bytes landed on the (shared) file system.
  double bytesDelivered = 0.0;
  std::size_t pausesIssued = 0;
};

/// The launch-and-collect body of every campaign. Apps are numbered from 1
/// in launch order and report into `out.apps` in that order.
class CampaignLaunch {
 public:
  /// Sizes `out.apps` for `apps` launches; `out` must outlive the run.
  CampaignLaunch(const CampaignSettings& settings, ManyResult& out,
                 std::size_t apps);

  /// Gives `app` a Session on `ports` (NoopHooks when uncoordinated) and
  /// spawns its run on `engine`. `app` must have been built with the next
  /// app id.
  void spawn(sim::Engine& engine, mpi::PortRegistry& ports,
             std::unique_ptr<workload::IorApp> app);

  /// After the run: copies each session's stats into its app, the span,
  /// and (when `arbiter` is non-null) the pauses issued; the decisions are
  /// moved out of `arbiter`, whose log is empty afterwards.
  void collect(core::ArbiterCore* arbiter);

 private:
  core::HookGranularity granularity_;
  bool coordinated_;
  ManyResult& out_;
  io::NoopHooks noop_;
  std::vector<std::unique_ptr<workload::IorApp>> apps_;
  std::vector<std::unique_ptr<core::Session>> sessions_;
};

struct ScenarioConfig : CampaignSettings {
  workload::IorConfig appA;
  workload::IorConfig appB;
  /// B's start relative to A's (negative: B first).
  double dt = 0.0;
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
struct ManyConfig : CampaignSettings {
  std::vector<workload::IorConfig> apps;
};

[[nodiscard]] ManyResult runMany(const ManyConfig& cfg);

}  // namespace calciom::analysis
