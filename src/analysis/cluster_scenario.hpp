#pragma once

/// \file cluster_scenario.hpp
/// The machine-wide experiment runner: builds a sharded cluster with one
/// storage shard (platform::SharedStorageModel), pins real IOR applications
/// on compute shards, coordinates them through a calciom::GlobalArbiter at
/// the sync-horizon barriers, and collects everything the paper's figures
/// report — the cluster counterpart of scenario.hpp's runPair/runMany. The
/// single-machine runners stay the oracle: on a collapsed workload the
/// cluster path must reproduce their decision stream exactly and their
/// aggregate throughput up to barrier/hop latency (pinned by
/// tests/cluster_io_test.cpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "calciom/metrics.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "platform/machine.hpp"
#include "platform/shared_storage.hpp"
#include "sim/barrier_hook.hpp"
#include "sim/time.hpp"
#include "workload/ior.hpp"

namespace calciom {
class GlobalArbiter;
}  // namespace calciom

namespace calciom::analysis {

/// One application of a machine-wide campaign, pinned to a shard.
struct ClusterAppPlan {
  workload::IorConfig app;
  std::size_t shard = 0;
};

struct ClusterScenarioConfig {
  /// Machine spec replicated per shard (the storage shard's file system is
  /// the only one used).
  platform::MachineSpec machine;
  /// Total shards, including the storage shard.
  std::size_t shards = 2;
  /// Shard hosting the shared PFS; default (nullopt) is the last shard.
  std::optional<std::size_t> storageShard;
  sim::Time syncHorizonSeconds = 0.25;
  core::PolicyKind policy = core::PolicyKind::Interfere;
  /// Metric for the dynamic policy (defaults to CpuSecondsWasted).
  std::shared_ptr<const core::EfficiencyMetric> metric;
  core::DynamicOptions dynamicOptions;
  std::vector<ClusterAppPlan> apps;
  core::HookGranularity granularity = core::HookGranularity::PerRound;
  /// false runs every app with NoopHooks: no arbiter, no coordination
  /// traffic — the machine-wide "interfering" baseline.
  bool coordinated = true;
  unsigned workers = 1;

  // ---- Custom drives (analysis/replay.hpp) -------------------------------
  // runCluster is the one machine-wide campaign runner; drives that are not
  // "N pinned IOR apps" plug in here instead of duplicating the
  // cluster/storage/arbiter assembly. With a drive installed, `apps` may be
  // empty.

  /// Non-owning barrier hooks, registered (in order) after the arbiter's
  /// own hook; must outlive the call. The trace-replay harness streams SWF
  /// jobs into the shards from such a hook.
  std::vector<sim::BarrierHook*> barrierHooks;
  /// Invoked after the cluster, storage model and arbiter are built, before
  /// the run: lets a drive spawn its own workload against the shards.
  /// `arbiter` is nullptr when `coordinated` is false.
  std::function<void(platform::Cluster&, GlobalArbiter* arbiter)> prepare;
};

struct ClusterRunResult {
  std::vector<workload::AppStats> apps;
  std::vector<core::DecisionRecord> decisions;
  /// Wall-clock span from the earliest start to the latest end.
  double spanSeconds = 0.0;
  /// Total bytes landed on the shared file system.
  double bytesDelivered = 0.0;
  std::size_t grantsIssued = 0;
  std::size_t pausesIssued = 0;
  /// Every Grant/Resume the arbiter issued, in order (empty when
  /// uncoordinated). The replay harness aligns this against its oracle.
  std::vector<core::GrantRecord> grantLog;
  /// Core-seconds spent waiting on the arbiter's schedule
  /// (ArbiterCore::cpuSecondsWaited; 0 when uncoordinated).
  double cpuSecondsWaited = 0.0;
  platform::SharedStorageStats storage;
  /// Cross-shard write requests in exchange order (empty when every app
  /// sits on the storage shard).
  std::vector<platform::RequestTrace> requestLog;
  /// Deterministic platform state for thread-count-invariance comparisons.
  std::vector<std::uint64_t> shardEvents;
  std::vector<double> shardClocks;
  std::uint64_t syncRounds = 0;
  /// Total cluster rounds the campaign ran (ClusterStats::horizonSteps):
  /// the deterministic unit of barrier-sampling cost — each step pays the
  /// vote collection, hook firing and executor dispatch once. The
  /// horizon-sweep bench (bench/perf_control.cpp) gates on this falling
  /// while drift grows.
  std::uint64_t horizonSteps = 0;
  /// Real CPU seconds spent inside shard event loops, summed over shards
  /// (ClusterStats::cpuSeconds — NOT simulated time, and not the campaign's
  /// elapsed time either; bench tiers report it next to their external
  /// wall-clock timer, never added to it).
  double engineCpuSeconds = 0.0;
};

/// Runs the campaign to completion with `cfg.workers` worker threads.
[[nodiscard]] ClusterRunResult runCluster(const ClusterScenarioConfig& cfg);

}  // namespace calciom::analysis
