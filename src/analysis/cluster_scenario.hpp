#pragma once

/// \file cluster_scenario.hpp
/// The cluster binding of the campaign assembly (scenario.hpp): apps are
/// pinned on the compute shards of a `platform::Cluster` and write through
/// remote clients to one shared PFS on a storage shard
/// (`platform::SharedStorageModel`); when coordinated, a
/// `calciom::GlobalArbiter` decides at the sync-horizon barriers. Launch
/// and collection are `CampaignLaunch`'s, as for `runMany`. The same-engine
/// binding stays the oracle: on a collapsed workload the cluster path must
/// reproduce its decision stream exactly and its aggregate throughput up
/// to barrier/hop latency (pinned by tests/cluster_io_test.cpp).

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "analysis/scenario.hpp"
#include "platform/shared_storage.hpp"
#include "sim/time.hpp"

namespace calciom {
class GlobalArbiter;
}  // namespace calciom

namespace calciom::analysis {

/// One application of a machine-wide campaign, pinned to a shard.
struct ClusterAppPlan {
  workload::IorConfig app;
  std::size_t shard = 0;
};

/// `machine` is replicated per shard (the storage shard's file system is
/// the only one used).
struct ClusterScenarioConfig : CampaignSettings {
  /// Total shards, including the storage shard.
  std::size_t shards = 2;
  /// Shard hosting the shared PFS; default (nullopt) is the last shard.
  std::optional<std::size_t> storageShard;
  sim::Time syncHorizonSeconds = 0.25;
  std::vector<ClusterAppPlan> apps;
  unsigned workers = 1;
  /// A custom drive (analysis/replay.hpp), for workloads that are not "N
  /// pinned IOR apps": invoked after the cluster, storage model, arbiter
  /// and apps are set up, before the run, so it can register its own
  /// barrier hooks (after the arbiter's) and spawn its own workload
  /// against the shards. `arbiter` is nullptr when `coordinated` is false.
  /// With a drive installed, `apps` may be empty.
  std::function<void(platform::Cluster&, GlobalArbiter* arbiter)> prepare;
};

struct ClusterRunResult : ManyResult {
  std::size_t grantsIssued = 0;
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
