#include "analysis/cluster_scenario.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "calciom/global_arbiter.hpp"
#include "io/hooks.hpp"
#include "platform/cluster.hpp"
#include "platform/presets.hpp"
#include "sim/contracts.hpp"
#include "sim/engine.hpp"

namespace calciom::analysis {

ClusterRunResult runCluster(const ClusterScenarioConfig& cfg) {
  CALCIOM_EXPECTS(!cfg.apps.empty() || cfg.prepare != nullptr ||
                  !cfg.barrierHooks.empty());
  CALCIOM_EXPECTS(cfg.shards >= 1);

  platform::ClusterSpec spec = platform::shardedCluster(
      cfg.machine, cfg.shards, cfg.syncHorizonSeconds);
  platform::Cluster cluster(spec);

  platform::SharedStorageModel::Config storageCfg;
  storageCfg.storageShard = cfg.storageShard;
  platform::SharedStorageModel& storage =
      platform::SharedStorageModel::install(cluster, storageCfg);

  calciom::GlobalArbiter* arbiter = nullptr;
  if (cfg.coordinated) {
    std::shared_ptr<const core::EfficiencyMetric> metric = cfg.metric;
    if (!metric) {
      metric = std::make_shared<core::CpuSecondsWasted>();
    }
    arbiter = &calciom::GlobalArbiter::install(
        cluster, core::makePolicy(cfg.policy, metric, cfg.dynamicOptions));
  }

  std::vector<std::unique_ptr<core::Session>> sessions;
  std::vector<std::unique_ptr<workload::IorApp>> apps;
  io::NoopHooks noop;
  ClusterRunResult out;
  out.apps.resize(cfg.apps.size());
  for (std::size_t i = 0; i < cfg.apps.size(); ++i) {
    const ClusterAppPlan& plan = cfg.apps[i];
    CALCIOM_EXPECTS(plan.shard < cfg.shards);
    const auto appId = static_cast<std::uint32_t>(i + 1);
    platform::ProvisionedApp provisioned = storage.provisionApp(
        plan.shard, appId, plan.app.name, plan.app.processes);
    apps.push_back(std::make_unique<workload::IorApp>(
        cluster.engine(plan.shard),
        storage.makeClient(plan.shard,
                           std::move(provisioned.clientContext)),
        provisioned.writerConfig, plan.app));
    io::IoCoordinationHooks* hooks = &noop;
    if (cfg.coordinated) {
      sessions.push_back(std::make_unique<core::Session>(
          cluster.engine(plan.shard), cluster.machine(plan.shard).ports(),
          core::SessionConfig{.appId = appId,
                              .appName = plan.app.name,
                              .cores = plan.app.processes,
                              .granularity = cfg.granularity}));
      hooks = sessions.back().get();
    }
    cluster.engine(plan.shard)
        .spawn(apps[i]->run(*hooks, &out.apps[i]));
  }

  for (sim::BarrierHook* hook : cfg.barrierHooks) {
    cluster.addBarrierHook(hook);
  }
  if (cfg.prepare) {
    cfg.prepare(cluster, arbiter);
  }

  cluster.run(cfg.workers);

  if (!out.apps.empty()) {
    double firstStart = out.apps.front().firstStart;
    double lastEnd = out.apps.front().lastEnd;
    for (std::size_t i = 0; i < out.apps.size(); ++i) {
      if (cfg.coordinated) {
        out.apps[i].sessionWaitSeconds = sessions[i]->waitSeconds();
        out.apps[i].sessionPausedSeconds = sessions[i]->pausedSeconds();
        out.apps[i].pausesHonored = sessions[i]->pausesHonored();
      }
      firstStart = std::min(firstStart, out.apps[i].firstStart);
      lastEnd = std::max(lastEnd, out.apps[i].lastEnd);
    }
    out.spanSeconds = lastEnd - firstStart;
  }
  out.bytesDelivered = storage.fs().totalDelivered();
  if (arbiter != nullptr) {
    out.decisions = arbiter->decisions();
    out.grantsIssued = arbiter->grantsIssued();
    out.pausesIssued = arbiter->pausesIssued();
    out.grantLog = arbiter->core().grantLog();
    out.cpuSecondsWaited = arbiter->core().cpuSecondsWaited();
  }
  out.storage = storage.stats();
  out.requestLog = storage.requestLog();
  const auto clusterStats = cluster.stats();
  out.syncRounds = clusterStats.syncRounds;
  out.horizonSteps = clusterStats.horizonSteps;
  out.engineCpuSeconds = clusterStats.cpuSeconds;
  for (std::size_t s = 0; s < cluster.shardCount(); ++s) {
    out.shardEvents.push_back(cluster.engine(s).processedEvents());
    out.shardClocks.push_back(cluster.engine(s).now());
  }
  return out;
}

}  // namespace calciom::analysis
