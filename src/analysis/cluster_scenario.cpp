#include "analysis/cluster_scenario.hpp"

#include <memory>
#include <utility>

#include "calciom/global_arbiter.hpp"
#include "platform/cluster.hpp"
#include "platform/presets.hpp"
#include "sim/contracts.hpp"
#include "sim/engine.hpp"

namespace calciom::analysis {

ClusterRunResult runCluster(const ClusterScenarioConfig& cfg) {
  CALCIOM_EXPECTS(!cfg.apps.empty() || cfg.prepare != nullptr);
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
    arbiter = &calciom::GlobalArbiter::install(
        cluster,
        core::makePolicy(cfg.policy, cfg.metric, cfg.dynamicOptions));
  }

  ClusterRunResult out;
  CampaignLaunch launch(cfg, out, cfg.apps.size());
  for (std::size_t i = 0; i < cfg.apps.size(); ++i) {
    const ClusterAppPlan& plan = cfg.apps[i];
    CALCIOM_EXPECTS(plan.shard < cfg.shards);
    platform::ProvisionedApp provisioned =
        storage.provisionApp(plan.shard, static_cast<std::uint32_t>(i + 1),
                             plan.app.name, plan.app.processes);
    launch.spawn(cluster.engine(plan.shard),
                 cluster.machine(plan.shard).ports(),
                 std::make_unique<workload::IorApp>(
                     cluster.engine(plan.shard),
                     storage.makeClient(plan.shard,
                                        std::move(provisioned.clientContext)),
                     provisioned.writerConfig, plan.app));
  }
  if (cfg.prepare) {
    cfg.prepare(cluster, arbiter);
  }

  cluster.run(cfg.workers);

  launch.collect(arbiter != nullptr ? &arbiter->core() : nullptr);
  out.bytesDelivered = storage.fs().totalDelivered();
  if (arbiter != nullptr) {
    out.grantsIssued = arbiter->grantsIssued();
    out.grantLog = arbiter->core().releaseGrantLog();
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
