#include "analysis/scenario.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "io/hooks.hpp"
#include "sim/contracts.hpp"
#include "sim/engine.hpp"

namespace calciom::analysis {

PairResult runPair(const ScenarioConfig& cfg) {
  ManyConfig many{.machine = cfg.machine,
                  .policy = cfg.policy,
                  .metric = cfg.metric,
                  .dynamicOptions = cfg.dynamicOptions,
                  .apps = {cfg.appA, cfg.appB},
                  .granularity = cfg.granularity,
                  .coordinated = cfg.coordinated};
  many.apps[0].startOffset += std::max(0.0, -cfg.dt);
  many.apps[1].startOffset += std::max(0.0, cfg.dt);
  ManyResult r = runMany(many);
  return PairResult{.a = std::move(r.apps[0]),
                    .b = std::move(r.apps[1]),
                    .decisions = std::move(r.decisions),
                    .spanSeconds = r.spanSeconds,
                    .bytesDelivered = r.bytesDelivered};
}

workload::AppStats runAlone(const platform::MachineSpec& spec,
                            const workload::IorConfig& app) {
  return runMany(ManyConfig{.machine = spec, .apps = {app}}).apps.front();
}

ManyResult runMany(const ManyConfig& cfg) {
  CALCIOM_EXPECTS(!cfg.apps.empty());
  sim::Engine eng;
  platform::Machine machine(eng, cfg.machine);
  std::shared_ptr<const core::EfficiencyMetric> metric = cfg.metric;
  if (!metric) {
    metric = std::make_shared<core::CpuSecondsWasted>();
  }
  core::Arbiter arbiter(
      eng, machine.ports(),
      core::makePolicy(cfg.policy, metric, cfg.dynamicOptions));

  std::vector<std::unique_ptr<workload::IorApp>> apps;
  std::vector<std::unique_ptr<core::Session>> sessions;
  ManyResult out;
  out.apps.resize(cfg.apps.size());
  for (std::size_t i = 0; i < cfg.apps.size(); ++i) {
    const auto appId = static_cast<std::uint32_t>(i + 1);
    apps.push_back(
        std::make_unique<workload::IorApp>(machine, appId, cfg.apps[i]));
    sessions.push_back(std::make_unique<core::Session>(
        eng, machine.ports(),
        core::SessionConfig{.appId = appId,
                            .appName = cfg.apps[i].name,
                            .cores = cfg.apps[i].processes,
                            .granularity = cfg.granularity}));
  }
  io::NoopHooks noop;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    io::IoCoordinationHooks& hooks =
        cfg.coordinated ? static_cast<io::IoCoordinationHooks&>(*sessions[i])
                        : noop;
    eng.spawn(apps[i]->run(hooks, &out.apps[i]));
  }
  eng.run();

  double firstStart = out.apps.front().firstStart;
  double lastEnd = out.apps.front().lastEnd;
  for (std::size_t i = 0; i < out.apps.size(); ++i) {
    out.apps[i].sessionWaitSeconds = sessions[i]->waitSeconds();
    out.apps[i].sessionPausedSeconds = sessions[i]->pausedSeconds();
    out.apps[i].pausesHonored = sessions[i]->pausesHonored();
    firstStart = std::min(firstStart, out.apps[i].firstStart);
    lastEnd = std::max(lastEnd, out.apps[i].lastEnd);
  }
  out.decisions = arbiter.decisions();
  out.spanSeconds = lastEnd - firstStart;
  out.bytesDelivered = machine.fs().totalDelivered();
  out.pausesIssued = arbiter.pausesIssued();
  return out;
}

}  // namespace calciom::analysis
