#include "analysis/scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "sim/contracts.hpp"
#include "sim/engine.hpp"

namespace calciom::analysis {

CampaignLaunch::CampaignLaunch(const CampaignSettings& settings,
                               ManyResult& out, std::size_t apps)
    : granularity_(settings.granularity),
      coordinated_(settings.coordinated),
      out_(out) {
  out_.apps.resize(apps);
}

void CampaignLaunch::spawn(sim::Engine& engine, mpi::PortRegistry& ports,
                           std::unique_ptr<workload::IorApp> app) {
  CALCIOM_EXPECTS(apps_.size() < out_.apps.size());
  const std::size_t i = apps_.size();
  apps_.push_back(std::move(app));
  io::IoCoordinationHooks* hooks = &noop_;
  if (coordinated_) {
    const workload::IorConfig& cfg = apps_[i]->config();
    sessions_.push_back(std::make_unique<core::Session>(
        engine, ports,
        core::SessionConfig{.appId = static_cast<std::uint32_t>(i + 1),
                            .appName = cfg.name,
                            .cores = cfg.processes,
                            .granularity = granularity_}));
    hooks = sessions_.back().get();
  }
  engine.spawn(apps_[i]->run(*hooks, &out_.apps[i]));
}

void CampaignLaunch::collect(core::ArbiterCore* arbiter) {
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    out_.apps[i].sessionWaitSeconds = sessions_[i]->waitSeconds();
    out_.apps[i].sessionPausedSeconds = sessions_[i]->pausedSeconds();
    out_.apps[i].pausesHonored = sessions_[i]->pausesHonored();
  }
  if (!out_.apps.empty()) {
    double firstStart = out_.apps.front().firstStart;
    double lastEnd = out_.apps.front().lastEnd;
    for (const workload::AppStats& s : out_.apps) {
      firstStart = std::min(firstStart, s.firstStart);
      lastEnd = std::max(lastEnd, s.lastEnd);
    }
    out_.spanSeconds = lastEnd - firstStart;
  }
  if (arbiter != nullptr) {
    out_.decisions = arbiter->releaseDecisions();
    out_.pausesIssued = arbiter->pausesIssued();
  }
}

PairResult runPair(const ScenarioConfig& cfg) {
  ManyConfig many{cfg, {cfg.appA, cfg.appB}};
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
  return runMany(ManyConfig{{.machine = spec}, {app}}).apps.front();
}

ManyResult runMany(const ManyConfig& cfg) {
  CALCIOM_EXPECTS(!cfg.apps.empty());
  sim::Engine eng;
  platform::Machine machine(eng, cfg.machine);
  std::optional<core::Arbiter> arbiter;
  if (cfg.coordinated) {
    arbiter.emplace(eng, machine.ports(),
                    core::makePolicy(cfg.policy, cfg.metric,
                                     cfg.dynamicOptions));
  }

  ManyResult out;
  CampaignLaunch launch(cfg, out, cfg.apps.size());
  for (std::size_t i = 0; i < cfg.apps.size(); ++i) {
    launch.spawn(eng, machine.ports(),
                 std::make_unique<workload::IorApp>(
                     machine, static_cast<std::uint32_t>(i + 1), cfg.apps[i]));
  }
  eng.run();

  launch.collect(arbiter ? &arbiter->core() : nullptr);
  out.bytesDelivered = machine.fs().totalDelivered();
  return out;
}

}  // namespace calciom::analysis
