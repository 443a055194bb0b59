// Multi-application replay: five applications of very different sizes
// arrive over ~15 seconds and all want to write. This example runs them
// through the N-application campaign runner (analysis::runMany) under each
// policy, with the dynamic policy optimizing the sum of interference
// factors, and reports machine-wide efficiency metrics -- the paper's
// "strategies naturally extend to more than two applications" (Section
// III-A).
//
// The second half scales the same idea to a trace: a week of the synthetic
// Intrepid workload streamed through the online coordination layer
// (analysis::replay), with the decision-divergence report against the
// offline bare-core oracle printed as JSON -- exactly zero on the
// same-engine path, and a measured sampling drift on the sharded cluster
// path.

#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/replay.hpp"
#include "analysis/scenario.hpp"
#include "analysis/table.hpp"
#include "calciom/metrics.hpp"
#include "io/pattern.hpp"
#include "platform/presets.hpp"
#include "workload/ior.hpp"

namespace {

using namespace calciom;

struct JobSpec {
  const char* name;
  int processes;
  int mbPerProc;
  double start;
};

constexpr JobSpec kJobs[] = {
    {"climate", 480, 16, 0.0}, {"cfd", 240, 8, 3.0},
    {"genomics", 96, 8, 6.0},  {"viz", 48, 4, 9.0},
    {"postproc", 24, 4, 12.0},
};

workload::IorConfig makeConfig(const JobSpec& j) {
  return workload::IorConfig{
      .name = j.name,
      .processes = j.processes,
      .pattern = io::contiguousPattern(
          static_cast<std::uint64_t>(j.mbPerProc) << 20),
      .startOffset = j.start};
}

analysis::ManyResult replay(core::PolicyKind policy) {
  analysis::ManyConfig cfg;
  cfg.machine = platform::grid5000Rennes();
  cfg.policy = policy;
  cfg.metric = std::make_shared<core::SumInterferenceFactors>();
  for (const JobSpec& j : kJobs) {
    cfg.apps.push_back(makeConfig(j));
  }
  return analysis::runMany(cfg);
}

}  // namespace

int main() {
  std::cout << "five applications arriving over 12s on g5k-rennes\n\n";

  // Alone times for interference factors.
  std::vector<double> alone;
  for (const JobSpec& j : kJobs) {
    alone.push_back(
        analysis::runAlone(platform::grid5000Rennes(), makeConfig(j))
            .totalIoSeconds());
  }

  analysis::TextTable table({"policy", "sum I/O time (s)",
                             "sum factors", "CPU-hrs wasted", "max factor",
                             "pauses"});
  for (core::PolicyKind policy :
       {core::PolicyKind::Interfere, core::PolicyKind::Fcfs,
        core::PolicyKind::Interrupt, core::PolicyKind::Dynamic}) {
    const analysis::ManyResult r = replay(policy);
    double sumIo = 0.0;
    double sumFactors = 0.0;
    double cpuSeconds = 0.0;
    double maxFactor = 0.0;
    int pauses = 0;
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
      const double io = r.apps[i].totalIoSeconds();
      sumIo += io;
      sumFactors += io / alone[i];
      cpuSeconds += io * kJobs[i].processes;
      maxFactor = std::max(maxFactor, io / alone[i]);
      pauses += r.apps[i].pausesHonored;
    }
    table.addRow({toString(policy), analysis::fmt(sumIo, 1),
                  analysis::fmt(sumFactors, 2),
                  analysis::fmt(cpuSeconds / 3600.0, 2),
                  analysis::fmt(maxFactor, 1) + "x",
                  std::to_string(pauses)});
  }
  std::cout << table.str()
            << "\nThe dynamic policy (optimizing the sum of interference "
               "factors) queues or\ninterrupts per arrival, keeping every "
               "application's factor bounded.\n";

  // ---- Full-slice online replay: a week of Intrepid through the arbiter.
  namespace replay = analysis::replay;
  replay::ReplayConfig cfg;
  cfg.model.seed = 2014;
  cfg.model.horizonSeconds = 3600.0 * 24 * 7;
  cfg.policy = core::PolicyKind::Dynamic;

  std::cout << "\none week of the synthetic Intrepid trace, dynamic "
               "policy, online vs offline oracle\n\n";
  const replay::ReplayResult session = replay::replaySession(cfg);
  std::cout << "same-engine session path (" << session.jobs << " jobs, "
            << session.decisions.size() << " decisions):\n  "
            << replay::toJson(session.divergence) << '\n';

  cfg.computeShards = 4;
  cfg.syncHorizonSeconds = 30.0;
  const replay::ReplayResult cluster = replay::replayCluster(cfg);
  std::cout << "\nglobal arbiter on a 4+1-shard cluster (30 s horizon, "
            << cluster.syncRounds << " barriers):\n  "
            << replay::toJson(cluster.divergence) << '\n';
  if (!cluster.decisions.empty()) {
    std::cout << "\nfirst cluster decisions (barrier-time stamped):\n";
    for (std::size_t i = 0; i < std::min<std::size_t>(3, cluster.decisions.size());
         ++i) {
      std::cout << "  " << core::toJson(cluster.decisions[i]) << '\n';
    }
  }
  std::cout << "\nThe session path reproduces the oracle exactly; the "
               "cluster path's grant-time\ndrift is the price of deciding "
               "at sync-horizon barriers.\n";
  return 0;
}
