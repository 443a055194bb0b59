// Figure 10: interruption granularity. A writes 4 files of 4 MB/process
// (2048 procs); B writes one such file. Inform/Release can be wired at the
// application level (pauses only between files) or in the ADIO layer
// (pauses between collective-buffering rounds). File-level interruption
// produces the paper's "saw" pattern -- A must finish its current file
// before yielding -- while round-level interruption frees B almost
// immediately.

#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "analysis/delta.hpp"
#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "io/pattern.hpp"
#include "platform/presets.hpp"

namespace {

using namespace calciom;

enum class Strategy { Interfere, Fcfs, FileLevel, RoundLevel };

analysis::ScenarioConfig makeConfig(Strategy s) {
  analysis::ScenarioConfig cfg;
  cfg.machine = platform::surveyor();
  // Smaller collective buffers than the Fig 7/8 runs so that one file spans
  // several rounds: this is what makes the two hook placements differ.
  cfg.machine.cbBufferBytes = 4ull << 20;
  cfg.appA = workload::IorConfig{.name = "A",
                                 .processes = 2048,
                                 .pattern = io::contiguousPattern(4 << 20),
                                 .filesPerPhase = 4};
  cfg.appB = workload::IorConfig{.name = "B",
                                 .processes = 2048,
                                 .pattern = io::contiguousPattern(4 << 20),
                                 .filesPerPhase = 1};
  switch (s) {
    case Strategy::Interfere:
      cfg.policy = core::PolicyKind::Interfere;
      break;
    case Strategy::Fcfs:
      cfg.policy = core::PolicyKind::Fcfs;
      break;
    case Strategy::FileLevel:
      cfg.policy = core::PolicyKind::Interrupt;
      cfg.granularity = core::HookGranularity::PerFile;
      break;
    case Strategy::RoundLevel:
      cfg.policy = core::PolicyKind::Interrupt;
      cfg.granularity = core::HookGranularity::PerRound;
      break;
  }
  return cfg;
}

}  // namespace

int main() {
  benchutil::header(
      "Figure 10(a,b)", "File-level vs round-level interruption",
      "surveyor (4 MB cb buffers): A = 4 files x 4 MB/proc x 2048, B = 1 "
      "file; interruption honoured between files or between rounds");

  const auto dts = analysis::linspace(0.0, 6.0, 13);
  const Strategy strategies[] = {Strategy::Interfere, Strategy::Fcfs,
                                 Strategy::FileLevel, Strategy::RoundLevel};
  const char* names[] = {"interfering", "fcfs", "file-level", "round-level"};

  std::map<int, analysis::DeltaGraph> graphs;
  for (int s = 0; s < 4; ++s) {
    graphs.emplace(
        s, analysis::sweepDelta(makeConfig(strategies[s]), dts));
  }

  for (const char* which : {"A (4 files)", "B (1 file)"}) {
    analysis::TextTable table({"dt (s)", names[0], names[1], names[2],
                               names[3]});
    for (std::size_t i = 0; i < dts.size(); ++i) {
      std::vector<std::string> row = {analysis::fmt(dts[i], 1)};
      for (int s = 0; s < 4; ++s) {
        const auto& p = graphs.at(s).points[i];
        row.push_back(analysis::fmt(which[0] == 'A' ? p.ioTimeA : p.ioTimeB,
                                    2));
      }
      table.addRow(row);
    }
    std::cout << "Fig 10 -- write time of app " << which << " (alone: A "
              << analysis::fmt(graphs.at(0).aloneA, 2) << "s, B "
              << analysis::fmt(graphs.at(0).aloneB, 2) << "s)\n"
              << table.str() << '\n';
  }

  benchutil::ShapeCheck check;
  auto seriesB = [&](int s) {
    std::vector<double> out;
    for (const auto& p : graphs.at(s).points) {
      out.push_back(p.ioTimeB);
    }
    return out;
  };
  const auto fileB = seriesB(2);
  const auto roundB = seriesB(3);
  const double fileBMax = *std::max_element(fileB.begin(), fileB.end());
  const double fileBMin = *std::min_element(fileB.begin(), fileB.end());
  const double roundBMax = *std::max_element(roundB.begin(), roundB.end());
  const double aloneB = graphs.at(0).aloneB;
  const double filePeriod = graphs.at(0).aloneA / 4.0;

  check.expect("round-level frees B almost immediately (B ~ alone)",
               roundBMax < aloneB + 0.75 * filePeriod);
  check.expect("file-level forces B to wait out A's current file (saw)",
               fileBMax > aloneB + 0.6 * filePeriod);
  check.expect("the file-level saw spans about one file of amplitude",
               fileBMax - fileBMin > 0.5 * filePeriod);
  // Non-monotonic saw: B's wait resets after each file boundary.
  bool sawtooth = false;
  for (std::size_t i = 1; i + 1 < fileB.size(); ++i) {
    if (fileB[i] < fileB[i - 1] - 0.05 && fileB[i] < fileB[i + 1] - 0.05) {
      sawtooth = true;
    }
  }
  check.expect("file-level B times rise and fall with file boundaries",
               sawtooth);
  // Interruption (either granularity) stretches A by about B's time.
  const auto& aRound = graphs.at(3).points[3];
  check.expectNear("A pays ~T_B(alone) for a round-level interruption",
                   aRound.ioTimeA, graphs.at(3).aloneA + aloneB,
                   0.5 * aloneB + 0.3);
  // FCFS B time decreases as dt grows (less of A left to wait for).
  const auto fcfsB = seriesB(1);
  check.expect("FCFS B time decreases with dt",
               fcfsB.front() > fcfsB.back() + 0.5);
  return check.finish();
}
