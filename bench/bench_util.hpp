#pragma once

/// \file bench_util.hpp
/// The bench kit: what the binaries under bench/ share.
///
/// Figure binaries print the series the paper plots (header()), then check
/// its *qualitative* claims — who wins, monotonicity, crossovers, rough
/// factors — with a ShapeCheck and exit non-zero on a violation, so the
/// bench suite doubles as a regression harness for the reproduction.
///
/// Perf benches (perf_*.cpp) take one optional `--smoke` (smokeFlag()) and
/// print one JSON object rendered by sim::Json (opened by jsonHeader()),
/// which tools/bench_compare.py diffs against the committed BENCH_*.json.
/// Their fingerprints are sim::Fingerprint folds (core::foldDecisions and
/// foldGrants, replayFingerprint()); their wall columns are sim::Stopwatch
/// reads. The writer, the fold and the stopwatch live under src/sim/.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "analysis/replay.hpp"
#include "calciom/arbiter_core.hpp"
#include "sim/fingerprint.hpp"
#include "sim/json.hpp"

namespace benchutil {

/// Hardware concurrency as the benches report it (0 is normalized to 1, so
/// "executor_overhead_only" style caveats can divide by it).
inline unsigned hardwareThreads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

/// The perf benches' one optional argument. Returns whether `--smoke` was
/// given; on any other argument list prints the usage line and the bench's
/// own `smokeHelp` lines to stderr and exits with status 2.
inline bool smokeFlag(int argc, char** argv, const char* smokeHelp) {
  if (argc == 2 && std::strcmp(argv[1], "--smoke") == 0) {
    return true;
  }
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--smoke]\n%s", argv[0], smokeHelp);
    std::exit(2);
  }
  return false;
}

/// Opens a perf bench's JSON object with its leading fields: bench name,
/// mode, the host's hardware_threads (on a 1-thread host a speedup column
/// measures scheduling overhead, not parallelism) and the fault-plan seed
/// (0 = fault-free), so a degradation curve replays from the header alone.
inline void jsonHeader(calciom::sim::Json& json, const char* bench,
                       const char* mode, std::uint64_t faultSeed = 0) {
  json.object()
      .str("bench", bench)
      .str("mode", mode)
      .num("hardware_threads", hardwareThreads())
      .num("fault_seed", faultSeed);
}

/// Everything deterministic about a full-slice replay (analysis/replay.hpp):
/// the job and captured-event counts, the decision stream, the grant
/// schedule and the divergence JSON.
inline std::uint64_t replayFingerprint(
    const calciom::analysis::replay::ReplayResult& r) {
  calciom::sim::Fingerprint fp;
  fp.fold(r.jobs);
  fp.fold(r.captured.size());
  calciom::core::foldDecisions(fp, r.decisions);
  calciom::core::foldGrants(fp, r.grants);
  fp.foldString(toJson(r.divergence));
  return fp.value();
}

inline void header(const std::string& figure, const std::string& title,
                   const std::string& setup) {
  std::cout << "==============================================================="
               "=================\n"
            << figure << " -- " << title << '\n'
            << "setup: " << setup << '\n'
            << "==============================================================="
               "=================\n";
}

/// Collects named pass/fail assertions on the reproduced shape.
class ShapeCheck {
 public:
  void expect(const std::string& what, bool ok) {
    std::cout << (ok ? "  [shape OK]   " : "  [shape FAIL] ") << what << '\n';
    if (!ok) {
      ++failures_;
    }
  }
  void expectNear(const std::string& what, double value, double target,
                  double tolerance) {
    const bool ok = value >= target - tolerance && value <= target + tolerance;
    std::cout << (ok ? "  [shape OK]   " : "  [shape FAIL] ") << what
              << " (value " << value << ", target " << target << " +/- "
              << tolerance << ")\n";
    if (!ok) {
      ++failures_;
    }
  }

  /// Prints the verdict and returns the process exit code.
  [[nodiscard]] int finish() const {
    std::cout << (failures_ == 0
                      ? "shape-check: all assertions passed\n"
                      : "shape-check: FAILURES — the reproduction drifted\n");
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int failures_ = 0;
};

}  // namespace benchutil
