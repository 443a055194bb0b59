// Sampling-cost characterization of the barrier sampler — the "Bode plot"
// of sync-horizon sampling, on the cluster transport of the full-slice
// replay harness (analysis/replay.hpp).
//
// One tier, JSON on stdout (committed baseline: BENCH_control.json):
//
//  * horizon_sweep — an Intrepid trace slice replayed through the
//    GlobalArbiter at a ladder of syncHorizonSeconds values (FCFS, so the
//    schedule is pure serialization and drift is purely sampling delay).
//    Per point: mean per-grant drift vs the zero-sampling oracle
//    (grant_time_l1_drift_s / matched_grants — the known ≈one-horizon
//    result), the wasted-core-seconds delta, and the deterministic barrier
//    cost (horizon_steps — total cluster rounds, each paying the vote
//    collection, hook firing and executor dispatch once; sync_rounds only
//    counts multi-shard rounds and is NOT monotone in the horizon). Shape
//    gates: drift grows monotonically and ~linearly with the horizon
//    (ratio within a 4x band of the horizon ratio) while the barrier cost
//    does NOT — it *falls* as the horizon grows (horizon_steps strictly
//    shrinking, >= 2x across the sweep). The horizon is therefore a plain
//    accuracy-for-cost knob, picked per campaign.
//
// `--smoke` runs a 3-point mini-sweep on a shorter slice; same gates,
// CI-sized (wired into build-test, sanitizer and CALCIOM_SHARD_CHECKS legs
// of .github/workflows/ci.yml, where the sweep drives the arbiter vote
// under the rule 7 purity probe).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/replay.hpp"
#include "bench/bench_util.hpp"
#include "calciom/policy.hpp"

namespace {

using calciom::core::PolicyKind;
using namespace calciom::analysis::replay;

class Fingerprint {
 public:
  void fold(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= 0x100000001B3ULL;
  }
  void foldBits(double v) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    fold(bits);
  }
  void foldString(const std::string& s) noexcept {
    for (char c : s) {
      fold(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Everything deterministic about a control-loop replay: the decision
/// stream, grant schedule and divergence JSON (as perf_replay folds them).
std::uint64_t controlFingerprint(const ReplayResult& r) {
  Fingerprint fp;
  fp.fold(r.jobs);
  fp.fold(r.captured.size());
  for (const calciom::core::DecisionRecord& d : r.decisions) {
    fp.foldBits(d.time);
    fp.fold(d.requester);
    fp.fold(static_cast<std::uint64_t>(d.action));
    fp.fold(d.accessors.size());
    for (std::uint32_t a : d.accessors) {
      fp.fold(a);
    }
  }
  for (const calciom::core::GrantRecord& g : r.grants) {
    fp.foldBits(g.time);
    fp.fold(g.app);
    fp.fold(g.resume ? 1u : 0u);
  }
  fp.foldString(toJson(r.divergence));
  return fp.value();
}

ReplayConfig sliceConfig(double horizonSeconds, double sliceDays) {
  ReplayConfig cfg;
  cfg.model.seed = 2014;  // perf_replay's seed: same trace, same jobs
  cfg.model.horizonSeconds = 3600.0 * 24.0 * sliceDays;
  cfg.policy = PolicyKind::Fcfs;
  cfg.computeShards = 4;
  cfg.syncHorizonSeconds = horizonSeconds;
  return cfg;
}

struct SweepPoint {
  double horizon = 0.0;
  double meanDriftSeconds = 0.0;  // L1 drift / matched grants
  double maxDriftSeconds = 0.0;
  double cpuSecondsWaitedDelta = 0.0;
  std::uint64_t syncRounds = 0;
  std::uint64_t horizonSteps = 0;
  std::size_t matchedGrants = 0;
  std::size_t unmatchedGrants = 0;
  std::uint64_t fingerprint = 0;
  double wallSeconds = 0.0;
  double engineCpuSeconds = 0.0;
};

SweepPoint sweepAt(double horizon, double sliceDays) {
  const auto t0 = std::chrono::steady_clock::now();
  const ReplayResult r = replayCluster(sliceConfig(horizon, sliceDays));
  const auto t1 = std::chrono::steady_clock::now();
  SweepPoint p;
  p.horizon = horizon;
  p.matchedGrants = r.divergence.matchedGrants;
  p.unmatchedGrants = r.divergence.unmatchedGrants;
  if (p.matchedGrants > 0) {
    p.meanDriftSeconds = r.divergence.grantTimeL1DriftSeconds /
                         static_cast<double>(p.matchedGrants);
  }
  p.maxDriftSeconds = r.divergence.grantTimeMaxDriftSeconds;
  p.cpuSecondsWaitedDelta = r.divergence.cpuSecondsWaitedDelta;
  p.syncRounds = r.syncRounds;
  p.horizonSteps = r.horizonSteps;
  p.fingerprint = controlFingerprint(r);
  p.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
  p.engineCpuSeconds = r.engineCpuSeconds;
  return p;
}

void printPoint(const SweepPoint& p, bool last) {
  std::printf(
      "    {\"horizon_s\": %g, \"mean_drift_s\": %.6f, \"max_drift_s\": "
      "%.6f, \"drift_per_horizon\": %.4f, \"cpu_seconds_waited_delta\": "
      "%.6g, \"sync_rounds\": %llu, \"horizon_steps\": %llu, "
      "\"matched_grants\": %zu, "
      "\"unmatched_grants\": %zu, \"wall_s\": %.6f, \"cpu_s\": %.6f, "
      "\"fingerprint\": \"%016llx\"}%s\n",
      p.horizon, p.meanDriftSeconds, p.maxDriftSeconds,
      p.horizon > 0.0 ? p.meanDriftSeconds / p.horizon : 0.0,
      p.cpuSecondsWaitedDelta, static_cast<unsigned long long>(p.syncRounds),
      static_cast<unsigned long long>(p.horizonSteps), p.matchedGrants,
      p.unmatchedGrants, p.wallSeconds, p.engineCpuSeconds,
      static_cast<unsigned long long>(p.fingerprint), last ? "" : ",");
}

/// The shape gates. Drift must grow monotonically and ~linearly with the
/// horizon; the barrier cost must do the opposite (strictly fewer sync
/// rounds as the horizon widens, at least 2x across the sweep). Verdicts
/// go to stderr; the returned flag is the process exit gate.
bool checkSweepShape(const std::vector<SweepPoint>& pts) {
  bool ok = true;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].meanDriftSeconds < pts[i - 1].meanDriftSeconds) {
      std::fprintf(stderr,
                   "horizon_sweep: mean drift NOT monotone (%.3f s at h=%g "
                   "< %.3f s at h=%g)\n",
                   pts[i].meanDriftSeconds, pts[i].horizon,
                   pts[i - 1].meanDriftSeconds, pts[i - 1].horizon);
      ok = false;
    }
    if (pts[i].horizonSteps >= pts[i - 1].horizonSteps) {
      std::fprintf(stderr,
                   "horizon_sweep: horizon_steps NOT decreasing (%llu at "
                   "h=%g >= %llu at h=%g)\n",
                   static_cast<unsigned long long>(pts[i].horizonSteps),
                   pts[i].horizon,
                   static_cast<unsigned long long>(pts[i - 1].horizonSteps),
                   pts[i - 1].horizon);
      ok = false;
    }
  }
  const SweepPoint& lo = pts.front();
  const SweepPoint& hi = pts.back();
  const double hRatio = hi.horizon / lo.horizon;
  const double driftRatio =
      lo.meanDriftSeconds > 0.0 ? hi.meanDriftSeconds / lo.meanDriftSeconds
                                : 0.0;
  // ~Linear: the drift ratio tracks the horizon ratio within a 4x band.
  if (driftRatio < hRatio / 4.0 || driftRatio > hRatio * 4.0) {
    std::fprintf(stderr,
                 "horizon_sweep: drift ratio %.2f outside the linear band "
                 "[%.2f, %.2f] for horizon ratio %.0f\n",
                 driftRatio, hRatio / 4.0, hRatio * 4.0, hRatio);
    ok = false;
  }
  // Sublinear cost: barrier work shrinks (>= 2x) while drift grows.
  if (hi.horizonSteps * 2 > lo.horizonSteps) {
    std::fprintf(stderr,
                 "horizon_sweep: horizon_steps only fell %llu -> %llu "
                 "(< 2x) across a %.0fx horizon ratio\n",
                 static_cast<unsigned long long>(lo.horizonSteps),
                 static_cast<unsigned long long>(hi.horizonSteps), hRatio);
    ok = false;
  }
  std::fprintf(stderr,
               "horizon_sweep: drift %.3f..%.3f s (ratio %.2f vs horizon "
               "ratio %.0f), horizon_steps %llu..%llu -> %s\n",
               lo.meanDriftSeconds, hi.meanDriftSeconds, driftRatio, hRatio,
               static_cast<unsigned long long>(lo.horizonSteps),
               static_cast<unsigned long long>(hi.horizonSteps),
               ok ? "OK" : "SHAPE BROKEN");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  if (argc > 1) {
    if (argc == 2 && std::strcmp(argv[1], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke]\n"
                   "  --smoke  3-point mini-sweep on a 2-day slice;\n"
                   "           exit 1 on a shape violation\n",
                   argv[0]);
      return 2;
    }
  }

  benchutil::jsonHeader("perf_control", smoke ? "smoke" : "full");

  const double sliceDays = smoke ? 2.0 : 4.0;
  const std::vector<double> horizons =
      smoke ? std::vector<double>{4.0, 16.0, 64.0}
            : std::vector<double>{2.0, 4.0, 8.0, 16.0, 32.0, 64.0};

  std::printf("  \"slice_days\": %g,\n", sliceDays);
  std::printf("  \"horizon_sweep\": [\n");
  std::vector<SweepPoint> pts;
  for (const double& h : horizons) {
    pts.push_back(sweepAt(h, sliceDays));
    printPoint(pts.back(), &h == &horizons.back());
  }
  std::printf("  ]\n}\n");
  return checkSweepShape(pts) ? 0 : 1;
}
