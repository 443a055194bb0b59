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

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "analysis/replay.hpp"
#include "bench/bench_util.hpp"
#include "calciom/policy.hpp"
#include "sim/wall_timer.hpp"

namespace {

using calciom::core::PolicyKind;
using calciom::sim::Json;
using namespace calciom::analysis::replay;

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
  const calciom::sim::Stopwatch wall;
  const ReplayResult r = replayCluster(sliceConfig(horizon, sliceDays));
  SweepPoint p;
  p.wallSeconds = wall.seconds();
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
  p.fingerprint = benchutil::replayFingerprint(r);
  p.engineCpuSeconds = r.engineCpuSeconds;
  return p;
}

void printPoint(Json& json, const SweepPoint& p) {
  json.object(Json::Style::Inline)
      .general("horizon_s", p.horizon)
      .fixed("mean_drift_s", p.meanDriftSeconds, 6)
      .fixed("max_drift_s", p.maxDriftSeconds, 6)
      .fixed("drift_per_horizon",
             p.horizon > 0.0 ? p.meanDriftSeconds / p.horizon : 0.0, 4)
      .general("cpu_seconds_waited_delta", p.cpuSecondsWaitedDelta)
      .num("sync_rounds", p.syncRounds)
      .num("horizon_steps", p.horizonSteps)
      .num("matched_grants", p.matchedGrants)
      .num("unmatched_grants", p.unmatchedGrants)
      .fixed("wall_s", p.wallSeconds, 6)
      .fixed("cpu_s", p.engineCpuSeconds, 6)
      .hex("fingerprint", p.fingerprint)
      .close();
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
                   "horizon_sweep: horizon_steps NOT decreasing (%" PRIu64
                   " at h=%g >= %" PRIu64 " at h=%g)\n",
                   pts[i].horizonSteps, pts[i].horizon,
                   pts[i - 1].horizonSteps, pts[i - 1].horizon);
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
                 "horizon_sweep: horizon_steps only fell %" PRIu64
                 " -> %" PRIu64 " (< 2x) across a %.0fx horizon ratio\n",
                 lo.horizonSteps, hi.horizonSteps, hRatio);
    ok = false;
  }
  std::fprintf(stderr,
               "horizon_sweep: drift %.3f..%.3f s (ratio %.2f vs horizon "
               "ratio %.0f), horizon_steps %" PRIu64 "..%" PRIu64 " -> %s\n",
               lo.meanDriftSeconds, hi.meanDriftSeconds, driftRatio, hRatio,
               lo.horizonSteps, hi.horizonSteps, ok ? "OK" : "SHAPE BROKEN");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeFlag(
      argc, argv,
      "  --smoke  3-point mini-sweep on a 2-day slice;\n"
      "           exit 1 on a shape violation\n");

  Json json;
  benchutil::jsonHeader(json, "perf_control", smoke ? "smoke" : "full");

  const double sliceDays = smoke ? 2.0 : 4.0;
  const std::vector<double> horizons =
      smoke ? std::vector<double>{4.0, 16.0, 64.0}
            : std::vector<double>{2.0, 4.0, 8.0, 16.0, 32.0, 64.0};

  json.general("slice_days", sliceDays).array("horizon_sweep");
  std::vector<SweepPoint> pts;
  for (const double h : horizons) {
    pts.push_back(sweepAt(h, sliceDays));
    printPoint(json, pts.back());
  }
  json.close().close();
  std::puts(json.text().c_str());
  return checkSweepShape(pts) ? 0 : 1;
}
