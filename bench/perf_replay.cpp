// Benchmark of the full-slice online replay harness (analysis/replay.hpp):
// an IntrepidModel month streamed through the live coordination layer on
// both transports, validated against the offline bare-core oracle.
//
// Tiers, all JSON on stdout (committed baseline: BENCH_replay.json):
//
//  * session_month — the month through per-job calciom::Sessions against
//    the same-engine Arbiter, once per policy (FCFS / interruption /
//    dynamic). The run FAILS unless the decision-divergence report against
//    the offline oracle is *exactly zero* — the PR 3 core/transport
//    guarantee, held over ~14k jobs and ~5M simulated seconds — and unless
//    the month replays at interactive speed (sim_speedup =
//    simulated-seconds per wall-second >= 43200, i.e. a month in under a
//    minute of wall time; observed ~10^7).
//
//  * cluster_month — the same month through the GlobalArbiter of a
//    4+1-shard cluster (30 s sync horizon) per policy. Here divergence
//    against the zero-sampling oracle is the *measurement*: grant-time L1
//    drift per matched grant lands on the order of the sync horizon, and
//    the CPU-seconds-wasted delta prices the sampling. The dynamic-policy
//    tier re-runs at 2 workers and fails on any fingerprint divergence
//    (decision stream + grant schedule + divergence JSON).
//
// `--smoke` replays a short slice (2 days): the session path must be
// exactly zero-divergent and the cluster path bit-identical at 1 and 2
// workers — the CI tripwire for the replay harness.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/replay.hpp"
#include "bench/bench_util.hpp"
#include "calciom/policy.hpp"
#include "sim/wall_timer.hpp"

namespace {

using benchutil::replayFingerprint;
using calciom::core::PolicyKind;
using calciom::sim::Json;
using namespace calciom::analysis::replay;

struct TimedReplay {
  ReplayResult result;
  double wallSeconds = 0.0;
  double eventsPerSecond = 0.0;
  /// Simulated seconds replayed per wall second.
  double simSpeedup = 0.0;
};

template <class Fn>
TimedReplay timed(Fn&& run) {
  const calciom::sim::Stopwatch wall;
  TimedReplay out;
  out.result = run();
  out.wallSeconds = wall.seconds();
  if (out.wallSeconds > 0.0) {
    out.eventsPerSecond =
        static_cast<double>(out.result.engineEvents) / out.wallSeconds;
    out.simSpeedup = out.result.traceSpanSeconds / out.wallSeconds;
  }
  return out;
}

constexpr double kInteractiveSpeedup = 43200.0;  // a month in < 1 minute

/// The interactive-speed gate of `tier`'s `policy` run; a miss is reported
/// on stderr.
bool interactive(const char* tier, PolicyKind policy, const TimedReplay& t) {
  const bool ok = t.simSpeedup >= kInteractiveSpeedup;
  if (!ok) {
    std::fprintf(stderr,
                 "%s/%s: sim_speedup %.0f below the interactive gate %.0f\n",
                 tier, toString(policy), t.simSpeedup, kInteractiveSpeedup);
  }
  return ok;
}

void printReplay(Json& json, const TimedReplay& t) {
  const ReplayResult& r = t.result;
  // wall_s is the external timer around the whole replay (stream decode +
  // oracle + divergence included); cpu_s is time inside the event loops
  // only. Separate columns — see ClusterStats::cpuSeconds for why their
  // sum is meaningless.
  json.object(Json::Style::Inline)
      .num("jobs", r.jobs)
      .num("decisions", r.decisions.size())
      .num("grants", r.grants.size())
      .num("captured_events", r.captured.size())
      .num("engine_events", r.engineEvents)
      .num("sync_rounds", r.syncRounds)
      .num("peak_stream_buffered", r.peakStreamBuffered)
      .fixed("trace_span_s", r.traceSpanSeconds, 0)
      .fixed("wall_s", t.wallSeconds, 6)
      .fixed("cpu_s", r.engineCpuSeconds, 6)
      .fixed("events_per_s", t.eventsPerSecond, 0)
      .fixed("sim_speedup", t.simSpeedup, 0)
      .hex("fingerprint", replayFingerprint(r))
      .raw("divergence", toJson(r.divergence))
      .close();
}

ReplayConfig monthConfig(PolicyKind policy) {
  ReplayConfig cfg;
  cfg.model.seed = 2014;  // the paper's year; any fixed seed does
  cfg.policy = policy;
  cfg.computeShards = 4;
  cfg.syncHorizonSeconds = 30.0;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeFlag(
      argc, argv,
      "  --smoke  2-day slice; exit 1 unless the session path\n"
      "           is exactly zero-divergent and the cluster\n"
      "           path is bit-identical at 1/2 workers\n");

  bool ok = true;
  Json json;
  benchutil::jsonHeader(json, "perf_replay", smoke ? "smoke" : "full");

  if (smoke) {
    ReplayConfig cfg = monthConfig(PolicyKind::Dynamic);
    cfg.model.horizonSeconds = 3600.0 * 24 * 2;  // short slice
    const TimedReplay session = timed([&] { return replaySession(cfg); });
    cfg.workers = 1;
    const TimedReplay cluster1 = timed([&] { return replayCluster(cfg); });
    cfg.workers = 2;
    const TimedReplay cluster2 = timed([&] { return replayCluster(cfg); });
    printReplay(json.key("smoke_session"), session);
    json.array("smoke_cluster");
    printReplay(json, cluster1);
    printReplay(json, cluster2);
    json.close().close();
    std::puts(json.text().c_str());
    const std::uint64_t f1 = replayFingerprint(cluster1.result);
    const std::uint64_t f2 = replayFingerprint(cluster2.result);
    const bool sessionOk = session.result.divergence.exactlyZero() &&
                           !session.result.decisions.empty();
    const bool clusterOk =
        f1 == f2 && !cluster1.result.decisions.empty() &&
        toJson(cluster1.result.divergence) ==
            toJson(cluster2.result.divergence);
    std::fprintf(stderr,
                 "smoke_replay: session zero-divergence %s; cluster "
                 "fingerprints %016" PRIx64 " / %016" PRIx64 " -> %s\n",
                 sessionOk ? "OK" : "BROKEN", f1, f2,
                 clusterOk ? "OK" : "DETERMINISM REGRESSION");
    return sessionOk && clusterOk ? 0 : 1;
  }

  const PolicyKind policies[] = {PolicyKind::Fcfs, PolicyKind::Interrupt,
                                 PolicyKind::Dynamic};

  // --- session path: the month against the same-engine arbiter.
  json.object("session_month");
  for (const PolicyKind policy : policies) {
    const TimedReplay t =
        timed([&] { return replaySession(monthConfig(policy)); });
    printReplay(json.key(toString(policy)), t);
    const bool zero = t.result.divergence.exactlyZero();
    if (!zero) {
      std::fprintf(stderr, "session_month/%s: DIVERGED from the oracle\n",
                   toString(policy));
    }
    ok = interactive("session_month", policy, t) && ok && zero &&
         !t.result.decisions.empty();
  }
  json.close();

  // --- cluster path: the month through the GlobalArbiter, divergence vs
  // --- the zero-sampling oracle is the measurement.
  json.object("cluster_month");
  for (const PolicyKind policy : policies) {
    const TimedReplay t =
        timed([&] { return replayCluster(monthConfig(policy)); });
    printReplay(json.key(toString(policy)), t);
    // The cluster path samples at the sync horizon, so it must diverge
    // (a zero report here would mean the oracle saw the barrier times,
    // not the emission times) — and every oracle grant must find its
    // online counterpart app-by-app.
    const bool measured = !t.result.divergence.exactlyZero() &&
                          t.result.divergence.matchedGrants > 0;
    ok = interactive("cluster_month", policy, t) && ok && measured &&
         !t.result.decisions.empty();
    if (policy == PolicyKind::Dynamic) {
      ReplayConfig c2 = monthConfig(policy);
      c2.workers = 2;
      const TimedReplay t2 = timed([&] { return replayCluster(c2); });
      printReplay(json.key(std::string(toString(policy)) + "_workers2"), t2);
      const bool deterministic =
          replayFingerprint(t.result) == replayFingerprint(t2.result);
      if (!deterministic) {
        std::fprintf(stderr,
                     "cluster_month/%s: fingerprint diverged across "
                     "worker counts\n",
                     toString(policy));
      }
      ok = ok && deterministic;
    }
  }
  json.close().close();
  std::puts(json.text().c_str());
  return ok ? 0 : 1;
}
