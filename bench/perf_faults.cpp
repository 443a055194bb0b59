// Degradation curve of the chaos-hardened coordination stack (fault::Plan +
// fault::Injector + leases/heartbeats/degradation in the protocol), JSON on
// stdout (committed baseline: BENCH_faults.json).
//
// Full mode, three sweeps over the synthetic contended campaign of
// src/fault/chaos.hpp (hardened protocol, Fcfs policy unless noted):
//
//  * loss_sweep — message-loss probability in {0, 1, 5, 10, 20}%, both
//    transports. Records aggregate throughput (rounds / simulated second),
//    cpuSecondsWaited, lease reclaims, Inform retries observed as arbiter
//    decisions, and how many sessions fell back to uncoordinated I/O. The
//    paper's "graceful" claim, quantified: the gate fails the bench if
//    throughput at 10% loss drops below half of fault-free, if any run
//    fails to complete, or if a degraded session does not finish its I/O.
//
//  * crash_sweep — 0..3 of 4 applications crash mid-campaign (alternating
//    reported-to-the-scheduler and silent, so both the discard path and the
//    lease-expiry path are exercised). Gate: every surviving app completes
//    and the arbiter drains to Idle — a crash may slow the others down but
//    never wedges them.
//
//  * chaos_mix — a few chaosPlan() seeds (full drop/delay/duplicate/reorder
//    /blackout/crash mix) on the Cluster transport at 1 and 2 workers; the
//    fingerprints must agree pairwise (fault schedules are derived by pure
//    hashing, so determinism is worker-count invariant even mid-chaos).
//
//  * arbiter_crash_sweep — withArbiterCrash() on top of the chaos mix, both
//    transports: the arbiter dies mid-campaign and recovers from its last
//    checkpoint + WAL + session reconciliation. Gate: every crash is
//    followed by a completed restart, at least one checkpoint existed to
//    recover from, and the run still completes.
//
// Every run object carries the per-class injected-fault counters (drops /
// delays / duplicates / reorders / app crashes / arbiter crashes) so a
// baseline diff shows *what* the schedule actually did, not just the
// outcome.
//
// `--smoke` runs the CI tripwire: the zero-fault bit-identity gate (same
// campaign with the injector installed-but-disabled vs not installed at all
// must produce identical decision-stream/grant-log fingerprints, wait times
// and grant counts, on both transports) plus one fixed chaos seed that must
// terminate with all survivors complete, and the same seed again with an
// arbiter crash injected (crash-recovery liveness). Exits non-zero on any
// violation.

#include <array>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "calciom/policy.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"

namespace {

using calciom::core::PolicyKind;
using calciom::fault::ChaosConfig;
using calciom::fault::ChaosResult;
using calciom::fault::chaosPlan;
using calciom::fault::ChaosTransport;
using calciom::fault::CrashSpec;
using calciom::fault::Plan;
using calciom::fault::runChaos;
using calciom::fault::withArbiterCrash;
using calciom::sim::Json;

/// The sweep campaign: enough apps and rounds that serialization, pauses
/// and retries all happen, small enough that a 5-point sweep is cheap.
constexpr int kApps = 4;

ChaosConfig sweepConfig(ChaosTransport transport) {
  ChaosConfig cfg;
  cfg.transport = transport;
  cfg.policy = PolicyKind::Fcfs;
  cfg.apps = kApps;
  cfg.phases = 3;
  cfg.roundsPerPhase = 4;
  cfg.roundSeconds = 0.4;
  cfg.startStaggerSeconds = 0.3;
  cfg.idleSeconds = 0.6;
  return cfg;
}

const char* transportName(ChaosTransport t) {
  return t == ChaosTransport::SameEngine ? "same_engine" : "cluster";
}

bool runCompleted(const ChaosResult& r) {
  return r.survivorsCompleted == r.survivors && r.arbiterIdle &&
         r.degradedAllCompleted;
}

/// Crash-recovery gate: every applied arbiter crash was followed by a
/// completed restart, and there was stable state to restart *from*.
bool recoveredCleanly(const ChaosResult& r) {
  return runCompleted(r) && r.arbiterCrashes >= 1 &&
         r.arbiterRestarts == r.arbiterCrashes && r.checkpoints >= 1;
}

/// Finishes one run's inline object. The caller opens it and writes its
/// own leading fields (loss level, seed, transport), so sweep points stay a
/// single flat object. The per-class injected-fault counters come straight
/// from the Injector and the crash-recovery path, so the committed baseline
/// records what each seeded schedule actually inflicted.
void chaosRun(Json& json, const ChaosResult& r) {
  // wall_s (external timer) and cpu_s (event-loop time) are the only
  // nondeterministic columns; cpu_s_waited is *simulated* core-seconds.
  json.num("survivors", r.survivors)
      .num("completed", r.survivorsCompleted)
      .num("degraded", r.degradedSessions)
      .num("rounds", r.roundsCompleted)
      .fixed("sim_s", r.simSeconds, 3)
      .fixed("wall_s", r.wallSeconds, 6)
      .fixed("cpu_s", r.engineCpuSeconds, 6)
      .fixed("tput_rounds_per_s", r.throughputRoundsPerSecond, 3)
      .fixed("cpu_s_waited", r.cpuSecondsWaited, 3)
      .num("lease_reclaims", r.leaseReclaims)
      .num("msgs_seen", r.messagesSeen)
      .num("msgs_dropped", r.messagesDropped)
      .num("msgs_delayed", r.messagesDelayed)
      .num("msgs_duplicated", r.messagesDuplicated)
      .num("msgs_reordered", r.messagesReordered)
      .num("blackout_discarded", r.blackoutDiscarded)
      .num("app_crashes", r.appCrashesInjected)
      .num("arbiter_crashes", r.arbiterCrashes)
      .num("arbiter_restarts", r.arbiterRestarts)
      .num("crash_discarded", r.crashDiscarded)
      .num("recover_cmds", r.recoverCommandsIssued)
      .num("reinstated", r.reinstatedAccessors)
      .num("recover_answers", r.recoverAnswers)
      .num("stale_cmds", r.staleArbiterCommands)
      .num("checkpoints", r.checkpoints)
      .num("wal_appended", r.walAppended)
      .num("wal_dropped", r.walDropped)
      .hex("fingerprint", r.fingerprint)
      .flag("complete", runCompleted(r))
      .close();
}

/// Zero-fault bit-identity on one transport: installed-but-disabled
/// injector vs no injector at all. Everything deterministic must agree.
bool zeroFaultGate(Json& json, ChaosTransport transport) {
  ChaosConfig with = sweepConfig(transport);
  with.installInjector = true;  // Plan{} is disabled: a pure pass-through
  ChaosConfig without = with;
  without.installInjector = false;
  const ChaosResult a = runChaos(with);
  const ChaosResult b = runChaos(without);
  const bool ok = a.fingerprint == b.fingerprint && a.grants == b.grants &&
                  a.decisionCount == b.decisionCount &&
                  a.cpuSecondsWaited == b.cpuSecondsWaited &&
                  a.messagesDropped == 0 && runCompleted(a) &&
                  runCompleted(b);
  json.object(Json::Style::Inline)
      .str("transport", transportName(transport))
      .array("fingerprints").hex(a.fingerprint).hex(b.fingerprint).close()
      .array("grants").num(a.grants).num(b.grants).close()
      .flag("bit_identical", ok)
      .close();
  std::fprintf(stderr,
               "zero_fault[%s]: %016" PRIx64 " / %016" PRIx64 " -> %s\n",
               transportName(transport), a.fingerprint, b.fingerprint,
               ok ? "OK" : "BIT-IDENTITY REGRESSION");
  return ok;
}

/// Runs `plan` on both transports and writes them as the runs of a `name`
/// object, left open for the caller's verdict fields.
std::array<ChaosResult, 2> seedRuns(Json& json, const char* name,
                                    std::uint64_t seed, const Plan& plan) {
  json.object(name).num("seed", seed).array("runs");
  std::array<ChaosResult, 2> out;
  for (std::size_t i = 0; i < 2; ++i) {
    const ChaosTransport transport =
        i == 0 ? ChaosTransport::SameEngine : ChaosTransport::Cluster;
    ChaosConfig cfg = sweepConfig(transport);
    cfg.plan = plan;
    out[i] = runChaos(cfg);
    chaosRun(json.object(Json::Style::Inline)
                 .str("transport", transportName(transport)),
             out[i]);
  }
  json.close();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeFlag(
      argc, argv,
      "  --smoke  zero-fault bit-identity gate + one fixed\n"
      "           chaos seed; exit 1 on any violation\n");

  // The fixed seed every smoke run replays; full mode sweeps more.
  constexpr std::uint64_t kSmokeSeed = 0xC4A05011ull;

  bool ok = true;
  Json json;
  benchutil::jsonHeader(json, "perf_faults", smoke ? "smoke" : "full",
                        kSmokeSeed);

  if (smoke) {
    json.array("zero_fault_gate");
    const bool zfSame = zeroFaultGate(json, ChaosTransport::SameEngine);
    const bool zfCluster = zeroFaultGate(json, ChaosTransport::Cluster);
    json.close();
    // One fixed chaos seed on each transport: liveness + safety sanity.
    const Plan plan = chaosPlan(kSmokeSeed, kApps);
    const auto [same, clus] = seedRuns(json, "chaos_seed", kSmokeSeed, plan);
    json.close();
    const bool chaosOk = runCompleted(same) && runCompleted(clus);
    std::fprintf(stderr, "chaos_seed %" PRIx64 ": %s\n", kSmokeSeed,
                 chaosOk ? "OK" : "LIVENESS REGRESSION");
    // Same seed again, now with the arbiter itself dying mid-campaign:
    // crash-recovery liveness on both transports.
    const auto [crashSame, crashClus] =
        seedRuns(json, "arbiter_crash_seed", kSmokeSeed,
                 withArbiterCrash(plan, kSmokeSeed));
    const bool recoverOk =
        recoveredCleanly(crashSame) && recoveredCleanly(crashClus);
    json.flag("recovered", recoverOk).close().close();
    std::puts(json.text().c_str());
    std::fprintf(stderr, "arbiter_crash_seed %" PRIx64 ": %s\n", kSmokeSeed,
                 recoverOk ? "OK" : "RECOVERY REGRESSION");
    ok = zfSame && zfCluster && chaosOk && recoverOk;
    return ok ? 0 : 1;
  }

  // --- loss sweep: throughput and wasted CPU vs message-loss probability.
  const double lossPoints[] = {0.0, 0.01, 0.05, 0.10, 0.20};
  for (const ChaosTransport transport :
       {ChaosTransport::SameEngine, ChaosTransport::Cluster}) {
    json.object(std::string("loss_sweep_") + transportName(transport))
        .array("points");
    double tputFree = 0.0;
    double tputAt10 = 0.0;
    bool complete = true;
    for (std::size_t i = 0; i < 5; ++i) {
      ChaosConfig cfg = sweepConfig(transport);
      cfg.plan.seed = kSmokeSeed + i;
      cfg.plan.dropProbability = lossPoints[i];
      // A little delay jitter rides along so loss is not the only fault.
      cfg.plan.delayProbability = lossPoints[i] > 0.0 ? 0.1 : 0.0;
      cfg.plan.maxDelaySeconds = 0.25;
      const ChaosResult r = runChaos(cfg);
      chaosRun(json.object(Json::Style::Inline).fixed("loss", lossPoints[i], 2),
               r);
      if (lossPoints[i] == 0.0) {
        tputFree = r.throughputRoundsPerSecond;
      }
      if (lossPoints[i] == 0.10) {
        tputAt10 = r.throughputRoundsPerSecond;
      }
      complete = complete && runCompleted(r);
    }
    // The "graceful, no cliff-to-deadlock" gate: 10% loss costs at most
    // half the fault-free throughput, and everything still completes.
    const bool graceful = tputAt10 >= 0.5 * tputFree;
    json.close()
        .fixed("tput_free", tputFree, 3)
        .fixed("tput_at_10pct", tputAt10, 3)
        .flag("graceful", graceful)
        .flag("all_complete", complete)
        .close();
    std::fprintf(stderr, "loss_sweep[%s]: tput %.3f -> %.3f @10%% loss -> %s\n",
                 transportName(transport), tputFree, tputAt10,
                 graceful && complete ? "OK" : "DEGRADATION CLIFF");
    ok = ok && graceful && complete;
  }

  // --- crash sweep: 0..3 of 4 apps die mid-campaign, reported / silent
  // --- alternating. Survivors must always finish; the arbiter must drain.
  {
    json.object("crash_sweep").array("points");
    bool complete = true;
    for (int crashes = 0; crashes <= 3; ++crashes) {
      ChaosConfig cfg = sweepConfig(ChaosTransport::SameEngine);
      cfg.plan.seed = kSmokeSeed ^ static_cast<std::uint64_t>(crashes);
      for (int c = 0; c < crashes; ++c) {
        // App ids are 1-based in the harness; stagger the deaths across
        // the campaign so crashes land in different protocol states.
        cfg.plan.crashes.push_back(
            CrashSpec{static_cast<std::uint32_t>(c + 1),
                      0.9 + 1.1 * static_cast<double>(c), c % 2 == 0});
      }
      const ChaosResult r = runChaos(cfg);
      chaosRun(json.object(Json::Style::Inline).num("crashes", crashes), r);
      complete = complete && runCompleted(r);
    }
    json.close().flag("all_survivors_complete", complete).close();
    std::fprintf(stderr, "crash_sweep: %s\n",
                 complete ? "OK" : "SURVIVOR STALLED");
    ok = ok && complete;
  }

  // --- chaos mix: full fault cocktail on the Cluster transport, worker-
  // --- count invariance of the decision-stream fingerprint under faults.
  {
    json.object("chaos_mix").array("seeds");
    bool deterministic = true;
    bool complete = true;
    const std::uint64_t seeds[] = {kSmokeSeed, kSmokeSeed + 17,
                                   kSmokeSeed + 34};
    for (const std::uint64_t seed : seeds) {
      ChaosConfig cfg = sweepConfig(ChaosTransport::Cluster);
      cfg.plan = chaosPlan(seed, cfg.apps);
      cfg.workers = 1;
      const ChaosResult r1 = runChaos(cfg);
      cfg.workers = 2;
      const ChaosResult r2 = runChaos(cfg);
      const bool agree = r1.fingerprint == r2.fingerprint;
      chaosRun(json.object(Json::Style::Inline)
                   .num("seed", seed)
                   .flag("workers_agree", agree),
               r1);
      deterministic = deterministic && agree;
      complete = complete && runCompleted(r1) && runCompleted(r2);
    }
    json.close()
        .flag("deterministic_across_workers", deterministic)
        .flag("all_complete", complete)
        .close();
    std::fprintf(stderr, "chaos_mix: %s\n",
                 deterministic && complete ? "OK" : "DETERMINISM REGRESSION");
    ok = ok && deterministic && complete;
  }

  // --- arbiter crash sweep: the arbiter dies mid-campaign under the full
  // --- fault cocktail and must recover from checkpoint + WAL + session
  // --- reconciliation; every crash pairs with a completed restart.
  {
    json.object("arbiter_crash_sweep").array("points");
    bool recovered = true;
    const std::uint64_t seeds[] = {kSmokeSeed, kSmokeSeed + 5,
                                   kSmokeSeed + 23};
    for (const ChaosTransport transport :
         {ChaosTransport::SameEngine, ChaosTransport::Cluster}) {
      for (const std::uint64_t seed : seeds) {
        ChaosConfig cfg = sweepConfig(transport);
        cfg.plan = withArbiterCrash(chaosPlan(seed, cfg.apps), seed);
        const ChaosResult r = runChaos(cfg);
        chaosRun(json.object(Json::Style::Inline)
                     .str("transport", transportName(transport))
                     .num("seed", seed),
                 r);
        recovered = recovered && recoveredCleanly(r);
      }
    }
    json.close().flag("all_recovered", recovered).close();
    std::fprintf(stderr, "arbiter_crash_sweep: %s\n",
                 recovered ? "OK" : "RECOVERY REGRESSION");
    ok = ok && recovered;
  }

  json.close();
  std::puts(json.text().c_str());
  return ok ? 0 : 1;
}
