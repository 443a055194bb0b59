#pragma once

/// \file chaos.hpp
/// Randomized chaos harness over the CALCioM coordination stack: one seeded
/// fault schedule (fault/injector.hpp), one synthetic contended campaign,
/// both transports (same-engine Arbiter or GlobalArbiter over a sharded
/// Cluster), and a result summary carrying exactly the invariants the chaos
/// suite asserts (tests/fault_chaos_test.cpp):
///
///  * liveness — the run terminates, every surviving application finishes
///    all its phases (coordinated or degraded), the arbiter drains to Idle;
///  * safety — the arbiter never has two concurrent accessors under an
///    exclusive policy (Fcfs / Interrupt), and the core's container
///    invariants hold after every transition (audit mode).
///
/// Determinism: the campaign shape and the fault schedule are pure
/// functions of the config (chaosPlan() derives the plan from a seed by
/// hashing, never from an engine RNG), so any failing seed replays exactly
/// — on any worker count.

#include <cstdint>
#include <vector>

#include "calciom/arbiter_core.hpp"
#include "calciom/policy.hpp"
#include "fault/injector.hpp"

namespace calciom::fault {

enum class ChaosTransport {
  /// Sessions + core::Arbiter on one engine; message faults on the
  /// PortRegistry send path.
  SameEngine,
  /// Sessions across a platform::Cluster under a GlobalArbiter; adds stub
  /// blackouts and command-path faults at the barrier.
  Cluster,
};

struct ChaosConfig {
  ChaosTransport transport = ChaosTransport::SameEngine;
  core::PolicyKind policy = core::PolicyKind::Fcfs;
  int apps = 4;
  int phases = 2;
  int roundsPerPhase = 3;
  double roundSeconds = 0.4;
  /// App i starts at i * startStaggerSeconds.
  double startStaggerSeconds = 0.3;
  /// Compute time between phases.
  double idleSeconds = 0.6;
  std::size_t shards = 2;  // Cluster only
  unsigned workers = 1;    // Cluster only
  /// Cluster only. A barrier round trip (this plus two cross-shard hops)
  /// must fit in the arbiter's reconciliation window
  /// (core::ArbiterHost::kRecoveryWindowSeconds) for crash recovery to
  /// hear every survivor.
  double syncHorizonSeconds = 0.5;

  /// The fault schedule; a default Plan is fault-free.
  Plan plan;
  /// Install the Injector even when the plan is disabled (the zero-fault
  /// bit-identity gate: a disabled injector must change nothing).
  bool installInjector = true;
  /// Protocol hardening on/off: leases + audit at the arbiter, stamps +
  /// heartbeat / retry / degradation timers at the sessions. Off = the
  /// pre-hardening protocol (faults then cost liveness, not correctness —
  /// the engine still drains, apps just finish incomplete).
  bool hardened = true;

  static constexpr double kMessageLatencySeconds = 1e-3;  // SameEngine

  // -- hardening timers (used when hardened) --
  static constexpr double kHeartbeatSeconds = 0.2;
  static constexpr double kInformRetrySeconds = 0.5;
  /// Per-phase give-up deadline. Must exceed the worst *legitimate* wait
  /// (a fully serialized campaign), or fault-free runs would degrade too.
  static constexpr double kDegradeAfterSeconds = 30.0;
  static constexpr double kLeaseSeconds = 1.5;
  static constexpr double kCommandRetrySeconds = 0.4;
  static constexpr double kArbiterTickSeconds = 0.25;  // SameEngine only
  /// Checkpoint cadence of the arbiter's stable-storage model.
  /// Checkpointing is pure observation — it never moves a decision — so
  /// leaving it on does not perturb the zero-fault gates; it is what
  /// plan.arbiterCrashes recover from.
  static constexpr double kCheckpointEverySeconds = 0.5;

  /// Hard wall for the cluster keepalive: past this simulated time the
  /// harness stops forcing barrier rounds (a liveness-bug backstop; healthy
  /// runs drain far earlier).
  static constexpr double kMaxSimSeconds = 300.0;
};

struct ChaosAppOutcome {
  bool killed = false;
  bool completed = false;  ///< ran every phase to the end
  int phasesCompleted = 0;
  int degradedPhases = 0;
  std::uint64_t roundsCompleted = 0;
};

struct ChaosResult {
  std::vector<ChaosAppOutcome> apps;
  int survivors = 0;           ///< apps not killed by the plan
  int survivorsCompleted = 0;  ///< liveness: must equal survivors
  int degradedSessions = 0;    ///< sessions with >= 1 degraded phase
  bool degradedAllCompleted = true;
  bool arbiterIdle = false;  ///< core drained to Idle at the end
  double simSeconds = 0.0;
  double cpuSecondsWaited = 0.0;
  /// Externally timed elapsed seconds of the whole campaign (the one
  /// nondeterministic pair of fields here, with engineCpuSeconds).
  double wallSeconds = 0.0;
  /// Real CPU seconds inside event loops, summed over shards
  /// (ClusterStats::cpuSeconds; same-engine: the engine's wallSeconds).
  /// Reported next to — never added to — wallSeconds: under workers the
  /// per-shard timers overlap, and serially they nest inside the external
  /// timer.
  double engineCpuSeconds = 0.0;
  std::size_t decisionCount = 0;
  std::size_t grants = 0;
  std::size_t pauses = 0;
  std::size_t leaseReclaims = 0;
  std::size_t maxConcurrentAccessors = 0;
  std::uint64_t messagesSeen = 0;
  std::uint64_t messagesDropped = 0;
  std::uint64_t messagesDelayed = 0;
  std::uint64_t messagesDuplicated = 0;
  std::uint64_t messagesReordered = 0;
  std::uint64_t blackoutDiscarded = 0;  // Cluster only
  /// Application crashes the harness scheduled from plan.crashes.
  std::uint64_t appCrashesInjected = 0;
  // -- arbiter crash-recovery (plan.arbiterCrashes) --
  std::uint64_t arbiterCrashes = 0;   ///< crashes actually applied
  std::uint64_t arbiterRestarts = 0;  ///< recoveries completed
  std::uint64_t crashDiscarded = 0;   ///< Cluster: stub traffic lost while down
  std::uint64_t recoverCommandsIssued = 0;
  std::uint64_t reinstatedAccessors = 0;
  std::uint64_t recoverAnswers = 0;        ///< session-side re-Informs
  std::uint64_t staleArbiterCommands = 0;  ///< fenced pre-crash commands
  std::uint64_t checkpoints = 0;
  std::uint64_t walAppended = 0;
  std::uint64_t walDropped = 0;
  std::uint64_t roundsCompleted = 0;
  double throughputRoundsPerSecond = 0.0;
  /// FNV-1a over the decision stream's JSON and the grant log — the
  /// bit-identity probe of the zero-fault and worker-invariance gates.
  std::uint64_t fingerprint = 0;
  std::vector<core::GrantRecord> grantLog;
  /// Full decision stream, in order — the input of the divergence analysis
  /// (analysis::replay::computeDivergence) that bounds how far a
  /// crash-recovered run drifts from a never-crashed oracle.
  std::vector<core::DecisionRecord> decisions;
  /// core::encodeSnapshot of the final core state (takenAt = simSeconds):
  /// equal strings iff bit-identical end states — the checkpoint/restore
  /// determinism gate across worker counts and crash schedules.
  std::string snapshotEncoding;
};

/// Derives a diverse fault schedule from `seed` for a campaign of `apps`
/// applications: drop / delay / duplicate / reorder mixes, stub blackouts,
/// and up to apps-1 crashes (reported or silent) — always leaving at least
/// one survivor. Pure hash; the same seed always yields the same plan.
[[nodiscard]] Plan chaosPlan(std::uint64_t seed, int apps);

/// Adds one seeded arbiter crash to `plan`: crash time in [1, 5) seconds
/// (inside the contended window), downtime drawn from {0.5, 1.2, 2.5}
/// seconds — always well under ChaosConfig::kDegradeAfterSeconds, so
/// surviving sessions normally ride the outage out on retries and rejoin
/// the recovered arbiter rather than degrading. Pure hash of `seed`; kept
/// separate from chaosPlan() so the existing seeded suites replay
/// byte-identically.
[[nodiscard]] Plan withArbiterCrash(Plan plan, std::uint64_t seed);

/// Runs one seeded chaos campaign; see file comment.
[[nodiscard]] ChaosResult runChaos(const ChaosConfig& cfg);

}  // namespace calciom::fault
