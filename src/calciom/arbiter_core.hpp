#pragma once

/// \file arbiter_core.hpp
/// The transport-independent CALCioM decision core. The paper allows the
/// coordination decision to be taken either by the applications themselves
/// (peer-to-peer, every coordinator evaluating the same deterministic rule
/// on the same shared state) or by a system-provided entity (§III-B,
/// §III-D). Both prototypes here implement the latter, but over different
/// transports, and this class is the part they share:
///
///  * `Arbiter` (arbiter.hpp) — same-engine frontend: messages arrive
///    through the machine's port registry and commands leave through it,
///    every hop paying the configured message latency.
///  * `GlobalArbiter` (global_arbiter.hpp) — cross-shard frontend: per-shard
///    `ArbiterStub`s absorb traffic during a sync-horizon round and the
///    merged stream is applied here at each barrier.
///
/// The core never touches an engine, a port registry, or a clock: inputs
/// carry explicit timestamps and outputs are `ArbiterCommand` values the
/// frontend delivers however its transport requires. That makes the state
/// machine replayable offline (tests/calciom_replay_test.cpp feeds recorded
/// traces straight into it) and guarantees the two frontends cannot diverge
/// in behaviour.
///
/// State machine per application: Idle → Waiting → Accessing →
/// (PauseRequested → Paused → Accessing)* → Idle. Invariants:
///  * applications in `accessors_` may move data; everyone else may not;
///  * an interrupt grants the requester only after every accessor has
///    acknowledged its pause at a hook boundary (or completed);
///  * on completion, paused applications resume (most recently preempted
///    first) before queued applications are admitted.
///
/// Failure hardening (src/calciom/README.md, "Failure semantics"): the core
/// tolerates duplicated, reordered and lost messages and silently dead
/// applications. Sessions stamp every message with a monotone sequence
/// number, a per-phase epoch, and (when the job scheduler reuses ids) an
/// incarnation tag; onMessage() discards duplicates, stale reorders, and
/// traffic from dead predecessor incarnations. Commands carry a per-app
/// command sequence so the session can discard replays symmetrically. With
/// leases configured, onTick() reclaims access from applications that
/// stopped heartbeating and onHeartbeat() reconciles divergent views
/// (resending lost Grant/Pause/Resume, accepting a "paused" heartbeat as an
/// implicit PauseAck, a next-epoch heartbeat as an implicit Complete). All
/// of it is inert by default: messages with zero stamps skip every filter,
/// and a zero LeaseConfig disables the timers, so pre-hardening traffic
/// drives the exact pre-hardening state machine.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "calciom/descriptor.hpp"
#include "calciom/flat_id_map.hpp"
#include "calciom/policy.hpp"
#include "calciom/wire.hpp"
#include "sim/fingerprint.hpp"
#include "sim/time.hpp"

namespace calciom::core {

/// One scheduling decision, kept for experiment traces (Fig 11 reports the
/// strategy CALCioM chose at each dt).
struct DecisionRecord {
  sim::Time time = 0.0;
  std::uint32_t requester = 0;
  std::vector<std::uint32_t> accessors;
  Action action = Action::Queue;
  std::vector<ActionCost> costs;  // empty unless the policy exposes them
};

/// Single-line JSON dump of one decision (decision traces in
/// examples/policy_explorer.cpp and the chaos fingerprints), rendered by
/// sim::Json with `%.9g` numbers. `costs` terms are emitted only when the
/// policy populated them.
[[nodiscard]] std::string toJson(const DecisionRecord& d);

/// One access-granting transition: a Grant (silent, policy-decided or
/// queue-admitted) or a post-pause Resume. The full grant schedule — what
/// the replay divergence metrics align between an online run and its
/// offline-oracle replay (analysis/replay.hpp): decisions alone miss silent
/// grants and say nothing about *when* access actually started.
struct GrantRecord {
  sim::Time time = 0.0;
  std::uint32_t app = 0;
  /// true for a Resume after a pause, false for a fresh Grant.
  bool resume = false;

  bool operator==(const GrantRecord&) const = default;
};

/// The fingerprint folds of a decision stream (per decision its time bits,
/// requester, action, accessor set and, when the policy exposes them, each
/// candidate action with its metric-cost bits) and of a grant schedule (per
/// grant its time bits, app and resume flag).
void foldDecisions(sim::Fingerprint& fp,
                   const std::vector<DecisionRecord>& decisions) noexcept;
void foldGrants(sim::Fingerprint& fp,
                const std::vector<GrantRecord>& grants) noexcept;

/// The instructions an arbiter can give an application: the command types
/// of the wire (Grant, Pause, Resume, Recover).
using CommandType = MessageType;

/// An outbound instruction of the decision core: deliver `type` to
/// application `app`. How — and at what simulated cost — is the frontend's
/// business. `epoch`/`cmdSeq`/`incarnation` echo the target record so the
/// session can discard stale or replayed commands (zero = not stamped).
struct ArbiterCommand {
  std::uint32_t app = 0;
  CommandType type = CommandType::Grant;
  std::uint64_t epoch = 0;
  std::uint64_t cmdSeq = 0;
  std::uint64_t incarnation = 0;
  /// Incarnation of the arbiter process that issued the command; 0 until
  /// the arbiter has been restarted at least once, so the sessions of a
  /// never-crashed run see no arbiter-incarnation stamp.
  std::uint64_t arbiterIncarnation = 0;
};

/// Wire form of `cmd`: the command's type with its epoch, command sequence,
/// incarnation and arbiter incarnation stamps. Shared by both transports.
[[nodiscard]] Message encodeCommand(const ArbiterCommand& cmd);

/// Dead-accessor reclamation knobs; zero (the default) disables each timer
/// so an unconfigured core behaves exactly like the pre-lease protocol.
struct LeaseConfig {
  /// An application not heard from (any message or heartbeat) for longer
  /// than this while non-Idle is presumed dead: its access, queue slot and
  /// pause state are reclaimed as if the scheduler reported termination.
  double leaseSeconds = 0.0;
  /// Minimum spacing between repair retransmissions (re-sent Grant / Pause
  /// / Resume) per application; 0 = retransmit at every opportunity.
  double commandRetrySeconds = 0.0;

  [[nodiscard]] bool enabled() const noexcept { return leaseSeconds > 0.0; }
};

/// Deterministic value-copy of the decision core's protocol state — what a
/// production arbiter would write to stable storage at a checkpoint. Holds
/// everything `ArbiterCore::restore` needs to resume scheduling exactly
/// where the snapshot left off: the per-application records (states,
/// epochs, seq fences, lease clocks), the container structure (accessor
/// set, FIFO queue, LIFO paused stack, half-settled interrupt), the
/// cumulative counters, and the decision/grant traces (so post-restart
/// fingerprints continue the pre-crash stream instead of restarting it).
/// Policy, lease configuration and the audit flag are deliberately absent:
/// they are configuration of the (restarted) process, not protocol state.
struct ArbiterSnapshot {
  struct AppEntry {
    std::uint32_t id = 0;
    IoDescriptor desc;
    int state = 0;  // ArbiterCore::AppState, widened for serialization
    double progress = 0.0;
    sim::Time requestTime = 0.0;
    sim::Time grantTime = 0.0;
    sim::Time pausedAt = 0.0;
    std::uint64_t incarnation = 0;
    std::uint64_t lastSeq = 0;
    std::uint64_t epoch = 0;
    std::uint64_t cmdSeq = 0;
    sim::Time lastHeard = 0.0;
    sim::Time lastCommandAt = 0.0;
  };

  sim::Time takenAt = 0.0;
  std::uint64_t arbiterIncarnation = 0;
  std::vector<AppEntry> apps;  // ascending id (the core's map order)
  std::vector<std::uint32_t> accessors;
  std::vector<std::uint32_t> waitQueue;
  std::vector<std::uint32_t> pausedStack;
  std::optional<std::uint32_t> pendingInterrupter;
  int pendingAcks = 0;
  std::size_t grants = 0;
  std::size_t pauses = 0;
  std::size_t leaseReclaims = 0;
  std::size_t maxAccessors = 0;
  double cpuSecondsWaited = 0.0;
  std::vector<DecisionRecord> decisions;
  std::vector<GrantRecord> grantLog;
};

/// Canonical compact text form of a snapshot. Doubles are encoded as their
/// raw IEEE-754 bit patterns (16 hex digits), so two snapshots encode to
/// the same string iff they are bit-identical — the checkpoint determinism
/// gate (`tests/fault_recovery_test.cpp`, sim determinism rule 6) compares
/// these strings across worker counts and across snapshot/restore/snapshot
/// round trips. There is deliberately no decoder: restore() takes the typed
/// struct; the string is the equality witness and the size model.
[[nodiscard]] std::string encodeSnapshot(const ArbiterSnapshot& s);

class ArbiterCore {
 public:
  using Commands = std::vector<ArbiterCommand>;

  explicit ArbiterCore(std::unique_ptr<Policy> policy);
  ArbiterCore(const ArbiterCore&) = delete;
  ArbiterCore& operator=(const ArbiterCore&) = delete;

  /// Dispatches a wire message by its type. `now` is the
  /// simulated time the transport assigns to the message (arrival time for
  /// the same-engine frontend, barrier time for the global one); commands
  /// produced by the transition are appended to `out`.
  void onMessage(sim::Time now, std::uint32_t from, const Message& payload,
                 Commands& out);

  // Typed entry points (what onMessage fans out to). The admission filters
  // — sequence, incarnation — live in onMessage only; calling a typed entry
  // directly bypasses them (unit tests and replay oracles rely on that).
  void onInform(sim::Time now, std::uint32_t app, const Message& payload,
                Commands& out);
  void onRelease(std::uint32_t app, const Message& payload);
  void onComplete(sim::Time now, std::uint32_t app, Commands& out);
  void onPauseAck(sim::Time now, std::uint32_t app, const Message& payload,
                  Commands& out);
  /// Lease renewal + state reconciliation; see LeaseConfig and the file
  /// comment. Heartbeats from unknown apps are ignored (the app either
  /// never informed or was already reclaimed — its Inform retry re-admits).
  void onHeartbeat(sim::Time now, std::uint32_t app, const Message& payload,
                   Commands& out);

  /// Periodic lease sweep, called by the frontend's timer (same-engine
  /// Arbiter) or at every barrier (GlobalArbiter): expires leases of silent
  /// non-Idle applications and retransmits unacknowledged Pause commands.
  /// A no-op unless configureLeases() enabled leasing.
  void onTick(sim::Time now, Commands& out);

  /// Job-scheduler integration (paper §III-C: the list of running
  /// applications comes from the machine's job scheduler). Called when a
  /// job terminates — normally or not. Releases everything the application
  /// held: pending grants, queue slots, pause bookkeeping. Without this, a
  /// crashed accessor would deadlock the queue.
  void onApplicationTerminated(sim::Time now, std::uint32_t appId,
                               Commands& out);

  /// Enables dead-accessor reclamation and command retransmission; see
  /// LeaseConfig. Call before the first message for coherent lease clocks.
  void configureLeases(const LeaseConfig& leases);
  [[nodiscard]] const LeaseConfig& leases() const noexcept { return leases_; }

  /// Turns on the internal container-consistency audit after every
  /// transition (no app in two containers, states match containers,
  /// pending acks match owed pauses). Off by default — it is O(apps) per
  /// message; the chaos harness runs with it on so corruption surfaces as
  /// an InvariantError at the faulty transition, not as a downstream stall.
  void setAudit(bool on) noexcept { audit_ = on; }

  [[nodiscard]] const Policy& policy() const noexcept { return *policy_; }
  [[nodiscard]] const std::vector<DecisionRecord>& decisions() const noexcept {
    return decisions_;
  }
  [[nodiscard]] std::size_t grantsIssued() const noexcept { return grants_; }
  [[nodiscard]] std::size_t pausesIssued() const noexcept { return pauses_; }
  /// Every Grant/Resume in issue order (see GrantRecord).
  [[nodiscard]] const std::vector<GrantRecord>& grantLog() const noexcept {
    return grantLog_;
  }
  /// Move the logs out once the run is over (a month's logs are worth not
  /// copying into a result); the core's log is empty afterwards.
  [[nodiscard]] std::vector<DecisionRecord> releaseDecisions() noexcept {
    return std::move(decisions_);
  }
  [[nodiscard]] std::vector<GrantRecord> releaseGrantLog() noexcept {
    return std::move(grantLog_);
  }
  /// Core-seconds applications spent unable to move data because of this
  /// arbiter's schedule: (grant − inform) · cores summed over grants, plus
  /// (resume − pause ack) · cores summed over resumes. The schedule-level
  /// counterpart of the CpuSecondsWasted efficiency metric; the replay
  /// divergence report deltas it between the online run and the oracle.
  [[nodiscard]] double cpuSecondsWaited() const noexcept {
    return cpuSecondsWaited_;
  }

  /// Introspection for tests.
  [[nodiscard]] std::vector<std::uint32_t> currentAccessors() const {
    return accessors_;
  }
  [[nodiscard]] std::vector<std::uint32_t> waitQueue() const {
    return waitQueue_;
  }
  [[nodiscard]] std::vector<std::uint32_t> pausedStack() const {
    return pausedStack_;
  }
  /// True when no application holds, waits for, or is paused around the
  /// resource — the drained state every chaos schedule must end in.
  [[nodiscard]] bool idle() const noexcept {
    return accessors_.empty() && waitQueue_.empty() && pausedStack_.empty() &&
           !pendingInterrupter_.has_value();
  }
  /// Leases expired over the core's lifetime (dead-accessor reclamations).
  [[nodiscard]] std::size_t leaseReclaims() const noexcept {
    return leaseReclaims_;
  }
  /// High-water mark of simultaneous accessors. Exclusive policies (Fcfs,
  /// Interrupt) must keep this at 1 under every fault schedule — the
  /// "no double-grant" safety invariant of the chaos suite.
  [[nodiscard]] std::size_t maxConcurrentAccessors() const noexcept {
    return maxAccessors_;
  }
  /// Latest reported progress of an app, if it ever informed (idempotency
  /// tests observe that replayed Releases do not rewind it).
  [[nodiscard]] std::optional<double> appProgress(std::uint32_t app) const;

  // ---- Crash recovery (src/calciom/README.md, "Failure semantics") ----

  /// Value-copies the full protocol state (see ArbiterSnapshot). Pure
  /// observation: never mutates the core, so periodic checkpointing cannot
  /// move a decision.
  [[nodiscard]] ArbiterSnapshot snapshot(sim::Time now) const;

  /// Replaces the protocol state with `snap`, keeping the process-side
  /// configuration (policy, leases, audit flag) of this core. The restored
  /// core is *not* yet recovering: call beginRecovery() to open the
  /// reconciliation window for the un-checkpointed tail.
  void restore(const ArbiterSnapshot& snap);

  /// Opens the post-restart reconciliation window: adopts `incarnation`
  /// (must exceed the current one — it fences stale pre-crash commands at
  /// the sessions), abandons any half-settled interrupt from the restored
  /// tail (its Pauses and acks died with the old process), and emits a
  /// Recover command to every non-Idle application asking for its local
  /// view. Until `now + windowSeconds` the core registers and reconciles
  /// but takes no scheduling decision and sweeps no lease (restored lease
  /// clocks predate the crash); the first onTick at/after the deadline
  /// closes the window, sweeps whoever stayed silent, and resumes normal
  /// admission. The supervisor that restarts the arbiter supplies the
  /// incarnation — the core's own memory just crashed, so it cannot.
  void beginRecovery(sim::Time now, double windowSeconds,
                     std::uint64_t incarnation, Commands& out);

  [[nodiscard]] bool recovering() const noexcept { return recovering_; }
  /// Current arbiter-process incarnation (0 = never restarted). Stamped on
  /// every command once nonzero.
  [[nodiscard]] std::uint64_t arbiterIncarnation() const noexcept {
    return incarnation_;
  }
  /// Accessors reinstated from session recovery reports — grants the
  /// restored state had lost (un-checkpointed tail) but the session still
  /// held. The reconciliation protocol working, counted.
  [[nodiscard]] std::size_t reinstatedAccessors() const noexcept {
    return reinstated_;
  }
  /// Recover commands emitted across all beginRecovery windows.
  [[nodiscard]] std::size_t recoverCommandsIssued() const noexcept {
    return recoverIssued_;
  }

 private:
  enum class AppState { Idle, Waiting, Accessing, PauseRequested, Paused };
  struct AppRecord {
    IoDescriptor desc;
    AppState state = AppState::Idle;
    double progress = 0.0;
    sim::Time requestTime = 0.0;
    sim::Time grantTime = 0.0;
    sim::Time pausedAt = 0.0;
    // -- hardening bookkeeping (see file comment) --
    /// Scheduler incarnation the record belongs to; lower = dead
    /// predecessor whose traffic is discarded.
    std::uint64_t incarnation = 0;
    /// Highest session sequence number applied (0 = unsequenced sender).
    std::uint64_t lastSeq = 0;
    /// Phase epoch of the current request.
    std::uint64_t epoch = 0;
    /// Monotone command counter echoed on every command to this app.
    std::uint64_t cmdSeq = 0;
    /// Lease clock: last time any message/heartbeat arrived from the app.
    sim::Time lastHeard = 0.0;
    /// Retransmission throttle: when the last command was emitted.
    sim::Time lastCommandAt = 0.0;
  };

  /// Fills `context_` for a decision on `requester` and returns it.
  [[nodiscard]] const PolicyContext& buildContext(sim::Time now,
                                                  const AppRecord& requester);
  /// Appends one command for `app`, stamping epoch/cmdSeq/incarnation from
  /// its record and updating the retransmission throttle.
  void emit(sim::Time now, std::uint32_t app, CommandType type, Commands& out);
  [[nodiscard]] bool canRepair(sim::Time now, const AppRecord& rec) const {
    return leases_.commandRetrySeconds <= 0.0 ||
           now - rec.lastCommandAt >= leases_.commandRetrySeconds;
  }
  void grant(sim::Time now, std::uint32_t app, Commands& out);
  void beginInterrupt(sim::Time now, std::uint32_t requester, Commands& out);
  /// The PauseRequested → Paused transition shared by onPauseAck and the
  /// heartbeat reconciliation ("paused" report = the ack was lost).
  void applyPauseAck(sim::Time now, std::uint32_t app, Commands& out);
  void admitNext(sim::Time now, Commands& out);
  void removeFrom(std::vector<std::uint32_t>& v, std::uint32_t app);
  /// Single points through which an application enters/leaves the accessor
  /// set (attach also tracks `maxAccessors_`); anything that must observe
  /// accessor-set transitions hooks in here.
  void attachAccessor(std::uint32_t app);
  void detachAccessor(std::uint32_t app);
  void auditInvariants() const;
  /// Applies one session recovery report (a re-Inform carrying a session
  /// state, arriving inside the reconciliation window): the session's
  /// claimed state wins for Accessing/Paused/Idle — the restored record may
  /// predate the lost tail — while a Waiting claim against a restored
  /// Accessing record re-emits the lost Grant.
  void applyRecoveryReport(sim::Time now, std::uint32_t app,
                           const Message& payload, Commands& out);

  std::unique_ptr<Policy> policy_;
  /// A record for every app seen, in ascending id order. Inserts and
  /// erases move records: no AppRecord& is held across either (see
  /// FlatIdMap).
  FlatIdMap<AppRecord> apps_;
  std::vector<std::uint32_t> accessors_;
  std::vector<std::uint32_t> waitQueue_;    // FIFO
  std::vector<std::uint32_t> pausedStack_;  // LIFO (resume most recent first)
  std::optional<std::uint32_t> pendingInterrupter_;
  int pendingAcks_ = 0;
  std::vector<DecisionRecord> decisions_;
  std::vector<GrantRecord> grantLog_;
  std::size_t grants_ = 0;
  std::size_t pauses_ = 0;
  double cpuSecondsWaited_ = 0.0;
  LeaseConfig leases_;
  std::size_t leaseReclaims_ = 0;
  std::size_t maxAccessors_ = 0;
  bool audit_ = false;
  // -- crash-recovery state (see beginRecovery) --
  std::uint64_t incarnation_ = 0;
  bool recovering_ = false;
  sim::Time recoveryDeadline_ = 0.0;
  std::size_t reinstated_ = 0;
  std::size_t recoverIssued_ = 0;
  /// Decision scratch: rebuilt by every buildContext, so the accessor list
  /// keeps its capacity from one decision to the next.
  PolicyContext context_;
};

}  // namespace calciom::core
