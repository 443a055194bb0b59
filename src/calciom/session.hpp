#pragma once

/// \file session.hpp
/// Application-side CALCioM endpoint: the coordinator process (paper §III-C,
/// "typically rank 0 of MPI_COMM_WORLD"). It exposes the paper's API —
/// Prepare / Inform / Check / Wait / Release / Complete — and implements the
/// I/O stack's coordination hooks in terms of it, so the same object plugs
/// into the ADIO layer (round granularity), the application level (file
/// granularity), or both.
///
/// Pause protocol: a pause request from the arbiter takes effect at the next
/// hook the configured granularity honours; the session acknowledges with
/// its current progress and suspends on a gate until resumed. File-level
/// granularity therefore yields the paper's Fig 10 "saw" pattern (an
/// application must finish its current file before yielding), while
/// round-level granularity interrupts within ~one collective-buffering
/// round.
///
/// Failure hardening (src/calciom/README.md, "Failure semantics"): every
/// arbiter-bound message is stamped with a monotone sequence number, the
/// phase epoch and (when configured) a scheduler incarnation, so the
/// hardened core can discard duplicates, reorders and dead-predecessor
/// traffic; commands are filtered symmetrically by epoch / command-sequence
/// / incarnation. Three optional timers (all off by default) complete the
/// loop: a heartbeat renews the arbiter's lease and reports the session's
/// protocol state for reconciliation, an Inform retry re-announces a phase
/// whose Inform or Grant was lost, and a degradation deadline gives up on
/// the coordination layer entirely — the session proceeds uncoordinated
/// (the paper's free-for-all baseline: correct, just slower under
/// contention) and rejoins at its next phase. kill() simulates a process
/// crash: the session goes silent in whatever protocol state it is in.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "calciom/arbiter.hpp"
#include "calciom/capture.hpp"
#include "calciom/descriptor.hpp"
#include "io/hooks.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace calciom::core {

/// Where in the stack Inform/Release are wired (paper §IV-C: "the location
/// of these calls gives different degrees of freedom").
enum class HookGranularity {
  /// Coordination only around whole phases: FCFS-style behaviour.
  PhaseOnly,
  /// Application level: pauses honoured between files only (Fig 10 "saw").
  PerFile,
  /// CALCioM-enabled ADIO layer: pauses honoured between rounds too.
  PerRound,
};

struct SessionConfig {
  std::uint32_t appId = 0;
  std::string appName;
  int cores = 1;
  HookGranularity granularity = HookGranularity::PerRound;

  // ---- Hardening knobs; all zero = the pre-hardening protocol ----------
  /// Scheduler incarnation of this (possibly reused) application id.
  /// 0 = the id is never reused; incarnation filtering is off.
  std::uint64_t incarnation = 0;
  /// Period of the lease-renewal heartbeat while a phase is active.
  double heartbeatSeconds = 0.0;
  /// Retransmit the phase's Inform while still unauthorized after this
  /// long (covers a lost Inform or a lost Grant).
  double informRetrySeconds = 0.0;
  /// Give up on the coordination layer after waiting (or staying paused)
  /// this long: proceed uncoordinated for the rest of the phase, rejoin at
  /// the next. 0 = wait forever (a session never degrades).
  double degradeAfterSeconds = 0.0;
};

class Session final : public io::IoCoordinationHooks {
 public:
  Session(sim::Engine& engine, mpi::PortRegistry& ports, SessionConfig cfg);
  ~Session() override;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- The paper's API --------------------------------------------------

  /// Stacks additional descriptor knowledge for the next Inform: each set
  /// field of `hints` overrides the phase's own value, and later Prepare()
  /// calls override earlier ones. inform() applies them to the descriptor
  /// it sends.
  void prepare(const IoHints& hints);
  /// Pops the most recent Prepare.
  void complete();
  /// Announces the upcoming phase to the coordination layer.
  void inform(const io::PhaseInfo& phase);
  /// Non-blocking authorization check (true also while degraded: an
  /// uncoordinated session authorizes itself).
  [[nodiscard]] bool check() const noexcept {
    return authorized_ || degraded_;
  }
  /// Suspends until the access is authorized (or the session degrades).
  sim::Task wait();
  /// Ends a step: reports progress, honours a pending pause request if the
  /// boundary's granularity allows it.
  sim::Task release(double progress, bool pausableBoundary);

  // ---- io::IoCoordinationHooks -------------------------------------------

  sim::Task beginPhase(const io::PhaseInfo& info) override;
  sim::Task roundBoundary(double progress) override;
  sim::Task fileBoundary(double progress) override;
  sim::Task endPhase() override;

  // ---- Fault-injection surface -------------------------------------------

  /// Simulates a process crash at the current instant: the session stops
  /// sending (heartbeats included), stops receiving (its port closes), and
  /// wakes any suspended coroutine so the caller can observe killed() and
  /// unwind. Idempotent. The arbiter learns of the death only through the
  /// job scheduler (onApplicationTerminated) or its lease expiry.
  void kill();
  [[nodiscard]] bool killed() const noexcept { return killed_; }
  /// True while the session has given up on coordination for the current
  /// phase (degradeAfterSeconds elapsed unauthorized or paused).
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

  // ---- Introspection / statistics ----------------------------------------

  [[nodiscard]] bool paused() const noexcept { return !resumeGate_.isOpen(); }
  [[nodiscard]] double waitSeconds() const noexcept { return waitSeconds_; }
  [[nodiscard]] double pausedSeconds() const noexcept {
    return pausedSeconds_;
  }
  [[nodiscard]] int pausesHonored() const noexcept { return pausesHonored_; }
  [[nodiscard]] int informsSent() const noexcept { return informsSent_; }
  /// Phases this session completed uncoordinated.
  [[nodiscard]] int degradedPhases() const noexcept {
    return degradedPhases_;
  }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const SessionConfig& config() const noexcept { return cfg_; }
  /// Recovery reports (re-Informs carrying a session state) sent in answer
  /// to a restarted arbiter's Recover command.
  [[nodiscard]] int recoverAnswers() const noexcept { return recoverAnswers_; }
  /// Commands fenced as stale pre-crash traffic (lower arbiter incarnation
  /// than the newest one seen, or none at all after a restart was seen).
  [[nodiscard]] int staleArbiterCommands() const noexcept {
    return staleArbiterCommands_;
  }

  // ---- Replay capture (analysis/replay.hpp) ------------------------------

  /// Mirrors every arbiter-bound message (Inform / Release / Complete /
  /// PauseAck, full wire payload) into `log` at its emission time, before
  /// any transport latency. nullptr (the default) disables capture. The log
  /// must belong to this session's shard and outlive the session.
  void captureTo(EventLog* log) noexcept { capture_ = log; }

 private:
  void onMessage(const Message& payload);
  /// Stamps `payload` (seq, epoch, incarnation), captures it, sends it.
  void sendToArbiter(Message payload);
  /// Arms (once) the self-rescheduling heartbeat; the chain dies on its own
  /// when the phase ends, the session degrades, or it is killed — the
  /// conditional re-arming is what lets the engine drain.
  void armHeartbeat();
  /// Arms one Inform-retry / degradation-deadline step for the current
  /// epoch; invalidated by authorization, a new phase, or death.
  void armInformTimer();
  /// Schedules the paused-too-long deadline for the pause generation
  /// `gen`; a Resume (or anything else bumping pauseGen_) invalidates it.
  void armPauseDeadline(std::uint64_t gen);
  /// Gives up on coordination for the rest of this phase; see file comment.
  void degrade();
  /// The protocol state heartbeats and recovery reports carry.
  [[nodiscard]] SessionState protocolState() const noexcept;

  sim::Engine& engine_;
  mpi::PortRegistry& ports_;
  SessionConfig cfg_;
  std::vector<IoHints> preparedStack_;
  sim::Gate authGate_{false};
  sim::Gate resumeGate_{true};
  bool authorized_ = false;
  bool pauseRequested_ = false;
  bool portOpen_ = false;
  double waitSeconds_ = 0.0;
  double pausedSeconds_ = 0.0;
  int pausesHonored_ = 0;
  int informsSent_ = 0;
  EventLog* capture_ = nullptr;

  // -- hardening state (see file comment) --
  bool phaseActive_ = false;
  bool degraded_ = false;
  bool killed_ = false;
  std::uint64_t seq_ = 0;        ///< monotone message stamp
  std::uint64_t epoch_ = 0;      ///< current phase number
  std::uint64_t lastCmdSeq_ = 0; ///< highest command sequence applied
  std::uint64_t retryGen_ = 0;   ///< invalidates pending Inform timers
  std::uint64_t pauseGen_ = 0;   ///< invalidates pending pause deadlines
  bool heartbeatArmed_ = false;
  sim::Time informTime_ = 0.0;
  double lastProgress_ = 0.0;
  /// The phase's Inform, unstamped: retransmitted by the retry timer and
  /// the base of a recovery report.
  Message informWire_ = Message::inform({});
  int degradedPhases_ = 0;
  std::uint64_t arbiterInc_ = 0;  ///< highest arbiter incarnation seen
  int recoverAnswers_ = 0;
  int staleArbiterCommands_ = 0;
  /// Tombstone for timer events in flight at destruction (the engine has
  /// no cancellation; see sim/engine.hpp).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace calciom::core
