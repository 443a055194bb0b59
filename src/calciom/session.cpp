#include "calciom/session.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace calciom::core {

Session::Session(sim::Engine& engine, mpi::PortRegistry& ports,
                 SessionConfig cfg)
    : engine_(engine), ports_(ports), cfg_(std::move(cfg)) {
  CALCIOM_EXPECTS(cfg_.cores >= 1);
  CALCIOM_EXPECTS(cfg_.heartbeatSeconds >= 0.0);
  CALCIOM_EXPECTS(cfg_.informRetrySeconds >= 0.0);
  CALCIOM_EXPECTS(cfg_.degradeAfterSeconds >= 0.0);
  ports_.openPort(msg::appPort(cfg_.appId),
                  [this](std::uint32_t /*from*/, const Message& payload) {
                    onMessage(payload);
                  });
  portOpen_ = true;
}

Session::~Session() {
  *alive_ = false;
  if (portOpen_) {
    ports_.closePort(msg::appPort(cfg_.appId));
  }
}

void Session::prepare(const IoHints& hints) {
  preparedStack_.push_back(hints);
}

void Session::complete() {
  CALCIOM_EXPECTS(!preparedStack_.empty());
  preparedStack_.pop_back();
}

void Session::inform(const io::PhaseInfo& phase) {
  if (killed_) {
    return;
  }
  // A pause that raced with the end of the previous phase is stale now.
  pauseRequested_ = false;
  authorized_ = false;
  authGate_.close();
  // A new phase rejoins the coordination layer even after a degraded one,
  // and starts fresh epoch-scoped command filtering (the arbiter's command
  // counter restarts with the record, e.g. after a lease reclaim).
  degraded_ = false;
  phaseActive_ = true;
  ++epoch_;
  lastCmdSeq_ = 0;
  lastProgress_ = 0.0;
  informTime_ = engine_.now();
  ++retryGen_;

  IoDescriptor desc = IoDescriptor::fromPhase(phase, cfg_.cores);
  desc.appId = cfg_.appId;
  if (!cfg_.appName.empty()) {
    desc.appName = cfg_.appName;
  }
  for (const IoHints& hints : preparedStack_) {
    hints.applyTo(desc);
  }
  // Kept unstamped: each retransmission gets a fresh seq.
  informWire_ = Message::inform(std::move(desc));
  ++informsSent_;
  // Through sendToArbiter so the replay capture sees informs too.
  sendToArbiter(informWire_);
  armInformTimer();
  armHeartbeat();
}

sim::Task Session::wait() {
  const sim::Time t0 = engine_.now();
  co_await authGate_;
  waitSeconds_ += engine_.now() - t0;
}

sim::Task Session::release(double progress, bool pausableBoundary) {
  lastProgress_ = progress;
  if (killed_ || degraded_) {
    // A dead process sends nothing; a degraded one is outside the
    // coordination loop until its next phase (no acks, no progress).
    co_return;
  }
  if (pausableBoundary && pauseRequested_) {
    pauseRequested_ = false;
    resumeGate_.close();
    sendToArbiter(Message::pauseAck(progress));
    ++pausesHonored_;
    armPauseDeadline(++pauseGen_);
    const sim::Time t0 = engine_.now();
    co_await resumeGate_;
    pausedSeconds_ += engine_.now() - t0;
    co_return;
  }
  sendToArbiter(Message::release(progress));
}

sim::Task Session::beginPhase(const io::PhaseInfo& info) {
  inform(info);
  co_await engine_.spawn(wait());
}

sim::Task Session::roundBoundary(double progress) {
  const bool pausable = cfg_.granularity == HookGranularity::PerRound;
  co_await engine_.spawn(release(progress, pausable));
}

sim::Task Session::fileBoundary(double progress) {
  const bool pausable = cfg_.granularity == HookGranularity::PerRound ||
                        cfg_.granularity == HookGranularity::PerFile;
  co_await engine_.spawn(release(progress, pausable));
}

sim::Task Session::endPhase() {
  phaseActive_ = false;
  ++retryGen_;
  if (killed_) {
    co_return;
  }
  authorized_ = false;
  authGate_.close();
  // Sent even after a degraded phase: it is the cheap half of rejoining
  // (if the lease already reclaimed the record, the arbiter ignores it).
  sendToArbiter(Message::complete());
  co_return;
}

void Session::kill() {
  if (killed_) {
    return;
  }
  killed_ = true;
  phaseActive_ = false;
  ++retryGen_;
  ++pauseGen_;
  if (portOpen_) {
    ports_.closePort(msg::appPort(cfg_.appId));
    portOpen_ = false;
  }
  // Wake anything suspended so the owning coroutine can observe killed()
  // and unwind instead of leaking a frame until engine teardown.
  pauseRequested_ = false;
  authGate_.open();
  resumeGate_.open();
}

void Session::degrade() {
  if (degraded_ || killed_ || !phaseActive_) {
    return;
  }
  degraded_ = true;
  ++degradedPhases_;
  ++retryGen_;
  ++pauseGen_;
  // Free-for-all: authorize ourselves, drop any pending pause, resume if
  // paused. Heartbeats stop (armHeartbeat's chain checks degraded_), so the
  // arbiter's lease reclaims whatever we held and the others make progress.
  pauseRequested_ = false;
  authGate_.open();
  resumeGate_.open();
}

void Session::onMessage(const Message& payload) {
  if (killed_) {
    return;  // a closed port should make this unreachable, but be explicit
  }
  // Command admission filters, all opt-in by stamp (legacy arbiters stamp
  // nothing and every filter passes).
  const std::uint64_t inc = payload.incarnation();
  if (cfg_.incarnation != 0 && inc != 0 && inc != cfg_.incarnation) {
    return;  // addressed to another incarnation of this (reused) id
  }
  // Arbiter-incarnation fence (the mirror of the app-incarnation fence
  // above). Once a restarted arbiter has been seen (arbiterInc_ > 0),
  // commands from earlier incarnations — including unstamped pre-crash
  // stragglers still in latency flight — are dead letters: the restarted
  // arbiter rebuilt its state from our own report and anything the old one
  // said may contradict it. A *higher* incarnation is first contact with a
  // newer restart: adopt it and reset the command-sequence filter, whose
  // counter restarted from the arbiter's checkpoint.
  // Throws on a session message type: only commands reach a session.
  const std::uint64_t arbInc = payload.arbiterIncarnation();
  if (arbInc < arbiterInc_) {
    ++staleArbiterCommands_;
    return;
  }
  if (arbInc > arbiterInc_) {
    arbiterInc_ = arbInc;
    lastCmdSeq_ = 0;
  }
  const std::uint64_t cmdEpoch = payload.epoch();
  if (cmdEpoch != 0 && epoch_ != 0 && cmdEpoch != epoch_) {
    return;  // stale command from an earlier phase (or a stale record)
  }
  const std::uint64_t cmdSeq = payload.cmdSeq();
  if (cmdSeq != 0) {
    if (cmdSeq <= lastCmdSeq_) {
      return;  // duplicate or reordered-behind command
    }
    lastCmdSeq_ = cmdSeq;
  }
  if (degraded_) {
    return;  // uncoordinated until the next phase; late commands are moot
  }
  switch (payload.type()) {
    case MessageType::Grant:
    case MessageType::Resume:
      authorized_ = true;
      // A pause pending from before this command is obsolete: the arbiter
      // (re)authorized us afterwards. Only reachable with retransmissions —
      // in-order fault-free delivery never has a pause pending here.
      pauseRequested_ = false;
      ++pauseGen_;
      authGate_.open();
      resumeGate_.open();
      break;
    case MessageType::Pause:
      pauseRequested_ = true;
      break;
    case MessageType::Recover:
      // The arbiter restarted and lost (some of) its state: answer with the
      // full local view — the phase's Inform plus our progress and protocol
      // state — so the reconciliation window can rebuild the accessor set.
      // Outside a phase there is nothing to rebuild; a Complete closes
      // whatever stale record the restored checkpoint still holds open.
      if (phaseActive_) {
        Message view = informWire_;
        view.setProgress(lastProgress_);
        view.setSessionState(protocolState());
        ++recoverAnswers_;
        sendToArbiter(std::move(view));
      } else {
        sendToArbiter(Message::complete());
      }
      break;
    default:
      CALCIOM_ENSURES(false);  // unreachable: arbiterIncarnation() threw
  }
}

void Session::sendToArbiter(Message payload) {
  payload.setSeq(++seq_);
  payload.setEpoch(epoch_);
  payload.setIncarnation(cfg_.incarnation);
  if (capture_ != nullptr) {
    capture_->record(engine_.now(), cfg_.appId, payload);
  }
  ports_.send(msg::arbiterPort(), cfg_.appId, std::move(payload));
}

void Session::armHeartbeat() {
  if (cfg_.heartbeatSeconds <= 0.0 || heartbeatArmed_) {
    return;
  }
  heartbeatArmed_ = true;
  engine_.scheduleAfter(cfg_.heartbeatSeconds, [this, alive = alive_] {
    if (!*alive) {
      return;
    }
    heartbeatArmed_ = false;
    if (killed_ || degraded_ || !phaseActive_) {
      return;  // the chain dies; the next inform() restarts it
    }
    sendToArbiter(Message::heartbeat(lastProgress_, protocolState()));
    armHeartbeat();
  });
}

void Session::armInformTimer() {
  if (cfg_.informRetrySeconds <= 0.0) {
    return;
  }
  engine_.scheduleAfter(
      cfg_.informRetrySeconds, [this, alive = alive_, gen = retryGen_] {
        if (!*alive || gen != retryGen_) {
          return;  // authorized, new phase, degraded, or dead meanwhile
        }
        if (authorized_ || !phaseActive_ || killed_ || degraded_) {
          return;
        }
        if (cfg_.degradeAfterSeconds > 0.0 &&
            engine_.now() - informTime_ >= cfg_.degradeAfterSeconds) {
          degrade();
          return;
        }
        sendToArbiter(informWire_);
        armInformTimer();
      });
}

void Session::armPauseDeadline(std::uint64_t gen) {
  if (cfg_.degradeAfterSeconds <= 0.0) {
    return;
  }
  engine_.scheduleAfter(cfg_.degradeAfterSeconds, [this, alive = alive_,
                                                   gen] {
    if (!*alive || gen != pauseGen_ || killed_) {
      return;  // resumed (or re-paused, or dead) meanwhile
    }
    // Paused longer than the degradation deadline: the Resume is lost or
    // the arbiter has forgotten us. Stop waiting for it.
    degrade();
  });
}

SessionState Session::protocolState() const noexcept {
  if (!phaseActive_) {
    return SessionState::Idle;
  }
  if (paused()) {
    return SessionState::Paused;
  }
  return authorized_ ? SessionState::Accessing : SessionState::Waiting;
}

}  // namespace calciom::core
