#pragma once

/// \file wire.hpp
/// The coordination wire: the fixed records sessions and the arbiter
/// exchange (paper §III-C — Inform, Grant, Pause and Release are small,
/// fixed messages). A `Message` is a one-byte type tag plus typed fields:
/// the sequencing stamps, the progress report, the session's protocol state
/// and, for an Inform, the I/O descriptor. Every field read checks the tag
/// and throws `PreconditionError` when the field does not belong to the
/// message's type (reading progress from a Grant, say), the way a
/// tag-checked coordinator rejects a wrong message instead of misreading
/// its bytes.
///
/// Absent fields keep the meaning the protocol gives them: a zero
/// sequencing stamp (seq, epoch, incarnation, cmdSeq, arbiter incarnation)
/// means "not stamped" and skips the matching filter, a message without
/// progress leaves the receiver's record alone, and `SessionState::None`
/// marks a plain Inform or keepalive rather than a state report.
///
/// Doubles are stored as `wireRound` leaves them: the value a printf `%f`
/// rendering (six decimals) parses back to. The wire used to be text, and
/// every decision fingerprint was computed from the parsed values, so the
/// rounding is kept as this one named step; dropping it is a deliberate
/// fingerprint change of its own.

#include <cstdint>
#include <optional>

#include "calciom/descriptor.hpp"
#include "sim/contracts.hpp"

namespace calciom::core {

/// Message types. Session → arbiter: Inform, Release, Complete, PauseAck,
/// Heartbeat. Arbiter → session: Grant, Pause, Resume, Recover (after a
/// restart: "re-Inform with your full local view").
enum class MessageType : std::uint8_t {
  Inform,
  Release,
  Complete,
  PauseAck,
  Heartbeat,
  Grant,
  Pause,
  Resume,
  Recover,
};

/// True for the types a session sends to the arbiter.
[[nodiscard]] constexpr bool fromSession(MessageType t) noexcept {
  return t <= MessageType::Heartbeat;
}

/// A session's own protocol state, reported in heartbeats and in the
/// re-Inform that answers a Recover; the arbiter reconciles its record
/// against it. `None` = not reported.
enum class SessionState : std::uint8_t {
  None,
  Waiting,
  Accessing,
  Paused,
  Idle,
};

/// The value `v` has after a trip through the text wire: rendered with
/// six decimals (`std::to_string`, printf `%f`) and parsed back. So 1/3
/// becomes 0.333333 and anything below 5e-7 in magnitude a signed zero;
/// infinities survive and a NaN loses its payload bits. Below
/// `kWireRoundArithmeticLimit` in magnitude the rounding is done in
/// arithmetic, bit for bit what the text gives; other inputs take the text.
[[nodiscard]] double wireRound(double v) noexcept;

/// Where `wireRound` stops using arithmetic: below it `|v|·10^6 < 2^52`, so
/// the scaled value and its half-integer neighbours are exact doubles.
inline constexpr double kWireRoundArithmeticLimit = 4e9;

class Message {
 public:
  /// An unstamped Complete: the smallest message, so that slots and
  /// batches of messages can be default-constructed.
  Message() noexcept : type_(MessageType::Complete) {}

  // ---- Session → arbiter -------------------------------------------------
  /// Announces a phase. The descriptor's estimate travels wire-rounded.
  [[nodiscard]] static Message inform(IoDescriptor desc);
  [[nodiscard]] static Message release(std::optional<double> progress = {});
  [[nodiscard]] static Message complete() {
    return Message(MessageType::Complete);
  }
  [[nodiscard]] static Message pauseAck(std::optional<double> progress = {});
  [[nodiscard]] static Message heartbeat(
      std::optional<double> progress = {},
      SessionState state = SessionState::None);

  // ---- Arbiter → session -------------------------------------------------
  /// A command of type Grant, Pause, Resume or Recover.
  [[nodiscard]] static Message command(MessageType type);

  [[nodiscard]] MessageType type() const noexcept { return type_; }

  // ---- Sequencing; 0 = not stamped --------------------------------------
  /// Per-phase counter; commands echo the epoch they belong to.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  /// Scheduler incarnation of a (possibly reused) application id.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }
  /// Per-session monotone sequence (session messages only).
  [[nodiscard]] std::uint64_t seq() const {
    expectFromSession();
    return seq_;
  }
  /// Per-app monotone command sequence (commands only).
  [[nodiscard]] std::uint64_t cmdSeq() const {
    expectCommand();
    return cmdSeq_;
  }
  /// Incarnation of the arbiter process that sent the command; 0 until it
  /// has restarted at least once (commands only).
  [[nodiscard]] std::uint64_t arbiterIncarnation() const {
    expectCommand();
    return arbiterInc_;
  }
  void setEpoch(std::uint64_t v) noexcept { epoch_ = v; }
  void setIncarnation(std::uint64_t v) noexcept { incarnation_ = v; }
  void setSeq(std::uint64_t v) {
    expectFromSession();
    seq_ = v;
  }
  void setCmdSeq(std::uint64_t v) {
    expectCommand();
    cmdSeq_ = v;
  }
  void setArbiterIncarnation(std::uint64_t v) {
    expectCommand();
    arbiterInc_ = v;
  }

  // ---- Payload -----------------------------------------------------------
  /// Fraction of the phase done (Inform, Release, PauseAck, Heartbeat);
  /// nullopt when the sender reported none.
  [[nodiscard]] std::optional<double> progress() const {
    expectProgress();
    return hasProgress_ ? std::optional<double>(progress_) : std::nullopt;
  }
  /// Stores `wireRound(p)`.
  void setProgress(double p) {
    expectProgress();
    hasProgress_ = true;
    progress_ = wireRound(p);
  }
  /// The sender's protocol state (Inform, Heartbeat).
  [[nodiscard]] SessionState sessionState() const {
    expectState();
    return state_;
  }
  void setSessionState(SessionState s) {
    expectState();
    state_ = s;
  }
  /// The phase's I/O descriptor (Inform only).
  [[nodiscard]] const IoDescriptor& descriptor() const {
    CALCIOM_EXPECTS(type_ == MessageType::Inform);
    return desc_;
  }

 private:
  explicit Message(MessageType t) noexcept : type_(t) {}
  // Each check throws PreconditionError naming the failed tag test.
  void expectFromSession() const { CALCIOM_EXPECTS(fromSession(type_)); }
  void expectCommand() const { CALCIOM_EXPECTS(!fromSession(type_)); }
  void expectProgress() const {
    CALCIOM_EXPECTS(type_ == MessageType::Inform ||
                    type_ == MessageType::Release ||
                    type_ == MessageType::PauseAck ||
                    type_ == MessageType::Heartbeat);
  }
  void expectState() const {
    CALCIOM_EXPECTS(type_ == MessageType::Inform ||
                    type_ == MessageType::Heartbeat);
  }

  MessageType type_;
  SessionState state_ = SessionState::None;
  bool hasProgress_ = false;
  double progress_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t incarnation_ = 0;
  std::uint64_t cmdSeq_ = 0;
  std::uint64_t arbiterInc_ = 0;
  IoDescriptor desc_;
};

/// Coordination endpoints, addressed by value: the arbiter, or one
/// application by id. Naming a port is free; `mpi::PortRegistry` keys its
/// handlers by it.
namespace msg {
struct PortId {
  /// The application's id; 0 for the arbiter's port.
  std::uint32_t app = 0;
  bool arbiter = false;
  friend constexpr bool operator==(PortId, PortId) noexcept = default;
};

[[nodiscard]] constexpr PortId arbiterPort() noexcept {
  return {.app = 0, .arbiter = true};
}
[[nodiscard]] constexpr PortId appPort(std::uint32_t appId) noexcept {
  return {.app = appId, .arbiter = false};
}
}  // namespace msg

}  // namespace calciom::core
