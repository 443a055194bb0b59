#include "calciom/wire.hpp"

#include <charconv>
#include <utility>

namespace calciom::core {

double wireRound(double v) noexcept {
  // Fixed notation with precision 6 is printf's "%f", which is what
  // std::to_string(double) produced for the text wire. The longest
  // rendering, -DBL_MAX, is 317 characters. from_chars rounds correctly,
  // as strtod does, so both read the text back to the same double
  // (tests/calciom_wire_test.cpp holds wireRound to std::to_string and
  // strtod bit for bit).
  char buf[328];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 6).ptr;
  double back = 0.0;
  std::from_chars(buf, end, back);
  return back;
}

Message Message::inform(IoDescriptor desc) {
  Message m(MessageType::Inform);
  desc.estAloneSeconds = wireRound(desc.estAloneSeconds);
  m.desc_ = std::move(desc);
  return m;
}

Message Message::release(std::optional<double> progress) {
  Message m(MessageType::Release);
  if (progress) {
    m.setProgress(*progress);
  }
  return m;
}

Message Message::pauseAck(std::optional<double> progress) {
  Message m(MessageType::PauseAck);
  if (progress) {
    m.setProgress(*progress);
  }
  return m;
}

Message Message::heartbeat(std::optional<double> progress,
                           SessionState state) {
  Message m(MessageType::Heartbeat);
  if (progress) {
    m.setProgress(*progress);
  }
  m.state_ = state;
  return m;
}

Message Message::command(MessageType type) {
  Message m(type);
  m.expectCommand();
  return m;
}

namespace msg {
AppPort::AppPort(std::uint32_t appId) noexcept {
  constexpr std::string_view prefix = "calciom/app/";
  prefix.copy(buf_, prefix.size());
  const auto end =
      std::to_chars(buf_ + prefix.size(), buf_ + sizeof buf_, appId).ptr;
  len_ = static_cast<std::uint8_t>(end - buf_);
}
}  // namespace msg

}  // namespace calciom::core
