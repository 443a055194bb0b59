#include "calciom/wire.hpp"

#include <charconv>
#include <cmath>
#include <utility>

namespace calciom::core {

double wireRound(double v) noexcept {
  const double a = std::fabs(v);
  if (a < kWireRoundArithmeticLimit) {  // false for NaN
    // The text is the exact a·10^6 rounded half-to-even to an integer n,
    // read back as the double nearest n/10^6, which IEEE division returns
    // too. fma recovers the product's rounding error: a·10^6 = p + err.
    constexpr double kTwo52 = 0x1p52;
    const double p = a * 1e6;
    const double err = std::fma(a, 1e6, -p);
    // p < 2^52, so adding 2^52 rounds p half-to-even to an integer.
    double n = (p + kTwo52) - kTwo52;
    // p and n are multiples of p's ulp and |err| is at most half of one,
    // so err changes the rounding only where p is a half-integer: there
    // its sign decides, and err == 0 is a true tie n already broke to
    // even. Comparing p with n ± 0.5 (both exact) instead of forming p - n
    // leaves nothing a contracting compiler could fuse with the product.
    if (p == n + 0.5 && err > 0.0) {
      n += 1.0;
    } else if (p == n - 0.5 && err < 0.0) {
      n -= 1.0;
    }
    return std::copysign(n / 1e6, v);
  }
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

}  // namespace calciom::core
