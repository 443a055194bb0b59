#pragma once

/// \file fingerprint.hpp
/// The one FNV-1a fold of the repository. Every pinned determinism
/// fingerprint — the perf benches', the chaos campaigns', the crash/restart
/// hashes of the wire tests — is a Fingerprint over what the run decided.

#include <bit>
#include <cstdint>
#include <string_view>

namespace calciom::sim {

/// FNV-1a over 64-bit words. Folding the bytes of a string one word at a
/// time is byte-wise FNV-1a, so foldString() matches the published test
/// vectors. Fold only what is deterministic — never a wall or cpu column.
class Fingerprint {
 public:
  void fold(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= 0x100000001B3ULL;
  }
  void foldBits(double v) noexcept { fold(std::bit_cast<std::uint64_t>(v)); }
  void foldString(std::string_view s) noexcept {
    for (const char c : s) {
      fold(static_cast<unsigned char>(c));
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace calciom::sim
