#pragma once

/// \file timestamp_index.hpp
/// Flat open-addressing map from a simulated timestamp to a 32-bit value
/// (the engine's bucket number). Keys are the IEEE-754 bit patterns of the
/// times, with -0.0 folded into +0.0 so that the two zeros, which compare
/// equal, share one entry. Linear probing over a power-of-two table kept at
/// most half full; erase shifts the following run back instead of leaving
/// tombstones, so lookups never degrade under insert/erase churn and the
/// table only grows with the number of live keys. The map is looked up, never
/// iterated, so its layout cannot leak into simulated state (rule 4 in
/// README.md).

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/time.hpp"

namespace calciom::sim {

class TimestampIndex {
 public:
  /// Returned by find() for an absent key; never a storable value.
  static constexpr std::uint32_t kNone = UINT32_MAX;
  /// Table size of the first insert; small, since most engines hold few
  /// distinct times and set-up touches every slot.
  static constexpr std::size_t kFirstCapacity = 4;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// The value stored for `t`, or kNone.
  [[nodiscard]] std::uint32_t find(Time t) const noexcept {
    if (size_ == 0) {
      return kNone;
    }
    const std::uint64_t key = keyOf(t);
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.value == kNone || s.key == key) {
        return s.value;
      }
    }
  }

  /// Maps `t` to `value`; `t` must be absent.
  void insert(Time t, std::uint32_t value) {
    CALCIOM_EXPECTS(value != kNone);
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
    }
    place(keyOf(t), value);
    ++size_;
  }

  /// Removes `t`, which must be present.
  void erase(Time t) noexcept {
    const std::uint64_t key = keyOf(t);
    std::size_t hole = home(key);
    while (slots_[hole].key != key || slots_[hole].value == kNone) {
      hole = (hole + 1) & mask();
    }
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home lies cyclically inside (hole, j], where it must stay.
    for (std::size_t j = (hole + 1) & mask(); slots_[j].value != kNone;
         j = (j + 1) & mask()) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kNone;
    --size_;
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint32_t value;
  };

  static std::uint64_t keyOf(Time t) noexcept {
    return t == 0.0 ? 0 : std::bit_cast<std::uint64_t>(t);
  }
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    // Fold the exponent and high mantissa bits (where round times differ)
    // into the low half, then take the top bits of a Fibonacci product.
    key ^= key >> 32;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void place(std::uint64_t key, std::uint32_t value) noexcept {
    std::size_t i = home(key);
    while (slots_[i].value != kNone) {
      i = (i + 1) & mask();
    }
    slots_[i] = Slot{key, value};
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? kFirstCapacity : 2 * old.size();
    slots_.assign(cap, Slot{0, kNone});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (const Slot& s : old) {
      if (s.value != kNone) {
        place(s.key, s.value);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace calciom::sim
