#pragma once

/// \file info.hpp
/// MPI_Info-style string key/value dictionary. The paper's CALCioM API is
/// deliberately generic: applications describe their upcoming I/O through an
/// MPI_Info handed to Prepare(). We mirror that: descriptors exchanged
/// between applications are serialized to/from Info objects.
///
/// Storage is flat: one contiguous text buffer holding every entry as
/// `key\0value\0`, plus one index of (offset, length) records kept sorted
/// by key. A payload therefore costs two heap blocks whatever its entry
/// count, copying it costs two allocations, and a lookup is a binary
/// search over `std::string_view` keys with no temporary strings. The first
/// insert reserves both blocks at a size that holds a whole command or
/// progress payload, so building one allocates exactly twice.
///
/// Numeric reads parse the stored, NUL-terminated text in place. Their
/// contract is `strtoll`/`strtod` (C locale), but plain decimal text — an
/// optional '-' then digits, which is what setInt/setDouble write for every
/// finite value — is read by `std::from_chars` instead, several times
/// cheaper. The fast path is taken only where it provably returns what the
/// strtoll/strtod code would: the text starts with '-' or a digit (so no
/// whitespace, '+', hex, inf or nan); for doubles the whole value is
/// consumed, and the result is a normal number or a zero whose mantissa
/// digits are all zero. Both parsers round correctly, so they agree on such
/// text; everything else — overflow, underflow, subnormals, trailing text
/// after a double — falls back to the strtoll/strtod code unchanged, which
/// owns every ERANGE answer. tests/mpi_test.cpp holds the two paths to
/// each other.
///
/// Numbers are rendered exactly as `std::to_string` renders them: decimal
/// integers, and doubles as printf's `%f` (six decimals). That rendering
/// is lossy — 1/3 travels as "0.333333" and values below 5e-7 as
/// "0.000000" — and every decision fingerprint depends on it, because the
/// arbiter decides on the values it parses back. Switching to a
/// round-trip format (e.g. shortest `std::to_chars`) would move every
/// pinned fingerprint, so it has to be its own, deliberate change.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace calciom::mpi {

class Info {
 public:
  Info() = default;

  void set(std::string_view key, std::string_view value);
  void setInt(std::string_view key, std::int64_t v);
  void setDouble(std::string_view key, double v);

  /// The stored value, or nullopt when `key` is absent. Does not allocate;
  /// the view is invalidated by the next mutation of this Info.
  [[nodiscard]] std::optional<std::string_view> find(
      std::string_view key) const noexcept;

  /// An owning copy of the stored value (use find() to avoid the copy).
  [[nodiscard]] std::optional<std::string> get(std::string_view key) const {
    const auto v = find(key);
    if (!v) {
      return std::nullopt;
    }
    return std::string(*v);
  }
  /// strtoll / strtod on the stored text (with the exact from_chars fast
  /// path of the file comment): nullopt when the key is absent, no digit
  /// was consumed, or the value is out of range. Trailing garbage after a
  /// number ("12abc") is ignored, as strtoll does.
  [[nodiscard]] std::optional<std::int64_t> getInt(
      std::string_view key) const;
  [[nodiscard]] std::optional<double> getDouble(std::string_view key) const;

  /// Value access with a fallback, for optional descriptor fields.
  [[nodiscard]] std::int64_t getIntOr(std::string_view key,
                                      std::int64_t fallback) const {
    const auto v = getInt(key);
    return v ? *v : fallback;
  }
  [[nodiscard]] double getDoubleOr(std::string_view key,
                                   double fallback) const {
    const auto v = getDouble(key);
    return v ? *v : fallback;
  }

  [[nodiscard]] bool has(std::string_view key) const noexcept {
    return find(key).has_value();
  }
  void erase(std::string_view key);
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] bool empty() const noexcept { return index_.empty(); }
  /// Every key in ascending byte order (deterministic).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Merges `other` into this (other's values win on conflict).
  void merge(const Info& other);

  /// Structural: the same keys with the same values, however either
  /// buffer was built.
  bool operator==(const Info& other) const noexcept;

 private:
  /// One entry: the key at `text_[off, off+keyLen)`, a NUL, then the value
  /// at `text_[off+keyLen+1, ... +valLen)`, then a NUL.
  struct Entry {
    std::uint32_t off = 0;
    std::uint32_t keyLen = 0;
    std::uint32_t valLen = 0;
  };

  [[nodiscard]] std::string_view keyOf(const Entry& e) const noexcept {
    return {text_.data() + e.off, e.keyLen};
  }
  [[nodiscard]] std::string_view valueOf(const Entry& e) const noexcept {
    return {text_.data() + e.off + e.keyLen + 1, e.valLen};
  }
  /// First-insert capacity of the two blocks: a Grant, Release, PauseAck or
  /// Complete payload (at most six entries, ~100 bytes of text) is built
  /// without regrowth.
  static constexpr std::size_t kReservedEntries = 6;
  static constexpr std::size_t kReservedText = 128;

  [[nodiscard]] const char* valueText(const Entry& e) const noexcept {
    return text_.data() + e.off + e.keyLen + 1;
  }
  /// First entry whose key is not less than `key`.
  [[nodiscard]] std::vector<Entry>::const_iterator lowerBound(
      std::string_view key) const noexcept;
  [[nodiscard]] const Entry* entry(std::string_view key) const noexcept;
  /// Shifts the offsets of entries stored after text position `pos`.
  void shiftAfter(std::uint32_t pos, std::int64_t delta) noexcept;

  std::vector<Entry> index_;  // sorted by key => deterministic order
  std::string text_;
};

}  // namespace calciom::mpi
