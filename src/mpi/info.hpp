#pragma once

/// \file info.hpp
/// MPI_Info-style string key/value dictionary. The paper's CALCioM API is
/// deliberately generic: applications describe their upcoming I/O through an
/// MPI_Info handed to Prepare(). We mirror that: `Session::prepare()` takes
/// Info hints, and `IoDescriptor::toInfo`/`fromInfo` map a descriptor to and
/// from them. Coordination messages themselves travel typed
/// (calciom/wire.hpp), so Info is read once per phase, not per message.
///
/// Storage is flat: one contiguous text buffer holding every entry as
/// `key\0value\0`, plus one index of (offset, length) records kept sorted
/// by key. A lookup is a binary search over `std::string_view` keys with no
/// temporary strings.
///
/// Numbers are rendered exactly as `std::to_string` renders them: decimal
/// integers, and doubles as printf's `%f` (six decimals), so 1/3 is stored
/// as "0.333333". Numeric reads are `strtoll`/`strtod` (C locale) on the
/// stored, NUL-terminated text.

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
  /// strtoll / strtod on the stored text: nullopt when the key is absent,
  /// no digit was consumed, or the value is out of range. Trailing garbage
  /// after a number ("12abc") is ignored, as strtoll does.
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
