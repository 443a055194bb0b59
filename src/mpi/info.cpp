#include "mpi/info.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <functional>

namespace calciom::mpi {

std::vector<Info::Entry>::const_iterator Info::lowerBound(
    std::string_view key) const noexcept {
  return std::lower_bound(
      index_.begin(), index_.end(), key,
      [this](const Entry& e, std::string_view k) { return keyOf(e) < k; });
}

const Info::Entry* Info::entry(std::string_view key) const noexcept {
  const auto it = lowerBound(key);
  if (it == index_.end() || keyOf(*it) != key) {
    return nullptr;
  }
  return &*it;
}

std::optional<std::string_view> Info::find(
    std::string_view key) const noexcept {
  const Entry* e = entry(key);
  if (e == nullptr) {
    return std::nullopt;
  }
  return valueOf(*e);
}

void Info::shiftAfter(std::uint32_t pos, std::int64_t delta) noexcept {
  for (Entry& e : index_) {
    if (e.off > pos) {
      e.off = static_cast<std::uint32_t>(e.off + delta);
    }
  }
}

void Info::set(std::string_view key, std::string_view value) {
  // A key or value viewing this Info's own buffer would dangle once the
  // buffer grows: copy it out first (rare — only self-referential sets).
  const auto inBuffer = [this](std::string_view s) {
    const std::less<const char*> lt;
    return !s.empty() && !lt(s.data(), text_.data()) &&
           lt(s.data(), text_.data() + text_.size());
  };
  if (inBuffer(key) || inBuffer(value)) {
    const std::string k(key);
    const std::string v(value);
    set(k, v);
    return;
  }
  const auto pos = static_cast<std::size_t>(lowerBound(key) - index_.begin());
  if (pos < index_.size() && keyOf(index_[pos]) == key) {
    // Overwrite in place; entries stored after this one move by the
    // length difference, so the buffer never holds dead bytes.
    Entry& e = index_[pos];
    const std::uint32_t valPos = e.off + e.keyLen + 1;
    const auto delta = static_cast<std::int64_t>(value.size()) -
                       static_cast<std::int64_t>(e.valLen);
    text_.replace(valPos, e.valLen, value);
    e.valLen = static_cast<std::uint32_t>(value.size());
    if (delta != 0) {
      shiftAfter(valPos, delta);
    }
    return;
  }
  const Entry e{static_cast<std::uint32_t>(text_.size()),
                static_cast<std::uint32_t>(key.size()),
                static_cast<std::uint32_t>(value.size())};
  text_.append(key);
  text_.push_back('\0');
  text_.append(value);
  text_.push_back('\0');
  index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(pos), e);
}

void Info::setInt(std::string_view key, std::int64_t v) {
  char buf[24];  // "-9223372036854775808" is 20 characters
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  set(key, std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

void Info::setDouble(std::string_view key, double v) {
  // Fixed notation with precision 6 is printf's "%f", which is what
  // std::to_string(double) produces. The longest rendering, -DBL_MAX, is
  // 317 characters.
  char buf[328];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 6);
  set(key, std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

std::optional<std::int64_t> Info::getInt(std::string_view key) const {
  const Entry* e = entry(key);
  if (e == nullptr) {
    return std::nullopt;
  }
  const char* text = valueText(*e);
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(parsed);
}

std::optional<double> Info::getDouble(std::string_view key) const {
  const Entry* e = entry(key);
  if (e == nullptr) {
    return std::nullopt;
  }
  const char* text = valueText(*e);
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || errno == ERANGE) {
    return std::nullopt;
  }
  return parsed;
}

void Info::erase(std::string_view key) {
  const auto it = lowerBound(key);
  if (it == index_.end() || keyOf(*it) != key) {
    return;
  }
  const std::uint32_t off = it->off;
  const std::uint32_t len = it->keyLen + it->valLen + 2;
  text_.erase(off, len);
  index_.erase(it);
  shiftAfter(off, -static_cast<std::int64_t>(len));
}

std::vector<std::string> Info::keys() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const Entry& e : index_) {
    out.emplace_back(keyOf(e));
  }
  return out;
}

void Info::merge(const Info& other) {
  for (const Entry& e : other.index_) {
    set(other.keyOf(e), other.valueOf(e));
  }
}

bool Info::operator==(const Info& other) const noexcept {
  return std::equal(index_.begin(), index_.end(), other.index_.begin(),
                    other.index_.end(),
                    [this, &other](const Entry& a, const Entry& b) {
                      return keyOf(a) == other.keyOf(b) &&
                             valueOf(a) == other.valueOf(b);
                    });
}

}  // namespace calciom::mpi
