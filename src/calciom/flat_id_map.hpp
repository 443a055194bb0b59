#pragma once

/// \file flat_id_map.hpp
/// Sorted flat table keyed by application id: one vector of (id, value)
/// pairs in ascending id order, looked up by binary search. Built for the
/// arbiter's per-app paths, where a month-scale replay keeps ~15k records
/// and looks one up per message: no node per record, no pointer chase per
/// lookup. Ids mostly arrive in ascending order (job ids), so inserting a
/// new largest id is an append.
///
/// Iteration is in ascending id order, as with std::map, so every walk
/// that feeds decisions or serialized state (lease sweeps, snapshots) has a
/// deterministic order. Unlike std::map, an insert or erase may move every
/// value: a reference or pointer into the table is valid only until the
/// next insert or erase.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/contracts.hpp"

namespace calciom::core {

template <class V>
class FlatIdMap {
 public:
  using Entry = std::pair<std::uint32_t, V>;
  using iterator = typename std::vector<Entry>::iterator;
  using const_iterator = typename std::vector<Entry>::const_iterator;

  /// The value stored under `id`, or nullptr.
  [[nodiscard]] V* find(std::uint32_t id) noexcept {
    const auto it = lowerBound(id);
    return it != entries_.end() && it->first == id ? &it->second : nullptr;
  }
  [[nodiscard]] const V* find(std::uint32_t id) const noexcept {
    return const_cast<FlatIdMap*>(this)->find(id);
  }
  [[nodiscard]] bool contains(std::uint32_t id) const noexcept {
    return find(id) != nullptr;
  }
  /// The value stored under `id`, which must be present.
  [[nodiscard]] V& at(std::uint32_t id) {
    V* v = find(id);
    CALCIOM_EXPECTS(v != nullptr);
    return *v;
  }
  [[nodiscard]] const V& at(std::uint32_t id) const {
    return const_cast<FlatIdMap*>(this)->at(id);
  }

  /// The value stored under `id`, value-initialized first if absent
  /// (std::map::operator[]). May move every other value.
  V& upsert(std::uint32_t id) {
    if (entries_.empty() || entries_.back().first < id) {
      return entries_.emplace_back(id, V{}).second;
    }
    const auto it = lowerBound(id);
    if (it != entries_.end() && it->first == id) {
      return it->second;
    }
    return entries_.emplace(it, id, V{})->second;
  }

  /// Removes `id` if present. May move every value stored after it.
  void erase(std::uint32_t id) {
    const auto it = lowerBound(id);
    if (it != entries_.end() && it->first == id) {
      entries_.erase(it);
    }
  }

  void clear() noexcept { entries_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return entries_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

 private:
  [[nodiscard]] iterator lowerBound(std::uint32_t id) noexcept {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const Entry& e, std::uint32_t key) { return e.first < key; });
  }

  std::vector<Entry> entries_;
};

}  // namespace calciom::core
