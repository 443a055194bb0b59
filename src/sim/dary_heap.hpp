#pragma once

/// \file dary_heap.hpp
/// Flat d-ary min-heap. Compared to the binary std::push_heap/std::pop_heap
/// pair, a 4-ary layout halves the tree depth and avoids the libstdc++
/// pop-heap idiom of moving the displaced element through the whole tree.
/// The engine keeps 16-byte `{time, bucket}` nodes here, one per distinct
/// pending timestamp, so a node's four children span one 64-byte line's
/// worth of bytes (they straddle two lines unless the buffer happens to be
/// line-aligned); fatter records lose that. The FlowNet completion index
/// uses its own position-tracking variant because its keys live outside the
/// heap.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace calciom::sim {

/// Min-heap: `before(a, b)` means `a` must pop before `b`.
template <class T, class Before, std::size_t Arity = 4>
class DaryHeap {
  static_assert(Arity >= 2);

 public:
  DaryHeap() = default;
  explicit DaryHeap(Before before) : before_(std::move(before)) {}

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  [[nodiscard]] const T& top() const noexcept { return items_.front(); }

  void push(T value) {
    items_.push_back(std::move(value));
    siftUp(items_.size() - 1);
  }

  T pop() {
    T out = std::move(items_.front());
    if (items_.size() > 1) {
      items_.front() = std::move(items_.back());
      items_.pop_back();
      siftDown(0);
    } else {
      items_.pop_back();
    }
    return out;
  }

 private:
  void siftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!before_(items_[i], items_[parent])) {
        break;
      }
      std::swap(items_[i], items_[parent]);
      i = parent;
    }
  }

  void siftDown(std::size_t i) {
    const std::size_t n = items_.size();
    for (;;) {
      const std::size_t first = i * Arity + 1;
      if (first >= n) {
        break;
      }
      std::size_t best = first;
      const std::size_t last = std::min(first + Arity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before_(items_[c], items_[best])) {
          best = c;
        }
      }
      if (!before_(items_[best], items_[i])) {
        break;
      }
      std::swap(items_[i], items_[best]);
      i = best;
    }
  }

  std::vector<T> items_;
  Before before_;
};

}  // namespace calciom::sim
