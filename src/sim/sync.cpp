#include "sim/sync.hpp"

#include <utility>

namespace calciom::sim {

void detail::WaiterList::resumeAll() {
  const std::coroutine_handle<> first = std::exchange(first_, {});
  if (!first) {
    return;
  }
  if (rest_.empty()) {
    first.resume();
    return;
  }
  std::vector<std::coroutine_handle<>> rest = std::move(rest_);
  rest_.clear();
  first.resume();
  for (auto h : rest) {
    h.resume();
  }
}

void Trigger::fire() {
  if (fired_) {
    return;
  }
  fired_ = true;
  waiters_.resumeAll();
}

void Gate::open() {
  if (open_) {
    return;
  }
  open_ = true;
  // The gate may be re-closed by an earlier waiter; coroutines released in
  // this batch still pass (they were waiting while it opened).
  waiters_.resumeAll();
}

void Latch::add(std::size_t n) {
  CALCIOM_EXPECTS(count_ > 0 || waiters_.empty());
  count_ += n;
}

void Latch::arrive() {
  CALCIOM_EXPECTS(count_ > 0);
  --count_;
  if (count_ == 0) {
    waiters_.resumeAll();
  }
}

}  // namespace calciom::sim
