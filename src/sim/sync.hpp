#pragma once

/// \file sync.hpp
/// Coroutine synchronization primitives for the discrete-event engine:
///
///  * Trigger — one-shot event; awaiting a fired trigger resumes immediately.
///  * Gate    — reusable open/closed barrier (used to pause/resume an
///              application at a CALCioM hook point).
///  * Latch   — countdown latch (used to join a set of parallel flows).
///
/// All primitives resume waiters inline when signalled, in FIFO registration
/// order, which keeps the engine deterministic. None of them are thread-safe:
/// the whole simulation is single-threaded by design.

#include <coroutine>
#include <cstddef>
#include <vector>

#include "sim/contracts.hpp"

namespace calciom::sim {

namespace detail {
/// FIFO list of suspended coroutines that holds its first waiter inline and
/// uses the vector only from the second waiter on, so the common case — one
/// task joining a child, one session parked at its gate — allocates nothing.
class WaiterList {
 public:
  void push(std::coroutine_handle<> h) {
    if (!first_) {
      first_ = h;
    } else {
      rest_.push_back(h);
    }
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return (first_ ? 1 : 0) + rest_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return !first_; }
  /// Resumes every current waiter in registration order. The list is
  /// emptied first: a resumed coroutine may register again (it joins the
  /// next release, not this one) or destroy the list's owner, so no member
  /// is touched after the first resume.
  void resumeAll();

 private:
  std::coroutine_handle<> first_;
  std::vector<std::coroutine_handle<>> rest_;
};
}  // namespace detail

/// One-shot event. Multiple coroutines may `co_await` the same trigger; all
/// are resumed (in registration order) when `fire()` is called. Awaiting an
/// already-fired trigger does not suspend.
class Trigger {
 public:
  Trigger() = default;
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  /// Signals the event and resumes all current waiters. Idempotent.
  void fire();

  [[nodiscard]] bool fired() const noexcept { return fired_; }
  [[nodiscard]] std::size_t waiterCount() const noexcept {
    return waiters_.size();
  }

  struct Awaiter {
    Trigger& trigger;
    [[nodiscard]] bool await_ready() const noexcept { return trigger.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      trigger.waiters_.push(h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter operator co_await() noexcept { return Awaiter{*this}; }

 private:
  bool fired_ = false;
  detail::WaiterList waiters_;
};

/// Reusable open/closed barrier. `co_await gate` passes through when the gate
/// is open and suspends while it is closed; `open()` releases every coroutine
/// waiting at that moment. This is the mechanism behind CALCioM's
/// pause/resume of an interrupted application.
class Gate {
 public:
  explicit Gate(bool open = true) : open_(open) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  /// Opens the gate and resumes all coroutines currently waiting.
  void open();
  /// Closes the gate; subsequent awaits will suspend.
  void close() noexcept { open_ = false; }

  [[nodiscard]] bool isOpen() const noexcept { return open_; }
  [[nodiscard]] std::size_t waiterCount() const noexcept {
    return waiters_.size();
  }

  struct Awaiter {
    Gate& gate;
    [[nodiscard]] bool await_ready() const noexcept { return gate.open_; }
    void await_suspend(std::coroutine_handle<> h) { gate.waiters_.push(h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter operator co_await() noexcept { return Awaiter{*this}; }

 private:
  bool open_;
  detail::WaiterList waiters_;
};

/// Countdown latch: constructed with an expected count, `arrive()` decrements
/// it, and awaiting coroutines resume once the count reaches zero. Used to
/// join a fan-out of parallel transfers. The count may be increased before
/// any waiter has been released via `add()`.
class Latch {
 public:
  explicit Latch(std::size_t count) : count_(count) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// Registers `n` additional expected arrivals. Only valid while the latch
  /// has not yet released its waiters.
  void add(std::size_t n);

  /// Records one arrival; releases all waiters when the count hits zero.
  void arrive();

  [[nodiscard]] std::size_t pending() const noexcept { return count_; }
  [[nodiscard]] bool done() const noexcept { return count_ == 0; }

  struct Awaiter {
    Latch& latch;
    [[nodiscard]] bool await_ready() const noexcept {
      return latch.count_ == 0;
    }
    void await_suspend(std::coroutine_handle<> h) { latch.waiters_.push(h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter operator co_await() noexcept { return Awaiter{*this}; }

 private:
  std::size_t count_;
  detail::WaiterList waiters_;
};

}  // namespace calciom::sim
