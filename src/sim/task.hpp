#pragma once

/// \file task.hpp
/// The coroutine task type used for every simulated activity (applications,
/// coordinators, storage monitors). A `Task` is an eagerly-created,
/// lazily-started coroutine: building one allocates the frame but runs no
/// body code; `Engine::spawn` takes ownership and schedules the first resume
/// as an event at the current simulated time.
///
/// Inside a task:
///   co_await Delay{dt};          // advance simulated time by dt seconds
///   co_await trigger;            // wait for a one-shot event (Trigger&)
///   co_await gate;               // pass when a Gate is open
///   co_await latch;              // wait for a countdown Latch
///   co_await engine.spawn(sub()) // join a child task (shared Trigger)

#include <coroutine>
#include <memory>
#include <utility>

#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace calciom::sim {

class Engine;

/// Awaitable that advances the awaiting task's simulated clock by `dt`
/// seconds. Negative values are clamped to zero; a zero delay still yields
/// through the event queue, which gives deterministic FIFO interleaving.
struct Delay {
  Time dt;
};

namespace detail {
struct DelayAwaiter {
  Engine* engine;
  Time dt;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const;
  void await_resume() const noexcept {}
};

/// Awaits a Trigger held by shared_ptr (e.g. a task's completion), keeping
/// the trigger alive for the duration of the suspension.
struct SharedTriggerAwaiter {
  std::shared_ptr<Trigger> trigger;
  [[nodiscard]] bool await_ready() const noexcept { return trigger->fired(); }
  void await_suspend(std::coroutine_handle<> h) const {
    Trigger::Awaiter{*trigger}.await_suspend(h);
  }
  void await_resume() const noexcept {}
};
}  // namespace detail

/// Move-only owner of a not-yet-started simulation coroutine. Ownership
/// transfers to the Engine on spawn; a Task that is destroyed without being
/// spawned releases its frame without running the body.
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept;
  ~Task();

  /// True if this object still owns a coroutine frame.
  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }

 private:
  friend class Engine;
  /// Transfers the frame out (used by Engine::spawn).
  [[nodiscard]] Handle release() noexcept {
    return std::exchange(handle_, {});
  }

  Handle handle_{};
};

struct Task::promise_type {
  Engine* engine = nullptr;
  std::shared_ptr<Trigger> done = std::make_shared<Trigger>();
  /// Links of the engine's live-task list (see Engine::spawn): threaded
  /// through the frame, so tracking a spawned task allocates nothing.
  promise_type* livePrev = nullptr;
  promise_type* liveNext = nullptr;

  Task get_return_object() noexcept {
    return Task{Handle::from_promise(*this)};
  }
  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(Handle h) const noexcept;
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void return_void() noexcept {}
  void unhandled_exception() noexcept;

  detail::DelayAwaiter await_transform(Delay d) noexcept;
  detail::SharedTriggerAwaiter await_transform(
      std::shared_ptr<Trigger> t) noexcept {
    return detail::SharedTriggerAwaiter{std::move(t)};
  }
  template <class Awaitable>
  decltype(auto) await_transform(Awaitable&& a) noexcept {
    return std::forward<Awaitable>(a);
  }
};

}  // namespace calciom::sim
