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
///   co_await engine.spawn(sub()) // join a child task (its JoinHandle)
///
/// Frames and completion records come from engine-owned pools
/// (`detail::BlockPool`): a frame created inside an event loop takes a
/// recycled block of that engine, and every spawn takes a recycled
/// completion record, so a warm engine spawns and joins tasks without
/// touching the heap.

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

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

/// Awaits a Trigger held by shared_ptr (e.g. a FlowNet completion), keeping
/// the trigger alive for the duration of the suspension.
struct SharedTriggerAwaiter {
  std::shared_ptr<Trigger> trigger;
  [[nodiscard]] bool await_ready() const noexcept { return trigger->fired(); }
  void await_suspend(std::coroutine_handle<> h) const {
    Trigger::Awaiter{*trigger}.await_suspend(h);
  }
  void await_resume() const noexcept {}
};

/// Recycled memory of one engine, in size classes of `kGranule` bytes.
/// Blocks are carved from chunks the pool owns and, once free, kept on one
/// LIFO list per class. Every block ends with the address of its pool
/// (null for a block that came straight from the heap), so it always goes
/// back where it came from. An engine owns two: one for task frames, one
/// for completion records.
///
/// Blocks return to a pool from its engine's own loop, from outside any
/// loop (setup and barrier code, when no loop touches the pool) or after
/// the engine closed it; never from another engine's loop, which would race
/// that engine's thread (CALCIOM_SHARD_CHECKS builds trap it). A pool
/// outlives its engine while blocks are still out — a JoinHandle kept past
/// the engine, an unspawned Task created in its loop — and frees its chunks
/// when the last one comes back. Under AddressSanitizer, free blocks are
/// poisoned.
class BlockPool {
 public:
  static constexpr std::size_t kGranule = 16;
  /// Blocks of up to kClasses * kGranule bytes, trailing pool address
  /// included, are pooled; larger ones come from the heap.
  static constexpr std::size_t kClasses = 64;

  /// Closes a pool (see close()); the deleter of the engine's owning
  /// pointers.
  struct Close {
    void operator()(BlockPool* pool) const noexcept { pool->close(); }
  };
  using Owner = std::unique_ptr<BlockPool, Close>;

  [[nodiscard]] static Owner open(const Engine* owner);
  /// Stops recycling: the pool deletes itself, chunks and all, once no
  /// block is out.
  void close() noexcept;

  /// `n` bytes from `pool`, or from the heap when `pool` is null or `n` is
  /// too large for a size class.
  [[nodiscard]] static void* allocate(BlockPool* pool, std::size_t n);
  /// Returns a block of `n` bytes to the pool it came from.
  static void deallocate(void* p, std::size_t n) noexcept;

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

 private:
  static constexpr std::size_t kChunkBytes = 16384;
  struct FreeBlock {
    FreeBlock* next;
  };

  explicit BlockPool(const Engine* owner) noexcept : owner_(owner) {}
  ~BlockPool();
  /// A never-used block of `bytes` from the current chunk (or a new one).
  void* carve(std::size_t bytes);

  const Engine* owner_;  // null once closed
  std::size_t outstanding_ = 0;
  std::array<FreeBlock*, kClasses> free_{};
  std::vector<void*> chunks_;
  char* carve_ = nullptr;  // unused tail of the last chunk
  char* carveEnd_ = nullptr;
};

/// A spawned task's completion: its one-shot trigger and the number of
/// holders (the running task, each JoinHandle). The record lives in a block
/// of the spawning engine's completion pool; when the count reaches zero
/// it is destroyed in place and its block goes back to the pool, where the
/// next spawn re-arms it.
struct Completion {
  Trigger trigger;
  std::uint32_t refs = 1;
};

/// Drops one reference to `c`; the last one returns its block.
void release(Completion* c) noexcept;

struct JoinAwaiter;
}  // namespace detail

/// A counted reference to a spawned task's completion, returned by
/// `Engine::spawn`. `co_await`-ing it inside a task waits for the task's
/// body to return (or throw); it may also be discarded, kept and copied.
/// A handle may outlive its engine: it keeps its record (and the pool that
/// holds it) alive, and `fired()` still reports whether the task finished
/// before the engine went away. Like the engine, handles are not
/// thread-safe: copy and drop them in the spawning engine's loop or outside
/// any loop.
class JoinHandle {
 public:
  JoinHandle() noexcept = default;
  JoinHandle(const JoinHandle& other) noexcept : rec_(other.rec_) {
    if (rec_ != nullptr) {
      ++rec_->refs;
    }
  }
  JoinHandle(JoinHandle&& other) noexcept
      : rec_(std::exchange(other.rec_, nullptr)) {}
  JoinHandle& operator=(JoinHandle other) noexcept {
    std::swap(rec_, other.rec_);
    return *this;
  }
  ~JoinHandle() {
    if (rec_ != nullptr) {
      detail::release(rec_);
    }
  }

  /// True if this handle refers to a spawned task.
  [[nodiscard]] bool valid() const noexcept { return rec_ != nullptr; }
  /// True once the task's body has finished. A task still suspended when
  /// its engine was destroyed never fires. Requires valid().
  [[nodiscard]] bool fired() const noexcept { return rec_->trigger.fired(); }

 private:
  friend class Engine;
  friend struct detail::JoinAwaiter;
  /// Adopts one reference held by the caller.
  explicit JoinHandle(detail::Completion* rec) noexcept : rec_(rec) {}

  detail::Completion* rec_ = nullptr;
};

/// Awaits a JoinHandle, holding it (and with it the record) for the
/// duration of the suspension.
struct detail::JoinAwaiter {
  JoinHandle join;
  [[nodiscard]] bool await_ready() const noexcept { return join.fired(); }
  void await_suspend(std::coroutine_handle<> h) const {
    Trigger::Awaiter{join.rec_->trigger}.await_suspend(h);
  }
  void await_resume() const noexcept {}
};

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
  /// The engine the task was spawned on.
  Engine* engine = nullptr;
  /// Set by Engine::spawn; the task's own reference, dropped when the body
  /// finishes or the frame is destroyed.
  detail::Completion* done = nullptr;
  /// Links of the engine's live-task list (see Engine::spawn): threaded
  /// through the frame, so tracking a spawned task allocates nothing.
  promise_type* livePrev = nullptr;
  promise_type* liveNext = nullptr;

#if defined(CALCIOM_SHARD_CHECKS)
  /// Notes the engine whose loop creates the frame (null outside any loop)
  /// in `engine`, for spawn to check.
  promise_type() noexcept;
#else
  promise_type() noexcept = default;
#endif
  promise_type(const promise_type&) = delete;
  promise_type& operator=(const promise_type&) = delete;
  ~promise_type() {
    if (done != nullptr) {
      detail::release(done);
    }
  }

  /// Frames created inside an event loop come from that engine's frame
  /// pool, frames created outside any loop from the heap.
  static void* operator new(std::size_t n);
  static void operator delete(void* p, std::size_t n) noexcept {
    detail::BlockPool::deallocate(p, n);
  }

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
  detail::JoinAwaiter await_transform(JoinHandle j) noexcept {
    return detail::JoinAwaiter{std::move(j)};
  }
  template <class Awaitable>
  decltype(auto) await_transform(Awaitable&& a) noexcept {
    return std::forward<Awaitable>(a);
  }
};

}  // namespace calciom::sim
