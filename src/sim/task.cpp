#include "sim/task.hpp"

#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "sim/engine.hpp"

namespace calciom::sim {

namespace detail {
namespace {
/// Free blocks are poisoned, so a use after free of a recycled frame or
/// completion still trips AddressSanitizer.
void poison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}
void unpoison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

/// Size class of the block holding `n` bytes and the pool address;
/// kClasses or more means a heap block.
constexpr std::size_t classOf(std::size_t n) noexcept {
  return (n + sizeof(BlockPool*) - 1) / BlockPool::kGranule;
}
constexpr std::size_t classBytes(std::size_t c) noexcept {
  return (c + 1) * BlockPool::kGranule;
}
}  // namespace

BlockPool::Owner BlockPool::open(const Engine* owner) {
  return Owner(new BlockPool(owner));
}

BlockPool::~BlockPool() {
  for (void* chunk : chunks_) {
    unpoison(chunk, kChunkBytes);
    ::operator delete(chunk);
  }
}

void BlockPool::close() noexcept {
  owner_ = nullptr;
  if (outstanding_ == 0) {
    delete this;
  }
}

void* BlockPool::carve(std::size_t bytes) {
  if (static_cast<std::size_t>(carveEnd_ - carve_) < bytes) {
    chunks_.reserve(chunks_.size() + 1);  // recording it cannot throw
    carve_ = static_cast<char*>(::operator new(kChunkBytes));
    carveEnd_ = carve_ + kChunkBytes;
    chunks_.push_back(carve_);
  }
  return std::exchange(carve_, carve_ + bytes);
}

void* BlockPool::allocate(BlockPool* pool, std::size_t n) {
  const std::size_t c = classOf(n);
  void* p = nullptr;
  if (pool == nullptr || c >= kClasses) {
    pool = nullptr;
    p = ::operator new(n + sizeof(BlockPool*));
  } else {
    if (FreeBlock* b = pool->free_[c]) {
      unpoison(b, classBytes(c));
      pool->free_[c] = b->next;
      p = b;
    } else {
      p = pool->carve(classBytes(c));
    }
    ++pool->outstanding_;
  }
  std::memcpy(static_cast<char*>(p) + n, &pool, sizeof(pool));
  return p;
}

void BlockPool::deallocate(void* p, std::size_t n) noexcept {
  BlockPool* pool = nullptr;
  std::memcpy(&pool, static_cast<const char*>(p) + n, sizeof(pool));
  if (pool == nullptr) {
    ::operator delete(p);
    return;
  }
#if defined(CALCIOM_SHARD_CHECKS)
  // Reached from destructors, so a violation ends the program with this
  // InvariantError's message rather than corrupting another shard's lists.
  const Engine* cur = Engine::current();
  CALCIOM_ENSURES(pool->owner_ == nullptr || cur == nullptr ||
                  cur == pool->owner_);
#endif
  --pool->outstanding_;
  if (pool->owner_ == nullptr) {
    if (pool->outstanding_ == 0) {
      delete pool;
    }
    return;
  }
  const std::size_t c = classOf(n);
  auto* b = static_cast<FreeBlock*>(p);
  b->next = pool->free_[c];
  pool->free_[c] = b;
  poison(b, classBytes(c));
}

void release(Completion* c) noexcept {
  if (--c->refs == 0) {
    std::destroy_at(c);
    BlockPool::deallocate(c, sizeof(Completion));
  }
}
}  // namespace detail

Task& Task::operator=(Task&& other) noexcept {
  if (this != &other) {
    if (handle_) {
      handle_.destroy();
    }
    handle_ = std::exchange(other.handle_, {});
  }
  return *this;
}

Task::~Task() {
  // Only reached for tasks that were never spawned; a spawned task's frame
  // belongs to the engine.
  if (handle_) {
    handle_.destroy();
  }
}

#if defined(CALCIOM_SHARD_CHECKS)
Task::promise_type::promise_type() noexcept : engine(Engine::current()) {}
#endif

void* Task::promise_type::operator new(std::size_t n) {
  Engine* const eng = Engine::current();
  return detail::BlockPool::allocate(
      eng != nullptr ? eng->frames_.get() : nullptr, n);
}

void detail::DelayAwaiter::await_suspend(std::coroutine_handle<> h) const {
  engine->scheduleAfter(dt, [h] { h.resume(); });
}

void Task::promise_type::FinalAwaiter::await_suspend(Handle h) const noexcept {
  promise_type& p = h.promise();
  // Fire completion first so joiners observe a finished task, then hand the
  // dead frame to the engine for deferred destruction. The task's reference
  // is dropped last: joiners resumed by fire() may drop theirs meanwhile.
  detail::Completion* const done = std::exchange(p.done, nullptr);
  done->trigger.fire();
  p.engine->retire(h);
  detail::release(done);
}

void Task::promise_type::unhandled_exception() noexcept {
  // Record and continue to final_suspend; Engine::run rethrows promptly.
  if (engine != nullptr) {
    engine->reportTaskFailure(std::current_exception());
  } else {
    std::terminate();
  }
}

detail::DelayAwaiter Task::promise_type::await_transform(Delay d) noexcept {
  return detail::DelayAwaiter{engine, d.dt};
}

}  // namespace calciom::sim
