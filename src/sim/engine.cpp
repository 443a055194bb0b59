#include "sim/engine.hpp"

#include <algorithm>
#include <memory>
#include <new>

#include "sim/wall_timer.hpp"

namespace calciom::sim {

namespace {
/// The engine running an event loop on this thread (shard workers each set
/// their own). Scoped so nested run()s (rare, but legal) restore the outer
/// engine. This is the mechanism Engine::current() — and with it every
/// shard-affinity check — is built on: thread identity is read only to name
/// the engine whose loop is running, never to influence simulated state.
// detlint: allow(DET1) Engine::current() plumbing, the shard-ownership
// mechanism itself; simulated state never depends on the thread identity.
thread_local Engine* tlsCurrentEngine = nullptr;

class CurrentEngineScope {
 public:
  explicit CurrentEngineScope(Engine* e) noexcept : prev_(tlsCurrentEngine) {
    tlsCurrentEngine = e;
  }
  ~CurrentEngineScope() { tlsCurrentEngine = prev_; }
  CurrentEngineScope(const CurrentEngineScope&) = delete;
  CurrentEngineScope& operator=(const CurrentEngineScope&) = delete;

 private:
  Engine* prev_;
};
}  // namespace

Engine* Engine::current() noexcept { return tlsCurrentEngine; }

Engine::~Engine() {
  // Closed first: blocks returned from here on, by this destructor or by a
  // handle that outlives the engine, only count down to the pools' release,
  // and a task spawned by a destructor below takes a heap record.
  frames_.reset();
  completions_.reset();
  drainZombies();
  // Destroy frames of tasks that never finished (e.g. blocked on a gate when
  // the simulation ended) in spawn order, oldest first, so teardown side
  // effects (locals' destructors) run in a fixed order. The head is re-read
  // every step, so a destructor that spawns a task only lengthens the walk.
  while (liveHead_ != nullptr) {
    Task::promise_type& p = *liveHead_;
    unlink(p);
    Task::Handle::from_promise(p).destroy();
  }
}

void Engine::scheduleAt(Time t, EventFn fn) {
  CALCIOM_EXPECTS(t >= now_);
  CALCIOM_EXPECTS(static_cast<bool>(fn));
  // Scheduling is shard-local: events may be planted from setup code (no
  // engine running) or from this engine's own callbacks, never from another
  // engine's loop — that would race with the owning shard's thread.
  CALCIOM_EXPECTS(current() == nullptr || current() == this);
  Slot* s = slab_.acquire();
  s->fn = std::move(fn);
  s->next = nullptr;
  std::uint32_t b = index_.find(t);
  if (b == TimestampIndex::kNone) {
    b = openBucket(t);
    buckets_[b] = Bucket{s, s, 1};
  } else {
    Bucket& bucket = buckets_[b];
    bucket.tail->next = s;
    bucket.tail = s;
    ++bucket.count;
  }
  ++scheduled_;
  ++pending_;
  maxQueueDepth_ = std::max(maxQueueDepth_, pending_);
}

void Engine::scheduleAfter(Time dt, EventFn fn) {
  scheduleAt(now_ + std::max(dt, 0.0), std::move(fn));
}

JoinHandle Engine::spawn(Task task) {
  CALCIOM_EXPECTS(task.valid());
#if defined(CALCIOM_SHARD_CHECKS)
  // A frame created in another engine's loop would go back to that
  // engine's pool from this loop.
  const Engine* const creator = task.handle_.promise().engine;
  CALCIOM_ENSURES(creator == nullptr || creator == this);
#endif
  const Task::Handle h = task.release();
  Task::promise_type& p = h.promise();
  p.engine = this;
  link(p);
  p.done = ::new (detail::BlockPool::allocate(
      completions_.get(), sizeof(detail::Completion))) detail::Completion;
  ++p.done->refs;
  JoinHandle join(p.done);
  scheduleAt(now_, [h] { h.resume(); });
  return join;
}

std::uint32_t Engine::openBucket(Time t) {
  std::uint32_t b = freeBucket_;
  if (b == TimestampIndex::kNone) {
    b = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  } else {
    freeBucket_ = static_cast<std::uint32_t>(buckets_[b].count);
  }
  index_.insert(t, b);
  times_.push(Node{t, b});
  return b;
}

Engine::Slab::~Slab() {
  for (const Chunk& c : chunks_) {
    // Only the last chunk can be partly carved.
    std::destroy(c.slots, &c == &chunks_.back() ? carve_ : c.slots + c.size);
    std::allocator<Slot>().deallocate(c.slots, c.size);
  }
}

Engine::Slot* Engine::Slab::acquire() {
  if (free_ != nullptr) {
    Slot* s = free_;
    free_ = s->next;
    return s;
  }
  if (carve_ == carveEnd_) {
    const std::size_t n =
        chunks_.empty() ? kFirstChunk : 2 * chunks_.back().size;
    chunks_.reserve(chunks_.size() + 1);  // recording it cannot throw
    carve_ = std::allocator<Slot>().allocate(n);
    carveEnd_ = carve_ + n;
    chunks_.push_back(Chunk{carve_, n});
  }
  return ::new (static_cast<void*>(carve_++)) Slot;
}

void Engine::Slab::release(Slot* s) noexcept {
  s->fn = nullptr;
  s->next = free_;
  free_ = s;
}

void Engine::requeue(Batch& b) {
  if (b.next == nullptr) {
    return;
  }
  const std::uint32_t found = index_.find(b.t);
  if (found == TimestampIndex::kNone) {
    buckets_[openBucket(b.t)] = Bucket{b.next, b.tail, b.remaining};
  } else {
    // Events scheduled at b.t while the batch ran: they come later.
    Bucket& bucket = buckets_[found];
    b.tail->next = bucket.head;
    bucket.head = b.next;
    bucket.count += b.remaining;
  }
  pending_ += b.remaining;
  b.next = nullptr;
  b.remaining = 0;
}

void Engine::flushActiveBatch() {
  // A nested run()/runUntil() must see the enclosing dispatch's unconsumed
  // events: they are at the head of the order, and holding them privately
  // would let the nested loop advance the clock past them — dispatching
  // them afterwards would rewind now() and double-integrate every
  // time-integrating component (FlowNet delivered bytes, cache levels).
  // Requeueing them restores the exact one-event-at-a-time semantics: the
  // nested loop pops them first, in (time, seq) order. By induction only
  // the innermost dispatch ever holds a non-empty tail, so one flush
  // suffices.
  if (active_ != nullptr) {
    requeue(*active_);
  }
}

void Engine::dispatchHeadBatch() {
  const Node head = times_.pop();
  index_.erase(head.t);
  const Bucket bucket = buckets_[head.bucket];
  buckets_[head.bucket].count = freeBucket_;
  freeBucket_ = head.bucket;
  pending_ -= bucket.count;
  ++dispatchBatches_;
  Batch batch{head.t, bucket.head, bucket.tail, bucket.count, active_};
  // On every exit (including an exception escaping an event) requeue the
  // unconsumed tail and unwind the active-dispatch stack.
  struct Restore {
    Engine& eng;
    Batch& batch;
    ~Restore() {
      eng.requeue(batch);
      eng.active_ = batch.outer;
    }
  } restore{*this, batch};
  active_ = &batch;
  while (batch.next != nullptr) {
    drainZombies();
    rethrowIfFailed();
    Slot* s = batch.next;
    // Consumed even if fn() throws: the event did run.
    batch.next = s->next;
    --batch.remaining;
    now_ = batch.t;
    ++processed_;
    struct Release {
      Engine& eng;
      Slot* s;
      ~Release() { eng.slab_.release(s); }
    } release{*this, s};
    s->fn();
  }
}

void Engine::run() {
  WallTimer timer(wallSeconds_);
  CurrentEngineScope scope(this);
  flushActiveBatch();  // nested call: inherit the enclosing batch's tail
  while (!times_.empty()) {
    CALCIOM_ENSURES(times_.top().t >= now_);
    dispatchHeadBatch();
  }
  drainZombies();
  rethrowIfFailed();
}

void Engine::runUntil(Time t) {
  CALCIOM_EXPECTS(t >= now_);
  WallTimer timer(wallSeconds_);
  CurrentEngineScope scope(this);
  flushActiveBatch();  // nested call: inherit the enclosing batch's tail
  while (!times_.empty() && times_.top().t <= t) {
    dispatchHeadBatch();
  }
  drainZombies();
  rethrowIfFailed();
  now_ = t;
}

Time Engine::nextEventTime() const noexcept {
  return times_.empty() ? kNever : times_.top().t;
}

EngineStats Engine::stats() const noexcept {
  EngineStats s;
  s.processedEvents = processed_;
  s.scheduledEvents = scheduled_;
  s.pendingEvents = pending_;
  s.maxQueueDepth = maxQueueDepth_;
  s.dispatchBatches = dispatchBatches_;
  s.wallSeconds = wallSeconds_;
  s.eventsPerSecond =
      wallSeconds_ > 0.0 ? static_cast<double>(processed_) / wallSeconds_ : 0.0;
  return s;
}

void Engine::retire(Task::Handle h) {
  unlink(h.promise());
  zombies_.push_back(h);
}

void Engine::link(Task::promise_type& p) noexcept {
  p.livePrev = liveTail_;
  p.liveNext = nullptr;
  if (liveTail_ != nullptr) {
    liveTail_->liveNext = &p;
  } else {
    liveHead_ = &p;
  }
  liveTail_ = &p;
  ++liveCount_;
}

void Engine::unlink(Task::promise_type& p) noexcept {
  if (p.livePrev != nullptr) {
    p.livePrev->liveNext = p.liveNext;
  } else {
    liveHead_ = p.liveNext;
  }
  if (p.liveNext != nullptr) {
    p.liveNext->livePrev = p.livePrev;
  } else {
    liveTail_ = p.livePrev;
  }
  p.livePrev = nullptr;
  p.liveNext = nullptr;
  --liveCount_;
}

void Engine::reportTaskFailure(std::exception_ptr e) noexcept {
  if (!failure_) {
    failure_ = e;
  }
}

void Engine::drainZombies() noexcept {
  for (Task::Handle h : zombies_) {
    h.destroy();
  }
  zombies_.clear();
}

void Engine::rethrowIfFailed() {
  if (failure_) {
    std::exception_ptr e = std::exchange(failure_, nullptr);
    std::rethrow_exception(e);
  }
}

}  // namespace calciom::sim
