#include "sim/engine.hpp"

#include <algorithm>

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
  events_.push(Event{t, seq_++, std::move(fn)});
  maxQueueDepth_ = std::max(maxQueueDepth_, events_.size());
}

void Engine::scheduleAfter(Time dt, EventFn fn) {
  scheduleAt(now_ + std::max(dt, 0.0), std::move(fn));
}

std::shared_ptr<Trigger> Engine::spawn(Task task) {
  Task::Handle h = task.release();
  CALCIOM_EXPECTS(h != nullptr);
  h.promise().engine = this;
  link(h.promise());
  std::shared_ptr<Trigger> done = h.promise().done;
  scheduleAt(now_, [h] { h.resume(); });
  return done;
}

void Engine::flushActiveBatch() {
  // A nested run()/runUntil() must see the enclosing dispatch's unconsumed
  // events: they are at the head of the order, and holding them privately
  // would let the nested loop advance the clock past them — dispatching
  // them afterwards would rewind now() and double-integrate every
  // time-integrating component (FlowNet delivered bytes, cache levels).
  // Pushing them back restores the exact one-event-at-a-time semantics:
  // the nested loop pops them first, in (time, seq) order. By induction
  // only the innermost dispatch ever holds a non-empty tail, so one flush
  // suffices.
  if (activeBatch_ != nullptr) {
    for (std::size_t i = *activeNext_; i < activeBatch_->size(); ++i) {
      events_.push(std::move((*activeBatch_)[i]));
    }
    *activeNext_ = activeBatch_->size();
  }
}

void Engine::dispatchHeadBatch() {
  // Take the scratch buffer by value: a nested run on this engine will
  // reuse batch_ for its own dispatches. In the (overwhelmingly common)
  // non-reentrant case this is a pointer swap, and the buffer's capacity
  // returns to batch_ below, so the steady state stays allocation-free.
  std::vector<Event> batch = std::move(batch_);
  batch_.clear();
  batch.clear();
  events_.popBatch(batch, [](const Event& top, const Event& x) noexcept {
    return x.t == top.t;
  });
  ++dispatchBatches_;
  // On every exit (including an exception escaping an event) re-push the
  // unconsumed tail: (t, seq) keys are unchanged, so the next run()
  // resumes in the exact order this one would have used. Also unwinds the
  // active-dispatch stack used by flushActiveBatch().
  struct Restore {
    Engine& eng;
    std::vector<Event>& batch;
    std::vector<Event>* prevBatch;
    std::size_t* prevNext;
    std::size_t next = 0;
    ~Restore() {
      for (std::size_t i = next; i < batch.size(); ++i) {
        eng.events_.push(std::move(batch[i]));
      }
      batch.clear();
      eng.batch_ = std::move(batch);  // hand the capacity back
      eng.activeBatch_ = prevBatch;
      eng.activeNext_ = prevNext;
    }
  } restore{*this, batch, activeBatch_, activeNext_};
  activeBatch_ = &batch;
  activeNext_ = &restore.next;
  while (restore.next < batch.size()) {
    drainZombies();
    rethrowIfFailed();
    Event& ev = batch[restore.next];
    ++restore.next;  // consumed even if fn() throws: the event did run
    now_ = ev.t;
    ++processed_;
    ev.fn();
  }
}

void Engine::run() {
  WallTimer timer(wallSeconds_);
  CurrentEngineScope scope(this);
  flushActiveBatch();  // nested call: inherit the enclosing batch's tail
  while (!events_.empty()) {
    CALCIOM_ENSURES(events_.top().t >= now_);
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
  while (!events_.empty() && events_.top().t <= t) {
    dispatchHeadBatch();
  }
  drainZombies();
  rethrowIfFailed();
  now_ = t;
}

Time Engine::nextEventTime() const noexcept {
  return events_.empty() ? kNever : events_.top().t;
}

EngineStats Engine::stats() const noexcept {
  EngineStats s;
  s.processedEvents = processed_;
  s.scheduledEvents = seq_;
  s.pendingEvents = events_.size();
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
