#pragma once

/// \file engine.hpp
/// Deterministic discrete-event engine. Events are (time, sequence) ordered;
/// equal-time events run in scheduling order, which makes every simulation
/// bit-reproducible for a given seed and construction order.
///
/// The event queue has three parts. A 4-ary heap holds one 16-byte
/// `{time, bucket}` node per *distinct* pending timestamp; a flat
/// `TimestampIndex` maps each pending timestamp to its bucket; each bucket
/// is a FIFO list (head, tail, count) of slots in a slab, and a slot holds
/// the event's small-buffer `EventFn`. Scheduling at a pending time is an
/// index hit and a list append; only a new time pays a heap push. Appending
/// in scheduling order *is* seq order and every bucket has its own time, so
/// (time, seq) order holds by construction with no per-event key. Dispatch
/// pops one node and runs its whole list (a *batch*): completion storms that
/// schedule thousands of events at one instant cost one heap pop. The slab
/// grows in chunks that never move and recycles slots through a free list,
/// so a callback that schedules (and grows the slab) never moves the
/// callable that is running, and the steady state allocates nothing.
/// `stats()` exposes throughput counters (events processed, batches
/// dispatched, wall-clock events/sec, peak queue depth) for the perf benches.
///
/// Each engine owns a private RNG stream (`rng()`), seeded at construction,
/// so sharded simulations (platform::Cluster) draw shard-local randomness
/// without cross-shard coupling. `Engine::current()` names the engine whose
/// event loop is running on this thread — shard-owned components
/// (net::FlowNet) use it to reject cross-shard mutation.

#include <cstdint>
#include <exception>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/dary_heap.hpp"
#include "sim/event_fn.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/timestamp_index.hpp"

namespace calciom::sim {

/// Throughput counters for the event loop; see Engine::stats().
struct EngineStats {
  /// Events dispatched so far.
  std::uint64_t processedEvents = 0;
  /// Events ever scheduled (processed + pending). The engine has no
  /// cancellation path: components that outrun their own events (FlowNet
  /// completions, StorageServer transitions) supersede them with generation
  /// counters and the stale event still dispatches as a no-op.
  std::uint64_t scheduledEvents = 0;
  /// Events currently queued. While a batch dispatches, its not-yet-run
  /// events are out of the queue and not counted; they count again only if
  /// an exception or a nested run()/runUntil() puts them back.
  std::size_t pendingEvents = 0;
  /// High-water mark of pendingEvents, sampled on every scheduleAt (events
  /// put back from an interrupted batch never raise it).
  std::size_t maxQueueDepth = 0;
  /// Heap nodes popped, one per dispatched batch of equal-time events;
  /// processedEvents / dispatchBatches is the mean storm size.
  std::uint64_t dispatchBatches = 0;
  /// Wall-clock seconds spent inside run()/runUntil(). Not deterministic —
  /// excluded from cross-thread-count invariance comparisons.
  double wallSeconds = 0.0;
  /// processedEvents / wallSeconds (0 before the first run).
  double eventsPerSecond = 0.0;
};

/// Single-threaded discrete-event simulation engine. Distinct engines are
/// fully independent (platform::Cluster runs one per shard on a thread
/// pool); a single engine must only ever be driven from one thread at a
/// time.
///
/// Usage:
///   Engine eng;
///   JoinHandle done = eng.spawn(myTask(eng, ...));
///   eng.run();                       // until no events remain
///   done.fired();                    // true: the task finished
class Engine {
 public:
  Engine() = default;
  /// Seeds this engine's private RNG stream (see rng()).
  explicit Engine(std::uint64_t rngSeed) : rng_(rngSeed) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time in seconds.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Engine-local deterministic RNG stream. Shard-local workloads must draw
  /// from here (not a shared generator) so results are independent of the
  /// order shards run in.
  [[nodiscard]] Xoshiro256& rng() noexcept { return rng_; }

  /// The engine whose event loop is executing on the calling thread, or
  /// nullptr outside any event loop (setup/teardown code).
  [[nodiscard]] static Engine* current() noexcept;

  /// Schedules `fn` to run at absolute simulated time `t` (must be >= now).
  void scheduleAt(Time t, EventFn fn);

  /// Schedules `fn` to run `dt` seconds from now (dt < 0 is clamped to 0).
  void scheduleAfter(Time dt, EventFn fn);

  /// Takes ownership of `task`, schedules its first step at the current time
  /// and returns a handle to its completion, which fires when the task body
  /// returns. The handle may be `co_await`ed, kept or discarded; the record
  /// behind it comes from this engine's completion pool and is recycled once
  /// neither the task nor any handle holds it (see JoinHandle). The task
  /// joins the live list; tasks still suspended when the engine is destroyed
  /// have their frames destroyed in spawn order, oldest first. The frame
  /// must come from the heap or from this engine's pool: a Task created in
  /// another engine's loop cannot be spawned here (CALCIOM_SHARD_CHECKS
  /// builds throw InvariantError).
  JoinHandle spawn(Task task);

  /// Runs until the event queue is empty. Rethrows the first exception that
  /// escaped any task body.
  void run();

  /// Runs all events with timestamp <= t, then sets the clock to `t`.
  void runUntil(Time t);

  /// Time of the earliest pending event, or kNever if none.
  [[nodiscard]] Time nextEventTime() const noexcept;

  [[nodiscard]] bool empty() const noexcept { return times_.empty(); }
  [[nodiscard]] std::size_t pendingEvents() const noexcept {
    return pending_;
  }
  [[nodiscard]] std::uint64_t processedEvents() const noexcept {
    return processed_;
  }
  /// Number of spawned tasks whose bodies have not yet finished.
  [[nodiscard]] std::size_t liveTasks() const noexcept { return liveCount_; }

  /// Snapshot of event-loop throughput counters.
  [[nodiscard]] EngineStats stats() const noexcept;

 private:
  friend struct Task::promise_type;
  friend struct Task::promise_type::FinalAwaiter;
  friend struct detail::DelayAwaiter;

  /// One slab entry: a pending event's callable and the next slot of its
  /// bucket (or of the free list).
  struct Slot {
    EventFn fn;
    Slot* next;
  };
  /// The events pending at one timestamp, in scheduling order. A free
  /// bucket keeps the number of the next free one in `count`.
  struct Bucket {
    Slot* head;
    Slot* tail;
    std::size_t count;
  };
  struct Node {
    Time t;
    std::uint32_t bucket;
  };
  struct NodeBefore {
    [[nodiscard]] bool operator()(const Node& a,
                                  const Node& b) const noexcept {
      return a.t < b.t;
    }
  };
  /// The unconsumed tail of an in-flight batch. Dispatches nest (a callback
  /// may call run()/runUntil()), so they form a stack through `outer`.
  struct Batch {
    Time t;
    Slot* next;
    Slot* tail;
    std::size_t remaining;
    Batch* outer;
  };
  /// Slot storage in chunks that never move. Each chunk doubles the last
  /// and is carved on demand, so memory is written only as the peak number
  /// of pending events grows; released slots are reused first, through an
  /// intrusive free list.
  class Slab {
   public:
    Slab() = default;
    Slab(const Slab&) = delete;
    Slab& operator=(const Slab&) = delete;
    ~Slab();
    Slot* acquire();
    void release(Slot* s) noexcept;

   private:
    static constexpr std::size_t kFirstChunk = 4;
    struct Chunk {
      Slot* slots;
      std::size_t size;
    };
    std::vector<Chunk> chunks_;
    Slot* carve_ = nullptr;  // next never-used slot of the last chunk
    Slot* carveEnd_ = nullptr;
    Slot* free_ = nullptr;
  };

  /// Called from a task's final suspend: the frame is dead and can be
  /// destroyed at the next safe point (top of the event loop).
  void retire(Task::Handle h);
  /// Live-list maintenance: append at the tail on spawn, unlink on retire.
  void link(Task::promise_type& p) noexcept;
  void unlink(Task::promise_type& p) noexcept;
  /// Records the first exception escaping a task body.
  void reportTaskFailure(std::exception_ptr e) noexcept;

  void drainZombies() noexcept;
  void rethrowIfFailed();

  /// Pops the earliest timestamp and runs its events in scheduling order.
  /// On an exception (direct throw from an event, or a task failure
  /// rethrown between events) the unconsumed tail goes back to the front of
  /// that time's bucket, so pending counts stay exact and the next run()
  /// resumes in the order this one would have used.
  void dispatchHeadBatch();
  /// Returns the innermost active dispatch's unconsumed events to the queue
  /// so a nested run()/runUntil() dispatches them in order instead of
  /// advancing the clock past them (which would rewind time afterwards).
  void flushActiveBatch();
  /// Puts `b`'s unconsumed tail back at the front of its time's bucket
  /// (opening the bucket if the time has none) and empties `b`.
  void requeue(Batch& b);
  /// Takes a free bucket for `t`, indexes it and pushes its heap node.
  std::uint32_t openBucket(Time t);

  // Declared first so callables still pending at teardown are destroyed
  // last, after every other member.
  Slab slab_;
  std::vector<Bucket> buckets_;
  std::uint32_t freeBucket_ = TimestampIndex::kNone;
  TimestampIndex index_;
  DaryHeap<Node, NodeBefore> times_;
  std::size_t pending_ = 0;
  Batch* active_ = nullptr;  // innermost in-flight dispatch
  Time now_ = 0.0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t maxQueueDepth_ = 0;
  std::uint64_t dispatchBatches_ = 0;
  double wallSeconds_ = 0.0;
  Xoshiro256 rng_{0};
  std::vector<Task::Handle> zombies_;
  // Recycled frames (of tasks created in this engine's loop) and completion
  // records (of tasks spawned here). ~Engine closes them first; a closed
  // pool lives on until its last block comes back.
  detail::BlockPool::Owner frames_ = detail::BlockPool::open(this);
  detail::BlockPool::Owner completions_ = detail::BlockPool::open(this);
  // Spawned tasks whose bodies have not finished, in spawn order: an
  // intrusive doubly-linked list through Task::promise_type.
  Task::promise_type* liveHead_ = nullptr;
  Task::promise_type* liveTail_ = nullptr;
  std::size_t liveCount_ = 0;
  std::exception_ptr failure_;
};

}  // namespace calciom::sim
