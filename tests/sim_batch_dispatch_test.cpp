// Tests for the engine's event queue: a differential test of the bucketed
// queue against a reference that sorts by (time, seq) and dispatches one
// event at a time, the batched equal-time dispatch semantics (including
// events that throw mid-batch and nested runs), the counter semantics the
// cluster fingerprints fold, and the timestamp index under churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/timestamp_index.hpp"

namespace {

using calciom::sim::Engine;
using calciom::sim::EngineStats;
using calciom::sim::SplitMix64;
using calciom::sim::Time;
using calciom::sim::TimestampIndex;
using calciom::sim::Xoshiro256;

// --- Differential test against a one-event-at-a-time reference -----------

struct Record {
  int id;
  Time now;
  std::size_t pending;
  bool operator==(const Record&) const = default;
};

struct Counters {
  std::uint64_t processed;
  std::uint64_t scheduled;
  std::size_t pending;
  std::size_t maxQueueDepth;
  std::uint64_t batches;
  bool operator==(const Counters&) const = default;
};

Counters countersOf(const EngineStats& s) {
  return {s.processedEvents, s.scheduledEvents, s.pendingEvents,
          s.maxQueueDepth, s.dispatchBatches};
}

/// A scripted random schedule. What event `id` does when it runs is a pure
/// function of (seed, id), so the engine and the reference execute the same
/// program as long as they dispatch in the same order.
struct Program {
  std::uint64_t seed;
  int budget = 600;  // events left to schedule
  int nextId = 0;
  int depth = 0;     // nested runUntil depth
  std::vector<Record> log;
};

template <class Sim>
void act(Sim& sim, Program& p, int id) {
  SplitMix64 h(p.seed * 0x100000001B3ull + static_cast<std::uint64_t>(id));
  p.log.push_back({id, sim.now(), sim.pendingEvents()});
  const std::uint64_t r = h.next();
  if (r % 41 == 0) {
    throw std::runtime_error("scripted throw before scheduling");
  }
  const int children = static_cast<int>((r >> 8) % 3);
  for (int c = 0; c < children && p.budget > 0; ++c) {
    --p.budget;
    const int child = p.nextId++;
    const std::uint64_t u = h.next();
    Time t = sim.now();  // same time: lands behind the in-flight batch
    switch (u % 8) {
      case 0:
      case 1:
        break;
      case 2:
        if (t == 0.0) {
          t = -0.0;  // both zeros must share one timestamp
        }
        break;
      default:
        // A coarse grid, so many events reuse every timestamp.
        t += 0.25 * static_cast<double>(1 + (u >> 8) % 4);
        break;
    }
    sim.scheduleAt(t, child);
  }
  if (r % 53 == 1) {
    throw std::runtime_error("scripted throw after scheduling");
  }
  if ((r >> 16) % 19 == 0 && p.depth < 3) {
    ++p.depth;
    struct Unnest {
      int& depth;
      ~Unnest() { --depth; }
    } unnest{p.depth};
    sim.runUntil(sim.now() + 0.25 * static_cast<double>(1 + (r >> 24) % 3));
  }
}

class EngineSim {
 public:
  explicit EngineSim(Program& p) : p_(p) {}
  [[nodiscard]] Time now() const { return eng_.now(); }
  [[nodiscard]] std::size_t pendingEvents() const {
    return eng_.pendingEvents();
  }
  void scheduleAt(Time t, int id) {
    eng_.scheduleAt(t, [this, id] { act(*this, p_, id); });
  }
  void runUntil(Time t) { eng_.runUntil(t); }
  void run() { eng_.run(); }
  [[nodiscard]] Counters counters() const { return countersOf(eng_.stats()); }

 private:
  Program& p_;
  Engine eng_;
};

/// The engine's documented semantics, written the plain way: a flat list of
/// (t, seq) events; a batch takes every event at the minimum time, sorted by
/// seq, out of the list, runs them one at a time, and on any exit (throw,
/// or a nested run taking the tail) puts the unconsumed ones back.
class ReferenceSim {
 public:
  explicit ReferenceSim(Program& p) : p_(p) {}
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t pendingEvents() const { return queue_.size(); }
  void scheduleAt(Time t, int id) {
    queue_.push_back({t, seq_++, id});
    maxDepth_ = std::max(maxDepth_, queue_.size());
  }
  void runUntil(Time t) {
    loop(t);
    now_ = t;
  }
  void run() { loop(std::numeric_limits<Time>::infinity()); }
  [[nodiscard]] Counters counters() const {
    return {processed_, seq_, queue_.size(), maxDepth_, batches_};
  }

 private:
  struct Ev {
    Time t;
    std::uint64_t seq;
    int id;
  };
  struct Batch {
    std::vector<Ev> events;
    std::size_t next = 0;
  };

  void requeue(Batch& b) {
    for (; b.next < b.events.size(); ++b.next) {
      queue_.push_back(b.events[b.next]);
    }
  }

  void loop(Time limit) {
    if (!active_.empty()) {
      requeue(*active_.back());
    }
    while (!queue_.empty()) {
      const auto first = std::min_element(
          queue_.begin(), queue_.end(), [](const Ev& a, const Ev& b) {
            return a.t < b.t || (a.t == b.t && a.seq < b.seq);
          });
      if (first->t > limit) {
        break;
      }
      const Time t = first->t;
      Batch b;
      const auto rest = std::stable_partition(
          queue_.begin(), queue_.end(), [t](const Ev& e) { return e.t != t; });
      b.events.assign(rest, queue_.end());
      queue_.erase(rest, queue_.end());
      std::sort(b.events.begin(), b.events.end(),
                [](const Ev& x, const Ev& y) { return x.seq < y.seq; });
      ++batches_;
      active_.push_back(&b);
      try {
        while (b.next < b.events.size()) {
          const Ev e = b.events[b.next++];
          now_ = e.t;
          ++processed_;
          act(*this, p_, e.id);
        }
      } catch (...) {
        requeue(b);
        active_.pop_back();
        throw;
      }
      active_.pop_back();
    }
  }

  Program& p_;
  std::vector<Ev> queue_;
  std::vector<Batch*> active_;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t batches_ = 0;
  std::size_t maxDepth_ = 0;
};

struct Outcome {
  std::vector<Record> log;
  std::vector<Counters> snapshots;  // after every top-level call or throw
  int throws = 0;
};

template <class Sim>
Outcome drive(std::uint64_t seed) {
  Program p{seed};
  Sim sim(p);
  Xoshiro256 rng(seed);
  const int initial = static_cast<int>(rng.uniformInt(1, 40));
  for (int i = 0; i < initial; ++i) {
    const std::int64_t slot = rng.uniformInt(-1, 8);
    sim.scheduleAt(slot < 0 ? -0.0 : 0.25 * static_cast<double>(slot),
                   p.nextId++);
  }
  Outcome out;
  auto settle = [&](auto call) {
    for (;;) {
      try {
        call();
        break;
      } catch (const std::runtime_error&) {
        ++out.throws;
        out.snapshots.push_back(sim.counters());
      }
    }
    out.snapshots.push_back(sim.counters());
  };
  for (const Time limit : {0.0, 0.75, 1.5, 4.0}) {
    settle([&] { sim.runUntil(std::max(limit, sim.now())); });
  }
  settle([&] { sim.run(); });
  out.log = std::move(p.log);
  return out;
}

TEST(EngineQueueDifferentialTest, RandomSchedulesMatchTheReference) {
  int throws = 0;
  std::size_t events = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Outcome got = drive<EngineSim>(seed);
    const Outcome want = drive<ReferenceSim>(seed);
    ASSERT_EQ(got.log.size(), want.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.log.size(); ++i) {
      ASSERT_EQ(got.log[i], want.log[i])
          << "seed " << seed << ", dispatch " << i << ": id "
          << got.log[i].id << " vs " << want.log[i].id;
    }
    ASSERT_EQ(got.snapshots, want.snapshots) << "seed " << seed;
    ASSERT_EQ(got.throws, want.throws) << "seed " << seed;
    EXPECT_EQ(got.snapshots.back().pending, 0u);
    throws += got.throws;
    events += got.log.size();
  }
  // The generator really exercised the paths it is meant to.
  EXPECT_GT(throws, 100);
  EXPECT_GT(events, 10000u);
}

// --- Batched dispatch semantics ------------------------------------------

TEST(BatchedDispatchTest, StormRunsInSchedulingOrderAcrossNestedSchedules) {
  // An equal-time storm where handlers schedule more equal-time events
  // mid-batch: the new events have larger seq, so they must run after every
  // event already in the batch.
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    eng.scheduleAt(1.0, [&eng, &order, i] {
      order.push_back(i);
      if (i % 10 == 0) {
        eng.scheduleAt(1.0, [&order, i] { order.push_back(1000 + i); });
      }
    });
  }
  eng.run();
  ASSERT_EQ(order.size(), 110u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  // The nested events ran after the storm, in their scheduling order.
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(order[static_cast<std::size_t>(100 + k)], 1000 + 10 * k);
  }
  const auto stats = eng.stats();
  EXPECT_EQ(stats.processedEvents, 110u);
  // One batch for the initial storm; the nested events were scheduled while
  // it dispatched, so they drained in later batch(es).
  EXPECT_GE(stats.dispatchBatches, 2u);
  EXPECT_LE(stats.dispatchBatches, 12u);
}

TEST(BatchedDispatchTest, ThrowMidBatchPreservesPendingEvents) {
  // If an event throws mid-storm, the unconsumed tail of the batch must be
  // back in the queue, and a subsequent run() must dispatch it in order.
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.scheduleAt(2.0, [&order, i] {
      if (i == 4) {
        throw std::runtime_error("storm casualty");
      }
      order.push_back(i);
    });
  }
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // Events 5..9 survived the exception.
  EXPECT_EQ(eng.pendingEvents(), 5u);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8, 9}));
}

TEST(BatchedDispatchTest, NestedRunMatchesUnbatchedSemantics) {
  // An event may legally re-enter runUntil() on the same engine (the old
  // one-event-at-a-time loop supported this). The nested loop must inherit
  // the outer batch's unconsumed tail: those events are at the head of the
  // (time, seq) order, so they run *inside* the nested excursion — before
  // later-time events, with the clock never rewinding. Dropping them, or
  // dispatching them after the nested run advanced the clock, would
  // double-integrate every time-integrating component.
  Engine eng;
  std::vector<std::string> order;
  std::vector<Time> clocks;
  eng.scheduleAt(1.0, [&] {
    order.push_back("outer-first");
    clocks.push_back(eng.now());
    eng.scheduleAt(1.5, [&] {
      order.push_back("inner");
      clocks.push_back(eng.now());
    });
    eng.runUntil(1.5);  // nested: must dispatch the held t=1.0 event first
  });
  eng.scheduleAt(1.0, [&] {
    order.push_back("outer-second");
    clocks.push_back(eng.now());
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"outer-first", "outer-second",
                                             "inner"}));
  // Clocks are nondecreasing: no rewind at any point.
  EXPECT_EQ(clocks, (std::vector<Time>{1.0, 1.0, 1.5}));
  EXPECT_DOUBLE_EQ(eng.now(), 1.5);
  EXPECT_EQ(eng.processedEvents(), 3u);
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

TEST(BatchedDispatchTest, PendingEventsMidBatchExcludesTheInFlightTail) {
  // A batch leaves the queue as a whole: a callback sees only events at
  // later times plus what the batch itself schedules.
  Engine eng;
  std::vector<std::size_t> seen;
  for (int i = 0; i < 5; ++i) {
    eng.scheduleAt(1.0, [&eng, &seen, i] {
      if (i == 2) {
        seen.push_back(eng.pendingEvents());  // 2 later-time events
        eng.scheduleAt(1.0, [] {});           // a fresh bucket at now()
        seen.push_back(eng.pendingEvents());
        seen.push_back(eng.stats().pendingEvents);
      }
    });
  }
  eng.scheduleAt(2.0, [] {});
  eng.scheduleAt(2.0, [] {});
  eng.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 3, 3}));
  const auto stats = eng.stats();
  EXPECT_EQ(stats.processedEvents, 8u);
  EXPECT_EQ(stats.dispatchBatches, 3u);  // t=1, its late bucket, t=2
  EXPECT_EQ(stats.maxQueueDepth, 7u);
}

TEST(BatchedDispatchTest, MaxQueueDepthIgnoresRequeuedTails) {
  // Three events at t=1; the first schedules three at t=2 (queue depth 3,
  // the batch being out of the queue) and throws. Requeueing the two
  // unconsumed events raises the depth to 5, but the high-water mark is
  // only sampled on scheduling.
  Engine eng;
  eng.scheduleAt(1.0, [&eng] {
    for (int i = 0; i < 3; ++i) {
      eng.scheduleAt(2.0, [] {});
    }
    throw std::runtime_error("after scheduling");
  });
  eng.scheduleAt(1.0, [] {});
  eng.scheduleAt(1.0, [] {});
  EXPECT_THROW(eng.run(), std::runtime_error);
  auto stats = eng.stats();
  EXPECT_EQ(stats.pendingEvents, 5u);
  EXPECT_EQ(stats.maxQueueDepth, 3u);
  EXPECT_EQ(stats.dispatchBatches, 1u);

  // The same holds when a nested run takes over the batch's tail.
  Engine nested;
  nested.scheduleAt(1.0, [&nested] {
    for (int i = 0; i < 3; ++i) {
      nested.scheduleAt(2.0, [] {});
    }
    nested.runUntil(1.0);  // requeues the two t=1 events: depth 5
  });
  nested.scheduleAt(1.0, [] {});
  nested.scheduleAt(1.0, [] {});
  nested.run();
  stats = nested.stats();
  EXPECT_EQ(stats.processedEvents, 6u);
  EXPECT_EQ(stats.maxQueueDepth, 3u);
  EXPECT_EQ(stats.dispatchBatches, 3u);  // t=1, its nested tail, t=2
}

TEST(BatchedDispatchTest, BatchCountersMatchStormShape) {
  Engine eng;
  // 5 storms of 200 events at distinct times.
  for (int s = 0; s < 5; ++s) {
    for (int i = 0; i < 200; ++i) {
      eng.scheduleAt(static_cast<Time>(s), [] {});
    }
  }
  eng.run();
  const auto stats = eng.stats();
  EXPECT_EQ(stats.processedEvents, 1000u);
  EXPECT_EQ(stats.dispatchBatches, 5u);
}

// --- Timestamp index ------------------------------------------------------

std::size_t expectedCapacity(std::size_t maxLive) {
  std::size_t cap = TimestampIndex::kFirstCapacity;
  while (2 * maxLive > cap) {
    cap *= 2;
  }
  return cap;
}

TEST(TimestampIndexTest, MatchesAMapUnderInsertEraseChurn) {
  // Random inserts and erases over a small key pool keep the table near its
  // load limit with long probe runs; every lookup (hits and misses) must
  // agree with std::map after every operation, across growth and tens of
  // thousands of backward-shift erases.
  Xoshiro256 rng(0x71DE);
  std::vector<Time> pool;
  for (int i = 0; i < 120; ++i) {
    pool.push_back(0.25 * i);  // round times: only high bits differ
  }
  for (int i = 0; i < 120; ++i) {
    pool.push_back(rng.uniform(0.0, 1e6));
  }
  pool.push_back(std::numeric_limits<Time>::infinity());
  pool.push_back(std::numeric_limits<Time>::denorm_min());
  TimestampIndex index;
  std::map<Time, std::uint32_t> ref;
  std::size_t maxLive = 0;
  for (std::uint32_t op = 0; op < 40000; ++op) {
    const Time t = pool[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
    if (ref.contains(t)) {
      index.erase(t);
      ref.erase(t);
    } else if (rng.uniform01() < 0.7) {
      index.insert(t, op);
      ref[t] = op;
    }
    maxLive = std::max(maxLive, ref.size());
    ASSERT_EQ(index.size(), ref.size());
    for (int probe = 0; probe < 4; ++probe) {
      const Time q = pool[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const auto it = ref.find(q);
      ASSERT_EQ(index.find(q),
                it == ref.end() ? TimestampIndex::kNone : it->second)
          << "op " << op;
    }
  }
  for (const Time q : pool) {
    const auto it = ref.find(q);
    EXPECT_EQ(index.find(q),
              it == ref.end() ? TimestampIndex::kNone : it->second);
  }
  // No tombstones: the table grew with the live keys only.
  EXPECT_EQ(index.capacity(), expectedCapacity(maxLive));
}

TEST(TimestampIndexTest, FullCyclesKeepEveryKeyReachableWithoutGrowth) {
  // Fill to the load limit, erase every other key, check the survivors and
  // the holes, refill; a thousand times over.
  TimestampIndex index;
  EXPECT_EQ(index.find(1.0), TimestampIndex::kNone);  // empty, unallocated
  EXPECT_EQ(index.capacity(), 0u);
  constexpr int kKeys = 32;
  for (int k = 0; k < kKeys; ++k) {
    index.insert(1.0 + k, static_cast<std::uint32_t>(k));
  }
  const std::size_t cap = index.capacity();
  EXPECT_EQ(cap, expectedCapacity(kKeys));
  for (int cycle = 0; cycle < 1000; ++cycle) {
    const int parity = cycle % 2;
    for (int k = parity; k < kKeys; k += 2) {
      index.erase(1.0 + k);
    }
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_EQ(index.find(1.0 + k), (k % 2 == parity)
                                         ? TimestampIndex::kNone
                                         : static_cast<std::uint32_t>(k))
          << "cycle " << cycle << ", key " << k;
    }
    for (int k = parity; k < kKeys; k += 2) {
      index.insert(1.0 + k, static_cast<std::uint32_t>(k));
    }
  }
  EXPECT_EQ(index.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(index.capacity(), cap);
}

TEST(TimestampIndexTest, SignedZerosShareOneEntry) {
  TimestampIndex index;
  index.insert(-0.0, 7);
  EXPECT_EQ(index.find(0.0), 7u);
  EXPECT_EQ(index.find(-0.0), 7u);
  index.erase(0.0);
  EXPECT_EQ(index.find(-0.0), TimestampIndex::kNone);
  EXPECT_EQ(index.size(), 0u);
}

}  // namespace
