// Unit tests for Trigger / Gate / Latch synchronization primitives.

#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace {

using calciom::PreconditionError;
using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::Gate;
using calciom::sim::Latch;
using calciom::sim::Task;
using calciom::sim::Trigger;

Task awaitTrigger(Trigger& t, std::vector<int>& out, int id) {
  co_await t;
  out.push_back(id);
}

TEST(TriggerTest, FireResumesAllWaitersInRegistrationOrder) {
  Engine eng;
  Trigger t;
  std::vector<int> out;
  eng.spawn(awaitTrigger(t, out, 1));
  eng.spawn(awaitTrigger(t, out, 2));
  eng.spawn(awaitTrigger(t, out, 3));
  eng.run();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(t.waiterCount(), 3u);
  t.fire();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(TriggerTest, FireIsIdempotent) {
  Engine eng;
  Trigger t;
  std::vector<int> out;
  eng.spawn(awaitTrigger(t, out, 7));
  eng.run();
  t.fire();
  t.fire();
  EXPECT_EQ(out, (std::vector<int>{7}));
  EXPECT_TRUE(t.fired());
}

TEST(TriggerTest, AwaitingFiredTriggerDoesNotSuspend) {
  Engine eng;
  Trigger t;
  t.fire();
  std::vector<int> out;
  eng.spawn(awaitTrigger(t, out, 9));
  eng.run();
  EXPECT_EQ(out, (std::vector<int>{9}));
  EXPECT_EQ(t.waiterCount(), 0u);
}

Task awaitGate(Gate& g, std::vector<int>& out, int id) {
  co_await g;
  out.push_back(id);
}

TEST(GateTest, OpenGatePassesThrough) {
  Engine eng;
  Gate g(true);
  std::vector<int> out;
  eng.spawn(awaitGate(g, out, 1));
  eng.run();
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(GateTest, ClosedGateBlocksUntilOpened) {
  Engine eng;
  Gate g(false);
  std::vector<int> out;
  eng.spawn(awaitGate(g, out, 1));
  eng.spawn(awaitGate(g, out, 2));
  eng.run();
  EXPECT_TRUE(out.empty());
  g.open();
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(GateTest, GateIsReusableAcrossCloseOpenCycles) {
  Engine eng;
  Gate g(false);
  std::vector<int> out;
  eng.spawn(awaitGate(g, out, 1));
  eng.run();
  g.open();
  EXPECT_EQ(out, (std::vector<int>{1}));
  g.close();
  eng.spawn(awaitGate(g, out, 2));
  eng.run();
  EXPECT_EQ(out, (std::vector<int>{1}));  // still blocked
  g.open();
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(GateTest, OpenIsIdempotent) {
  Gate g(false);
  g.open();
  g.open();
  EXPECT_TRUE(g.isOpen());
}

Task awaitLatch(Latch& l, std::vector<int>& out, int id) {
  co_await l;
  out.push_back(id);
}

TEST(LatchTest, ReleasesWhenCountReachesZero) {
  Engine eng;
  Latch l(3);
  std::vector<int> out;
  eng.spawn(awaitLatch(l, out, 1));
  eng.run();
  l.arrive();
  l.arrive();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(l.pending(), 1u);
  l.arrive();
  EXPECT_EQ(out, (std::vector<int>{1}));
  EXPECT_TRUE(l.done());
}

TEST(LatchTest, ZeroCountLatchDoesNotBlock) {
  Engine eng;
  Latch l(0);
  std::vector<int> out;
  eng.spawn(awaitLatch(l, out, 5));
  eng.run();
  EXPECT_EQ(out, (std::vector<int>{5}));
}

TEST(LatchTest, ArrivingPastZeroThrows) {
  Latch l(1);
  l.arrive();
  EXPECT_THROW(l.arrive(), PreconditionError);
}

TEST(LatchTest, AddIncreasesExpectedArrivals) {
  Engine eng;
  Latch l(1);
  std::vector<int> out;
  eng.spawn(awaitLatch(l, out, 1));
  eng.run();
  l.add(2);
  l.arrive();
  l.arrive();
  EXPECT_TRUE(out.empty());
  l.arrive();
  EXPECT_EQ(out, (std::vector<int>{1}));
}

Task gatePingPong(Engine& eng, Gate& g, int rounds, std::vector<double>& times) {
  for (int i = 0; i < rounds; ++i) {
    co_await g;
    times.push_back(eng.now());
    co_await Delay{1.0};
  }
}

TEST(GateTest, PauseResumeCycleModelsInterruption) {
  // This mirrors how CALCioM pauses an application: the app repeatedly
  // passes a gate between I/O rounds; the controller closes it to pause.
  Engine eng;
  Gate g(true);
  std::vector<double> times;
  eng.spawn(gatePingPong(eng, g, 3, times));
  eng.scheduleAt(0.5, [&] { g.close(); });   // pause after first round began
  eng.scheduleAt(10.0, [&] { g.open(); });   // resume later
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[1], 10.0);  // second round waited for resume
  EXPECT_DOUBLE_EQ(times[2], 11.0);
}

// The waiter lists hold the first waiter inline and spill to a vector from
// the second on; these cover every fill level on both sides of that edge.

TEST(TriggerTest, FifoOrderAndWaiterCountAtEveryFillLevel) {
  for (int n : {1, 2, 3, 5}) {
    Engine eng;
    Trigger t;
    std::vector<int> out;
    EXPECT_EQ(t.waiterCount(), 0u);
    for (int i = 0; i < n; ++i) {
      eng.spawn(awaitTrigger(t, out, i));
      eng.run();
      EXPECT_EQ(t.waiterCount(), static_cast<std::size_t>(i + 1)) << n;
    }
    t.fire();
    std::vector<int> want(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      want[static_cast<std::size_t>(i)] = i;
    }
    EXPECT_EQ(out, want) << n;
    EXPECT_EQ(t.waiterCount(), 0u) << n;
  }
}

TEST(GateTest, FifoOrderAndWaiterCountAcrossReuse) {
  for (int n : {1, 2, 3, 5}) {
    Engine eng;
    Gate g(false);
    std::vector<int> out;
    // Two close/open cycles: the second refills lists the first emptied.
    for (int cycle = 0; cycle < 2; ++cycle) {
      g.close();
      out.clear();
      for (int i = 0; i < n; ++i) {
        eng.spawn(awaitGate(g, out, i));
        eng.run();
        EXPECT_EQ(g.waiterCount(), static_cast<std::size_t>(i + 1));
      }
      g.open();
      std::vector<int> want(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        want[static_cast<std::size_t>(i)] = i;
      }
      EXPECT_EQ(out, want) << n << " cycle " << cycle;
      EXPECT_EQ(g.waiterCount(), 0u);
    }
  }
}

/// Passes the gate, then closes it and waits again: the second wait
/// registers while open() is still releasing the first batch.
Task reawaitAfterClose(Gate& g, std::vector<int>& out, int id) {
  co_await g;
  out.push_back(id);
  g.close();
  co_await g;
  out.push_back(id + 100);
}

TEST(GateTest, WaiterReawaitingAReclosedGateDuringOpenWaitsForNextOpen) {
  for (int others : {0, 1, 3}) {
    Engine eng;
    Gate g(false);
    std::vector<int> out;
    eng.spawn(reawaitAfterClose(g, out, 1));
    for (int i = 0; i < others; ++i) {
      eng.spawn(awaitGate(g, out, 2 + i));
    }
    eng.run();
    EXPECT_EQ(g.waiterCount(), static_cast<std::size_t>(1 + others));
    g.open();
    // The whole batch passes, in order, even though the first waiter
    // re-closed the gate; only its second wait stays parked.
    std::vector<int> want{1};
    for (int i = 0; i < others; ++i) {
      want.push_back(2 + i);
    }
    EXPECT_EQ(out, want) << others;
    EXPECT_FALSE(g.isOpen());
    EXPECT_EQ(g.waiterCount(), 1u);
    g.open();
    want.push_back(101);
    EXPECT_EQ(out, want) << others;
    EXPECT_EQ(g.waiterCount(), 0u);
  }
}

}  // namespace
