// Unit tests for the coroutine Task type: spawning, delays, joining,
// exception propagation and frame lifetime.

#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"

namespace {

using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::Latch;
using calciom::sim::Task;
using calciom::sim::Time;
using calciom::sim::Trigger;

Task noteTimes(Engine& eng, std::vector<Time>& out) {
  out.push_back(eng.now());
  co_await Delay{1.5};
  out.push_back(eng.now());
  co_await Delay{2.5};
  out.push_back(eng.now());
}

TEST(TaskTest, BodyDoesNotRunUntilEngineRuns) {
  Engine eng;
  std::vector<Time> seen;
  eng.spawn(noteTimes(eng, seen));
  EXPECT_TRUE(seen.empty());
  eng.run();
  EXPECT_EQ(seen, (std::vector<Time>{0.0, 1.5, 4.0}));
}

TEST(TaskTest, UnspawnedTaskIsDestroyedWithoutRunning) {
  Engine eng;
  std::vector<Time> seen;
  {
    Task t = noteTimes(eng, seen);
    EXPECT_TRUE(t.valid());
  }
  eng.run();
  EXPECT_TRUE(seen.empty());
}

TEST(TaskTest, SpawnReturnsCompletionTrigger) {
  Engine eng;
  std::vector<Time> seen;
  auto done = eng.spawn(noteTimes(eng, seen));
  EXPECT_FALSE(done->fired());
  eng.run();
  EXPECT_TRUE(done->fired());
}

Task waitFor(Engine& eng, std::shared_ptr<Trigger> dep, std::vector<Time>& out) {
  co_await std::move(dep);
  out.push_back(eng.now());
}

TEST(TaskTest, TaskCanJoinAnotherTask) {
  Engine eng;
  std::vector<Time> times;
  std::vector<Time> joinTimes;
  auto done = eng.spawn(noteTimes(eng, times));
  eng.spawn(waitFor(eng, done, joinTimes));
  eng.run();
  ASSERT_EQ(joinTimes.size(), 1u);
  EXPECT_DOUBLE_EQ(joinTimes[0], 4.0);
}

TEST(TaskTest, JoiningAFinishedTaskResumesImmediately) {
  Engine eng;
  std::vector<Time> times;
  auto done = eng.spawn(noteTimes(eng, times));
  eng.run();
  ASSERT_TRUE(done->fired());
  std::vector<Time> joinTimes;
  eng.spawn(waitFor(eng, done, joinTimes));
  eng.run();
  ASSERT_EQ(joinTimes.size(), 1u);
  EXPECT_DOUBLE_EQ(joinTimes[0], 4.0);  // clock did not advance further
}

Task zeroDelayYield([[maybe_unused]] Engine& eng, std::vector<int>& order,
                    int id) {
  order.push_back(id * 10);
  co_await Delay{0.0};
  order.push_back(id * 10 + 1);
}

TEST(TaskTest, ZeroDelayYieldsThroughEventQueueFifo) {
  Engine eng;
  std::vector<int> order;
  eng.spawn(zeroDelayYield(eng, order, 1));
  eng.spawn(zeroDelayYield(eng, order, 2));
  eng.run();
  // Both prologues run before either epilogue: a zero delay really yields.
  EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 21}));
}

Task thrower([[maybe_unused]] Engine& eng) {
  co_await Delay{1.0};
  throw std::runtime_error("task boom");
}

TEST(TaskTest, ExceptionInTaskPropagatesFromRun) {
  Engine eng;
  eng.spawn(thrower(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(TaskTest, ExceptionStillFiresCompletionTrigger) {
  Engine eng;
  auto done = eng.spawn(thrower(eng));
  try {
    eng.run();
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(done->fired());
}

Task fanOutChild([[maybe_unused]] Engine& eng, Latch& latch, Time dt) {
  co_await Delay{dt};
  latch.arrive();
}

Task fanOutParent(Engine& eng, std::vector<Time>& out) {
  Latch latch(3);
  eng.spawn(fanOutChild(eng, latch, 1.0));
  eng.spawn(fanOutChild(eng, latch, 5.0));
  eng.spawn(fanOutChild(eng, latch, 3.0));
  co_await latch;
  out.push_back(eng.now());
}

TEST(TaskTest, FanOutJoinViaLatchWaitsForSlowestChild) {
  Engine eng;
  std::vector<Time> out;
  eng.spawn(fanOutParent(eng, out));
  eng.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 5.0);
}

TEST(TaskTest, LiveTaskCountTracksBlockedTasks) {
  Engine eng;
  std::vector<Time> seen;
  eng.spawn(noteTimes(eng, seen));
  EXPECT_EQ(eng.liveTasks(), 1u);
  eng.run();
  EXPECT_EQ(eng.liveTasks(), 0u);
}

Task blockForever([[maybe_unused]] Engine& eng, Trigger& never) {
  co_await never;
}

TEST(TaskTest, EngineDestructionReleasesBlockedTaskFrames) {
  // A task left suspended on a never-fired trigger must not leak; ASAN-less
  // build still exercises the destroy path for coverage.
  Trigger never;
  {
    Engine eng;
    eng.spawn(blockForever(eng, never));
    eng.run();
    EXPECT_EQ(eng.liveTasks(), 1u);
  }
  EXPECT_FALSE(never.fired());
}

/// Records its id into `log` when destroyed: a frame-local RAII probe of
/// the order in which teardown destroys suspended frames.
struct TeardownProbe {
  std::vector<int>* log;
  int id;
  ~TeardownProbe() { log->push_back(id); }
};

Task probedBlock(Trigger& never, std::vector<int>& log, int id) {
  const TeardownProbe probe{&log, id};
  co_await never;
}

Task probedFinish(std::vector<int>& log, int id) {
  const TeardownProbe probe{&log, id};
  co_await Delay{1.0};
}

Task probedParent(Engine& eng, Trigger& never, std::vector<int>& log,
                  int id) {
  const TeardownProbe probe{&log, id};
  // The child is spawned after every top-level task, so it sits last in
  // the live list even though its parent sits first.
  co_await Delay{0.5};
  co_await eng.spawn(probedBlock(never, log, id * 10));
}

/// Spawns a mix of tasks that stay suspended and tasks that finish (and
/// leave the live list from its middle), destroys the engine, and returns
/// the order in which the suspended frames' locals were destroyed.
std::vector<int> teardownOrder() {
  Trigger never;
  std::vector<int> log;
  {
    Engine eng;
    eng.spawn(probedParent(eng, never, log, 1));
    eng.spawn(probedBlock(never, log, 2));
    eng.spawn(probedFinish(log, 3));
    eng.spawn(probedBlock(never, log, 4));
    eng.spawn(probedFinish(log, 5));
    eng.spawn(probedBlock(never, log, 6));
    eng.run();
    EXPECT_EQ(eng.liveTasks(), 5u);  // 1, its child 10, 2, 4, 6
    // The finished tasks' probes already ran, in completion order.
    EXPECT_EQ(log, (std::vector<int>{3, 5}));
    log.clear();
  }
  return log;
}

TEST(TaskTest, EngineTeardownDestroysSuspendedFramesInSpawnOrder) {
  // Documented order: oldest spawn first. The child spawned mid-run by
  // task 1 comes after every task spawned before it; finished tasks are
  // gone from the list, so the walk skips them.
  const std::vector<int> first = teardownOrder();
  EXPECT_EQ(first, (std::vector<int>{1, 2, 4, 6, 10}));
  // Fixed, not merely plausible: a second run tears down identically.
  EXPECT_EQ(teardownOrder(), first);
}

Task chainStep(Engine& eng, int depth, std::vector<int>& out) {
  if (depth > 0) {
    co_await eng.spawn(chainStep(eng, depth - 1, out));
  }
  out.push_back(depth);
}

TEST(TaskTest, DeepSpawnJoinChainCompletesInOrder) {
  Engine eng;
  std::vector<int> out;
  eng.spawn(chainStep(eng, 50, out));
  eng.run();
  ASSERT_EQ(out.size(), 51u);
  for (int i = 0; i <= 50; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  }
}

Task manyDelays([[maybe_unused]] Engine& eng, int n, int& counter) {
  for (int i = 0; i < n; ++i) {
    co_await Delay{0.001};
  }
  ++counter;
}

TEST(TaskTest, ManyConcurrentTasksAllComplete) {
  Engine eng;
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    eng.spawn(manyDelays(eng, 20, completed));
  }
  eng.run();
  EXPECT_EQ(completed, 200);
}

}  // namespace
