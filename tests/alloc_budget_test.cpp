// Allocation budget of the coordination path. A global operator new counts
// every heap allocation made while a replay runs; dividing by the number of
// app→arbiter messages the replay captured gives allocations per
// coordination message — the figure a month-scale replay multiplies by
// ~73k messages. Each budget is the value measured when it was pinned plus
// 10 %, so a change that adds one allocation per message fails here. The
// engine's own event queue, spawning and joining tasks, and a FlowNet's
// start→complete cycle have a budget of zero once warm.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <vector>

#include "analysis/replay.hpp"
#include "net/flow_net.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocations{0};

void* countedAlloc(std::size_t n) {
  if (gCounting.load(std::memory_order_relaxed)) {
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every form that pairs with the plain operator delete is replaced, so
// all of them are counted and a sanitizer runtime never sees its own
// operator new freed by this file's operator delete (std::stable_sort's
// temporary buffer uses the nothrow form).
void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

namespace replay = calciom::analysis::replay;

/// Two days of the seed-1 Intrepid model (the benchmark's month, cut
/// short), coordinated by the Dynamic policy.
replay::ReplayConfig twoDaySlice() {
  replay::ReplayConfig cfg;
  cfg.model.seed = calciom::sim::SplitMix64(1).next();
  cfg.model.horizonSeconds = 3600.0 * 24 * 2;
  cfg.policy = calciom::core::PolicyKind::Dynamic;
  cfg.computeShards = 4;
  cfg.syncHorizonSeconds = 30.0;
  return cfg;
}

template <class Replay>
double allocationsPerMessage(Replay run) {
  const replay::ReplayConfig cfg = twoDaySlice();
  gAllocations.store(0);
  gCounting.store(true);
  const replay::ReplayResult r = run(cfg);
  gCounting.store(false);
  // Sanity: the slice really exercised the coordination path.
  EXPECT_GT(r.captured.size(), 4000u);
  EXPECT_FALSE(r.decisions.empty());
  return static_cast<double>(gAllocations.load()) /
         static_cast<double>(r.captured.size());
}

// The messages themselves do not allocate: a typed wire message is a fixed
// record (short application names stay in the small-string buffer), and
// a port is addressed by value. Nor do the job's coroutines once
// the engine is warm: its ten frames (the job, beginPhase, wait, three
// roundBoundary and three release, endPhase) come from the engine's frame
// pool and its ten completions from the completion pool. What remains is
// per job, and a job sends five messages (Inform, three Releases,
// Complete). Counted on the session replay, about 7 allocations per job:
//  * the Session and its liveness flag (a shared_ptr); its port is an entry
//    in the registry's id table, which only grows to the peak number of
//    open ports;
//  * the arbiter's decisions, about one per two jobs, each taken twice (the
//    online core and the oracle replay): the accessor list, the cost vector
//    and the Queue and Interrupt terms vectors (each reserved once at its
//    final size) that the DecisionRecord keeps, four allocations per
//    decision per core; the results move both logs out of their cores;
//  * amortized growth of the capture log, the decision and grant logs, the
//    queues and the pools (the pools stop growing at the peak number of
//    concurrent tasks).
// The cluster replay adds about 1 per job in its barrier exchange.

TEST(AllocBudget, ReplayClusterPerMessage) {
  // Pinned at 1.59 allocations per message (4,640 messages).
  const double perMessage = allocationsPerMessage(
      [](const replay::ReplayConfig& c) { return replay::replayCluster(c); });
  EXPECT_LE(perMessage, 1.76);
}

TEST(AllocBudget, ReplaySessionPerMessage) {
  // Pinned at 1.39 allocations per message (4,640 messages).
  const double perMessage = allocationsPerMessage(
      [](const replay::ReplayConfig& c) { return replay::replaySession(c); });
  EXPECT_LE(perMessage, 1.54);
}

/// A self-rescheduling event: every firing schedules its successor, half
/// the time on a coarse grid every actor shares (a recurring timestamp, an
/// index hit) and half the time at a fresh offset (a new bucket, index
/// entry and heap node), so the queue's depth stays constant while its
/// buckets churn.
struct Actor {
  calciom::sim::Engine* eng;
  std::uint64_t* fired;
  std::uint64_t state;
  void operator()() {
    ++*fired;
    state = calciom::sim::SplitMix64(state).next();
    const double now = eng->now();
    const double next = (state & 1) != 0
                            ? std::floor(now) + 1.0
                            : now + 1e-3 * static_cast<double>(1 + state % 997);
    eng->scheduleAt(next, *this);
  }
};

TEST(AllocBudget, EngineSteadyState) {
  // 64 actors start at distinct times, so the queue's peak depth and
  // distinct-time count are reached during warm-up; after that the slab,
  // the bucket table, the timestamp index and the heap only recycle.
  calciom::sim::Engine eng;
  std::uint64_t fired = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    eng.scheduleAt(1e-3 * static_cast<double>(i), Actor{&eng, &fired, i});
  }
  eng.runUntil(20.0);
  const std::uint64_t warm = fired;
  ASSERT_GT(warm, 1000u);
  gAllocations.store(0);
  gCounting.store(true);
  eng.runUntil(200.0);
  gCounting.store(false);
  EXPECT_GE(fired - warm, 10000u);
  EXPECT_EQ(gAllocations.load(), 0u);
  EXPECT_EQ(eng.pendingEvents(), 64u);
}

calciom::sim::Task delayedChild(calciom::sim::Time dt) {
  co_await calciom::sim::Delay{dt};
}

/// Joins two children in turn, each a Delay long.
calciom::sim::Task joiningParent(calciom::sim::Engine& eng,
                                 calciom::sim::Time dt) {
  co_await eng.spawn(delayedChild(dt));
  co_await eng.spawn(delayedChild(2.0 * dt));
}

/// Spawns and joins one parent after another, forever: every frame and
/// completion below it is created inside the event loop.
calciom::sim::Task parentLoop(calciom::sim::Engine& eng, calciom::sim::Time dt,
                              std::uint64_t& joins) {
  for (;;) {
    co_await eng.spawn(joiningParent(eng, dt));
    ++joins;
  }
}

TEST(AllocBudget, SpawnJoinSteadyState) {
  // 32 loops over seven periods keep 96 tasks alive; the frame
  // pool (two frame sizes), the completion pool, the engine's queue and its
  // retired-frame list reach their peak sizes during warm-up, and after
  // that every spawn and join recycles.
  calciom::sim::Engine eng;
  std::uint64_t joins = 0;
  for (int i = 0; i < 32; ++i) {
    eng.spawn(parentLoop(eng, 1e-3 * static_cast<double>(1 + i % 7), joins));
  }
  eng.runUntil(10.0);
  const std::uint64_t warm = joins;
  ASSERT_GT(warm, 1000u);
  gAllocations.store(0);
  gCounting.store(true);
  eng.runUntil(100.0);
  gCounting.store(false);
  EXPECT_GE(joins - warm, 100000u);
  EXPECT_EQ(gAllocations.load(), 0u);
}

/// Starts the next prepared spec, waits for it, and repeats until the specs
/// run out: the start→complete cycle of a flow-level writer.
calciom::sim::Task flowCycler(calciom::net::FlowNet& net,
                              std::vector<calciom::net::FlowSpec>& specs,
                              std::size_t& next, std::uint64_t& cycles) {
  while (next < specs.size()) {
    const calciom::net::FlowId id = net.start(std::move(specs[next++]));
    co_await net.completion(id);
    ++cycles;
  }
}

TEST(AllocBudget, FlowNetSteadyState) {
  // 48 writers over 8 links into 4 servers keep the net at constant
  // concurrency, so slots, incidence lists, group counts, the completion
  // heap and the recompute scratch reach their peak sizes during warm-up;
  // after that a finished flow's slot and trigger are recycled for the next
  // one. The one structure that grows with the number of flows started is
  // the 4-byte id→slot index, which doubles: warm-up runs past 16,384
  // starts, so the measured window's ids fit in its capacity of 32,768.
  using calciom::net::FlowSpec;
  calciom::sim::Engine eng;
  calciom::net::FlowNet net(eng);
  std::vector<calciom::net::ResourceId> links;
  std::vector<calciom::net::ResourceId> servers;
  for (int i = 0; i < 8; ++i) {
    links.push_back(net.addResource(400.0));
  }
  for (int i = 0; i < 4; ++i) {
    servers.push_back(net.addResource(900.0));
  }
  calciom::sim::SplitMix64 rng(7);
  std::vector<FlowSpec> specs(30000);
  for (FlowSpec& spec : specs) {
    const std::uint64_t draw = rng.next();
    spec.bytes = 50.0 + static_cast<double>(draw % 500);
    spec.path = {links[draw % links.size()],
                 servers[(draw >> 8) % servers.size()]};
    if ((draw >> 16) % 3 == 0) {
      spec.path.push_back(servers[(draw >> 24) % servers.size()]);
    }
    spec.weight = 1.0 + static_cast<double>((draw >> 32) % 8);
    spec.group = static_cast<std::uint32_t>((draw >> 40) % 6);
  }
  std::size_t next = 0;
  std::uint64_t cycles = 0;
  for (int w = 0; w < 48; ++w) {
    eng.spawn(flowCycler(net, specs, next, cycles));
  }
  while (next < 17000) {
    eng.runUntil(eng.now() + 1.0);
  }
  const std::uint64_t warm = cycles;
  // The window closes while every writer still has specs left: a writer
  // that runs out retires its coroutine, which is the engine's business.
  gAllocations.store(0);
  gCounting.store(true);
  while (next < 29000) {
    eng.runUntil(eng.now() + 1.0);
  }
  gCounting.store(false);
  EXPECT_GE(cycles - warm, 10000u);
  EXPECT_EQ(gAllocations.load(), 0u);
  eng.run();
  EXPECT_EQ(cycles, specs.size());
  EXPECT_EQ(net.activeFlowCount(), 0u);
}

}  // namespace
