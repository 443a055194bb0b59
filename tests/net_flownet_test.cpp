// Unit tests for the fluid flow network: single/multi-flow sharing, weights,
// caps, dynamic arrivals, capacity changes and accounting.

#include "net/flow_net.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace {

using calciom::PreconditionError;
using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::Task;
using calciom::sim::Time;
using calciom::net::AffectedResources;
using calciom::net::FlowId;
using calciom::net::FlowNet;
using calciom::net::FlowSpec;
using calciom::net::kUnlimited;
using calciom::net::ResourceId;

/// Spawns a task that records the completion time of a flow.
Task recordCompletion(Engine& eng, FlowNet& net, FlowId id, Time& out) {
  co_await net.completion(id);
  out = eng.now();
}

/// Starts a flow after `at` seconds and records its completion time.
Task delayedFlow(Engine& eng, FlowNet& net, Time at, FlowSpec spec, Time& out) {
  co_await Delay{at};
  const FlowId id = net.start(std::move(spec));
  co_await net.completion(id);
  out = eng.now();
}

TEST(FlowNetTest, SingleFlowRunsAtResourceCapacity) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0, "link");
  Time done = -1.0;
  const FlowId id = net.start(FlowSpec{.bytes = 1000.0, .path = {r}});
  EXPECT_DOUBLE_EQ(net.currentRate(id), 100.0);
  eng.spawn(recordCompletion(eng, net, id, done));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 10.0);
  EXPECT_TRUE(net.finished(id));
}

TEST(FlowNetTest, TwoEqualFlowsShareEqually) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  const FlowId a = net.start(FlowSpec{.bytes = 1000.0, .path = {r}});
  const FlowId b = net.start(FlowSpec{.bytes = 1000.0, .path = {r}});
  EXPECT_DOUBLE_EQ(net.currentRate(a), 50.0);
  EXPECT_DOUBLE_EQ(net.currentRate(b), 50.0);
  Time doneA = -1.0;
  Time doneB = -1.0;
  eng.spawn(recordCompletion(eng, net, a, doneA));
  eng.spawn(recordCompletion(eng, net, b, doneB));
  eng.run();
  EXPECT_DOUBLE_EQ(doneA, 20.0);
  EXPECT_DOUBLE_EQ(doneB, 20.0);
}

TEST(FlowNetTest, WeightsSplitBandwidthProportionally) {
  // This is the mechanism behind the paper's Fig 4/6: a 744-stream app vs a
  // 24-stream app share a server 744:24.
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(768.0);
  const FlowId big = net.start(FlowSpec{.bytes = 1e6, .path = {r}, .weight = 744.0});
  const FlowId small = net.start(FlowSpec{.bytes = 1e6, .path = {r}, .weight = 24.0});
  EXPECT_DOUBLE_EQ(net.currentRate(big), 744.0);
  EXPECT_DOUBLE_EQ(net.currentRate(small), 24.0);
}

TEST(FlowNetTest, RateCapBindsAndLeftoverGoesToOthers) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  const FlowId capped =
      net.start(FlowSpec{.bytes = 1e6, .path = {r}, .rateCap = 10.0});
  const FlowId open = net.start(FlowSpec{.bytes = 1e6, .path = {r}});
  EXPECT_DOUBLE_EQ(net.currentRate(capped), 10.0);
  EXPECT_DOUBLE_EQ(net.currentRate(open), 90.0);
}

TEST(FlowNetTest, MultiResourcePathTakesBottleneck) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId wide = net.addResource(1000.0);
  const ResourceId narrow = net.addResource(30.0);
  const FlowId f = net.start(FlowSpec{.bytes = 300.0, .path = {wide, narrow}});
  EXPECT_DOUBLE_EQ(net.currentRate(f), 30.0);
  Time done = -1.0;
  eng.spawn(recordCompletion(eng, net, f, done));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 10.0);
}

TEST(FlowNetTest, DisjointBottlenecksAllocateIndependently) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId shared = net.addResource(1000.0);
  const ResourceId n1 = net.addResource(100.0);
  const ResourceId n2 = net.addResource(300.0);
  const FlowId f1 = net.start(FlowSpec{.bytes = 1e6, .path = {shared, n1}});
  const FlowId f2 = net.start(FlowSpec{.bytes = 1e6, .path = {shared, n2}});
  EXPECT_DOUBLE_EQ(net.currentRate(f1), 100.0);
  EXPECT_DOUBLE_EQ(net.currentRate(f2), 300.0);
}

TEST(FlowNetTest, MaxMinRedistributesAfterCapBinding) {
  // Three flows, one capped low: the other two split the remainder.
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(90.0);
  const FlowId c = net.start(FlowSpec{.bytes = 1e6, .path = {r}, .rateCap = 10.0});
  const FlowId a = net.start(FlowSpec{.bytes = 1e6, .path = {r}});
  const FlowId b = net.start(FlowSpec{.bytes = 1e6, .path = {r}});
  EXPECT_DOUBLE_EQ(net.currentRate(c), 10.0);
  EXPECT_DOUBLE_EQ(net.currentRate(a), 40.0);
  EXPECT_DOUBLE_EQ(net.currentRate(b), 40.0);
}

TEST(FlowNetTest, LateArrivalSlowsExistingFlow) {
  // Hand-computed fluid schedule:
  //   t=0: A(1000B) alone at 100 B/s. t=5: B(600B) arrives, both at 50 B/s.
  //   A done at t=15 (500B in 10s). B then alone: 100B left -> done t=16.
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  Time doneA = -1.0;
  Time doneB = -1.0;
  const FlowId a = net.start(FlowSpec{.bytes = 1000.0, .path = {r}});
  eng.spawn(recordCompletion(eng, net, a, doneA));
  eng.spawn(delayedFlow(eng, net, 5.0, FlowSpec{.bytes = 600.0, .path = {r}},
                        doneB));
  eng.run();
  EXPECT_NEAR(doneA, 15.0, 1e-9);
  EXPECT_NEAR(doneB, 16.0, 1e-9);
}

TEST(FlowNetTest, ProportionalSharingMatchesDeltaGraphExpectation) {
  // Two identical transfers (T_alone = 10s), B starts dt=3s after A. Under
  // pure proportional sharing both observe an elapsed time of 2*T - dt = 17s
  // -- exactly the paper's piecewise-linear "Expected" delta-graph line.
  // (The measured first-comer advantage in Fig 2 is a server queue-backlog
  // effect, modeled in the pfs layer, not in the fluid allocator.)
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  Time doneA = -1.0;
  Time doneB = -1.0;
  const FlowId a = net.start(FlowSpec{.bytes = 1000.0, .path = {r}});
  eng.spawn(recordCompletion(eng, net, a, doneA));
  eng.spawn(delayedFlow(eng, net, 3.0, FlowSpec{.bytes = 1000.0, .path = {r}},
                        doneB));
  eng.run();
  EXPECT_NEAR(doneA, 17.0, 1e-9);         // A elapsed: 2*10 - 3
  EXPECT_NEAR(doneB - 3.0, 17.0, 1e-9);   // B elapsed: same, finishing later
  EXPECT_LT(doneA, doneB);                // A still completes first
}

TEST(FlowNetTest, CapacityIncreaseMidFlightSpeedsUp) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(50.0);
  Time done = -1.0;
  const FlowId f = net.start(FlowSpec{.bytes = 1000.0, .path = {r}});
  eng.spawn(recordCompletion(eng, net, f, done));
  // After 10s (500B moved), double the capacity: 500B at 100B/s = 5s more.
  eng.scheduleAt(10.0, [&] { net.setCapacity(r, 100.0); });
  eng.run();
  EXPECT_NEAR(done, 15.0, 1e-9);
}

TEST(FlowNetTest, CapacityDropToZeroStallsThenResumes) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  Time done = -1.0;
  const FlowId f = net.start(FlowSpec{.bytes = 1000.0, .path = {r}});
  eng.spawn(recordCompletion(eng, net, f, done));
  eng.scheduleAt(2.0, [&] { net.setCapacity(r, 0.0); });
  eng.scheduleAt(12.0, [&] { net.setCapacity(r, 100.0); });
  eng.run();
  // 200B moved by t=2, stalled 10s, remaining 800B takes 8s.
  EXPECT_NEAR(done, 20.0, 1e-9);
}

TEST(FlowNetTest, ZeroByteFlowCompletesImmediately) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  const FlowId f = net.start(FlowSpec{.bytes = 0.0, .path = {r}});
  EXPECT_TRUE(net.finished(f));
  EXPECT_EQ(net.activeFlowCount(), 0u);
}

TEST(FlowNetTest, FlowAtTheByteEpsilonCompletesOnArrival) {
  // Flows at or below FlowNet's byte epsilon (1e-6 bytes) count as
  // complete when they start; the next representable size above it gets a
  // slot and runs.
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  const FlowId atEpsilon = net.start(FlowSpec{.bytes = 1e-6, .path = {r}});
  EXPECT_TRUE(net.finished(atEpsilon));
  EXPECT_EQ(net.activeFlowCount(), 0u);
  const FlowId above =
      net.start(FlowSpec{.bytes = std::nextafter(1e-6, 1.0), .path = {r}});
  EXPECT_FALSE(net.finished(above));
  EXPECT_EQ(net.activeFlowCount(), 1u);
}

TEST(FlowNetTest, UnconstrainedFlowIsInstantaneous) {
  Engine eng;
  FlowNet net(eng);
  Time done = -1.0;
  const FlowId f = net.start(FlowSpec{.bytes = 1e9, .path = {}});
  eng.spawn(recordCompletion(eng, net, f, done));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(FlowNetTest, EmptyPathWithCapBehavesLikeDedicatedLink) {
  Engine eng;
  FlowNet net(eng);
  Time done = -1.0;
  const FlowId f =
      net.start(FlowSpec{.bytes = 1000.0, .path = {}, .rateCap = 100.0});
  eng.spawn(recordCompletion(eng, net, f, done));
  eng.run();
  EXPECT_DOUBLE_EQ(done, 10.0);
}

TEST(FlowNetTest, RemainingBytesInterpolatesBetweenEvents) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  const FlowId f = net.start(FlowSpec{.bytes = 1000.0, .path = {r}});
  double remainingAt4 = -1.0;
  eng.scheduleAt(4.0, [&] { remainingAt4 = net.remainingBytes(f); });
  eng.run();
  EXPECT_NEAR(remainingAt4, 600.0, 1e-9);
}

TEST(FlowNetTest, ThroughputAndDeliveredAccounting) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  net.start(FlowSpec{.bytes = 400.0, .path = {r}});
  net.start(FlowSpec{.bytes = 600.0, .path = {r}});
  EXPECT_DOUBLE_EQ(net.throughputOf(r), 100.0);
  eng.run();
  EXPECT_NEAR(net.deliveredThrough(r), 1000.0, 1e-6);
  EXPECT_DOUBLE_EQ(net.throughputOf(r), 0.0);
}

TEST(FlowNetTest, ListenerRunsOnEveryRecompute) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  int calls = 0;
  net.addRatesListener([&](const AffectedResources&) { ++calls; });
  net.start(FlowSpec{.bytes = 100.0, .path = {r}});
  EXPECT_GE(calls, 1);
  const int before = calls;
  eng.run();  // completion triggers another recompute
  EXPECT_GT(calls, before);
}

TEST(FlowNetTest, InvalidArgumentsThrow) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  EXPECT_THROW(net.start(FlowSpec{.bytes = -1.0, .path = {r}}),
               PreconditionError);
  EXPECT_THROW(net.start(FlowSpec{.bytes = 1.0, .path = {99}}),
               PreconditionError);
  EXPECT_THROW(net.start(FlowSpec{.bytes = 1.0, .path = {r}, .weight = 0.0}),
               PreconditionError);
  EXPECT_THROW(net.addResource(-5.0), PreconditionError);
  EXPECT_THROW(net.setCapacity(99, 1.0), PreconditionError);
}

TEST(FlowNetTest, ManySimultaneousIdenticalFlowsCompleteTogether) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(1000.0);
  std::vector<Time> done(64, -1.0);
  for (int i = 0; i < 64; ++i) {
    const FlowId f = net.start(FlowSpec{.bytes = 500.0, .path = {r}});
    eng.spawn(recordCompletion(eng, net, f, done[static_cast<std::size_t>(i)]));
  }
  eng.run();
  for (Time t : done) {
    EXPECT_NEAR(t, 32.0, 1e-6);  // 64*500B / 1000B/s
  }
}

TEST(FlowNetTest, StaggeredArrivalsProduceSortedCompletions) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(100.0);
  std::vector<Time> done(8, -1.0);
  for (int i = 0; i < 8; ++i) {
    eng.spawn(delayedFlow(eng, net, static_cast<Time>(i),
                          FlowSpec{.bytes = 400.0, .path = {r}},
                          done[static_cast<std::size_t>(i)]));
  }
  eng.run();
  for (int i = 1; i < 8; ++i) {
    EXPECT_LE(done[static_cast<std::size_t>(i - 1)],
              done[static_cast<std::size_t>(i)]);
  }
  // Total service conservation: last completion = total bytes / capacity.
  EXPECT_NEAR(done[7], 8 * 400.0 / 100.0, 1e-6);
}

}  // namespace
