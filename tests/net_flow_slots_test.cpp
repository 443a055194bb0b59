// Regression tests for FlowNet's slot recycling: a finished flow's slot and
// completion trigger are reused by later flows, while every FlowId keeps
// answering queries as the flow it names. Covers completion batches whose
// waiters start flows mid-batch, queries on ids whose slot has been reused,
// triggers held across reuse, and paths longer than a slot stores inline.

#include "net/flow_net.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "tests/support/flow_net_reference.hpp"

namespace {

using calciom::net::FlowId;
using calciom::net::FlowNet;
using calciom::net::FlowSpec;
using calciom::net::ReferenceFlowNet;
using calciom::net::ResourceId;
using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::Task;
using calciom::sim::Time;
using calciom::sim::Trigger;

/// Waits for `id`, then starts `next` at once, inside the completion's
/// resume, and records the new flow's id.
Task startOnCompletion(FlowNet& net, FlowId id, FlowSpec next,
                       FlowId* started) {
  co_await net.completion(id);
  *started = net.start(std::move(next));
}

Task countResumes(FlowNet& net, FlowId id, int* resumes) {
  co_await net.completion(id);
  ++*resumes;
}

Task recordFinish(Engine& eng, std::shared_ptr<Trigger> done, Time* out) {
  co_await std::move(done);
  *out = eng.now();
}

TEST(FlowSlotsTest, FlowStartedMidBatchDoesNotInheritALaterFinisher) {
  // a and b share one link equally and finish together at t = 2. a's waiter
  // starts c while the batch is still firing; b's waiter must still resume
  // exactly once, and c must not be reported finished in b's place.
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(10.0);
  const FlowId a = net.start(FlowSpec{.bytes = 10.0, .path = {r}});
  const FlowId b = net.start(FlowSpec{.bytes = 10.0, .path = {r}});
  FlowId c = 0;
  int resumesB = 0;
  int resumesC = 0;
  eng.spawn(startOnCompletion(net, a, FlowSpec{.bytes = 100.0, .path = {r}},
                              &c));
  eng.spawn(countResumes(net, b, &resumesB));
  eng.runUntil(2.5);
  EXPECT_TRUE(net.finished(a));
  EXPECT_TRUE(net.finished(b));
  EXPECT_EQ(resumesB, 1);
  ASSERT_GT(c, b);
  EXPECT_FALSE(net.finished(c));
  EXPECT_FALSE(net.completion(c)->fired());
  EXPECT_DOUBLE_EQ(net.currentRate(c), 10.0);
  EXPECT_EQ(net.activeFlowCount(), 1u);

  eng.spawn(countResumes(net, c, &resumesC));
  eng.run();
  EXPECT_EQ(resumesB, 1);
  EXPECT_EQ(resumesC, 1);
  EXPECT_TRUE(net.finished(c));
  EXPECT_DOUBLE_EQ(eng.now(), 12.0);
}

TEST(FlowSlotsTest, QueriesOnAFinishedIdSurviveSlotReuse) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(10.0);
  const FlowId old = net.start(FlowSpec{.bytes = 10.0, .path = {r}});
  eng.run();
  ASSERT_TRUE(net.finished(old));

  // The only slot is free again, so this flow takes it over.
  const FlowId live = net.start(FlowSpec{.bytes = 50.0, .path = {r}});
  ASSERT_NE(live, old);
  EXPECT_TRUE(net.finished(old));
  EXPECT_TRUE(net.completion(old)->fired());
  EXPECT_EQ(net.currentRate(old), 0.0);
  EXPECT_EQ(net.remainingBytes(old), 0.0);

  EXPECT_FALSE(net.finished(live));
  EXPECT_FALSE(net.completion(live)->fired());
  EXPECT_NE(net.completion(live), net.completion(old));
  EXPECT_DOUBLE_EQ(net.currentRate(live), 10.0);
  eng.runUntil(eng.now() + 1.0);
  EXPECT_DOUBLE_EQ(net.remainingBytes(live), 40.0);
  EXPECT_EQ(net.remainingBytes(old), 0.0);
  eng.run();
  EXPECT_TRUE(net.finished(live));
}

TEST(FlowSlotsTest, AHeldTriggerStaysFiredAcrossReuse) {
  Engine eng;
  FlowNet net(eng);
  const ResourceId r = net.addResource(10.0);
  const FlowId first = net.start(FlowSpec{.bytes = 10.0, .path = {r}});
  const std::shared_ptr<Trigger> held = net.completion(first);
  eng.run();
  ASSERT_TRUE(held->fired());

  const FlowId second = net.start(FlowSpec{.bytes = 10.0, .path = {r}});
  const std::shared_ptr<Trigger> next = net.completion(second);
  EXPECT_TRUE(held->fired());
  EXPECT_NE(next, held);
  EXPECT_FALSE(next->fired());
  // Awaiting the held trigger still passes straight through, rather than
  // waiting for the flow that now occupies its slot.
  const Time reusedAt = eng.now();
  Time heldDone = -1.0;
  Time nextDone = -1.0;
  eng.spawn(recordFinish(eng, held, &heldDone));
  eng.spawn(recordFinish(eng, next, &nextDone));
  eng.run();
  EXPECT_EQ(heldDone, reusedAt);
  EXPECT_DOUBLE_EQ(nextDone, reusedAt + 1.0);
  EXPECT_TRUE(held->fired());
}

/// A flow of the twin-net script: `spec` starts `at` seconds in.
struct TwinFlow {
  double at;
  FlowSpec spec;
};

template <class Net>
Task startTwin(Engine& eng, Net& net, const TwinFlow& twin, Time* done) {
  co_await Delay{twin.at};
  const FlowId id = net.start(twin.spec);
  co_await net.completion(id);
  *done = eng.now();
}

TEST(FlowSlotsTest, SixResourcePathWithRepeatsMatchesReference) {
  // The long path crosses six resource occurrences, two of them repeats,
  // so it spills past the inline path storage; short flows come and go
  // around it and reuse its slot after it finishes.
  Engine eng;
  Engine refEng;
  FlowNet net(eng);
  ReferenceFlowNet ref(refEng);
  const std::vector<double> caps = {12.0, 30.0, 9.0, 20.0, 15.0};
  std::vector<ResourceId> res;
  for (double c : caps) {
    res.push_back(net.addResource(c));
    ASSERT_EQ(ref.addResource(c), res.back());
  }
  const std::vector<ResourceId> longPath = {res[0], res[1], res[2],
                                            res[0], res[3], res[1]};
  std::vector<TwinFlow> twins = {
      {0.0, FlowSpec{.bytes = 60.0, .path = longPath, .weight = 2.0}},
      {0.5, FlowSpec{.bytes = 40.0, .path = {res[2], res[4]}}},
      {1.0, FlowSpec{.bytes = 25.0, .path = {res[0]}, .weight = 3.0}},
      {1.5, FlowSpec{.bytes = 30.0, .path = {res[1], res[3], res[1]},
                     .rateCap = 4.0, .group = 1}},
      {20.0, FlowSpec{.bytes = 45.0, .path = longPath, .weight = 0.5,
                      .group = 2}},
      {20.0, FlowSpec{.bytes = 10.0, .path = {res[3], res[4]}}},
      {21.0, FlowSpec{.bytes = 35.0,
                      .path = {res[4], res[3], res[2], res[1], res[0],
                               res[4], res[2]}}},
  };
  std::vector<Time> doneInc(twins.size(), -1.0);
  std::vector<Time> doneRef(twins.size(), -1.0);
  for (std::size_t i = 0; i < twins.size(); ++i) {
    eng.spawn(startTwin(eng, net, twins[i], &doneInc[i]));
    refEng.spawn(startTwin(refEng, ref, twins[i], &doneRef[i]));
  }
  // Step both nets in lock-step and compare the allocation at each step.
  for (Time t = 0.25; t < 60.0; t += 0.25) {
    eng.runUntil(t);
    refEng.runUntil(t);
    for (std::size_t r = 0; r < res.size(); ++r) {
      EXPECT_NEAR(net.throughputOf(res[r]), ref.throughputOf(res[r]), 1e-9)
          << "resource " << r << " at t=" << t;
      EXPECT_EQ(net.activeGroupsThrough(res[r]),
                ref.activeGroupsThrough(res[r]))
          << "resource " << r << " at t=" << t;
    }
    EXPECT_EQ(net.activeFlowCount(), ref.activeFlowCount()) << "t=" << t;
  }
  eng.run();
  refEng.run();
  for (std::size_t i = 0; i < twins.size(); ++i) {
    ASSERT_GE(doneInc[i], 0.0) << "flow " << i;
    EXPECT_NEAR(doneInc[i], doneRef[i], 1e-9) << "flow " << i;
  }
  for (std::size_t r = 0; r < res.size(); ++r) {
    EXPECT_NEAR(net.deliveredThrough(res[r]), ref.deliveredThrough(res[r]),
                1e-6)
        << "resource " << r;
  }
}

}  // namespace
