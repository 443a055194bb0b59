// Cross-validation of the event-driven FlowNet against an independent
// brute-force reference: a time-stepped fluid integrator whose max-min
// allocation is computed by discretized progressive filling (epsilon
// water-filling) rather than the closed-form bottleneck algorithm. If the
// two agree on completion times for randomized workloads with dynamic
// arrivals, both the allocator and the event scheduling are right.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "net/flow_net.hpp"
#include "tests/support/flow_net_reference.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace {

using calciom::net::FlowId;
using calciom::net::FlowNet;
using calciom::net::FlowSpec;
using calciom::net::kUnlimited;
using calciom::net::ResourceId;
using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::Task;
using calciom::sim::Time;
using calciom::sim::Xoshiro256;

struct RefFlow {
  double bytes;
  std::vector<int> path;
  double weight;
  double cap;
  double start;
  double finish = -1.0;
};

/// Epsilon water-filling: raise every unfrozen flow's rate in proportion to
/// its weight until a resource on its path saturates or its cap binds.
std::vector<double> waterFillRates(const std::vector<RefFlow>& flows,
                                   const std::vector<int>& active,
                                   const std::vector<double>& capacity) {
  std::vector<double> rate(flows.size(), 0.0);
  std::vector<char> frozen(flows.size(), 0);
  std::vector<double> load(capacity.size(), 0.0);
  const double epsilon = 0.02;  // rate increment per unit weight
  bool progress = true;
  while (progress) {
    progress = false;
    for (int idx : active) {
      const RefFlow& f = flows[static_cast<std::size_t>(idx)];
      if (frozen[static_cast<std::size_t>(idx)] != 0) {
        continue;
      }
      const double inc = epsilon * f.weight;
      bool blocked = rate[static_cast<std::size_t>(idx)] + inc > f.cap;
      for (int r : f.path) {
        if (load[static_cast<std::size_t>(r)] + inc >
            capacity[static_cast<std::size_t>(r)]) {
          blocked = true;
        }
      }
      if (blocked) {
        frozen[static_cast<std::size_t>(idx)] = 1;
      } else {
        rate[static_cast<std::size_t>(idx)] += inc;
        for (int r : f.path) {
          load[static_cast<std::size_t>(r)] += inc;
        }
        progress = true;
      }
    }
  }
  return rate;
}

/// Time-stepped reference simulation; fills in RefFlow::finish.
void referenceSimulate(std::vector<RefFlow>& flows,
                       const std::vector<double>& capacity) {
  std::vector<double> remaining(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    remaining[i] = flows[i].bytes;
  }
  double t = 0.0;
  const double dt = 0.02;
  const double horizon = 500.0;
  while (t < horizon) {
    std::vector<int> active;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (flows[i].start <= t + 1e-12 && flows[i].finish < 0.0) {
        active.push_back(static_cast<int>(i));
      }
    }
    bool anyPending = false;
    for (const RefFlow& f : flows) {
      if (f.finish < 0.0) {
        anyPending = true;
      }
    }
    if (!anyPending) {
      return;
    }
    const auto rate = waterFillRates(flows, active, capacity);
    for (int idx : active) {
      const auto i = static_cast<std::size_t>(idx);
      remaining[i] -= rate[i] * dt;
      if (remaining[i] <= 0.0) {
        flows[i].finish = t + dt;  // within one step of the true time
      }
    }
    t += dt;
  }
}

struct RefCase {
  std::uint64_t seed;
  int resources;
  int flows;
};

class FlowNetReferenceTest : public ::testing::TestWithParam<RefCase> {};

Task startDelayedFlow(Engine& eng, FlowNet& net, FlowSpec spec, Time at,
                      Time* finish) {
  co_await Delay{at};
  const FlowId id = net.start(std::move(spec));
  co_await net.completion(id);
  *finish = eng.now();
}

TEST_P(FlowNetReferenceTest, EventDrivenMatchesTimeSteppedReference) {
  const RefCase& p = GetParam();
  Xoshiro256 rng(p.seed);

  std::vector<double> capacity;
  for (int i = 0; i < p.resources; ++i) {
    capacity.push_back(rng.uniform(5.0, 30.0));
  }
  std::vector<RefFlow> ref;
  for (int i = 0; i < p.flows; ++i) {
    RefFlow f;
    f.bytes = rng.uniform(10.0, 200.0);
    const auto pathLen = static_cast<int>(
        rng.uniformInt(1, std::min(2, p.resources)));
    for (int k = 0; k < pathLen; ++k) {
      f.path.push_back(
          static_cast<int>(rng.uniformInt(0, p.resources - 1)));
    }
    std::sort(f.path.begin(), f.path.end());
    f.path.erase(std::unique(f.path.begin(), f.path.end()), f.path.end());
    f.weight = rng.uniform(0.5, 8.0);
    f.cap = rng.uniform01() < 0.3 ? rng.uniform(2.0, 15.0) : kUnlimited;
    f.start = rng.uniform(0.0, 10.0);
    ref.push_back(f);
  }

  // Reference run.
  std::vector<RefFlow> refCopy = ref;
  referenceSimulate(refCopy, capacity);

  // Event-driven run.
  Engine eng;
  FlowNet net(eng);
  std::vector<ResourceId> res;
  for (double c : capacity) {
    res.push_back(net.addResource(c));
  }
  std::vector<Time> finish(ref.size(), -1.0);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    FlowSpec spec;
    spec.bytes = ref[i].bytes;
    for (int r : ref[i].path) {
      spec.path.push_back(res[static_cast<std::size_t>(r)]);
    }
    spec.weight = ref[i].weight;
    spec.rateCap = ref[i].cap;
    eng.spawn(startDelayedFlow(eng, net, spec, ref[i].start, &finish[i]));
  }
  eng.run();

  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_GE(refCopy[i].finish, 0.0) << "reference did not finish flow " << i;
    ASSERT_GE(finish[i], 0.0) << "FlowNet did not finish flow " << i;
    // The water-filling reference quantizes rates (0.02 per unit weight)
    // and time (20 ms); allow a commensurate tolerance.
    const double duration = refCopy[i].finish - ref[i].start;
    EXPECT_NEAR(finish[i], refCopy[i].finish,
                std::max(0.15, duration * 0.06))
        << "flow " << i << " (bytes " << ref[i].bytes << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedWorkloads, FlowNetReferenceTest,
    ::testing::Values(RefCase{101, 1, 3}, RefCase{102, 2, 5},
                      RefCase{103, 3, 8}, RefCase{104, 2, 12},
                      RefCase{105, 4, 10}, RefCase{106, 1, 16},
                      RefCase{107, 5, 6}, RefCase{108, 3, 20}),
    [](const ::testing::TestParamInfo<RefCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_r" +
             std::to_string(info.param.resources) + "_f" +
             std::to_string(info.param.flows);
    });

// ---------------------------------------------------------------------------
// Differential property test: the incremental allocator (FlowNet) against
// the retained global-recompute oracle (ReferenceFlowNet). Both are driven
// through identical randomized event sequences — staggered flow starts plus
// mid-stream setCapacity churn — on lock-stepped engines. After every
// scripted action the two must agree on every flow's rate and every
// resource's throughput to 1e-9, and at the end on every completion time.
// This is the proof that restricting progressive filling to the affected
// connected component leaves behavior unchanged.
// ---------------------------------------------------------------------------

using calciom::net::ReferenceFlowNet;

namespace diff {

struct StartOp {
  double time;
  FlowSpec spec;
};
struct CapacityOp {
  double time;
  int resource;
  double capacity;
};

struct Script {
  std::vector<double> capacities;
  std::vector<StartOp> starts;
  std::vector<CapacityOp> churn;
};

Script makeScript(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Script s;
  const int resources = static_cast<int>(rng.uniformInt(1, 6));
  const int flows = static_cast<int>(rng.uniformInt(2, 25));
  for (int i = 0; i < resources; ++i) {
    s.capacities.push_back(rng.uniform(2.0, 40.0));
  }
  for (int i = 0; i < flows; ++i) {
    StartOp op;
    op.time = rng.uniform(0.0, 15.0);
    op.spec.bytes = rng.uniform(5.0, 300.0);
    if (rng.uniform01() < 0.25) {
      // Sample with replacement: paths may repeat a resource, which both
      // allocators must account per occurrence (weight, delivered bytes)
      // but once for throughput/groups. Up to 6 hops, past what a FlowNet
      // slot stores inline.
      const int pathLen = static_cast<int>(rng.uniformInt(1, 6));
      for (int k = 0; k < pathLen; ++k) {
        op.spec.path.push_back(
            static_cast<ResourceId>(rng.uniformInt(0, resources - 1)));
      }
    } else {
      const int pathLen =
          static_cast<int>(rng.uniformInt(1, std::min(6, resources)));
      std::vector<int> pool(static_cast<std::size_t>(resources));
      for (int r = 0; r < resources; ++r) {
        pool[static_cast<std::size_t>(r)] = r;
      }
      std::shuffle(pool.begin(), pool.end(), rng);
      for (int k = 0; k < pathLen; ++k) {
        op.spec.path.push_back(
            static_cast<ResourceId>(pool[static_cast<std::size_t>(k)]));
      }
    }
    op.spec.weight = rng.uniform(0.5, 8.0);
    if (rng.uniform01() < 0.3) {
      op.spec.rateCap = rng.uniform(1.0, 20.0);
    }
    op.spec.group = static_cast<std::uint32_t>(rng.uniformInt(0, 3));
    s.starts.push_back(std::move(op));
  }
  const int churnOps = static_cast<int>(rng.uniformInt(0, 5));
  for (int i = 0; i < churnOps; ++i) {
    CapacityOp op;
    op.time = rng.uniform(0.0, 20.0);
    op.resource = static_cast<int>(rng.uniformInt(0, resources - 1));
    // Never drop to zero: a permanently stalled flow would hang eng.run().
    op.capacity = rng.uniform(0.5, 40.0);
    s.churn.push_back(op);
  }
  return s;
}

/// Relative-or-absolute agreement at the given tolerance; infinities match.
::testing::AssertionResult near(double a, double b, double tol) {
  if (a == b) {
    return ::testing::AssertionSuccess();  // covers +inf == +inf
  }
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  if (std::abs(a - b) <= tol * scale) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (diff " << std::abs(a - b) << ")";
}

Task recordFinish(Engine& eng, std::shared_ptr<calciom::sim::Trigger> done,
                  Time* out) {
  co_await std::move(done);
  *out = eng.now();
}

void runDifferentialCase(std::uint64_t seed) {
  const Script script = makeScript(seed);
  constexpr double kRateTol = 1e-9;

  Engine engInc;
  Engine engRef;
  FlowNet inc(engInc);
  ReferenceFlowNet ref(engRef);
  std::vector<ResourceId> resInc;
  std::vector<ResourceId> resRef;
  for (double c : script.capacities) {
    resInc.push_back(inc.addResource(c));
    resRef.push_back(ref.addResource(c));
  }

  // Merge starts and churn into one time-ordered action list (stable order
  // for simultaneous actions: starts first, in script order).
  struct Action {
    double time;
    int kind;  // 0 = start, 1 = capacity
    std::size_t index;
  };
  std::vector<Action> actions;
  for (std::size_t i = 0; i < script.starts.size(); ++i) {
    actions.push_back(Action{script.starts[i].time, 0, i});
  }
  for (std::size_t i = 0; i < script.churn.size(); ++i) {
    actions.push_back(Action{script.churn[i].time, 1, i});
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const Action& a, const Action& b) {
                     return a.time < b.time;
                   });

  std::vector<FlowId> flowsInc;
  std::vector<FlowId> flowsRef;
  std::vector<Time> finishInc;
  std::vector<Time> finishRef;
  // Recorder coroutines hold pointers into these vectors: reserve up front
  // so push_back never reallocates.
  finishInc.reserve(script.starts.size());
  finishRef.reserve(script.starts.size());

  for (const Action& a : actions) {
    engInc.runUntil(a.time);
    engRef.runUntil(a.time);
    if (a.kind == 0) {
      const StartOp& op = script.starts[a.index];
      flowsInc.push_back(inc.start(op.spec));
      flowsRef.push_back(ref.start(op.spec));
      finishInc.push_back(-1.0);
      finishRef.push_back(-1.0);
      engInc.spawn(recordFinish(engInc, inc.completion(flowsInc.back()),
                                &finishInc.back()));
      engRef.spawn(recordFinish(engRef, ref.completion(flowsRef.back()),
                                &finishRef.back()));
    } else {
      const CapacityOp& op = script.churn[a.index];
      inc.setCapacity(resInc[static_cast<std::size_t>(op.resource)],
                      op.capacity);
      ref.setCapacity(resRef[static_cast<std::size_t>(op.resource)],
                      op.capacity);
    }

    // Allocations must agree after every scripted action.
    for (std::size_t i = 0; i < flowsInc.size(); ++i) {
      EXPECT_TRUE(near(inc.currentRate(flowsInc[i]),
                       ref.currentRate(flowsRef[i]), kRateTol))
          << "seed " << seed << " flow " << i << " rate at t=" << a.time;
      EXPECT_EQ(inc.finished(flowsInc[i]), ref.finished(flowsRef[i]))
          << "seed " << seed << " flow " << i << " at t=" << a.time;
    }
    for (std::size_t r = 0; r < resInc.size(); ++r) {
      EXPECT_TRUE(
          near(inc.throughputOf(resInc[r]), ref.throughputOf(resRef[r]),
               kRateTol))
          << "seed " << seed << " resource " << r << " at t=" << a.time;
      EXPECT_EQ(inc.activeGroupsThrough(resInc[r]),
                ref.activeGroupsThrough(resRef[r]))
          << "seed " << seed << " resource " << r << " at t=" << a.time;
    }
  }

  engInc.run();
  engRef.run();

  ASSERT_EQ(inc.activeFlowCount(), 0u) << "seed " << seed;
  ASSERT_EQ(ref.activeFlowCount(), 0u) << "seed " << seed;
  for (std::size_t i = 0; i < flowsInc.size(); ++i) {
    ASSERT_GE(finishInc[i], 0.0) << "seed " << seed << " flow " << i;
    ASSERT_GE(finishRef[i], 0.0) << "seed " << seed << " flow " << i;
    EXPECT_TRUE(near(finishInc[i], finishRef[i], kRateTol))
        << "seed " << seed << " completion of flow " << i;
  }
  // Final byte accounting (the incremental net integrates lazily with
  // Kahan compensation; totals must still match the eager oracle).
  for (std::size_t r = 0; r < resInc.size(); ++r) {
    EXPECT_TRUE(near(inc.deliveredThrough(resInc[r]),
                     ref.deliveredThrough(resRef[r]), 1e-6))
        << "seed " << seed << " delivered through resource " << r;
  }
}

}  // namespace diff

TEST(IncrementalVsReferenceDifferentialTest,
     AgreesOnRatesAndCompletionsAcross200RandomSequences) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    diff::runDifferentialCase(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
