// Tests for the adaptive sync-horizon machinery: barrier-hook horizon
// votes (sim::BarrierHook::nextBarrierNeededBy, including each answer of
// GlobalArbiter's vote), all-or-nothing vote-gated barrier firing, horizon
// stretching, sparse shard activation, and the interaction with the fault
// injector's barrier-relative blackout schedule (chaos seeds must replay
// bit-identically across worker counts with the horizon machinery in the
// loop).

#include "platform/cluster.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "calciom/arbiter_core.hpp"
#include "calciom/global_arbiter.hpp"
#include "calciom/policy.hpp"
#include "calciom/recovery.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "sim/barrier_hook.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace {

using calciom::GlobalArbiter;
using calciom::core::ArbiterConfig;
using calciom::core::makePolicy;
using calciom::core::PolicyKind;
using calciom::fault::ChaosConfig;
using calciom::fault::chaosPlan;
using calciom::fault::ChaosResult;
using calciom::fault::ChaosTransport;
using calciom::fault::Injector;
using calciom::fault::runChaos;
using calciom::platform::Cluster;
using calciom::platform::ClusterSpec;
using calciom::sim::BarrierHook;
using calciom::sim::Engine;
using calciom::sim::kNever;
using calciom::sim::Time;

/// Hook with a programmable vote that schedules nothing and records every
/// barrier it sees. The true-no-op contract of nextBarrierNeededBy is
/// trivially met: onBarrier never schedules and never mutates anything the
/// vote depends on.
class VotingHook final : public BarrierHook {
 public:
  /// `offset` is added to `now` to form the vote; kNever stays kNever.
  explicit VotingHook(Time offset) : offset_(offset) {}

  bool onBarrier(Time barrierTime) override {
    barriers_.push_back(barrierTime);
    return false;
  }
  Time nextBarrierNeededBy(Time now) override {
    return offset_ == kNever ? kNever : now + offset_;
  }

  [[nodiscard]] const std::vector<Time>& barriers() const noexcept {
    return barriers_;
  }

 private:
  Time offset_ = 0.0;
  std::vector<Time> barriers_;
};

ClusterSpec spec(std::size_t shards, double horizon = 0.25) {
  ClusterSpec s;
  s.name = "horizon-test";
  s.shards = shards;
  s.syncHorizonSeconds = horizon;
  return s;
}

/// `count` no-op events on `eng`, `step` apart, starting at `step`.
void scheduleTicks(Engine& eng, int count, double step) {
  for (int i = 1; i <= count; ++i) {
    eng.scheduleAt(step * i, [] {});
  }
}

// ---------------------------------------------------------------------------

// A hook that votes kNever forever must not deadlock the drain loop: with
// no barrier ever needed, the cluster skips the drain barrier and exits as
// soon as the queues empty, never calling onBarrier at all.
TEST(ClusterHorizonTest, KNeverVoterNeverDeadlocksDrain) {
  Cluster cl(spec(2));
  VotingHook never(kNever);
  cl.addBarrierHook(&never);
  scheduleTicks(cl.engine(0), 10, 0.1);
  scheduleTicks(cl.engine(1), 7, 0.13);
  cl.run();
  EXPECT_TRUE(cl.empty());
  EXPECT_TRUE(never.barriers().empty());
  const auto stats = cl.stats();
  EXPECT_GE(stats.barriersSkipped, 1u);
  EXPECT_EQ(stats.barrierExchangesNonEmpty + stats.barrierExchangesEmpty, 0u);
}

// Votes in the past clamp to `now`: a hook voting "100 seconds ago" is a
// conservative voter and must see exactly the barriers a default
// (vote-now) hook sees — the fire-every-barrier cadence is preserved.
TEST(ClusterHorizonTest, PastVoteClampsToNow) {
  ClusterSpec s = spec(2);
  Cluster past(s);
  VotingHook pastHook(-100.0);
  past.addBarrierHook(&pastHook);
  scheduleTicks(past.engine(0), 10, 0.1);
  scheduleTicks(past.engine(1), 7, 0.13);
  past.run();

  Cluster now(s);
  VotingHook nowHook(0.0);
  now.addBarrierHook(&nowHook);
  scheduleTicks(now.engine(0), 10, 0.1);
  scheduleTicks(now.engine(1), 7, 0.13);
  now.run();

  EXPECT_FALSE(pastHook.barriers().empty());
  EXPECT_EQ(pastHook.barriers(), nowHook.barriers());
  EXPECT_EQ(past.stats().barriersSkipped, 0u);
  EXPECT_EQ(past.stats().horizonSteps, now.stats().horizonSteps);
}

// Barrier firing is all-or-nothing over the min vote: if any hook needs a
// barrier, every hook sees it (hooks may depend on each other's barrier
// work), so a kNever voter alongside a conservative voter attends exactly
// the barriers the conservative one forces.
TEST(ClusterHorizonTest, MixedVotersTakeMinAndFireAllHooks) {
  Cluster cl(spec(2));
  VotingHook never(kNever);
  VotingHook conservative(0.0);
  cl.addBarrierHook(&never);
  cl.addBarrierHook(&conservative);
  scheduleTicks(cl.engine(0), 10, 0.1);
  scheduleTicks(cl.engine(1), 7, 0.13);
  cl.run();
  EXPECT_FALSE(conservative.barriers().empty());
  EXPECT_EQ(never.barriers(), conservative.barriers());
}

// A sole hook voting far in the future stretches the round horizon past
// the `next + syncHorizon` grid: the same workload collapses from dozens
// of horizon steps to a few, with identical final simulated state.
TEST(ClusterHorizonTest, LateVoteStretchesHorizon) {
  ClusterSpec s = spec(1);
  Cluster grid(s);
  VotingHook gridHook(0.0);
  grid.addBarrierHook(&gridHook);
  scheduleTicks(grid.engine(0), 50, 0.1);  // events out to t = 5.0
  grid.run();

  Cluster stretched(s);
  VotingHook lateHook(100.0);
  stretched.addBarrierHook(&lateHook);
  scheduleTicks(stretched.engine(0), 50, 0.1);
  stretched.run();

  EXPECT_GT(grid.stats().horizonSteps, 10u);
  EXPECT_LT(stretched.stats().horizonSteps, grid.stats().horizonSteps / 2);
  EXPECT_EQ(grid.engine(0).stats().processedEvents,
            stretched.engine(0).stats().processedEvents);
}

// Sparse activation: shards with no event inside a round's horizon are not
// dispatched. A cluster where one shard is busy and the rest idle until
// late must run mostly solo rounds, dispatch far fewer shard-rounds than
// shards x steps, and still end with every shard clock aligned.
TEST(ClusterHorizonTest, SparseActivationSkipsIdleShards) {
  Cluster cl(spec(4));
  scheduleTicks(cl.engine(0), 60, 0.08);  // busy shard, events out to 4.8
  for (std::size_t s = 1; s < 4; ++s) {
    cl.engine(s).scheduleAt(4.9, [] {});  // one late event each
  }
  cl.run();
  const auto stats = cl.stats();
  EXPECT_GT(stats.horizonSteps, 0u);
  EXPECT_GT(stats.soloRounds, 0u);
  EXPECT_LT(stats.dispatchedShards, stats.horizonSteps * 4);
  // syncRounds counts only multi-shard rounds; the solo stretch is not a
  // barrier tax.
  EXPECT_LT(stats.syncRounds, stats.horizonSteps);
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_EQ(cl.engine(0).now(), cl.engine(s).now());
  }
}

// GlobalArbiter::nextBarrierNeededBy has exactly two answers: one sync
// horizon out when a barrier fired now would provably be a no-op, and
// `now` whenever it could be observable. Pinned case by case on the vote
// itself, from setup context (no shard loop runs, as at a barrier).
TEST(ClusterHorizonTest, GlobalArbiterVoteAnswers) {
  const ClusterSpec s = spec(2);
  const Time now = 3.0;
  struct Rig {
    explicit Rig(const ClusterSpec& s, ArbiterConfig cfg = {})
        : cl(s),
          ga(GlobalArbiter::install(cl, makePolicy(PolicyKind::Fcfs), cfg)) {}
    Cluster cl;
    GlobalArbiter& ga;
  };

  {  // Quiescent: skip to one sync horizon out.
    Rig r(s);
    EXPECT_EQ(r.ga.nextBarrierNeededBy(now), now + s.syncHorizonSeconds);
  }
  {  // A stub holding traffic must be merged at the next barrier.
    Rig r(s);
    r.cl.machine(1).ports().deliverNow(calciom::core::msg::arbiterPort(),
                                       /*fromApp=*/1, calciom::core::Message{});
    EXPECT_EQ(r.ga.nextBarrierNeededBy(now), now);
  }
  {  // Leases: every barrier is a lease sweep.
    ArbiterConfig cfg;
    cfg.leases.leaseSeconds = 5.0;
    Rig r(s, cfg);
    EXPECT_EQ(r.ga.nextBarrierNeededBy(now), now);
  }
  {  // Checkpointing: the cadence is checked at every barrier.
    ArbiterConfig cfg;
    cfg.checkpointEverySeconds = 10.0;
    Rig r(s, cfg);
    EXPECT_EQ(r.ga.nextBarrierNeededBy(now), now);
  }
  {  // Stub injectors: blackout draws hash the barrier round number.
    Rig r(s);
    calciom::fault::Plan plan;
    plan.blackoutProbability = 0.5;
    Injector i0(plan, 0);
    Injector i1(plan, 1);
    r.ga.setStubInjectors({&i0, &i1});
    EXPECT_EQ(r.ga.nextBarrierNeededBy(now), now);
  }
  {  // A crashed arbiter.
    Rig r(s);
    r.ga.crash();
    EXPECT_EQ(r.ga.nextBarrierNeededBy(now), now);
  }
  {  // Pending scheduler events, then the dead id they leave behind, which
     // holds the vote at `now` until eviction after kDeadRetentionRounds.
    Rig r(s);
    r.ga.onApplicationTerminated(7);
    EXPECT_EQ(r.ga.nextBarrierNeededBy(now), now);
    Time t = 0.0;
    r.ga.onBarrier(t += s.syncHorizonSeconds);
    ASSERT_EQ(r.ga.deadSetSize(), 1u);
    EXPECT_EQ(r.ga.nextBarrierNeededBy(t), t);
    for (std::uint64_t i = 0; i < GlobalArbiter::kDeadRetentionRounds; ++i) {
      r.ga.onBarrier(t += s.syncHorizonSeconds);
    }
    EXPECT_EQ(r.ga.nextBarrierNeededBy(t), t);
    r.ga.onBarrier(t += s.syncHorizonSeconds);
    EXPECT_EQ(r.ga.deadEvicted(), 1u);
    EXPECT_EQ(r.ga.nextBarrierNeededBy(t), t + s.syncHorizonSeconds);
    r.ga.onApplicationLaunched(7);
    EXPECT_EQ(r.ga.nextBarrierNeededBy(t), t);
  }
}

// Chaos seeds replay bit-identically across worker counts with the horizon
// machinery and batched cross-shard delivery in the loop — including stub
// blackouts, whose round-indexed schedule must filter a batched delivery
// exactly as it filtered per-command deliveries.
TEST(ClusterHorizonTest, BlackoutChaosSeedsReplayBitIdentically) {
  const std::uint64_t seeds[] = {0xB1AC0035ull, 0xB1AC0036ull};
  for (const std::uint64_t seed : seeds) {
    ChaosConfig cfg;
    cfg.transport = ChaosTransport::Cluster;
    cfg.apps = 4;
    cfg.plan = chaosPlan(seed, cfg.apps);
    // Force blackouts on regardless of what the seed drew: this test is
    // specifically about the blackout filter on the batched path.
    cfg.plan.blackoutProbability = 0.25;
    cfg.plan.blackoutRounds = 2;
    cfg.workers = 1;
    const ChaosResult r1 = runChaos(cfg);
    cfg.workers = 2;
    const ChaosResult r2 = runChaos(cfg);
    EXPECT_EQ(r1.fingerprint, r2.fingerprint) << "seed " << seed;
    EXPECT_EQ(r1.snapshotEncoding, r2.snapshotEncoding) << "seed " << seed;
    EXPECT_EQ(r1.blackoutDiscarded, r2.blackoutDiscarded) << "seed " << seed;
    EXPECT_GT(r1.blackoutDiscarded, 0u) << "seed " << seed;
    EXPECT_EQ(r1.survivorsCompleted, r1.survivors) << "seed " << seed;
  }
}

}  // namespace
