// Negative tests for the shard-affinity sanitizer (sim/shard_affinity.hpp):
// foreign-shard access to guarded components and barrier-only operations
// entered from inside a shard loop must trap, and an impure horizon vote
// must be caught by the double-call probe in Cluster::minBarrierVote.
//
// The always-on `enforce()` tier is tested unconditionally; the opt-in
// `check()` tier and the vote-purity probe only exist when the build sets
// CALCIOM_SHARD_CHECKS (cmake -DCALCIOM_SHARD_CHECKS=ON), so those tests
// skip themselves in default builds.

#include "sim/shard_affinity.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "calciom/wire.hpp"
#include "mpi/port.hpp"
#include "net/flow_net.hpp"
#include "platform/cluster.hpp"
#include "sim/barrier_hook.hpp"
#include "sim/engine.hpp"
#include "storage/server.hpp"

namespace {

using calciom::InvariantError;
using calciom::platform::Cluster;
using calciom::platform::ClusterSpec;
using calciom::sim::BarrierHook;
using calciom::sim::Engine;
using calciom::sim::kNever;
using calciom::sim::ShardAffinity;
using calciom::sim::ShardAffinityError;
using calciom::sim::Time;

constexpr bool kChecksOn =
#if defined(CALCIOM_SHARD_CHECKS)
    true;
#else
    false;
#endif

#define SKIP_UNLESS_SHARD_CHECKS()                                        \
  do {                                                                    \
    if (!kChecksOn) {                                                     \
      GTEST_SKIP()                                                        \
          << "build without CALCIOM_SHARD_CHECKS: gated checks compiled " \
             "out";                                                       \
    }                                                                     \
  } while (false)

// --- always-on tier ------------------------------------------------------

TEST(ShardAffinityEnforce, ForeignLoopTrapsInEveryBuild) {
  Engine owner(1);
  Engine foreign(2);
  const ShardAffinity guard(&owner);
  guard.enforce("setup-context");  // outside any loop: fine
  owner.scheduleAt(0.0, [&] { guard.enforce("own-loop"); });
  owner.run();
  foreign.scheduleAt(0.0, [&] { guard.enforce("foreign-loop"); });
  EXPECT_THROW(foreign.run(), ShardAffinityError);
}

TEST(ShardAffinityEnforce, UnboundGuardPassesEverywhere) {
  Engine eng(1);
  const ShardAffinity guard;  // unowned
  eng.scheduleAt(0.0, [&] { guard.enforce("anywhere"); });
  eng.run();
}

TEST(ShardAffinityEnforce, BarrierContextRejectsAnyLoop) {
  Engine eng(1);
  ShardAffinity::enforceBarrierContext("outside");  // fine
  eng.scheduleAt(0.0,
                 [] { ShardAffinity::enforceBarrierContext("in-loop"); });
  EXPECT_THROW(eng.run(), ShardAffinityError);
}

TEST(ShardAffinityEnforce, ErrorDerivesFromPreconditionError) {
  // Existing misuse tests assert on PreconditionError; the sanitizer must
  // keep matching them.
  Engine owner(1);
  Engine foreign(2);
  const ShardAffinity guard(&owner);
  foreign.scheduleAt(0.0, [&] { guard.enforce("foreign"); });
  EXPECT_THROW(foreign.run(), calciom::PreconditionError);
}

// --- gated tier: guarded components --------------------------------------

TEST(ShardChecks, PortRegistryTrapsForeignMutation) {
  SKIP_UNLESS_SHARD_CHECKS();
  Engine owner(1);
  Engine foreign(2);
  calciom::mpi::PortRegistry ports(owner, 0.0);
  // Setup context and the owning loop stay legal.
  ports.openPort(calciom::core::msg::appPort(1),
                 [](std::uint32_t, const calciom::core::Message&) {});
  owner.scheduleAt(0.0, [&] {
    ports.openPort(calciom::core::msg::appPort(2),
                   [](std::uint32_t, const calciom::core::Message&) {});
  });
  owner.run();
  foreign.scheduleAt(0.0, [&] {
    ports.openPort(calciom::core::msg::appPort(3),
                   [](std::uint32_t, const calciom::core::Message&) {});
  });
  EXPECT_THROW(foreign.run(), ShardAffinityError);
}

TEST(ShardChecks, PortRegistryTrapsForeignSend) {
  SKIP_UNLESS_SHARD_CHECKS();
  Engine owner(1);
  Engine foreign(2);
  calciom::mpi::PortRegistry ports(owner, 0.0);
  ports.openPort(calciom::core::msg::appPort(1),
                 [](std::uint32_t, const calciom::core::Message&) {});
  foreign.scheduleAt(0.0, [&] {
    (void)ports.send(calciom::core::msg::appPort(1), 7,
                     calciom::core::Message{});
  });
  EXPECT_THROW(foreign.run(), ShardAffinityError);
}

TEST(ShardChecks, StorageServerTrapsForeignRead) {
  SKIP_UNLESS_SHARD_CHECKS();
  Engine owner(1);
  Engine foreign(2);
  calciom::net::FlowNet net(owner);
  calciom::storage::StorageServer::Config cfg;
  cfg.cacheBytes = 1e9;
  calciom::storage::StorageServer server(owner, net, cfg, "s0");
  // The read samples the owner's clock: foreign loops would observe a
  // value that depends on round interleaving.
  foreign.scheduleAt(0.0, [&] { (void)server.cacheLevel(); });
  EXPECT_THROW(foreign.run(), ShardAffinityError);
  (void)server.cacheLevel();  // barrier/setup context stays legal
}

// --- gated tier: vote purity ---------------------------------------------

/// Deliberately impure vote: alternates between "now" and "never", the kind
/// of state-mutating vote the double-call probe exists to catch.
class ImpureHook final : public BarrierHook {
 public:
  bool onBarrier(Time) override { return false; }
  Time nextBarrierNeededBy(Time now) override {
    flip_ = !flip_;
    return flip_ ? now : kNever;
  }

 private:
  bool flip_ = false;
};

/// Pure control: same vote twice, every time.
class PureHook final : public BarrierHook {
 public:
  bool onBarrier(Time) override { return false; }
  Time nextBarrierNeededBy(Time now) override { return now + 0.5; }
};

TEST(ShardChecks, ImpureVoteTrapsAtTheBarrier) {
  SKIP_UNLESS_SHARD_CHECKS();
  ClusterSpec s;
  s.name = "impure-vote";
  s.shards = 1;
  Cluster cl(s);
  ImpureHook hook;
  cl.addBarrierHook(&hook);
  cl.engine(0).scheduleAt(0.1, [] {});
  EXPECT_THROW(cl.run(1), InvariantError);
}

TEST(ShardChecks, PureVotePassesUnderTheProbe) {
  SKIP_UNLESS_SHARD_CHECKS();
  ClusterSpec s;
  s.name = "pure-vote";
  s.shards = 2;
  Cluster cl(s);
  PureHook hook;
  cl.addBarrierHook(&hook);
  cl.engine(0).scheduleAt(0.1, [] {});
  cl.engine(1).scheduleAt(0.2, [] {});
  cl.run(1);  // must not throw
}

}  // namespace
