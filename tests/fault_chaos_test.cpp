// Randomized chaos suite over the hardened coordination stack: ~200 seeded
// fault schedules (fault::chaosPlan) across both transports and the three
// arbitration policies. Every schedule must satisfy
//
//  * liveness — the simulation terminates well before the harness backstop,
//    every surviving application completes all phases (coordinated or
//    degraded), and the arbiter drains to Idle;
//  * safety — no double-grant of the storage resource under an exclusive
//    policy, and the core's container invariants hold after every
//    transition (runChaos enables audit mode).
//
// Failures print the seed; replaying it reproduces the schedule bit-exactly
// on any worker count (the plan is a pure hash of the seed).
//
// The suite also carries the zero-fault bit-identity gate (an installed but
// disabled injector, and the hardening machinery itself, must not move a
// single decision) and the worker-invariance gate under active faults.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "calciom/policy.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"

namespace {

using calciom::core::PolicyKind;
using calciom::fault::ChaosConfig;
using calciom::fault::ChaosResult;
using calciom::fault::chaosPlan;
using calciom::fault::ChaosTransport;
using calciom::fault::runChaos;

constexpr PolicyKind kPolicies[] = {PolicyKind::Fcfs, PolicyKind::Interrupt,
                                    PolicyKind::Dynamic};

ChaosConfig campaign(ChaosTransport transport, std::uint64_t seed) {
  ChaosConfig cfg;
  cfg.transport = transport;
  cfg.policy = kPolicies[seed % 3];
  cfg.plan = chaosPlan(seed, cfg.apps);
  return cfg;
}

void expectInvariants(const ChaosConfig& cfg, const ChaosResult& r,
                      std::uint64_t seed) {
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  // Liveness: the run drained on its own, not via the harness backstop.
  EXPECT_LT(r.simSeconds, ChaosConfig::kMaxSimSeconds);
  EXPECT_GE(r.survivors, 1);  // chaosPlan always leaves a survivor
  EXPECT_EQ(r.survivorsCompleted, r.survivors);
  EXPECT_TRUE(r.degradedAllCompleted);
  EXPECT_TRUE(r.arbiterIdle);
  // Safety: exclusive policies never have two concurrent accessors. The
  // dynamic policy may legitimately choose interference.
  if (cfg.policy != PolicyKind::Dynamic) {
    EXPECT_LE(r.maxConcurrentAccessors, 1u);
  }
}

TEST(FaultChaos, SameEngineSeededSchedules) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const ChaosConfig cfg = campaign(ChaosTransport::SameEngine, seed);
    expectInvariants(cfg, runChaos(cfg), seed);
  }
}

TEST(FaultChaos, ClusterSeededSchedules) {
  constexpr unsigned kWorkers[] = {1, 2, 8};
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    ChaosConfig cfg = campaign(ChaosTransport::Cluster, seed);
    cfg.workers = kWorkers[(seed / 3) % 3];
    expectInvariants(cfg, runChaos(cfg), seed);
  }
}

// An installed-but-disabled injector must be a bit-exact no-op: identical
// decision-stream/grant-log fingerprint, grant log, wait time.
TEST(FaultChaos, ZeroFaultBitIdentitySameEngine) {
  ChaosConfig with;
  with.transport = ChaosTransport::SameEngine;
  with.installInjector = true;  // default Plan{} is disabled
  ChaosConfig without = with;
  without.installInjector = false;
  const ChaosResult a = runChaos(with);
  const ChaosResult b = runChaos(without);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.pauses, b.pauses);
  EXPECT_EQ(a.decisionCount, b.decisionCount);
  EXPECT_EQ(a.cpuSecondsWaited, b.cpuSecondsWaited);
  EXPECT_EQ(a.grantLog.size(), b.grantLog.size());
  EXPECT_EQ(a.messagesDropped, 0u);
  EXPECT_EQ(a.messagesDelayed, 0u);
  EXPECT_EQ(a.messagesDuplicated, 0u);
  EXPECT_EQ(a.leaseReclaims, 0u);
  EXPECT_EQ(a.survivorsCompleted, a.survivors);
}

TEST(FaultChaos, ZeroFaultBitIdentityCluster) {
  ChaosConfig with;
  with.transport = ChaosTransport::Cluster;
  with.installInjector = true;
  ChaosConfig without = with;
  without.installInjector = false;
  const ChaosResult a = runChaos(with);
  const ChaosResult b = runChaos(without);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.decisionCount, b.decisionCount);
  EXPECT_EQ(a.cpuSecondsWaited, b.cpuSecondsWaited);
  EXPECT_EQ(a.blackoutDiscarded, 0u);
  EXPECT_EQ(a.leaseReclaims, 0u);
  EXPECT_EQ(a.survivorsCompleted, a.survivors);
}

// With zero faults, the full hardening machinery (stamps, heartbeats,
// leases, retry timers) must not move a single arbiter decision relative to
// the pre-hardening protocol: decisions still happen at message-arrival
// times, heartbeats reconcile to no-ops, no lease ever expires.
TEST(FaultChaos, HardenedZeroFaultMatchesLegacyProtocol) {
  ChaosConfig hardened;
  hardened.transport = ChaosTransport::SameEngine;
  hardened.hardened = true;
  ChaosConfig legacy = hardened;
  legacy.hardened = false;
  const ChaosResult a = runChaos(hardened);
  const ChaosResult b = runChaos(legacy);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.pauses, b.pauses);
  EXPECT_EQ(a.decisionCount, b.decisionCount);
  EXPECT_EQ(a.cpuSecondsWaited, b.cpuSecondsWaited);
  EXPECT_EQ(a.leaseReclaims, 0u);
}

// Fault schedules are pure hashes, never engine RNG: the same seed on 1, 2
// and 8 workers must produce the identical decision stream and grant log.
TEST(FaultChaos, WorkerInvarianceUnderActiveFaults) {
  for (const std::uint64_t seed : {7ull, 23ull, 61ull}) {
    ChaosConfig cfg = campaign(ChaosTransport::Cluster, seed);
    cfg.workers = 1;
    const ChaosResult r1 = runChaos(cfg);
    cfg.workers = 2;
    const ChaosResult r2 = runChaos(cfg);
    cfg.workers = 8;
    const ChaosResult r8 = runChaos(cfg);
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    EXPECT_EQ(r1.fingerprint, r2.fingerprint);
    EXPECT_EQ(r1.fingerprint, r8.fingerprint);
    EXPECT_EQ(r1.grants, r2.grants);
    EXPECT_EQ(r1.grants, r8.grants);
    EXPECT_EQ(r1.messagesDropped, r2.messagesDropped);
    EXPECT_EQ(r1.messagesDropped, r8.messagesDropped);
  }
}

}  // namespace
