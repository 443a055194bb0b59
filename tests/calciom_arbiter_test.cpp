// Protocol-level tests of the Arbiter driven by hand-crafted messages (no
// Session objects): state machine transitions, crossing messages, implicit
// pause-acks, multi-accessor bookkeeping and decision records.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "calciom/arbiter.hpp"
#include "calciom/policy.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"

namespace {

using calciom::core::Action;
using calciom::core::Arbiter;
using calciom::core::ArbiterCommand;
using calciom::core::CommandType;
using calciom::core::encodeCommand;
using calciom::core::IoDescriptor;
using calciom::core::makePolicy;
using calciom::core::Message;
using calciom::core::MessageType;
using calciom::core::PolicyKind;
using calciom::core::SessionState;
using calciom::mpi::PortRegistry;
using calciom::sim::Engine;
namespace msg = calciom::core::msg;

/// A fake application endpoint: opens the app port and records messages.
struct FakeApp {
  std::uint32_t id;
  PortRegistry& ports;
  std::vector<MessageType> received;

  FakeApp(std::uint32_t appId, PortRegistry& registry)
      : id(appId), ports(registry) {
    ports.openPort(msg::appPort(id),
                   [this](std::uint32_t, const Message& payload) {
                     received.push_back(payload.type());
                   });
  }
  ~FakeApp() { ports.closePort(msg::appPort(id)); }

  void inform(double estAlone = 10.0, int cores = 64) {
    IoDescriptor d;
    d.appId = id;
    d.cores = cores;
    d.estAloneSeconds = estAlone;
    ports.send(msg::arbiterPort(), id, Message::inform(d));
  }
  void release(double progress) {
    ports.send(msg::arbiterPort(), id, Message::release(progress));
  }
  void complete() {
    ports.send(msg::arbiterPort(), id, Message::complete());
  }
  void pauseAck(double progress) {
    ports.send(msg::arbiterPort(), id, Message::pauseAck(progress));
  }
  [[nodiscard]] int count(MessageType type) const {
    int n = 0;
    for (const auto& t : received) {
      if (t == type) {
        ++n;
      }
    }
    return n;
  }
};

struct Rig {
  Engine eng;
  PortRegistry ports{eng, 1e-3};
  Arbiter arbiter;
  explicit Rig(PolicyKind kind) : arbiter(eng, ports, makePolicy(kind)) {}
};

TEST(ArbiterTest, FirstRequestIsGrantedImmediately) {
  Rig rig(PolicyKind::Fcfs);
  FakeApp a(1, rig.ports);
  a.inform();
  rig.eng.run();
  EXPECT_EQ(a.count(MessageType::Grant), 1);
  EXPECT_EQ(rig.arbiter.currentAccessors(),
            std::vector<std::uint32_t>{1});
}

TEST(ArbiterTest, FcfsQueuesAndGrantsInOrder) {
  Rig rig(PolicyKind::Fcfs);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  FakeApp c(3, rig.ports);
  a.inform();
  rig.eng.run();
  b.inform();
  c.inform();
  rig.eng.run();
  EXPECT_EQ(b.count(MessageType::Grant), 0);
  EXPECT_EQ(rig.arbiter.waitQueue(),
            (std::vector<std::uint32_t>{2, 3}));
  a.complete();
  rig.eng.run();
  EXPECT_EQ(b.count(MessageType::Grant), 1);
  EXPECT_EQ(c.count(MessageType::Grant), 0);
  b.complete();
  rig.eng.run();
  EXPECT_EQ(c.count(MessageType::Grant), 1);
}

TEST(ArbiterTest, InterferePolicyGrantsEveryone) {
  Rig rig(PolicyKind::Interfere);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  a.inform();
  rig.eng.run();
  b.inform();
  rig.eng.run();
  EXPECT_EQ(a.count(MessageType::Grant), 1);
  EXPECT_EQ(b.count(MessageType::Grant), 1);
  EXPECT_EQ(rig.arbiter.currentAccessors().size(), 2u);
  a.complete();
  b.complete();
  rig.eng.run();
  EXPECT_TRUE(rig.arbiter.currentAccessors().empty());
}

TEST(ArbiterTest, InterruptWaitsForAckBeforeGranting) {
  Rig rig(PolicyKind::Interrupt);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  a.inform();
  rig.eng.run();
  b.inform();
  rig.eng.run();
  EXPECT_EQ(a.count(MessageType::Pause), 1);
  EXPECT_EQ(b.count(MessageType::Grant), 0);  // not yet: A has not acked
  a.pauseAck(0.4);
  rig.eng.run();
  EXPECT_EQ(b.count(MessageType::Grant), 1);
  EXPECT_EQ(rig.arbiter.pausedStack(), std::vector<std::uint32_t>{1});
  b.complete();
  rig.eng.run();
  EXPECT_EQ(a.count(MessageType::Resume), 1);
  EXPECT_EQ(rig.arbiter.currentAccessors(),
            std::vector<std::uint32_t>{1});
}

TEST(ArbiterTest, CompletionBeforeAckCountsAsImplicitAck) {
  // A finishes its phase in the window between the pause request and its
  // next hook: the completion must release the interrupter.
  Rig rig(PolicyKind::Interrupt);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  a.inform();
  rig.eng.run();
  b.inform();
  rig.eng.run();
  ASSERT_EQ(a.count(MessageType::Pause), 1);
  a.complete();  // crossing: completes instead of acking
  rig.eng.run();
  EXPECT_EQ(b.count(MessageType::Grant), 1);
  EXPECT_TRUE(rig.arbiter.pausedStack().empty());
  b.complete();
  rig.eng.run();
  EXPECT_EQ(a.count(MessageType::Resume), 0);  // nothing to resume
}

TEST(ArbiterTest, NewcomersQueueWhileInterruptSettles) {
  Rig rig(PolicyKind::Interrupt);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  FakeApp c(3, rig.ports);
  a.inform();
  rig.eng.run();
  b.inform();
  rig.eng.run();  // pause sent to A, not yet acked
  c.inform();
  rig.eng.run();
  EXPECT_EQ(c.count(MessageType::Grant), 0);
  // C did not trigger a second pause.
  EXPECT_EQ(a.count(MessageType::Pause), 1);
  a.pauseAck(0.5);
  rig.eng.run();
  EXPECT_EQ(b.count(MessageType::Grant), 1);
  b.complete();
  rig.eng.run();
  // A (paused) resumes before C (queued).
  EXPECT_EQ(a.count(MessageType::Resume), 1);
  EXPECT_EQ(c.count(MessageType::Grant), 0);
  a.complete();
  rig.eng.run();
  EXPECT_EQ(c.count(MessageType::Grant), 1);
}

TEST(ArbiterTest, ReleaseUpdatesProgressForDynamicDecisions) {
  Rig rig(PolicyKind::Dynamic);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  a.inform(/*estAlone=*/10.0);
  rig.eng.run();
  a.release(0.9);  // nearly done
  rig.eng.run();
  b.inform(/*estAlone=*/5.0);
  rig.eng.run();
  // remaining_A = 1s < est_B = 5s: the metric favors queueing.
  ASSERT_EQ(rig.arbiter.decisions().size(), 1u);
  EXPECT_EQ(rig.arbiter.decisions()[0].action, Action::Queue);
  EXPECT_FALSE(rig.arbiter.decisions()[0].costs.empty());
}

TEST(ArbiterTest, DecisionRecordsCaptureContext) {
  Rig rig(PolicyKind::Dynamic);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  a.inform(/*estAlone=*/20.0);
  rig.eng.run();
  b.inform(/*estAlone=*/2.0);
  rig.eng.run();
  ASSERT_EQ(rig.arbiter.decisions().size(), 1u);
  const auto& d = rig.arbiter.decisions()[0];
  EXPECT_EQ(d.requester, 2u);
  EXPECT_EQ(d.accessors, std::vector<std::uint32_t>{1});
  EXPECT_EQ(d.action, Action::Interrupt);  // 20s remaining vs 2s request
  EXPECT_EQ(d.costs.front().action, Action::Interrupt);
}

TEST(ArbiterTest, UnknownAppMessagesAreIgnored) {
  Rig rig(PolicyKind::Fcfs);
  FakeApp a(1, rig.ports);
  a.release(0.5);   // release without ever informing
  a.complete();     // complete without ever informing
  rig.eng.run();
  EXPECT_TRUE(rig.arbiter.currentAccessors().empty());
  a.inform();
  rig.eng.run();
  EXPECT_EQ(a.count(MessageType::Grant), 1);  // still functional afterwards
}

TEST(ArbiterTest, GrantsAndPausesAreCounted) {
  Rig rig(PolicyKind::Interrupt);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  a.inform();
  rig.eng.run();
  b.inform();
  rig.eng.run();
  a.pauseAck(0.1);
  rig.eng.run();
  b.complete();
  rig.eng.run();
  a.complete();
  rig.eng.run();
  EXPECT_EQ(rig.arbiter.grantsIssued(), 2u);  // A's grant + B's grant
  EXPECT_EQ(rig.arbiter.pausesIssued(), 1u);
}

}  // namespace

namespace {

TEST(ArbiterTest, TerminatedAccessorUnblocksTheQueue) {
  Rig rig(PolicyKind::Fcfs);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  a.inform();
  rig.eng.run();
  b.inform();
  rig.eng.run();
  EXPECT_EQ(b.count(MessageType::Grant), 0);
  // A's job is killed by the scheduler; it never sends Complete.
  rig.arbiter.onApplicationTerminated(1);
  rig.eng.run();
  EXPECT_EQ(b.count(MessageType::Grant), 1);
}

TEST(ArbiterTest, TerminatedInterrupterAbandonsThePause) {
  Rig rig(PolicyKind::Interrupt);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  a.inform();
  rig.eng.run();
  b.inform();
  rig.eng.run();
  ASSERT_EQ(a.count(MessageType::Pause), 1);
  // B dies before A reaches a hook and acks.
  rig.arbiter.onApplicationTerminated(2);
  rig.eng.run();
  // A acks its (now pointless) pause and must be resumed right away.
  a.pauseAck(0.5);
  rig.eng.run();
  EXPECT_EQ(a.count(MessageType::Resume), 1);
  EXPECT_EQ(rig.arbiter.currentAccessors(), std::vector<std::uint32_t>{1});
  a.complete();
  rig.eng.run();
  EXPECT_TRUE(rig.arbiter.currentAccessors().empty());
}

TEST(ArbiterTest, TerminatedQueuedAppIsForgotten) {
  Rig rig(PolicyKind::Fcfs);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  FakeApp c(3, rig.ports);
  a.inform();
  rig.eng.run();
  b.inform();
  c.inform();
  rig.eng.run();
  rig.arbiter.onApplicationTerminated(2);  // B dies while queued
  a.complete();
  rig.eng.run();
  EXPECT_EQ(b.count(MessageType::Grant), 0);
  EXPECT_EQ(c.count(MessageType::Grant), 1);  // C skipped past the dead B
}

TEST(ArbiterTest, TerminatingUnknownAppIsANoop) {
  Rig rig(PolicyKind::Fcfs);
  EXPECT_NO_THROW(rig.arbiter.onApplicationTerminated(42));
}

}  // namespace

// ---------------------------------------------------------------------------
// DecisionRecord::costs population and the JSON dump helper.

namespace {

/// Drives one contended inform (A accessing, B arrives) and returns the
/// single decision it produces.
calciom::core::DecisionRecord contendedDecision(PolicyKind kind) {
  Rig rig(kind);
  FakeApp a(1, rig.ports);
  FakeApp b(2, rig.ports);
  a.inform(/*estAlone=*/10.0, /*cores=*/128);
  rig.eng.run();
  b.inform(/*estAlone=*/2.0, /*cores=*/32);
  rig.eng.run();
  EXPECT_EQ(rig.arbiter.decisions().size(), 1u);
  return rig.arbiter.decisions().front();
}

TEST(ArbiterTest, StaticPoliciesLeaveCostsEmpty) {
  for (PolicyKind kind :
       {PolicyKind::Interfere, PolicyKind::Fcfs, PolicyKind::Interrupt}) {
    const auto d = contendedDecision(kind);
    EXPECT_TRUE(d.costs.empty()) << "policy " << toString(kind);
  }
}

TEST(ArbiterTest, DynamicPolicyPopulatesPerActionCosts) {
  const auto d = contendedDecision(PolicyKind::Dynamic);
  // Queue and Interrupt both evaluated, cheapest first, chosen = cheapest.
  ASSERT_EQ(d.costs.size(), 2u);
  EXPECT_EQ(d.costs.front().action, d.action);
  EXPECT_LE(d.costs[0].metricCost, d.costs[1].metricCost);
  for (const auto& c : d.costs) {
    // One term per involved application: the requester plus one accessor.
    ASSERT_EQ(c.terms.size(), 2u);
    EXPECT_GT(c.metricCost, 0.0);
    for (const auto& t : c.terms) {
      EXPECT_GT(t.cores, 0);
      EXPECT_GE(t.ioSeconds, 0.0);
      EXPECT_GT(t.aloneSeconds, 0.0);
    }
  }
}

TEST(ArbiterTest, DecisionToJsonDumpsContextAndCosts) {
  const auto dynamic = contendedDecision(PolicyKind::Dynamic);
  const std::string json = calciom::core::toJson(dynamic);
  EXPECT_NE(json.find("\"requester\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"accessors\": [1]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"action\": \""), std::string::npos) << json;
  EXPECT_NE(json.find("\"costs\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"metric_cost\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"alone_seconds\": "), std::string::npos) << json;

  // Static decisions dump without a costs array.
  const auto fcfs = contendedDecision(PolicyKind::Fcfs);
  const std::string fcfsJson = calciom::core::toJson(fcfs);
  EXPECT_EQ(fcfsJson.find("\"costs\""), std::string::npos) << fcfsJson;
  EXPECT_NE(fcfsJson.find("\"action\": \"queue\""), std::string::npos)
      << fcfsJson;
}

TEST(ArbiterTest, DecisionToJsonGoldenOutput) {
  using calciom::core::ActionCost;
  using calciom::core::AppCost;
  using calciom::core::DecisionRecord;
  DecisionRecord dynamic;
  dynamic.time = 12.25;
  dynamic.requester = 2;
  dynamic.accessors = {1, 3};
  dynamic.action = Action::Interrupt;
  dynamic.costs = {
      ActionCost{Action::Interrupt, 1.0 / 3.0,
                 {AppCost{32, 0.1, 2.0}, AppCost{128, 1e-10, 10.0}}},
      ActionCost{Action::Queue, 1234567890.5, {AppCost{32, 10.0, 2.0}}}};
  EXPECT_EQ(calciom::core::toJson(dynamic),
            "{\"time\": 12.25, \"requester\": 2, \"accessors\": [1, 3], "
            "\"action\": \"interrupt\", \"costs\": ["
            "{\"action\": \"interrupt\", \"metric_cost\": 0.333333333, "
            "\"terms\": [{\"cores\": 32, \"io_seconds\": 0.1, "
            "\"alone_seconds\": 2}, {\"cores\": 128, \"io_seconds\": 1e-10, "
            "\"alone_seconds\": 10}]}, "
            "{\"action\": \"queue\", \"metric_cost\": 1.23456789e+09, "
            "\"terms\": [{\"cores\": 32, \"io_seconds\": 10, "
            "\"alone_seconds\": 2}]}]}");

  // An FCFS decision: no costs member at all, and an empty accessor set.
  DecisionRecord fcfs;
  fcfs.time = 40.0;
  fcfs.requester = 7;
  fcfs.action = Action::Queue;
  EXPECT_EQ(calciom::core::toJson(fcfs),
            "{\"time\": 40, \"requester\": 7, \"accessors\": [], "
            "\"action\": \"queue\"}");
}

// ---------------------------------------------------------------------------
// Idempotency under replayed / reordered traffic. A SeqApp is a FakeApp that
// stamps seq (and epoch) the way a hardened Session does, so the core's
// admission filters engage; the invariant throughout is that duplicates and
// reorders leave the decision stream and the grant log byte-identical.

struct SeqApp : FakeApp {
  using FakeApp::FakeApp;

  void send(Message wire, std::uint64_t seq, std::uint64_t epoch) {
    wire.setSeq(seq);
    wire.setEpoch(epoch);
    ports.send(msg::arbiterPort(), id, std::move(wire));
  }
  void inform(std::uint64_t seq, std::uint64_t epoch) {
    IoDescriptor d;
    d.appId = id;
    d.cores = 64;
    d.estAloneSeconds = 10.0;
    send(Message::inform(d), seq, epoch);
  }
  void release(double progress, std::uint64_t seq, std::uint64_t epoch) {
    send(Message::release(progress), seq, epoch);
  }
  void pauseAck(double progress, std::uint64_t seq, std::uint64_t epoch) {
    send(Message::pauseAck(progress), seq, epoch);
  }
  void complete(std::uint64_t seq, std::uint64_t epoch) {
    send(Message::complete(), seq, epoch);
  }
};

std::string decisionStream(const Arbiter& arbiter) {
  std::string out;
  for (const auto& d : arbiter.decisions()) {
    out += calciom::core::toJson(d);
    out += '\n';
  }
  return out;
}

TEST(ArbiterIdempotencyTest, DuplicateGrantEraReleaseIsANoop) {
  Rig rig(PolicyKind::Fcfs);
  SeqApp a(1, rig.ports);
  a.inform(1, 1);
  rig.eng.run();
  a.release(0.5, 2, 1);
  rig.eng.run();
  ASSERT_EQ(rig.arbiter.core().appProgress(1), 0.5);
  const std::string decisions = decisionStream(rig.arbiter);
  const std::size_t grants = rig.arbiter.core().grantLog().size();
  // The same Release again — an injector-duplicated message — with a
  // different progress payload: the stale stamp must win over the payload.
  a.release(0.9, 2, 1);
  rig.eng.run();
  EXPECT_EQ(rig.arbiter.core().appProgress(1), 0.5);
  EXPECT_EQ(decisionStream(rig.arbiter), decisions);
  EXPECT_EQ(rig.arbiter.core().grantLog().size(), grants);
}

TEST(ArbiterIdempotencyTest, ReplayedPauseAckAfterResumeIsANoop) {
  Rig rig(PolicyKind::Interrupt);
  SeqApp a(1, rig.ports);
  SeqApp b(2, rig.ports);
  a.inform(1, 1);
  rig.eng.run();
  b.inform(1, 1);
  rig.eng.run();  // interrupt: Pause to a
  a.pauseAck(0.4, 2, 1);
  rig.eng.run();  // b granted, a paused
  b.complete(2, 1);
  rig.eng.run();  // a resumed
  ASSERT_EQ(rig.arbiter.currentAccessors(), std::vector<std::uint32_t>{1});
  ASSERT_TRUE(rig.arbiter.pausedStack().empty());
  const std::string decisions = decisionStream(rig.arbiter);
  const std::size_t grants = rig.arbiter.core().grantLog().size();
  // The ack replays after the resume (duplicate delivery, late reorder):
  // a must stay the accessor, nothing may re-pause or re-decide.
  a.pauseAck(0.4, 2, 1);
  rig.eng.run();
  EXPECT_EQ(rig.arbiter.currentAccessors(), std::vector<std::uint32_t>{1});
  EXPECT_TRUE(rig.arbiter.pausedStack().empty());
  EXPECT_EQ(decisionStream(rig.arbiter), decisions);
  EXPECT_EQ(rig.arbiter.core().grantLog().size(), grants);
}

TEST(ArbiterIdempotencyTest, OutOfOrderCompleteInformMatchesOrdered) {
  // One app ends phase 1 and announces phase 2 back-to-back; a second app
  // waits in the queue throughout. Deliver the pair in order in one rig and
  // swapped (the injector's reorder fault) in the other: the epoch-aware
  // Inform path must linearize the swap (new-epoch Inform closes the old
  // phase; the late Complete's stale stamp is then discarded), leaving both
  // rigs with identical decision streams and grant logs.
  const auto run = [](bool reordered) {
    Rig rig(PolicyKind::Fcfs);
    SeqApp a(1, rig.ports);
    SeqApp b(2, rig.ports);
    a.inform(1, 1);
    rig.eng.run();
    b.inform(1, 1);
    rig.eng.run();
    // Same engine instant, so both deliveries share a timestamp and only
    // their order differs between the two rigs.
    if (reordered) {
      a.inform(3, 2);
      a.complete(2, 1);
    } else {
      a.complete(2, 1);
      a.inform(3, 2);
    }
    rig.eng.run();
    b.complete(2, 1);  // a's phase-2 request reaches the front: Grant
    rig.eng.run();
    a.complete(4, 2);
    rig.eng.run();
    EXPECT_TRUE(rig.arbiter.core().idle());
    std::string log;
    for (const auto& g : rig.arbiter.core().grantLog()) {
      log += std::to_string(g.app) + "@";
      log += std::to_string(g.time) + ";";
    }
    return decisionStream(rig.arbiter) + log;
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Lease-expiry edge cases, driven on the bare ArbiterCore with explicit
// timestamps — the frontends' timers would quantize the exact instants
// under test (sweep and Complete on one timestamp, a heartbeat landing
// exactly at the expiry boundary, a reclaim racing a delayed Release).

using calciom::core::ArbiterCore;
using calciom::core::LeaseConfig;

Message coreInformWire(std::uint32_t id) {
  IoDescriptor d;
  d.appId = id;
  d.cores = 64;
  d.estAloneSeconds = 10.0;
  return Message::inform(d);
}

TEST(ArbiterLeaseEdgeTest, CompleteAndLeaseSweepOnTheSameInstant) {
  // The holder's Complete and the over-lease sweep land on one timestamp,
  // in both orders. Either way the waiter is admitted exactly once, and an
  // app that completed first is never counted as a lease reclaim.
  for (const bool completeFirst : {true, false}) {
    SCOPED_TRACE(completeFirst ? "complete then sweep" : "sweep then complete");
    ArbiterCore core(makePolicy(PolicyKind::Fcfs));
    core.configureLeases(LeaseConfig{1.5, 0.0});
    ArbiterCore::Commands out;
    core.onMessage(0.0, 1, coreInformWire(1), out);  // granted
    core.onMessage(0.2, 2, coreInformWire(2), out);  // queued
    const double t = 1.6;  // holder silent since 0.0: over-lease at t
    if (completeFirst) {
      core.onMessage(t, 1, Message::complete(), out);
      core.onTick(t, out);
      EXPECT_EQ(core.leaseReclaims(), 0u);  // Idle apps are never swept
    } else {
      core.onTick(t, out);  // reclaims the silent holder first
      EXPECT_EQ(core.leaseReclaims(), 1u);
      // The crossing Complete arrives from a now-unknown app: ignored.
      core.onMessage(t, 1, Message::complete(), out);
      EXPECT_EQ(core.leaseReclaims(), 1u);
    }
    EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{2});
    EXPECT_LE(core.maxConcurrentAccessors(), 1u);
    int grantsToWaiter = 0;
    for (const auto& g : core.grantLog()) {
      grantsToWaiter += g.app == 2 ? 1 : 0;
    }
    EXPECT_EQ(grantsToWaiter, 1);  // admitted exactly once
  }
}

TEST(ArbiterLeaseEdgeTest, HeartbeatExactlyAtExpiryRenewsTheLease) {
  // Lease expiry is strict (now - lastHeard > leaseSeconds): a sweep — or a
  // heartbeat — landing exactly on the boundary still counts as alive.
  ArbiterCore core(makePolicy(PolicyKind::Fcfs));
  core.configureLeases(LeaseConfig{1.5, 0.0});
  ArbiterCore::Commands out;
  core.onMessage(0.0, 1, coreInformWire(1), out);  // granted at t=0
  core.onTick(1.5, out);  // exactly at the boundary: not expired
  EXPECT_EQ(core.leaseReclaims(), 0u);
  const Message hb = Message::heartbeat(std::nullopt, SessionState::Accessing);
  core.onMessage(1.5, 1, hb, out);  // boundary heartbeat renews the clock
  core.onTick(3.0, out);            // 3.0 - 1.5 == lease: still alive
  EXPECT_EQ(core.leaseReclaims(), 0u);
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{1});
  core.onTick(3.2, out);  // now strictly past: reclaimed
  EXPECT_EQ(core.leaseReclaims(), 1u);
  EXPECT_TRUE(core.currentAccessors().empty());
}

TEST(ArbiterLeaseEdgeTest, ReclamationRacesADelayedRelease) {
  // The holder's Release was fault-delayed past its own lease: by the time
  // it lands the access was reclaimed and re-granted. The stale Release
  // must neither resurrect the reclaimed app nor disturb the new holder —
  // and the app (alive all along, just partitioned) re-admits cleanly.
  ArbiterCore core(makePolicy(PolicyKind::Fcfs));
  core.configureLeases(LeaseConfig{1.5, 0.0});
  ArbiterCore::Commands out;
  core.onMessage(0.0, 1, coreInformWire(1), out);  // granted
  core.onMessage(0.3, 2, coreInformWire(2), out);  // queued
  // Sweep at 1.6: the holder (silent since 0.0) is over-lease, the waiter
  // (heard at 0.3) is not — reclaimed and re-granted respectively.
  core.onTick(1.6, out);
  EXPECT_EQ(core.leaseReclaims(), 1u);
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{2});
  const std::size_t grants = core.grantLog().size();

  const Message rel = Message::release(0.7);
  core.onMessage(1.7, 1, rel, out);  // the delayed Release finally arrives
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{2});
  EXPECT_EQ(core.grantLog().size(), grants);
  EXPECT_FALSE(core.appProgress(1).has_value());  // no resurrected record

  core.onMessage(1.8, 1, coreInformWire(1), out);  // re-Inform: re-admits
  EXPECT_EQ(core.waitQueue(), std::vector<std::uint32_t>{1});
  core.onMessage(2.0, 2, Message::complete(), out);
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{1});
  EXPECT_LE(core.maxConcurrentAccessors(), 1u);
}

TEST(ArbiterFenceTest, OlderIncarnationIsIgnoredWhateverItsSeq) {
  // A record at incarnation 2 receives its dead predecessor's Complete
  // (incarnation 1). Only the incarnation fence can drop it: seq 0 skips
  // the seq dedup, and a seq above the record's lastSeq passes it. Applied,
  // the Complete would end the successor's access and admit the waiter.
  for (const std::uint64_t staleSeq : {std::uint64_t{0}, std::uint64_t{100}}) {
    SCOPED_TRACE(staleSeq);
    ArbiterCore core(makePolicy(PolicyKind::Fcfs));
    ArbiterCore::Commands out;
    Message inform = coreInformWire(1);
    inform.setSeq(1);
    inform.setEpoch(1);
    inform.setIncarnation(2);
    core.onMessage(0.0, 1, inform, out);             // granted
    core.onMessage(0.1, 2, coreInformWire(2), out);  // queued
    const std::size_t grants = core.grantLog().size();
    Message stale = Message::complete();
    stale.setSeq(staleSeq);
    stale.setEpoch(1);
    stale.setIncarnation(1);
    core.onMessage(1.0, 1, stale, out);
    EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{1});
    EXPECT_EQ(core.waitQueue(), std::vector<std::uint32_t>{2});
    EXPECT_EQ(core.grantLog().size(), grants);
  }
}

TEST(ArbiterRepairTest, SameEpochIdleHeartbeatClosesALostCompletePhase) {
  // The accessor's Complete was lost; its next heartbeat, still in the
  // phase's epoch, reports Idle. That report is as good as the Complete:
  // the phase closes and the waiter is admitted.
  ArbiterCore core(makePolicy(PolicyKind::Fcfs));
  ArbiterCore::Commands out;
  Message inform = coreInformWire(1);
  inform.setEpoch(1);
  core.onMessage(0.0, 1, inform, out);             // granted
  core.onMessage(0.1, 2, coreInformWire(2), out);  // queued
  Message idle = Message::heartbeat(std::nullopt, SessionState::Idle);
  idle.setEpoch(1);
  core.onMessage(1.0, 1, idle, out);
  EXPECT_EQ(core.currentAccessors(), std::vector<std::uint32_t>{2});
  EXPECT_TRUE(core.waitQueue().empty());
  ASSERT_FALSE(core.grantLog().empty());
  EXPECT_EQ(core.grantLog().back().app, 2u);
}

// ---------------------------------------------------------------------------
// encodeCommand: the one wire encoder of both transports. Golden messages.

TEST(EncodeCommand, UnstampedCommandCarriesOnlyItsType) {
  const Message wire =
      encodeCommand(ArbiterCommand{.app = 3, .type = CommandType::Pause});
  EXPECT_EQ(wire.type(), MessageType::Pause);
  EXPECT_EQ(wire.cmdSeq(), 0u);
  EXPECT_EQ(wire.epoch(), 0u);
  EXPECT_EQ(wire.incarnation(), 0u);
  EXPECT_EQ(wire.arbiterIncarnation(), 0u);
}

TEST(EncodeCommand, EveryNonzeroStampIsSerialized) {
  const Message wire =
      encodeCommand(ArbiterCommand{.app = 3,
                                   .type = CommandType::Recover,
                                   .epoch = 7,
                                   .cmdSeq = 42,
                                   .incarnation = 2,
                                   .arbiterIncarnation = 5});
  EXPECT_EQ(wire.type(), MessageType::Recover);
  EXPECT_EQ(wire.cmdSeq(), 42u);
  EXPECT_EQ(wire.epoch(), 7u);
  EXPECT_EQ(wire.incarnation(), 2u);
  EXPECT_EQ(wire.arbiterIncarnation(), 5u);
}

}  // namespace
