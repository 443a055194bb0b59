// Session-level tests: the paper-named API (inform/check/wait/release/
// prepare/complete) used directly, granularity semantics, stale pause
// handling, and bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "calciom/arbiter.hpp"
#include "calciom/capture.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace {

using calciom::core::Arbiter;
using calciom::core::HookGranularity;
using calciom::core::IoHints;
using calciom::core::makePolicy;
using calciom::core::PolicyKind;
using calciom::core::Session;
using calciom::core::SessionConfig;
using calciom::io::PhaseInfo;
using calciom::mpi::PortRegistry;
using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::Task;
using calciom::sim::Time;

PhaseInfo simplePhase(std::uint32_t appId, double estAlone) {
  PhaseInfo info;
  info.appId = appId;
  info.processes = 8;
  info.totalBytes = 1000;
  info.estimatedAloneSeconds = estAlone;
  return info;
}

struct Rig {
  Engine eng;
  PortRegistry ports{eng, 1e-3};
  Arbiter arbiter;
  explicit Rig(PolicyKind kind) : arbiter(eng, ports, makePolicy(kind)) {}
};

Task informAndWait(Engine& eng, Session& s, PhaseInfo info, Time* granted) {
  s.inform(info);
  co_await eng.spawn(s.wait());
  *granted = eng.now();
}

TEST(SessionTest, CheckIsFalseUntilGrantArrives) {
  Rig rig(PolicyKind::Fcfs);
  Session s(rig.eng, rig.ports, SessionConfig{.appId = 1, .cores = 8});
  EXPECT_FALSE(s.check());
  Time granted = -1.0;
  rig.eng.spawn(informAndWait(rig.eng, s, simplePhase(1, 5.0), &granted));
  rig.eng.run();
  EXPECT_TRUE(s.check());
  EXPECT_NEAR(granted, 2e-3, 1e-9);  // two message hops
  EXPECT_NEAR(s.waitSeconds(), 2e-3, 1e-9);
}

TEST(SessionTest, WaitOnAlreadyGrantedSessionReturnsImmediately) {
  Rig rig(PolicyKind::Fcfs);
  Session s(rig.eng, rig.ports, SessionConfig{.appId = 1, .cores = 8});
  Time granted = -1.0;
  rig.eng.spawn(informAndWait(rig.eng, s, simplePhase(1, 5.0), &granted));
  rig.eng.run();
  const double waitBefore = s.waitSeconds();
  Time again = -1.0;
  rig.eng.spawn([](Engine& eng, Session& session, Time* out) -> Task {
    co_await eng.spawn(session.wait());
    *out = eng.now();
  }(rig.eng, s, &again));
  rig.eng.run();
  EXPECT_DOUBLE_EQ(again, granted);  // no further simulated time passed
  EXPECT_DOUBLE_EQ(s.waitSeconds(), waitBefore);
}

Task phaseWithBoundaries(Engine& eng, Session& s, PhaseInfo info,
                         int rounds, double roundSeconds, Time* end) {
  s.inform(info);
  co_await eng.spawn(s.wait());
  for (int r = 0; r < rounds; ++r) {
    co_await Delay{roundSeconds};
    co_await eng.spawn(s.roundBoundary(
        static_cast<double>(r + 1) / static_cast<double>(rounds)));
  }
  co_await eng.spawn(s.endPhase());
  *end = eng.now();
}

TEST(SessionTest, PhaseOnlyGranularityNeverPauses) {
  Rig rig(PolicyKind::Interrupt);
  Session a(rig.eng, rig.ports,
            SessionConfig{.appId = 1, .cores = 8,
                          .granularity = HookGranularity::PhaseOnly});
  Session b(rig.eng, rig.ports, SessionConfig{.appId = 2, .cores = 8});
  Time endA = -1.0;
  Time endB = -1.0;
  rig.eng.spawn(
      phaseWithBoundaries(rig.eng, a, simplePhase(1, 4.0), 4, 1.0, &endA));
  rig.eng.spawn([](Engine& eng, Session& s, Time* end) -> Task {
    co_await Delay{1.5};
    co_await eng.spawn(s.beginPhase(simplePhase(2, 1.0)));
    co_await Delay{1.0};
    co_await eng.spawn(s.endPhase());
    *end = eng.now();
  }(rig.eng, b, &endB));
  rig.eng.run();
  // A ignores the pause request at every round boundary and finishes its
  // whole phase; B is only granted afterwards.
  EXPECT_EQ(a.pausesHonored(), 0);
  EXPECT_GT(endB, endA);
}

TEST(SessionTest, PauseArrivingAfterPhaseEndIsStale) {
  Rig rig(PolicyKind::Interrupt);
  Session a(rig.eng, rig.ports, SessionConfig{.appId = 1, .cores = 8});
  Session b(rig.eng, rig.ports, SessionConfig{.appId = 2, .cores = 8});
  Time endA = -1.0;
  Time endB = -1.0;
  // A's phase is so short that B's interrupt lands after A completed.
  rig.eng.spawn(
      phaseWithBoundaries(rig.eng, a, simplePhase(1, 0.1), 1, 0.1, &endA));
  rig.eng.spawn([](Engine& eng, Session& s, Time* end) -> Task {
    co_await Delay{0.1001};
    co_await eng.spawn(s.beginPhase(simplePhase(2, 1.0)));
    co_await Delay{1.0};
    co_await eng.spawn(s.endPhase());
    *end = eng.now();
  }(rig.eng, b, &endB));
  rig.eng.run();
  EXPECT_EQ(a.pausesHonored(), 0);
  EXPECT_GT(endB, 1.0);
  // A's next phase must not be poisoned by the stale pause flag.
  Time endA2 = -1.0;
  rig.eng.spawn(
      phaseWithBoundaries(rig.eng, a, simplePhase(1, 0.4), 4, 0.1, &endA2));
  rig.eng.run();
  EXPECT_EQ(a.pausesHonored(), 0);
  EXPECT_GT(endA2, 0.0);
}

TEST(SessionTest, PausedFlagAndAccountingDuringInterruption) {
  Rig rig(PolicyKind::Interrupt);
  Session a(rig.eng, rig.ports, SessionConfig{.appId = 1, .cores = 8});
  Session b(rig.eng, rig.ports, SessionConfig{.appId = 2, .cores = 8});
  Time endA = -1.0;
  Time endB = -1.0;
  rig.eng.spawn(
      phaseWithBoundaries(rig.eng, a, simplePhase(1, 4.0), 4, 1.0, &endA));
  rig.eng.spawn([](Engine& eng, Session& s, Time* end) -> Task {
    co_await Delay{1.5};
    co_await eng.spawn(s.beginPhase(simplePhase(2, 2.0)));
    co_await Delay{2.0};
    co_await eng.spawn(s.endPhase());
    *end = eng.now();
  }(rig.eng, b, &endB));
  bool pausedMidway = false;
  rig.eng.scheduleAt(3.0, [&] { pausedMidway = a.paused(); });
  rig.eng.run();
  EXPECT_TRUE(pausedMidway);
  EXPECT_FALSE(a.paused());
  EXPECT_EQ(a.pausesHonored(), 1);
  EXPECT_NEAR(a.pausedSeconds(), 2.0, 0.05);
  EXPECT_NEAR(endA, 4.0 + 2.0, 0.1);
}

TEST(SessionTest, DegradesAtTheRetryThatReachesTheDeadline) {
  // No arbiter listens, so the phase's Inform goes unanswered. Retries
  // fire every 0.5 s; the one at exactly degradeAfterSeconds (1.0 s after
  // the Inform, exact in binary) degrades the session instead of sending
  // again, and the waiter proceeds uncoordinated from then on.
  Engine eng;
  PortRegistry ports(eng, 1e-3);
  Session s(eng, ports,
            SessionConfig{.appId = 1,
                          .cores = 8,
                          .informRetrySeconds = 0.5,
                          .degradeAfterSeconds = 1.0});
  Time proceeded = -1.0;
  eng.spawn(informAndWait(eng, s, simplePhase(1, 1.0), &proceeded));
  eng.run();
  EXPECT_TRUE(s.degraded());
  EXPECT_EQ(proceeded, 1.0);
}

TEST(SessionTest, PrepareCompleteStackSemantics) {
  Rig rig(PolicyKind::Fcfs);
  Session s(rig.eng, rig.ports, SessionConfig{.appId = 1, .cores = 8});
  s.prepare(IoHints{.appName = "hdf5"});
  s.prepare(IoHints{.appName = "adio"});
  s.complete();
  s.complete();
  EXPECT_THROW(s.complete(), calciom::PreconditionError);
}

TEST(SessionTest, InformCountsAndConfigAccessors) {
  Rig rig(PolicyKind::Fcfs);
  Session s(rig.eng, rig.ports,
            SessionConfig{.appId = 7, .appName = "x", .cores = 128});
  EXPECT_EQ(s.config().appId, 7u);
  EXPECT_EQ(s.config().cores, 128);
  Time granted = -1.0;
  rig.eng.spawn(informAndWait(rig.eng, s, simplePhase(7, 5.0), &granted));
  rig.eng.run();
  EXPECT_EQ(s.informsSent(), 1);
}

using Wire = std::vector<std::pair<std::string, std::string>>;

/// A session message in the key/value text form the wire had before it
/// was typed (keys sorted, numbers as std::to_string renders them), so the
/// golden values below read as they always did.
Wire wireOf(const calciom::core::Message& m) {
  using calciom::core::MessageType;
  static constexpr const char* kTypeNames[] = {
      "inform", "release", "complete", "pause_ack", "heartbeat",
      "grant",  "pause",   "resume",   "recover"};
  Wire out;
  const auto add = [&out](const char* key, std::string value) {
    out.emplace_back(key, std::move(value));
  };
  if (m.type() == MessageType::Inform) {
    const calciom::core::IoDescriptor& d = m.descriptor();
    add("calciom.app_id", std::to_string(d.appId));
    add("calciom.app_name", d.appName);
    add("calciom.bytes_per_round", std::to_string(d.bytesPerRound));
    add("calciom.cores", std::to_string(d.cores));
    add("calciom.est_alone_seconds", std::to_string(d.estAloneSeconds));
    add("calciom.files", std::to_string(d.files));
    add("calciom.rounds_per_file", std::to_string(d.roundsPerFile));
    add("calciom.total_bytes", std::to_string(d.totalBytes));
  }
  if (m.epoch() != 0) {
    add("calciom.epoch", std::to_string(m.epoch()));
  }
  if (m.incarnation() != 0) {
    add("calciom.incarnation", std::to_string(m.incarnation()));
  }
  if (m.type() != MessageType::Complete && m.progress()) {
    add("calciom.progress", std::to_string(*m.progress()));
  }
  if (m.seq() != 0) {
    add("calciom.seq", std::to_string(m.seq()));
  }
  add("calciom.type", kTypeNames[static_cast<int>(m.type())]);
  std::sort(out.begin(), out.end());
  return out;
}

// What a Session puts on the wire. Decisions, captures and every pinned
// fingerprint are computed from these values, so any change here (a
// field, the six-decimal rounding of doubles) is a deliberate wire-format
// change, not a refactoring.
TEST(SessionWireTest, InformReleasePauseAckPayloadsAreGolden) {
  Rig rig(PolicyKind::Interrupt);
  calciom::core::EventLog log;
  Session a(rig.eng, rig.ports,
            SessionConfig{.appId = 1, .appName = "golden", .cores = 8,
                          .incarnation = 3});
  Session b(rig.eng, rig.ports, SessionConfig{.appId = 2, .cores = 4});
  a.captureTo(&log);
  const PhaseInfo phase{.appId = 1,
                        .processes = 8,
                        .totalBytes = 3000,
                        .files = 2,
                        .roundsPerFile = 3,
                        .bytesPerRound = 500,
                        .estimatedAloneSeconds = 1.0 / 3.0};
  rig.eng.spawn([](Engine& eng, Session& s, PhaseInfo info) -> Task {
    co_await eng.spawn(s.beginPhase(info));
    co_await eng.spawn(s.roundBoundary(1.0 / 3.0));  // Release
    co_await Delay{1.0};                             // b interrupts meanwhile
    co_await eng.spawn(s.roundBoundary(2.0 / 3.0));  // PauseAck, then paused
    co_await eng.spawn(s.endPhase());
  }(rig.eng, a, phase));
  rig.eng.spawn([](Engine& eng, Session& s) -> Task {
    co_await Delay{0.5};
    co_await eng.spawn(s.beginPhase(simplePhase(2, 0.1)));
    co_await Delay{0.1};
    co_await eng.spawn(s.endPhase());
  }(rig.eng, b));
  rig.eng.run();

  const auto& events = log.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(wireOf(events[0].payload),
            (Wire{{"calciom.app_id", "1"},
                  {"calciom.app_name", "golden"},
                  {"calciom.bytes_per_round", "500"},
                  {"calciom.cores", "8"},
                  {"calciom.epoch", "1"},
                  {"calciom.est_alone_seconds", "0.333333"},
                  {"calciom.files", "2"},
                  {"calciom.incarnation", "3"},
                  {"calciom.rounds_per_file", "3"},
                  {"calciom.seq", "1"},
                  {"calciom.total_bytes", "3000"},
                  {"calciom.type", "inform"}}));
  EXPECT_EQ(wireOf(events[1].payload),
            (Wire{{"calciom.epoch", "1"},
                  {"calciom.incarnation", "3"},
                  {"calciom.progress", "0.333333"},
                  {"calciom.seq", "2"},
                  {"calciom.type", "release"}}));
  EXPECT_EQ(wireOf(events[2].payload),
            (Wire{{"calciom.epoch", "1"},
                  {"calciom.incarnation", "3"},
                  {"calciom.progress", "0.666667"},
                  {"calciom.seq", "3"},
                  {"calciom.type", "pause_ack"}}));
  EXPECT_EQ(wireOf(events[3].payload),
            (Wire{{"calciom.epoch", "1"},
                  {"calciom.incarnation", "3"},
                  {"calciom.seq", "4"},
                  {"calciom.type", "complete"}}));
}

// Prepare() hints are applied to the descriptor once per Inform: later
// hints win over earlier ones and over the phase's own values, and a hinted
// estimate still travels six-decimal rounded.
TEST(SessionWireTest, PrepareHintsOverrideTheInformDescriptor) {
  using calciom::core::IoDescriptor;
  Rig rig(PolicyKind::Fcfs);
  calciom::core::EventLog log;
  Session s(rig.eng, rig.ports,
            SessionConfig{.appId = 5, .appName = "phase", .cores = 8});
  s.captureTo(&log);
  s.prepare(IoHints{.appName = "older", .estAloneSeconds = 2.0 / 3.0});
  s.prepare(IoHints{.appName = "newer", .cores = 16});
  Time granted = -1.0;
  rig.eng.spawn(informAndWait(rig.eng, s, simplePhase(5, 1.0), &granted));
  rig.eng.run();
  ASSERT_EQ(log.events().size(), 1u);
  const IoDescriptor& d = log.events()[0].payload.descriptor();
  EXPECT_EQ(d.appId, 5u);
  EXPECT_EQ(d.appName, "newer");
  EXPECT_EQ(d.cores, 16);
  EXPECT_EQ(d.totalBytes, 1000u);
  EXPECT_EQ(d.estAloneSeconds, 0.666667);
}

TEST(SessionTest, InvalidCoreCountThrows) {
  Rig rig(PolicyKind::Fcfs);
  EXPECT_THROW(Session(rig.eng, rig.ports,
                       SessionConfig{.appId = 1, .cores = 0}),
               calciom::PreconditionError);
}

}  // namespace
