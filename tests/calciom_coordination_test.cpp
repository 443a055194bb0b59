// End-to-end tests of the arbiter + session coordination protocol using
// synthetic applications whose rounds are plain delays. These validate the
// FCFS, interruption and dynamic behaviours of the paper's Section III/IV
// at the protocol level (the full I/O stack variants live in the
// integration tests).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "calciom/arbiter.hpp"
#include "calciom/capture.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"

namespace {

using calciom::core::Action;
using calciom::core::Arbiter;
using calciom::core::CpuSecondsWasted;
using calciom::core::HookGranularity;
using calciom::core::IoDescriptor;
using calciom::core::IoHints;
using calciom::core::makePolicy;
using calciom::core::MessageType;
using calciom::core::PolicyKind;
using calciom::core::Session;
using calciom::core::SessionConfig;
using calciom::io::PhaseInfo;
using calciom::mpi::PortRegistry;
using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::Task;
using calciom::sim::Time;

constexpr double kLatency = 1e-3;

struct AppResult {
  Time start = -1.0;
  Time end = -1.0;
  [[nodiscard]] double elapsed() const { return end - start; }
};

/// A synthetic application: `files` x `rounds` rounds of `roundSeconds`
/// each, with hooks driven exactly like the real writer drives them.
Task synthApp(Engine& eng, Session& session, PhaseInfo info, int files,
              int rounds, double roundSeconds, Time startAt, AppResult* out) {
  co_await Delay{startAt};
  out->start = eng.now();
  co_await eng.spawn(session.beginPhase(info));
  const int totalRounds = files * rounds;
  int done = 0;
  for (int f = 0; f < files; ++f) {
    for (int r = 0; r < rounds; ++r) {
      co_await Delay{roundSeconds};
      ++done;
      const double progress =
          static_cast<double>(done) / static_cast<double>(totalRounds);
      if (r + 1 < rounds) {
        co_await eng.spawn(session.roundBoundary(progress));
      }
    }
    if (f + 1 < files) {
      co_await eng.spawn(session.fileBoundary(
          static_cast<double>(f + 1) / static_cast<double>(files)));
    }
  }
  co_await eng.spawn(session.endPhase());
  out->end = eng.now();
}

PhaseInfo phaseInfo(std::uint32_t appId, int files, int rounds,
                    double roundSeconds) {
  PhaseInfo info;
  info.appId = appId;
  info.appName = "app" + std::to_string(appId);
  info.processes = 64;
  info.files = files;
  info.roundsPerFile = rounds;
  info.totalBytes = 1000;
  info.bytesPerRound = 1000 / static_cast<std::uint64_t>(files * rounds);
  info.estimatedAloneSeconds = files * rounds * roundSeconds;
  return info;
}

struct Harness {
  Engine eng;
  PortRegistry ports{eng, kLatency};
  Arbiter arbiter;

  explicit Harness(PolicyKind kind)
      : arbiter(eng, ports, makePolicy(kind)) {}

  Session makeSession(std::uint32_t id, int cores,
                      HookGranularity g = HookGranularity::PerRound) {
    return Session(eng, ports,
                   SessionConfig{.appId = id,
                                 .appName = "app" + std::to_string(id),
                                 .cores = cores,
                                 .granularity = g});
  }
};

TEST(CoordinationTest, LoneAppIsGrantedAfterTwoMessageHops) {
  Harness h(PolicyKind::Fcfs);
  Session s = h.makeSession(1, 64);
  AppResult res;
  h.eng.spawn(synthApp(h.eng, s, phaseInfo(1, 1, 4, 1.0), 1, 4, 1.0, 0.0,
                       &res));
  h.eng.run();
  // 4 rounds of 1s plus inform->grant round trip (2 hops of 1ms).
  EXPECT_NEAR(res.elapsed(), 4.0 + 2 * kLatency, 1e-6);
  EXPECT_EQ(h.arbiter.grantsIssued(), 1u);
  EXPECT_TRUE(h.arbiter.decisions().empty());  // no contention, no decision
}

TEST(CoordinationTest, FcfsSerializesSecondArrival) {
  Harness h(PolicyKind::Fcfs);
  Session sa = h.makeSession(1, 64);
  Session sb = h.makeSession(2, 64);
  AppResult ra;
  AppResult rb;
  // A: 4 rounds x 1s starting at 0; B: 2 rounds x 1s starting at 1.5.
  h.eng.spawn(synthApp(h.eng, sa, phaseInfo(1, 1, 4, 1.0), 1, 4, 1.0, 0.0,
                       &ra));
  h.eng.spawn(synthApp(h.eng, sb, phaseInfo(2, 1, 2, 1.0), 1, 2, 1.0, 1.5,
                       &rb));
  h.eng.run();
  // A is untouched (the paper's FCFS property).
  EXPECT_NEAR(ra.elapsed(), 4.0 + 2 * kLatency, 1e-6);
  // B waits until A completes (~4.004) then writes 2s: elapsed ~2.5 + wait.
  EXPECT_NEAR(rb.end, 4.0 + 2.0, 0.02);
  EXPECT_NEAR(rb.elapsed(), 4.5, 0.02);
  EXPECT_GT(sb.waitSeconds(), 2.4);
  EXPECT_EQ(sa.pausesHonored(), 0);
}

TEST(CoordinationTest, InterruptPausesAccessorAtNextRound) {
  Harness h(PolicyKind::Interrupt);
  Session sa = h.makeSession(1, 64);
  Session sb = h.makeSession(2, 64);
  AppResult ra;
  AppResult rb;
  h.eng.spawn(synthApp(h.eng, sa, phaseInfo(1, 1, 4, 1.0), 1, 4, 1.0, 0.0,
                       &ra));
  h.eng.spawn(synthApp(h.eng, sb, phaseInfo(2, 1, 1, 1.0), 1, 1, 1.0, 1.5,
                       &rb));
  h.eng.run();
  // B informs at 1.5; A pauses at its next boundary (t=2), B runs 1s and
  // completes; A resumes and finishes its remaining 2 rounds.
  EXPECT_EQ(sa.pausesHonored(), 1);
  EXPECT_NEAR(sa.pausedSeconds(), 1.0, 0.02);
  EXPECT_NEAR(ra.elapsed(), 5.0, 0.03);  // 4s of work + ~1s paused
  // B only waits for A to reach the boundary (~0.5s), not for completion.
  EXPECT_NEAR(rb.elapsed(), 1.5, 0.03);
  EXPECT_EQ(h.arbiter.pausesIssued(), 1u);
}

TEST(CoordinationTest, FileGranularityDelaysPauseUntilFileBoundary) {
  Harness h(PolicyKind::Interrupt);
  // A writes 2 files x 2 rounds; pauses only honored between files.
  Session sa = h.makeSession(1, 64, HookGranularity::PerFile);
  Session sb = h.makeSession(2, 64);
  AppResult ra;
  AppResult rb;
  h.eng.spawn(synthApp(h.eng, sa, phaseInfo(1, 2, 2, 1.0), 2, 2, 1.0, 0.0,
                       &ra));
  h.eng.spawn(synthApp(h.eng, sb, phaseInfo(2, 1, 1, 1.0), 1, 1, 1.0, 0.5,
                       &rb));
  h.eng.run();
  // Pause requested ~0.5; the round boundary at t=1 does NOT honour it;
  // the file boundary at t=2 does. B starts ~2, ends ~3.
  EXPECT_EQ(sa.pausesHonored(), 1);
  EXPECT_NEAR(rb.end, 3.0, 0.03);
  EXPECT_NEAR(rb.elapsed(), 2.5, 0.03);
  // With round granularity instead, B would have started at t=1.
}

TEST(CoordinationTest, InterferePolicyGrantsConcurrently) {
  Harness h(PolicyKind::Interfere);
  Session sa = h.makeSession(1, 64);
  Session sb = h.makeSession(2, 64);
  AppResult ra;
  AppResult rb;
  h.eng.spawn(synthApp(h.eng, sa, phaseInfo(1, 1, 4, 1.0), 1, 4, 1.0, 0.0,
                       &ra));
  h.eng.spawn(synthApp(h.eng, sb, phaseInfo(2, 1, 4, 1.0), 1, 4, 1.0, 1.0,
                       &rb));
  h.eng.run();
  // Neither waits (synthetic rounds don't model bandwidth contention).
  EXPECT_NEAR(ra.elapsed(), 4.0 + 2 * kLatency, 1e-6);
  EXPECT_NEAR(rb.elapsed(), 4.0 + 2 * kLatency, 1e-6);
  EXPECT_EQ(h.arbiter.grantsIssued(), 2u);
}

TEST(CoordinationTest, DynamicInterruptsWhenRemainingExceedsRequester) {
  Harness h(PolicyKind::Dynamic);
  Session sa = h.makeSession(1, 64);
  Session sb = h.makeSession(2, 64);
  AppResult ra;
  AppResult rb;
  // A: 10 rounds x 1s (est 10s); B: 1 round x 1s (est 1s) arriving at 2.5:
  // remaining_A ~ 8s > est_B = 1s -> interrupt.
  h.eng.spawn(synthApp(h.eng, sa, phaseInfo(1, 1, 10, 1.0), 1, 10, 1.0, 0.0,
                       &ra));
  h.eng.spawn(synthApp(h.eng, sb, phaseInfo(2, 1, 1, 1.0), 1, 1, 1.0, 2.5,
                       &rb));
  h.eng.run();
  ASSERT_EQ(h.arbiter.decisions().size(), 1u);
  EXPECT_EQ(h.arbiter.decisions()[0].action, Action::Interrupt);
  EXPECT_FALSE(h.arbiter.decisions()[0].costs.empty());
  EXPECT_EQ(sa.pausesHonored(), 1);
}

TEST(CoordinationTest, DynamicQueuesWhenAccessorAlmostDone) {
  Harness h(PolicyKind::Dynamic);
  Session sa = h.makeSession(1, 64);
  Session sb = h.makeSession(2, 64);
  AppResult ra;
  AppResult rb;
  // A: 4 rounds x 1s; B: est 3s arriving at 2.5 when remaining_A ~ 1.5s
  // (progress 0.5 reported at t=2) -> 2 < 3 -> queue.
  h.eng.spawn(synthApp(h.eng, sa, phaseInfo(1, 1, 4, 1.0), 1, 4, 1.0, 0.0,
                       &ra));
  h.eng.spawn(synthApp(h.eng, sb, phaseInfo(2, 1, 3, 1.0), 1, 3, 1.0, 2.5,
                       &rb));
  h.eng.run();
  ASSERT_EQ(h.arbiter.decisions().size(), 1u);
  EXPECT_EQ(h.arbiter.decisions()[0].action, Action::Queue);
  EXPECT_EQ(sa.pausesHonored(), 0);
  EXPECT_NEAR(ra.elapsed(), 4.0 + 2 * kLatency, 1e-6);
}

TEST(CoordinationTest, ThreeAppsFcfsIsServedInArrivalOrder) {
  Harness h(PolicyKind::Fcfs);
  Session s1 = h.makeSession(1, 64);
  Session s2 = h.makeSession(2, 64);
  Session s3 = h.makeSession(3, 64);
  AppResult r1;
  AppResult r2;
  AppResult r3;
  h.eng.spawn(synthApp(h.eng, s1, phaseInfo(1, 1, 2, 1.0), 1, 2, 1.0, 0.0,
                       &r1));
  h.eng.spawn(synthApp(h.eng, s2, phaseInfo(2, 1, 2, 1.0), 1, 2, 1.0, 0.5,
                       &r2));
  h.eng.spawn(synthApp(h.eng, s3, phaseInfo(3, 1, 2, 1.0), 1, 2, 1.0, 0.7,
                       &r3));
  h.eng.run();
  EXPECT_LT(r1.end, r2.end);
  EXPECT_LT(r2.end, r3.end);
  EXPECT_NEAR(r1.end, 2.0, 0.02);
  EXPECT_NEAR(r2.end, 4.0, 0.02);
  EXPECT_NEAR(r3.end, 6.0, 0.02);
}

TEST(CoordinationTest, InterruptedAppResumesBeforeQueuedOnes) {
  Harness h(PolicyKind::Interrupt);
  Session s1 = h.makeSession(1, 64);
  Session s2 = h.makeSession(2, 64);
  Session s3 = h.makeSession(3, 64);
  AppResult r1;
  AppResult r2;
  AppResult r3;
  // App1 long phase; app2 interrupts it at 1.5; app3 arrives while the
  // interrupt is settling and must queue; after app2 completes, app1
  // resumes (LIFO) and app3 goes last.
  h.eng.spawn(synthApp(h.eng, s1, phaseInfo(1, 1, 6, 1.0), 1, 6, 1.0, 0.0,
                       &r1));
  h.eng.spawn(synthApp(h.eng, s2, phaseInfo(2, 1, 1, 1.0), 1, 1, 1.0, 1.5,
                       &r2));
  h.eng.spawn(synthApp(h.eng, s3, phaseInfo(3, 1, 1, 1.0), 1, 1, 1.0, 1.6,
                       &r3));
  h.eng.run();
  EXPECT_LT(r2.end, r1.end);  // interrupter finished during app1's pause
  EXPECT_LT(r1.end, r3.end);  // app1 resumed before app3 was admitted
  EXPECT_EQ(s1.pausesHonored(), 1);
}

TEST(CoordinationTest, BackToBackPhasesReuseTheSession) {
  Harness h(PolicyKind::Fcfs);
  Session s = h.makeSession(1, 64);
  AppResult first;
  AppResult second;
  h.eng.spawn(synthApp(h.eng, s, phaseInfo(1, 1, 2, 1.0), 1, 2, 1.0, 0.0,
                       &first));
  h.eng.run();
  h.eng.spawn(synthApp(h.eng, s, phaseInfo(1, 1, 2, 1.0), 1, 2, 1.0, 0.0,
                       &second));
  h.eng.run();
  EXPECT_NEAR(first.elapsed(), 2.0 + 2 * kLatency, 1e-6);
  EXPECT_NEAR(second.elapsed(), 2.0 + 2 * kLatency, 1e-6);
  EXPECT_EQ(s.informsSent(), 2);
}

TEST(CoordinationTest, PrepareCompleteStackInfluencesDescriptor) {
  Harness h(PolicyKind::Fcfs);
  Session s = h.makeSession(1, 64);
  calciom::core::EventLog log;
  s.captureTo(&log);
  // The phase's own values: 2 rounds of 500 bytes, 1000 bytes, est 2 s.
  const PhaseInfo phase = phaseInfo(1, 1, 2, 1.0);
  const IoHints first{.files = 3, .estAloneSeconds = 99.0};
  const IoHints second{.roundsPerFile = 4, .estAloneSeconds = 7.5};
  const auto runPhase = [&] {
    AppResult res;
    h.eng.spawn(synthApp(h.eng, s, phase, 1, 2, 1.0, 0.0, &res));
    h.eng.run();
  };
  s.prepare(first);
  s.prepare(second);
  runPhase();  // both hints; the later one wins where they overlap
  s.complete();
  runPhase();  // the first hint alone
  s.complete();
  runPhase();  // no hints: the phase's own values again
  EXPECT_THROW(s.complete(), calciom::PreconditionError);

  std::vector<IoDescriptor> informs;
  for (const auto& e : log.events()) {
    if (e.payload.type() == MessageType::Inform) {
      informs.push_back(e.payload.descriptor());
    }
  }
  ASSERT_EQ(informs.size(), 3u);
  EXPECT_EQ(s.informsSent(), 3);
  IoDescriptor own = IoDescriptor::fromPhase(phase, 64);
  own.appId = 1;
  IoDescriptor both = own;
  both.estAloneSeconds = 7.5;
  both.files = 3;
  both.roundsPerFile = 4;
  IoDescriptor firstOnly = own;
  firstOnly.estAloneSeconds = 99.0;
  firstOnly.files = 3;
  EXPECT_EQ(informs[0], both);
  EXPECT_EQ(informs[1], firstOnly);
  EXPECT_EQ(informs[2], own);
}

}  // namespace
