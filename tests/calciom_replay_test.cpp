// Online arbiter-in-the-loop replay smoke (ROADMAP "arbiter-in-the-loop
// replays", first slice): a short workload/trace SWF capture is fed through
// calciom::Session against the refactored arbiter, and the recorded
// DecisionRecords must match the offline schedule computed from the trace
// alone. Because the same-engine Arbiter and the offline replay both drive
// calciom::core::ArbiterCore, this also pins the decision-core/transport
// split: feeding the offline schedule's event stream straight into a bare
// core must reproduce the online decisions exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "calciom/arbiter.hpp"
#include "calciom/arbiter_core.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "io/hooks.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "workload/trace.hpp"

namespace {

using calciom::core::Action;
using calciom::core::Arbiter;
using calciom::core::ArbiterCore;
using calciom::core::DecisionRecord;
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
using calciom::workload::parseSwfText;
using calciom::workload::SwfJob;

constexpr double kLatency = 250e-6;

// A short capture: job id, submit, wait, run, processors (+ padding to the
// SWF field count is not required by the parser). Starts are submit+wait;
// overlaps are deliberate so the arbiter has decisions to take.
constexpr const char* kCapture =
    "; short capture for the replay smoke\n"
    "1 0.0 0.0 6.0 512\n"
    "2 1.0 1.0 3.0 128\n"   // starts at 2 while job 1 writes -> queue
    "3 2.5 1.5 2.0 256\n"   // starts at 4 while job 1 writes -> queue
    "4 14.0 0.0 3.0 64\n"   // idle system by then -> silent grant
    "5 15.0 1.0 2.0 128\n"  // starts at 16 while job 4 writes -> queue
    "0 3.0 0.0 -1 64\n";    // cancelled job, skipped by the parser

struct AppResult {
  Time start = -1.0;
  Time end = -1.0;
};

/// One I/O phase per job: the job's full runtime treated as its write
/// phase, in 1-second rounds (ceil), hooks driven like the real writer.
Task replayJob(Engine& eng, Session& session, const SwfJob& job,
               AppResult* out) {
  co_await Delay{job.startSeconds()};
  out->start = eng.now();
  const int rounds = std::max(1, static_cast<int>(job.runSeconds));
  PhaseInfo info;
  info.appId = static_cast<std::uint32_t>(job.jobId);
  info.appName = "job" + std::to_string(job.jobId);
  info.processes = job.processors;
  info.files = 1;
  info.roundsPerFile = rounds;
  info.totalBytes = 1000;
  info.bytesPerRound = 1000 / static_cast<std::uint64_t>(rounds);
  info.estimatedAloneSeconds = job.runSeconds;
  co_await eng.spawn(session.beginPhase(info));
  for (int r = 0; r < rounds; ++r) {
    co_await Delay{job.runSeconds / rounds};
    if (r + 1 < rounds) {
      co_await eng.spawn(session.roundBoundary(
          static_cast<double>(r + 1) / static_cast<double>(rounds)));
    }
  }
  co_await eng.spawn(session.endPhase());
  out->end = eng.now();
}

/// The offline FCFS schedule: jobs serialize in arrival order; a job
/// arriving while another is writing yields a Queue decision against the
/// job holding the access at that instant.
struct OfflineEntry {
  std::uint32_t app = 0;
  double arrival = 0.0;
  double grant = 0.0;
  double end = 0.0;
  /// Set iff the arrival found the system busy (=> a DecisionRecord).
  bool decided = false;
  std::uint32_t accessor = 0;
};

std::vector<OfflineEntry> offlineFcfsSchedule(std::vector<SwfJob> jobs) {
  std::sort(jobs.begin(), jobs.end(), [](const SwfJob& a, const SwfJob& b) {
    return a.startSeconds() < b.startSeconds();
  });
  std::vector<OfflineEntry> out;
  double busyUntil = 0.0;
  for (const SwfJob& j : jobs) {
    OfflineEntry e;
    e.app = static_cast<std::uint32_t>(j.jobId);
    e.arrival = j.startSeconds();
    e.grant = std::max(e.arrival, busyUntil);
    e.end = e.grant + j.runSeconds;
    if (e.arrival < busyUntil) {
      e.decided = true;
      // The job writing at the arrival instant: the one granted most
      // recently before `arrival` whose end is still ahead.
      for (const OfflineEntry& prev : out) {
        if (prev.grant <= e.arrival && e.arrival < prev.end) {
          e.accessor = prev.app;
        }
      }
    }
    busyUntil = e.end;
    out.push_back(e);
  }
  return out;
}

TEST(CalciomReplayTest, OnlineSessionsMatchOfflineSchedule) {
  const std::vector<SwfJob> jobs = parseSwfText(kCapture);
  ASSERT_EQ(jobs.size(), 5u);

  // ---- online: trace through Sessions against the real arbiter ----------
  Engine eng;
  PortRegistry ports(eng, kLatency);
  Arbiter arbiter(eng, ports, makePolicy(PolicyKind::Fcfs));
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<AppResult> results(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sessions.push_back(std::make_unique<Session>(
        eng, ports,
        SessionConfig{.appId = static_cast<std::uint32_t>(jobs[i].jobId),
                      .appName = "job" + std::to_string(jobs[i].jobId),
                      .cores = jobs[i].processors}));
    eng.spawn(replayJob(eng, *sessions.back(), jobs[i], &results[i]));
  }
  eng.run();

  // ---- offline: the schedule implied by the capture alone ---------------
  const std::vector<OfflineEntry> offline = offlineFcfsSchedule(jobs);

  // Decisions: one Queue per job that arrived while the system was busy,
  // in arrival order, against the accessor the offline schedule names.
  std::vector<const OfflineEntry*> expectDecided;
  for (const OfflineEntry& e : offline) {
    if (e.decided) {
      expectDecided.push_back(&e);
    }
  }
  ASSERT_EQ(expectDecided.size(), 3u);  // jobs 2, 3 and 5
  const auto& online = arbiter.decisions();
  ASSERT_EQ(online.size(), expectDecided.size());
  for (std::size_t i = 0; i < online.size(); ++i) {
    EXPECT_EQ(online[i].requester, expectDecided[i]->app) << "decision " << i;
    EXPECT_EQ(online[i].action, Action::Queue) << "decision " << i;
    EXPECT_EQ(online[i].accessors,
              std::vector<std::uint32_t>{expectDecided[i]->accessor})
        << "decision " << i;
    // Decision time = arrival + one coordination hop.
    EXPECT_NEAR(online[i].time, expectDecided[i]->arrival + kLatency, 1e-9);
  }

  // Schedule: grant/end instants match the offline ones up to coordination
  // hops (each boundary costs sub-millisecond message latency).
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto it = std::find_if(
        offline.begin(), offline.end(), [&](const OfflineEntry& e) {
          return e.app == static_cast<std::uint32_t>(jobs[i].jobId);
        });
    ASSERT_NE(it, offline.end());
    EXPECT_NEAR(results[i].end, it->end, 0.01)
        << "job " << jobs[i].jobId;
  }

  // ---- core replay: the offline event stream through a bare ArbiterCore -
  // No engine, no ports: informs at arrival, completes at offline end, in
  // global time order. The decision stream must match the online one —
  // the refactor's guarantee that transport cannot change behaviour.
  struct Ev {
    double t;
    int kind;  // 0 = complete, 1 = inform; ties run completes first
    const OfflineEntry* e;
  };
  std::vector<Ev> evs;
  for (const OfflineEntry& e : offline) {
    evs.push_back(Ev{e.arrival, 1, &e});
    evs.push_back(Ev{e.end, 0, &e});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return a.t < b.t || (a.t == b.t && a.kind < b.kind);
  });
  ArbiterCore core(makePolicy(PolicyKind::Fcfs));
  ArbiterCore::Commands cmds;
  for (const Ev& ev : evs) {
    if (ev.kind == 1) {
      calciom::core::IoDescriptor d;
      d.appId = ev.e->app;
      d.cores = 64;
      d.estAloneSeconds = ev.e->end - ev.e->grant;
      core.onMessage(ev.t, ev.e->app, calciom::core::Message::inform(d),
                     cmds);
    } else {
      core.onMessage(ev.t, ev.e->app, calciom::core::Message::complete(),
                     cmds);
    }
  }
  ASSERT_EQ(core.decisions().size(), online.size());
  for (std::size_t i = 0; i < online.size(); ++i) {
    EXPECT_EQ(core.decisions()[i].requester, online[i].requester);
    EXPECT_EQ(core.decisions()[i].action, online[i].action);
    EXPECT_EQ(core.decisions()[i].accessors, online[i].accessors);
  }
  // Every job got exactly one grant in both replays.
  EXPECT_EQ(core.grantsIssued(), jobs.size());
  EXPECT_EQ(arbiter.grantsIssued(), jobs.size());
}

}  // namespace
