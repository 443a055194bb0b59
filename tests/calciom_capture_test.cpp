// The capture-log merge (src/calciom/capture.hpp): both `mergeEventLogs`
// overloads held element by element to a stable sort of the concatenated
// logs — the (time, log, arrival) order the oracle replay depends on — over
// seeded random logs full of ties, the edge shapes, and logs that step back
// in time, which the merge must refuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "calciom/capture.hpp"
#include "calciom/wire.hpp"
#include "sim/contracts.hpp"
#include "sim/rng.hpp"

namespace {

using calciom::PreconditionError;
using calciom::core::CapturedEvent;
using calciom::core::EventLog;
using calciom::core::IoDescriptor;
using calciom::core::mergeEventLogs;
using calciom::core::Message;
using Logs = std::vector<std::vector<CapturedEvent>>;

/// An Inform for even `seq`, a Release otherwise; the long application name
/// lives on the heap, so a merge that lost or aliased a moved string shows.
CapturedEvent makeEvent(double t, std::uint32_t app, std::uint64_t seq) {
  Message payload = Message::release();
  if (seq % 2 == 0) {
    IoDescriptor desc;
    desc.appId = app;
    desc.appName = "application-with-a-heap-allocated-name-" +
                   std::to_string(seq);
    payload = Message::inform(desc);
  }
  payload.setSeq(seq);
  return CapturedEvent{t, app, payload};
}

/// The merge as it was: concatenate, then stable-sort on time.
std::vector<CapturedEvent> stableSortReference(const Logs& logs) {
  std::vector<CapturedEvent> out;
  for (const auto& log : logs) {
    out.insert(out.end(), log.begin(), log.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CapturedEvent& a, const CapturedEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

void expectSameStream(const std::vector<CapturedEvent>& got,
                      const std::vector<CapturedEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].time, want[i].time);
    EXPECT_EQ(got[i].app, want[i].app);
    EXPECT_EQ(got[i].payload.seq(), want[i].payload.seq());
    EXPECT_EQ(got[i].payload.type(), want[i].payload.type());
    if (want[i].payload.type() == calciom::core::MessageType::Inform) {
      EXPECT_EQ(got[i].payload.descriptor().appName,
                want[i].payload.descriptor().appName);
    }
  }
}

/// `logs` recorded into `EventLog`s, for the borrowed overload.
std::vector<EventLog> toEventLogs(const Logs& logs) {
  std::vector<EventLog> owned(logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    for (const CapturedEvent& e : logs[i]) {
      owned[i].record(e.time, e.app, e.payload);
    }
  }
  return owned;
}

std::vector<const EventLog*> borrow(const std::vector<EventLog>& owned) {
  std::vector<const EventLog*> out;
  for (const EventLog& log : owned) {
    out.push_back(&log);
  }
  return out;
}

/// Both overloads against the reference, on copies of `logs`.
void expectMergesMatchReference(const Logs& logs) {
  const std::vector<CapturedEvent> want = stableSortReference(logs);
  const std::vector<EventLog> owned = toEventLogs(logs);
  const std::vector<const EventLog*> borrowed = borrow(owned);
  {
    SCOPED_TRACE("borrowed");
    expectSameStream(mergeEventLogs(borrowed), want);
  }
  // The borrowed logs are left as they were.
  for (std::size_t i = 0; i < logs.size(); ++i) {
    ASSERT_EQ(owned[i].size(), logs[i].size());
  }
  {
    SCOPED_TRACE("by value");
    expectSameStream(mergeEventLogs(logs), want);
  }
}

/// `count` time-ordered logs of up to `maxLen` events. Times are small
/// integers stepping by 0–2, so equal times are common within a log and
/// across logs; about one log in five is empty.
Logs randomLogs(calciom::sim::Xoshiro256& rng, std::size_t count,
                std::int64_t maxLen) {
  Logs logs(count);
  std::uint64_t seq = 0;
  for (auto& log : logs) {
    if (rng.uniformInt(0, 4) == 0) {
      continue;
    }
    const std::int64_t len = rng.uniformInt(1, maxLen);
    double t = static_cast<double>(rng.uniformInt(0, 5));
    for (std::int64_t j = 0; j < len; ++j) {
      t += static_cast<double>(rng.uniformInt(0, 2));
      const auto app = static_cast<std::uint32_t>(rng.uniformInt(0, 7));
      log.push_back(makeEvent(t, app, seq++));
    }
  }
  return logs;
}

TEST(MergeEventLogs, RandomLogsMatchStableSortOfTheConcatenation) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    calciom::sim::Xoshiro256 rng(seed);
    const auto count = static_cast<std::size_t>(rng.uniformInt(1, 16));
    expectMergesMatchReference(randomLogs(rng, count, 40));
  }
}

TEST(MergeEventLogs, EdgeShapesMatchTheReference) {
  {
    SCOPED_TRACE("no logs");
    expectMergesMatchReference({});
    EXPECT_TRUE(mergeEventLogs(Logs{}).empty());
  }
  {
    SCOPED_TRACE("only empty logs");
    expectMergesMatchReference(Logs(5));
  }
  {
    SCOPED_TRACE("one log");
    Logs logs(1);
    for (std::uint64_t s = 0; s < 50; ++s) {
      logs[0].push_back(makeEvent(static_cast<double>(s / 3), 1, s));
    }
    expectMergesMatchReference(logs);
  }
  {
    SCOPED_TRACE("all times equal, within and across logs");
    Logs logs(6);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      for (int j = 0; j < 7; ++j) {
        logs[i].push_back(makeEvent(3.5, static_cast<std::uint32_t>(i), seq++));
      }
    }
    expectMergesMatchReference(logs);
  }
  {
    SCOPED_TRACE("empty logs between non-empty ones");
    Logs logs(5);
    logs[1] = {makeEvent(2.0, 1, 0), makeEvent(4.0, 1, 1)};
    logs[3] = {makeEvent(1.0, 3, 2), makeEvent(4.0, 3, 3)};
    expectMergesMatchReference(logs);
  }
}

TEST(MergeEventLogs, TieAtEqualTimeGoesToTheLowerLogThenToArrival) {
  Logs logs(3);
  logs[2] = {makeEvent(1.0, 20, 0), makeEvent(1.0, 21, 1)};
  logs[0] = {makeEvent(1.0, 0, 2), makeEvent(2.0, 1, 3)};
  logs[1] = {makeEvent(0.5, 10, 4), makeEvent(1.0, 11, 5)};
  const std::vector<CapturedEvent> merged = mergeEventLogs(logs);
  std::vector<std::uint32_t> apps;
  std::transform(merged.begin(), merged.end(), std::back_inserter(apps),
                 [](const CapturedEvent& e) { return e.app; });
  EXPECT_EQ(apps, (std::vector<std::uint32_t>{10, 0, 11, 20, 21, 1}));
}

TEST(MergeEventLogs, ALogThatStepsBackInTimeIsRefused) {
  // The step back sits in the middle, at the end, and in a log whose head
  // never loses a tie, so every position of the check is reached.
  const std::vector<Logs> cases = {
      {{makeEvent(1.0, 0, 0), makeEvent(3.0, 0, 1), makeEvent(2.0, 0, 2),
        makeEvent(4.0, 0, 3)}},
      {{makeEvent(1.0, 0, 0), makeEvent(2.0, 0, 1)},
       {makeEvent(1.5, 1, 2), makeEvent(5.0, 1, 3), makeEvent(4.9, 1, 4)}},
      {{}, {makeEvent(9.0, 1, 0), makeEvent(0.0, 1, 1)}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(c);
    const std::vector<EventLog> owned = toEventLogs(cases[c]);
    EXPECT_THROW((void)mergeEventLogs(borrow(owned)), PreconditionError);
    EXPECT_THROW((void)mergeEventLogs(cases[c]), PreconditionError);
  }
}

}  // namespace
