#pragma once

/// \file capture.hpp
/// Coordination-event capture: the application→arbiter side of a campaign
/// recorded as it is emitted, with true emission timestamps. This is the
/// input of the offline oracle (analysis/replay.hpp): a bare `ArbiterCore`
/// fed a captured stream reproduces what an ideal, zero-sampling arbiter
/// would have decided for the same workload, and the divergence between
/// that schedule and the online one quantifies what the transport (message
/// latency, sync-horizon sampling) cost — the paper's claim that runtime
/// Inform/Grant/Pause tracks the offline schedule, made measurable.
///
/// Each event holds the typed wire message (`core::Message`, wire.hpp) the
/// session sent — a fixed record, so a month-scale log is one flat vector
/// and copying or freeing an event allocates nothing for the short
/// application names campaigns use.
///
/// Capture is shard-local and append-only: each `core::Session` records
/// into the `EventLog` it was pointed at (`Session::captureTo`), so in a
/// sharded campaign every log's order is a pure function of its shard's
/// deterministic event stream. `mergeEventLogs` combines per-shard logs
/// into one globally ordered stream — ties at equal emission time break by
/// log (shard) order, then per-log arrival order, so the merge is
/// bit-identical for any worker-thread count.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "calciom/wire.hpp"
#include "sim/time.hpp"

namespace calciom::core {

/// One application→arbiter message as emitted by a Session: the full wire
/// message at the session engine's clock.
struct CapturedEvent {
  sim::Time time = 0.0;
  std::uint32_t app = 0;
  Message payload;
};

/// Append-only, shard-local capture log. Not thread-safe by design: one log
/// belongs to one shard (one engine), like every other shard-owned
/// component.
class EventLog {
 public:
  void record(sim::Time t, std::uint32_t app, const Message& payload) {
    events_.push_back(CapturedEvent{t, app, payload});
  }

  [[nodiscard]] const std::vector<CapturedEvent>& events() const noexcept {
    return events_;
  }
  /// Moves the log out (month-scale logs are worth not copying); the log
  /// is empty afterwards.
  [[nodiscard]] std::vector<CapturedEvent> release() noexcept {
    return std::move(events_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

 private:
  std::vector<CapturedEvent> events_;
};

/// Deterministic multi-log merge: ascending emission time; ties break by
/// position in `logs`, then by per-log arrival order. Each log must already
/// be time-ordered (true for any log filled by one engine's sessions —
/// engine clocks never run backwards). Takes the logs by value so a caller
/// done with them (`EventLog::release()`) hands the month over without a
/// copy.
[[nodiscard]] inline std::vector<CapturedEvent> mergeEventLogs(
    std::vector<std::vector<CapturedEvent>> logs) {
  std::size_t total = 0;
  for (const auto& log : logs) {
    total += log.size();
  }
  std::vector<CapturedEvent> merged;
  merged.reserve(total);
  for (auto& log : logs) {
    merged.insert(merged.end(), std::make_move_iterator(log.begin()),
                  std::make_move_iterator(log.end()));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const CapturedEvent& a, const CapturedEvent& b) {
                     return a.time < b.time;
                   });
  return merged;
}

/// The same merge over logs that stay in use: copies every event.
[[nodiscard]] inline std::vector<CapturedEvent> mergeEventLogs(
    const std::vector<const EventLog*>& logs) {
  std::vector<std::vector<CapturedEvent>> copies;
  copies.reserve(logs.size());
  for (const EventLog* log : logs) {
    copies.push_back(log->events());
  }
  return mergeEventLogs(std::move(copies));
}

}  // namespace calciom::core
