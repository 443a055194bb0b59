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
/// into one globally ordered stream in a single k-way pass — ties at equal
/// emission time break by log (shard) order, then per-log arrival order, so
/// the merge is bit-identical for any worker-thread count. It relies on
/// each log being time-ordered and checks that as it goes
/// (`PreconditionError` otherwise): the merge cannot repair a log the way
/// a sort could.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "calciom/wire.hpp"
#include "sim/contracts.hpp"
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

namespace detail {

/// The k-way merge behind both `mergeEventLogs` overloads. `Event` is
/// `CapturedEvent` (the events are moved out) or `const CapturedEvent`
/// (`std::move` of a const event copies it). One pass: each step scans the
/// live heads and takes the earliest; a strict `<` keeps the first of equal
/// heads, and the heads stay in `logs` order, so ties go to the lower log
/// index, then to arrival order within the log. Each event is moved or
/// copied once, into the reserved result: O(events × logs) time comparisons
/// and no buffer beyond the result and one head per log. Campaigns merge
/// one log per shard (≤ 16), where a linear scan of the heads is enough.
template <class Event>
[[nodiscard]] std::vector<CapturedEvent> mergeTimeOrdered(
    const std::vector<std::span<Event>>& logs) {
  struct Head {
    Event* at;
    Event* end;
  };
  std::vector<Head> heads;
  heads.reserve(logs.size());
  std::size_t total = 0;
  for (const std::span<Event> log : logs) {
    total += log.size();
    if (!log.empty()) {
      heads.push_back(Head{log.data(), log.data() + log.size()});
    }
  }
  std::vector<CapturedEvent> merged;
  merged.reserve(total);
  while (!heads.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < heads.size(); ++i) {
      if (heads[i].at->time < heads[best].at->time) {
        best = i;
      }
    }
    Head& head = heads[best];
    Event& event = *head.at++;
    // A log that steps back in time would leave the merged stream
    // unordered; refuse it rather than emit it.
    if (head.at != head.end) {
      CALCIOM_EXPECTS(!(head.at->time < event.time));
    }
    merged.push_back(std::move(event));
    if (head.at == head.end) {
      heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }
  return merged;
}

}  // namespace detail

/// Deterministic multi-log merge: ascending emission time; ties break by
/// position in `logs`, then by per-log arrival order — the order a stable
/// sort of the concatenated logs gives, produced by one k-way pass
/// (`detail::mergeTimeOrdered`) that moves each event once. Each log must
/// already be time-ordered (true for any log filled by one engine's
/// sessions — engine clocks never run backwards); a log whose time steps
/// back throws `PreconditionError`. Takes the logs by value so a caller
/// done with them (`EventLog::release()`) hands the month over without a
/// copy.
[[nodiscard]] inline std::vector<CapturedEvent> mergeEventLogs(
    std::vector<std::vector<CapturedEvent>> logs) {
  std::vector<std::span<CapturedEvent>> views(logs.begin(), logs.end());
  return detail::mergeTimeOrdered(views);
}

/// The same merge over logs that stay in use: copies each event once,
/// straight into the result.
[[nodiscard]] inline std::vector<CapturedEvent> mergeEventLogs(
    const std::vector<const EventLog*>& logs) {
  std::vector<std::span<const CapturedEvent>> views;
  views.reserve(logs.size());
  for (const EventLog* log : logs) {
    views.emplace_back(log->events());
  }
  return detail::mergeTimeOrdered(views);
}

}  // namespace calciom::core
