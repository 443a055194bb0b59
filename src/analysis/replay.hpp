#pragma once

/// \file replay.hpp
/// Full-slice online replays: a month of IntrepidModel SWF jobs streamed
/// through the live coordination layer, validated against an offline
/// oracle. This closes the ROADMAP "online arbiter-in-the-loop replays,
/// full slice" item: the first slice (tests/calciom_replay_test.cpp)
/// replayed a hand-written SWF snippet; this subsystem replays months, on
/// both transports, with quantitative divergence metrics — the same
/// trace-driven validation style LASSi applies to metric-based I/O
/// analytics, and the quantitative-interference-prediction framing of
/// Alves & Drummond.
///
/// Three pieces:
///
///  1. **Online replay.** `replaySession` streams the jobs through
///     `calciom::Session`s against the same-engine `Arbiter`;
///     `replayCluster` streams them through the `GlobalArbiter` of a
///     sharded `platform::Cluster` (via `analysis::runCluster`, jobs
///     injected round-robin over the compute shards by a barrier-hook
///     feeder). Both stream from `workload::IntrepidStream` — the horizon
///     is never materialized, live Sessions are bounded by the running job
///     set, and each job is one coordinated write phase (a configurable
///     fraction of its runtime, in rounds) driven through the real hook
///     protocol.
///  2. **Offline oracle.** Every app→arbiter message is captured at
///     emission time (`core::EventLog`, merged deterministically across
///     shards). `oracleReplay` feeds the captured stream into a bare
///     `core::ArbiterCore` — no engine, no ports, no barriers — at
///     emission time plus one configurable hop: the schedule an ideal
///     zero-sampling arbiter would have produced for the same workload.
///  3. **Divergence metrics.** `computeDivergence` aligns the online and
///     oracle decision streams and grant schedules: first-divergence
///     index, per-action disagreement counts (a 3×3 oracle×online
///     matrix), grant-time L1 drift, and the CPU-seconds-wasted delta.
///     On the same-engine path the transport adds a fixed hop to every
///     message, so the replay is *exactly* zero-divergent (the PR 3
///     core/transport guarantee, now holding over a month); on the
///     cluster path the nonzero drift measures precisely what sync-horizon
///     sampling costs.
///
/// `toJson(DivergenceReport)` emits the core::toJson-style dump consumed
/// by examples/trace_replay.cpp and fingerprinted by bench/perf_replay.cpp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "calciom/arbiter_core.hpp"
#include "calciom/capture.hpp"
#include "calciom/policy.hpp"
#include "calciom/session.hpp"
#include "sim/time.hpp"
#include "workload/trace.hpp"

namespace calciom::analysis::replay {

/// How an SWF job's runtime maps onto one coordinated write phase.
struct TraceIoShape {
  /// Fraction of the job's runtime spent writing (paper §II-B uses a mean
  /// I/O fraction of ~5%); the phase sits at the job's start.
  double ioFraction = 0.05;
  /// Phase length clamp, so month-scale tails stay replayable at
  /// interactive speed without losing contention.
  double minPhaseSeconds = 1.0;
  double maxPhaseSeconds = 120.0;
  /// Collective-buffering rounds per phase (hook boundaries a pause can
  /// land on).
  int roundsPerPhase = 4;
  /// Nominal bytes per core, only echoed through the descriptors.
  std::uint64_t bytesPerCore = 1ull << 20;

  [[nodiscard]] double phaseSeconds(const workload::SwfJob& job) const;
};

struct ReplayConfig {
  /// Trace source (a month by default; shrink horizonSeconds for slices).
  workload::IntrepidModel model;
  core::PolicyKind policy = core::PolicyKind::Dynamic;
  core::DynamicOptions dynamicOptions;
  core::HookGranularity granularity = core::HookGranularity::PerRound;
  TraceIoShape io;
  /// Session path: the machine's coordination-message latency; also the
  /// oracle's hop (so the same-engine replay is exactly zero-divergent).
  double messageLatencySeconds = 250e-6;
  /// Cluster path: compute shards (one storage shard is added on top),
  /// sync horizon, and worker threads.
  std::size_t computeShards = 4;
  sim::Time syncHorizonSeconds = 30.0;
  unsigned workers = 1;
};

/// What the bare-core oracle produced from a captured stream.
struct OracleSchedule {
  std::vector<core::DecisionRecord> decisions;
  std::vector<core::GrantRecord> grants;
  std::size_t grantsIssued = 0;
  std::size_t pausesIssued = 0;
  double cpuSecondsWaited = 0.0;
};

/// Decision-divergence metrics between an online run and its oracle.
/// Decisions are aligned by index over the common prefix; grants are
/// aligned per application by occurrence index.
struct DivergenceReport {
  std::size_t onlineDecisions = 0;
  std::size_t oracleDecisions = 0;
  /// min(onlineDecisions, oracleDecisions): the aligned prefix length.
  std::size_t comparedDecisions = 0;
  /// -1 when the two decision streams are identical in (requester, action,
  /// accessor set) — timestamps are *not* compared here; otherwise the
  /// first aligned index that disagrees, or the shorter stream's length
  /// when one stream is a strict prefix of the other.
  std::ptrdiff_t firstDivergenceIndex = -1;
  std::size_t decisionAgreements = 0;
  std::size_t requesterMismatches = 0;
  std::size_t actionDisagreements = 0;
  std::size_t accessorMismatches = 0;
  /// [oracle action][online action] counts over aligned pairs whose
  /// requester matches (indexed by core::Action's enumerator order).
  std::array<std::array<std::uint64_t, 3>, 3> actionMatrix{};
  std::size_t onlineGrants = 0;
  std::size_t oracleGrants = 0;
  std::size_t matchedGrants = 0;
  /// Grants only one schedule issued. Pinned semantics (unit-tested by
  /// DivergenceMetricsTest in tests/analysis_replay_test.cpp): grants are
  /// aligned per application by occurrence index, so for each app the
  /// first min(oracleCount, onlineCount) grants pair up as `matchedGrants`
  /// and the per-app surplus |oracleCount − onlineCount| lands here —
  /// including the whole count of an app that appears in only one stream
  /// (possible once the sync horizon shifts grant timing across a
  /// degradation window). Unmatched grants contribute *nothing* to the
  /// drift or kind-mismatch metrics below, which are computed over matched
  /// pairs only; they do make exactlyZero() false.
  std::size_t unmatchedGrants = 0;
  /// Matched slots where one side granted and the other resumed.
  std::size_t grantKindMismatches = 0;
  /// Σ |t_online − t_oracle| over matched grants, and the worst single gap.
  double grantTimeL1DriftSeconds = 0.0;
  double grantTimeMaxDriftSeconds = 0.0;
  double cpuSecondsWaitedOnline = 0.0;
  double cpuSecondsWaitedOracle = 0.0;
  /// online − oracle: extra core-seconds the real transport cost.
  double cpuSecondsWaitedDelta = 0.0;

  /// True iff the online run reproduced the oracle exactly: identical
  /// decision streams, identical grant schedules (times included) and a
  /// zero CPU-seconds delta.
  [[nodiscard]] bool exactlyZero() const noexcept;
};

/// Single-line JSON dump of a divergence report, rendered by sim::Json in
/// the layout and number form of core::toJson(DecisionRecord).
[[nodiscard]] std::string toJson(const DivergenceReport& report);

/// Everything one online replay produced.
struct ReplayResult {
  std::vector<core::DecisionRecord> decisions;
  std::vector<core::GrantRecord> grants;
  std::size_t grantsIssued = 0;
  std::size_t pausesIssued = 0;
  double cpuSecondsWaited = 0.0;
  /// Captured app→arbiter stream in deterministic global order: on the
  /// cluster path the per-shard logs k-way merged by (time, shard, arrival).
  std::vector<core::CapturedEvent> captured;
  OracleSchedule oracle;
  DivergenceReport divergence;
  std::uint64_t jobs = 0;
  /// Peak jobs buffered inside the trace stream (bounded-memory evidence).
  std::size_t peakStreamBuffered = 0;
  /// Span from the first job start to the last captured event.
  double traceSpanSeconds = 0.0;
  std::uint64_t engineEvents = 0;
  std::uint64_t syncRounds = 0;  // cluster path only
  /// Cluster rounds run (ClusterRunResult::horizonSteps); cluster path only.
  std::uint64_t horizonSteps = 0;
  /// Real CPU seconds inside event loops (session path: the one engine's
  /// wallSeconds; cluster path: ClusterStats::cpuSeconds summed over
  /// shards). Reported next to — never added to — an external wall timer.
  double engineCpuSeconds = 0.0;
  /// Session-side aggregates over all jobs.
  double sessionWaitSeconds = 0.0;
  double sessionPausedSeconds = 0.0;
  std::uint64_t pausesHonored = 0;
};

/// Feeds `events` (already merged/ordered) into a bare ArbiterCore built
/// like the online arbiter (`policy`, CpuSecondsWasted metric for the
/// dynamic policy) with each message applied at `event.time +
/// hopLatencySeconds`.
[[nodiscard]] OracleSchedule oracleReplay(
    const std::vector<core::CapturedEvent>& events, core::PolicyKind policy,
    double hopLatencySeconds,
    core::DynamicOptions dynamicOptions = core::DynamicOptions{});

/// Aligns an online run against an oracle schedule; see DivergenceReport.
[[nodiscard]] DivergenceReport computeDivergence(
    const std::vector<core::DecisionRecord>& onlineDecisions,
    const std::vector<core::GrantRecord>& onlineGrants,
    double onlineCpuSecondsWaited, const OracleSchedule& oracle);

/// Online replay through per-job Sessions against the same-engine Arbiter,
/// oracle and divergence included. Exactly zero-divergent by construction
/// (every transport hop is the fixed message latency).
[[nodiscard]] ReplayResult replaySession(const ReplayConfig& cfg);

/// Online replay through the GlobalArbiter of a sharded cluster (via
/// analysis::runCluster): jobs are injected round-robin over the compute
/// shards by a barrier-hook feeder, decisions happen at sync-horizon
/// barriers, and the divergence against the oracle measures the sampling
/// cost. Bit-identical for any worker count.
[[nodiscard]] ReplayResult replayCluster(const ReplayConfig& cfg);

}  // namespace calciom::analysis::replay
