#pragma once

/// \file injector.hpp
/// Deterministic fault injection for the coordination layer. The paper
/// assumes a machine where applications crash mid-access and coordination
/// messages are best-effort; this subsystem makes those failures first-class
/// simulation inputs so the hardened protocol (leases, sequence numbers,
/// degradation — see src/calciom/README.md "Failure semantics") can be
/// exercised under thousands of seeded schedules.
///
/// Determinism contract (src/sim/README.md, rule 6): every fault decision is
/// a pure hash of (plan seed, shard, per-shard message index, fault class) —
/// the injector never touches an engine RNG stream, so
///  * the same plan replays the same faults on every run and worker count;
///  * a disabled plan draws nothing, keeping zero-fault runs bit-identical
///    to builds without the injector.
///
/// Fault classes:
///  * message drop / delay / duplicate / reorder, applied on the
///    mpi::PortRegistry send path via the DeliveryFilter hook (only ports
///    under "calciom/" are faulted — the coordination layer, never the data
///    path). A delay IS a reorder: delivery order is timestamp order, so a
///    delayed message overtakes nothing and is overtaken by later sends.
///    `reorderProbability` exists for targeted small swaps (one
///    latency-scale bump) without the long tail of `maxDelaySeconds`.
///  * arbiter-stub blackouts: for K consecutive sync rounds a shard's
///    ArbiterStub outbox is discarded at the barrier and commands to that
///    shard are consulted through the same filter (GlobalArbiter asks
///    stubBlackedOut()/onSend() directly).
///  * application crashes (CrashSpec): consumed by the harness
///    (fault/chaos.hpp), which schedules Session::kill at the crash time and
///    optionally reports the death to the arbiter like a job scheduler
///    would. An unreported crash is the hard case: only the grant lease
///    reclaims the dead app's access.

#include <cstdint>
#include <string_view>
#include <vector>

#include "mpi/port.hpp"
#include "sim/time.hpp"

namespace calciom::fault {

/// One application crash: at simulated time `at` the app's session is
/// killed in whatever protocol state it happens to be (waiting, accessing,
/// paused, mid-pause-ack — the harness does not align crashes to states).
struct CrashSpec {
  std::uint32_t app = 0;
  sim::Time at = 0.0;
  /// Whether the job scheduler notices and calls onApplicationTerminated.
  /// false = silent death: only heartbeat loss / lease expiry reveals it.
  bool reported = false;
};

/// One arbiter process crash: at simulated time `at` the arbiter dies —
/// applied race-free at the next barrier on the cluster transport, at the
/// exact instant on the same-engine one — and restarts `downSeconds` later,
/// recovering through checkpoint + WAL + reconciliation
/// (src/calciom/recovery.hpp). While down, coordination traffic is lost;
/// sessions ride it out via retries/heartbeats or degrade.
struct ArbiterCrashSpec {
  sim::Time at = 0.0;
  double downSeconds = 0.0;
};

/// A complete, seeded fault schedule. All probabilities default to zero and
/// `crashes` to empty, so a default Plan is the no-fault plan: enabled()
/// is false and an Injector built from it never draws a single hash.
struct Plan {
  std::uint64_t seed = 0;
  /// P(coordination message silently lost), per message.
  double dropProbability = 0.0;
  /// P(extra delivery delay), per message; magnitude uniform in
  /// [0, maxDelaySeconds].
  double delayProbability = 0.0;
  double maxDelaySeconds = 0.0;
  /// P(message delivered twice); the copy is delayed by up to
  /// maxDelaySeconds and may land before or after the original.
  double duplicateProbability = 0.0;
  /// P(small swap-scale delay of reorderDelaySeconds) — enough to overtake
  /// a message sent one latency later, without the long delay tail.
  double reorderProbability = 0.0;
  double reorderDelaySeconds = 0.0;
  /// P(a given (shard, round) starts an arbiter-stub blackout), lasting
  /// blackoutRounds consecutive rounds (cluster transport only).
  double blackoutProbability = 0.0;
  int blackoutRounds = 1;
  std::vector<CrashSpec> crashes;
  /// Arbiter process crashes (consumed by the harness like `crashes`).
  std::vector<ArbiterCrashSpec> arbiterCrashes;

  [[nodiscard]] bool messageFaultsEnabled() const noexcept {
    return dropProbability > 0.0 || delayProbability > 0.0 ||
           duplicateProbability > 0.0 || reorderProbability > 0.0;
  }
  [[nodiscard]] bool enabled() const noexcept {
    return messageFaultsEnabled() || blackoutProbability > 0.0 ||
           !crashes.empty() || !arbiterCrashes.empty();
  }
};

/// Per-shard fault decider; see file comment for the determinism contract.
/// Install one per shard port registry (PortRegistry::setDeliveryFilter) and
/// hand the same instances to GlobalArbiter::setStubInjectors for blackout
/// and command-path faulting. Stateless apart from the per-shard message
/// counter and fault statistics.
class Injector final : public mpi::DeliveryFilter {
 public:
  explicit Injector(Plan plan, std::uint64_t shard = 0) noexcept
      : plan_(std::move(plan)), shard_(shard) {}

  /// mpi::DeliveryFilter: decides the fate of one coordination message.
  /// Ports outside "calciom/" pass through untouched (and consume no hash
  /// index), as does every message of a plan without message faults.
  [[nodiscard]] Verdict onSend(std::string_view port, std::uint32_t fromApp,
                               const core::Message& payload) override;

  /// Whether this shard's arbiter stub is blacked out in sync round
  /// `round` (1-based): true if any of the last `blackoutRounds` rounds
  /// started a blackout. Pure hash of (seed, shard, round).
  [[nodiscard]] bool stubBlackedOut(std::uint64_t round) const noexcept;

  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::uint64_t messagesSeen() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t messagesDropped() const noexcept {
    return dropped_;
  }
  [[nodiscard]] std::uint64_t messagesDelayed() const noexcept {
    return delayed_;
  }
  [[nodiscard]] std::uint64_t messagesDuplicated() const noexcept {
    return duplicated_;
  }
  /// Swap-scale reorder delays actually fired (the reorderProbability
  /// branch; long uniform delays count under messagesDelayed()).
  [[nodiscard]] std::uint64_t messagesReordered() const noexcept {
    return reordered_;
  }

 private:
  /// Uniform draw in [0, 1) from the (seed, shard, index, salt) hash.
  [[nodiscard]] double uniform(std::uint64_t index,
                               std::uint64_t salt) const noexcept;

  Plan plan_;
  std::uint64_t shard_ = 0;
  std::uint64_t nextIndex_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
};

}  // namespace calciom::fault
