#pragma once

/// \file recovery.hpp
/// The arbiter process model shared by both transports. `CheckpointStore`
/// is the stable-storage model behind crash-recovery: a checkpoint slot
/// holding the last `ArbiterSnapshot` plus a *bounded* write-ahead log of
/// decision-core inputs since that checkpoint. A production arbiter would
/// fsync both; here they simply survive the simulated process death (the
/// host keeps the store while the core is wiped and rebuilt). `ArbiterHost`
/// wraps an `ArbiterCore` with that store and the crash/restart lifecycle,
/// so the same-engine `Arbiter` and the cross-shard `GlobalArbiter` keep
/// only their transport.
///
/// Restore = `ArbiterCore::restore(snapshot)` followed by replaying the WAL
/// through the core's normal entry points with the commands *discarded* —
/// every replayed input already produced (and delivered, at most once) its
/// commands before the crash, so re-delivering them would duplicate
/// traffic; commands that were genuinely lost in the crash are healed by
/// the reconciliation window (`ArbiterCore::beginRecovery`), not by replay.
///
/// The WAL is bounded on purpose: inputs appended past its capacity are
/// dropped (counted in `walDropped()`) and form the un-checkpointed tail
/// the reconciliation protocol exists for. Capacity 0 means "no WAL" —
/// recovery leans entirely on reconciliation.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "calciom/arbiter_core.hpp"
#include "calciom/wire.hpp"
#include "sim/time.hpp"

namespace calciom::core {

/// One decision-core input captured in the write-ahead log: either a wire
/// message (`onMessage`, stored typed, as it arrived) or a job-scheduler
/// termination.
struct WalEntry {
  sim::Time time = 0.0;
  std::uint32_t app = 0;
  bool termination = false;
  Message payload;  // unused for terminations
};

class CheckpointStore {
 public:
  explicit CheckpointStore(std::size_t walCapacity = 0)
      : walCapacity_(walCapacity) {}

  /// Snapshots `core` into the checkpoint slot and truncates the WAL —
  /// everything logged so far is folded into the snapshot. Pure
  /// observation of the core.
  void checkpoint(const ArbiterCore& core, sim::Time now);

  /// Appends one wire input to the WAL (drops it, counted, once full).
  void logMessage(sim::Time now, std::uint32_t from, const Message& payload);
  /// Appends one scheduler termination to the WAL.
  void logTermination(sim::Time now, std::uint32_t app);

  /// Restores `core` from the checkpoint (an empty snapshot when none was
  /// ever taken) and replays the WAL, discarding replay-generated
  /// commands. Returns the number of entries replayed. The caller then
  /// opens the reconciliation window for whatever the WAL did not cover.
  std::size_t restoreInto(ArbiterCore& core) const;

  [[nodiscard]] std::uint64_t checkpoints() const noexcept {
    return checkpoints_;
  }
  [[nodiscard]] sim::Time lastCheckpointAt() const noexcept {
    return lastCheckpointAt_;
  }
  [[nodiscard]] std::size_t walSize() const noexcept { return wal_.size(); }
  [[nodiscard]] std::uint64_t walAppended() const noexcept {
    return walAppended_;
  }
  /// Inputs that arrived with the WAL full — the un-checkpointed tail the
  /// reconciliation protocol must rebuild from session reports.
  [[nodiscard]] std::uint64_t walDropped() const noexcept {
    return walDropped_;
  }

 private:
  void append(WalEntry entry);

  std::optional<ArbiterSnapshot> snap_;
  std::vector<WalEntry> wal_;
  std::size_t walCapacity_;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t walAppended_ = 0;
  std::uint64_t walDropped_ = 0;
  sim::Time lastCheckpointAt_ = 0.0;
};

/// Settings of an arbiter process, common to both transports.
struct ArbiterConfig {
  /// Dead-accessor reclamation; forwarded to ArbiterCore::configureLeases.
  LeaseConfig leases;
  /// Forwarded to ArbiterCore::setAudit.
  bool auditInvariants = false;
  /// Snapshot the core to the checkpoint store at most this often (checked
  /// after each input batch — pure observation, so checkpointing never
  /// moves a decision). 0 disables checkpointing *and* the write-ahead log;
  /// a restart then rebuilds purely from reconciliation.
  double checkpointEverySeconds = 0.0;
};

/// One arbiter process: the decision core, its stable storage, and the
/// crash/restart lifecycle. Transports feed it inputs with their own
/// timestamps (arrival or barrier time) and deliver the commands it
/// appends; they keep only transport state of their own.
class ArbiterHost {
 public:
  /// Bound of the write-ahead log between checkpoints; inputs past it form
  /// the un-checkpointed tail reconciliation must rebuild.
  static constexpr std::size_t kWalCapacity = 64;
  /// Reconciliation window opened by restart(): how long the restored core
  /// collects session reports before resuming admission. Covers a barrier
  /// round trip (sync horizon + two cross-shard hops) in every campaign
  /// that injects arbiter crashes.
  static constexpr double kRecoveryWindowSeconds = 1.0;

  ArbiterHost(std::unique_ptr<Policy> policy, const ArbiterConfig& config);

  [[nodiscard]] ArbiterCore& core() noexcept { return core_; }
  [[nodiscard]] const ArbiterCore& core() const noexcept { return core_; }
  [[nodiscard]] bool checkpointing() const noexcept {
    return checkpointEvery_ > 0.0;
  }

  /// Logs the input to the WAL (only while checkpointing), then applies it
  /// to the core; commands are appended to `out`.
  void onMessage(sim::Time now, std::uint32_t from, const Message& payload,
                 ArbiterCore::Commands& out) {
    if (checkpointing()) {
      store_.logMessage(now, from, payload);
    }
    core_.onMessage(now, from, payload, out);
  }
  void onTerminated(sim::Time now, std::uint32_t app,
                    ArbiterCore::Commands& out) {
    if (checkpointing()) {
      store_.logTermination(now, app);
    }
    core_.onApplicationTerminated(now, app, out);
  }

  /// Snapshots the core when checkpointing and either none was taken yet
  /// or `checkpointEverySeconds` elapsed since the last one. Returns
  /// whether a snapshot was taken, so a transport can save its own state
  /// alongside.
  bool maybeCheckpoint(sim::Time now) {
    if (!checkpointing() ||
        (store_.checkpoints() != 0 &&
         now - store_.lastCheckpointAt() < checkpointEvery_)) {
      return false;
    }
    store_.checkpoint(core_, now);
    return true;
  }

  /// Kills the process: the core's in-memory state is conceptually lost
  /// from here, only the store survives. Idempotent.
  void crash() noexcept { down_ = true; }
  /// Restarts a crashed process at `now`: rebuilds the core from the store
  /// (checkpoint + WAL replay) and opens the reconciliation window with a
  /// fresh arbiter incarnation; its Recover commands go to `out`.
  void restart(sim::Time now, ArbiterCore::Commands& out);

  [[nodiscard]] bool down() const noexcept { return down_; }
  [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }
  /// The stable-storage model (checkpoint + WAL counters, for tests).
  [[nodiscard]] const CheckpointStore& checkpointStore() const noexcept {
    return store_;
  }

 private:
  ArbiterCore core_;
  CheckpointStore store_{kWalCapacity};
  double checkpointEvery_ = 0.0;
  bool down_ = false;
  std::uint64_t restarts_ = 0;
};

}  // namespace calciom::core
