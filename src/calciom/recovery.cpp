#include "calciom/recovery.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace calciom::core {

void CheckpointStore::checkpoint(const ArbiterCore& core, sim::Time now) {
  snap_ = core.snapshot(now);
  wal_.clear();
  ++checkpoints_;
  lastCheckpointAt_ = now;
}

void CheckpointStore::append(WalEntry entry) {
  ++walAppended_;
  if (wal_.size() >= walCapacity_) {
    ++walDropped_;
    return;
  }
  wal_.push_back(std::move(entry));
}

void CheckpointStore::logMessage(sim::Time now, std::uint32_t from,
                                 const Message& payload) {
  append(WalEntry{now, from, /*termination=*/false, payload});
}

void CheckpointStore::logTermination(sim::Time now, std::uint32_t app) {
  append(WalEntry{now, app, /*termination=*/true, {}});
}

std::size_t CheckpointStore::restoreInto(ArbiterCore& core) const {
  core.restore(snap_ ? *snap_ : ArbiterSnapshot{});
  ArbiterCore::Commands discard;
  for (const WalEntry& e : wal_) {
    if (e.termination) {
      core.onApplicationTerminated(e.time, e.app, discard);
    } else {
      core.onMessage(e.time, e.app, e.payload, discard);
    }
    // Replayed inputs already produced and delivered their commands before
    // the crash; losses are healed by reconciliation, not re-delivery.
    discard.clear();
  }
  return wal_.size();
}

ArbiterHost::ArbiterHost(std::unique_ptr<Policy> policy,
                         const ArbiterConfig& config)
    : core_(std::move(policy)),
      checkpointEvery_(config.checkpointEverySeconds) {
  CALCIOM_EXPECTS(checkpointEvery_ >= 0.0);
  core_.configureLeases(config.leases);
  core_.setAudit(config.auditInvariants);
}

void ArbiterHost::restart(sim::Time now, ArbiterCore::Commands& out) {
  CALCIOM_EXPECTS(down_);
  down_ = false;
  store_.restoreInto(core_);
  core_.beginRecovery(now, kRecoveryWindowSeconds, ++restarts_, out);
}

}  // namespace calciom::core
