#pragma once

/// \file arbiter.hpp
/// Same-engine frontend of the CALCioM decision core (arbiter_core.hpp):
/// the arbiter of a single machine, reachable through the machine's
/// cross-application port registry. Every inbound message and outbound
/// command pays the registry's configured message latency, so coordination
/// cost is fully accounted in simulated time.
///
/// All scheduling behaviour lives in `ArbiterCore`, and checkpointing,
/// crash and restart in `ArbiterHost` (recovery.hpp); this class only
/// adapts the transport — port handler in, port sends out, timestamps from
/// the owning engine's clock, plus the lease-sweep tick timer. The
/// cross-shard frontend over the same host is `GlobalArbiter`
/// (global_arbiter.hpp).

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "calciom/arbiter_core.hpp"
#include "calciom/recovery.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"

namespace calciom::core {

class Arbiter {
 public:
  /// `tickSeconds` is the period of the lease sweep timer
  /// (ArbiterCore::onTick), armed only while the core is non-idle so a
  /// drained simulation still terminates; 0 disables the timer (leases
  /// then only expire on message arrival).
  Arbiter(sim::Engine& engine, mpi::PortRegistry& ports,
          std::unique_ptr<Policy> policy, const ArbiterConfig& config = {},
          double tickSeconds = 0.0);
  ~Arbiter();
  Arbiter(const Arbiter&) = delete;
  Arbiter& operator=(const Arbiter&) = delete;

  [[nodiscard]] const Policy& policy() const noexcept {
    return core().policy();
  }
  [[nodiscard]] const std::vector<DecisionRecord>& decisions() const noexcept {
    return core().decisions();
  }
  [[nodiscard]] std::size_t grantsIssued() const noexcept {
    return core().grantsIssued();
  }
  [[nodiscard]] std::size_t pausesIssued() const noexcept {
    return core().pausesIssued();
  }

  /// Introspection for tests.
  [[nodiscard]] std::vector<std::uint32_t> currentAccessors() const {
    return core().currentAccessors();
  }
  [[nodiscard]] std::vector<std::uint32_t> waitQueue() const {
    return core().waitQueue();
  }
  [[nodiscard]] std::vector<std::uint32_t> pausedStack() const {
    return core().pausedStack();
  }

  /// The shared decision core (read access for replay comparisons; write
  /// access for taking its logs once the run is over).
  [[nodiscard]] const ArbiterCore& core() const noexcept {
    return host_.core();
  }
  [[nodiscard]] ArbiterCore& core() noexcept { return host_.core(); }

  /// Job-scheduler integration; see ArbiterCore::onApplicationTerminated.
  void onApplicationTerminated(std::uint32_t appId);

  // ---- Crash recovery -----------------------------------------------------

  /// Kills the arbiter process at the current instant: the port closes
  /// (in-flight messages bounce off a dead process), the tick chain stops,
  /// and the core's in-memory state is conceptually lost — only the
  /// checkpoint store survives. Idempotent.
  void crash();
  /// Restarts a crashed arbiter: reopens the port, restarts the host
  /// (ArbiterHost::restart: checkpoint + WAL, then the reconciliation
  /// window with a fresh arbiter incarnation) and applies scheduler
  /// terminations reported while down.
  void restart();
  [[nodiscard]] bool down() const noexcept { return host_.down(); }
  [[nodiscard]] std::uint64_t restarts() const noexcept {
    return host_.restarts();
  }
  /// The stable-storage model (checkpoint + WAL counters, for tests).
  [[nodiscard]] const CheckpointStore& checkpointStore() const noexcept {
    return host_.checkpointStore();
  }

 private:
  void onMessage(std::uint32_t from, const Message& payload);
  /// Sends and clears every command in `scratch_` through the port
  /// registry (one latency hop each, like any cross-application message).
  void dispatchCommands();
  /// (Re)arms the lease-sweep timer iff ticking is configured, the core is
  /// non-idle, and no tick is already pending. Conditional re-arming is
  /// what lets the engine drain: an idle core stops the timer chain.
  void maybeArmTick();

  void openPort();

  sim::Engine& engine_;
  mpi::PortRegistry& ports_;
  ArbiterHost host_;
  ArbiterCore::Commands scratch_;
  double tickSeconds_;
  bool tickArmed_ = false;
  bool portOpen_ = false;
  /// Scheduler terminations reported while the arbiter was down, applied
  /// (at restart time) once it is back.
  std::vector<std::uint32_t> pendingTerminations_;
  /// Outlives `this` in the tick events' captures: the timer chain has no
  /// cancellation (sim/engine.hpp), so a tick firing after destruction
  /// must see the tombstone instead of touching freed state.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace calciom::core
