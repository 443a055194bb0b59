#include "calciom/arbiter.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace calciom::core {

Arbiter::Arbiter(sim::Engine& engine, mpi::PortRegistry& ports,
                 std::unique_ptr<Policy> policy, const ArbiterConfig& config,
                 double tickSeconds)
    : engine_(engine),
      ports_(ports),
      host_(std::move(policy), config),
      tickSeconds_(tickSeconds) {
  openPort();
}

Arbiter::~Arbiter() {
  *alive_ = false;
  if (portOpen_) {
    ports_.closePort(msg::arbiterPort());
  }
}

void Arbiter::openPort() {
  ports_.openPort(msg::arbiterPort(),
                  [this](std::uint32_t from, const Message& payload) {
                    onMessage(from, payload);
                  });
  portOpen_ = true;
}

void Arbiter::onMessage(std::uint32_t from, const Message& payload) {
  if (host_.down()) {
    return;  // a closed port should make this unreachable, but be explicit
  }
  host_.onMessage(engine_.now(), from, payload, scratch_);
  dispatchCommands();
  host_.maybeCheckpoint(engine_.now());
  maybeArmTick();
}

void Arbiter::onApplicationTerminated(std::uint32_t appId) {
  if (host_.down()) {
    // The job scheduler cannot reach a dead arbiter; it re-reports the
    // death once the process is back (restart() applies the backlog).
    pendingTerminations_.push_back(appId);
    return;
  }
  host_.onTerminated(engine_.now(), appId, scratch_);
  dispatchCommands();
  host_.maybeCheckpoint(engine_.now());
  maybeArmTick();
}

void Arbiter::crash() {
  if (host_.down()) {
    return;
  }
  host_.crash();
  if (portOpen_) {
    ports_.closePort(msg::arbiterPort());
    portOpen_ = false;
  }
  // The tick chain has no cancellation; a pending tick fires into the
  // down() guard and dies there.
}

void Arbiter::restart() {
  CALCIOM_EXPECTS(host_.down());
  openPort();
  const sim::Time now = engine_.now();
  host_.restart(now, scratch_);
  // Deaths reported while we were down: the restored (or WAL-replayed)
  // state may still hold records for them.
  for (const std::uint32_t appId : pendingTerminations_) {
    host_.onTerminated(now, appId, scratch_);
  }
  pendingTerminations_.clear();
  dispatchCommands();
  maybeArmTick();
}

void Arbiter::dispatchCommands() {
  for (const ArbiterCommand& cmd : scratch_) {
    ports_.send(msg::appPort(cmd.app), /*fromApp=*/0, encodeCommand(cmd));
  }
  scratch_.clear();
}

void Arbiter::maybeArmTick() {
  const ArbiterCore& core = host_.core();
  if (tickSeconds_ <= 0.0 || tickArmed_ || host_.down() ||
      (core.idle() && !core.recovering())) {
    return;
  }
  tickArmed_ = true;
  engine_.scheduleAfter(tickSeconds_, [this, alive = alive_] {
    if (!*alive) {
      return;
    }
    tickArmed_ = false;
    if (host_.down()) {
      return;  // the process died while this tick was in flight
    }
    host_.core().onTick(engine_.now(), scratch_);
    dispatchCommands();
    maybeArmTick();
  });
}

}  // namespace calciom::core
