#include "mpi/port.hpp"

#include <algorithm>
#include <utility>

namespace calciom::mpi {

void PortRegistry::openPort(PortId port, Handler handler) {
  affinity_.check("mpi::PortRegistry::openPort");
  CALCIOM_EXPECTS(handler != nullptr);
  if (port.arbiter) {
    arbiter_ = std::move(handler);
  } else {
    apps_.upsert(port.app) = std::move(handler);
  }
}

void PortRegistry::closePort(PortId port) {
  affinity_.check("mpi::PortRegistry::closePort");
  if (port.arbiter) {
    arbiter_ = nullptr;
  } else {
    apps_.erase(port.app);
  }
}

bool PortRegistry::send(PortId port, std::uint32_t fromApp,
                        core::Message payload) {
  // A send schedules on this registry's engine: legal only from the owning
  // shard's loop or from setup/barrier context (rule 1).
  affinity_.check("mpi::PortRegistry::send");
  const DeliveryFilter::Verdict v = verdict(port, fromApp, payload);
  if (!hasPort(port)) {
    return false;
  }
  // A dropped message is lost in the network: the sender saw success.
  schedule(engine_.now(), latency_, v, port, fromApp, std::move(payload));
  return true;
}

bool PortRegistry::deliverAt(sim::Time at, PortId port, std::uint32_t fromApp,
                             core::Message payload) {
  // Plants an event into this shard's engine: legal only while no shard
  // loop runs.
  sim::ShardAffinity::checkBarrierContext("mpi::PortRegistry::deliverAt");
  const DeliveryFilter::Verdict v = verdict(port, fromApp, payload);
  return schedule(at, 0.0, v, port, fromApp, std::move(payload));
}

DeliveryFilter::Verdict PortRegistry::verdict(PortId port,
                                              std::uint32_t fromApp,
                                              const core::Message& payload) {
  return filter_ == nullptr ? DeliveryFilter::Verdict{}
                            : filter_->onSend(port, fromApp, payload);
}

bool PortRegistry::schedule(sim::Time base, double hop,
                            const DeliveryFilter::Verdict& v, PortId port,
                            std::uint32_t fromApp, core::Message payload) {
  if (v.duplicate) {
    park(base + (hop + std::max(v.duplicateExtraDelaySeconds, 0.0)), port,
         fromApp, payload);
  }
  if (v.drop) {
    return false;
  }
  park(base + (hop + std::max(v.extraDelaySeconds, 0.0)), port, fromApp,
       std::move(payload));
  return true;
}

void PortRegistry::park(sim::Time at, PortId port, std::uint32_t fromApp,
                        core::Message payload) {
  std::uint32_t slot = 0;
  if (freeSlots_.empty()) {
    slot = static_cast<std::uint32_t>(inFlight_.size());
    inFlight_.push_back(std::move(payload));
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
    inFlight_[slot] = std::move(payload);
  }
  engine_.scheduleAt(at, [this, slot, port, fromApp] {
    deliverParked(slot, port, fromApp);
  });
}

void PortRegistry::deliverParked(std::uint32_t slot, PortId port,
                                 std::uint32_t fromApp) {
  // Take the payload out and free the slot before any handler runs: a
  // handler that sends re-enters the table and may reuse this very slot.
  core::Message payload = std::move(inFlight_[slot]);
  freeSlots_.push_back(slot);
  const Handler* open = find(port);
  if (open == nullptr) {
    return;  // port closed while the message was in flight
  }
  ++delivered_;
  // Called through a copy: a handler that opens or closes ports may move
  // or destroy the table's entry, its own included, while it runs.
  const Handler handler = *open;
  handler(fromApp, std::move(payload));
}

PortRegistry::Handler* PortRegistry::find(PortId port) {
  if (port.arbiter) {
    return arbiter_ != nullptr ? &arbiter_ : nullptr;
  }
  return apps_.find(port.app);
}

}  // namespace calciom::mpi
