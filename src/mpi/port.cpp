#include "mpi/port.hpp"

#include <algorithm>
#include <utility>

namespace calciom::mpi {

void PortRegistry::openPort(std::string_view name, Handler handler) {
  affinity_.check("mpi::PortRegistry::openPort");
  CALCIOM_EXPECTS(handler != nullptr);
  if (const auto it = ports_.find(name); it != ports_.end()) {
    it->second = std::move(handler);
  } else {
    ports_.emplace(std::string(name), std::move(handler));
  }
  ++epoch_;
}

void PortRegistry::closePort(std::string_view name) {
  affinity_.check("mpi::PortRegistry::closePort");
  if (const auto it = ports_.find(name); it != ports_.end()) {
    ports_.erase(it);
  }
  ++epoch_;
}

bool PortRegistry::send(std::string_view port, std::uint32_t fromApp,
                        core::Message payload) {
  // A send schedules on this registry's engine: legal only from the owning
  // shard's loop or from setup/barrier context (rule 1).
  affinity_.check("mpi::PortRegistry::send");
  if (filter_ == nullptr) {
    return scheduleDelivery(port, fromApp, std::move(payload), latency_);
  }
  const DeliveryFilter::Verdict v = filter_->onSend(port, fromApp, payload);
  if (v.duplicate) {
    // The copy first: with equal extra delays it lands before the original
    // ((time, seq) order), which is the adversarial case for idempotency —
    // the receiver applies the copy and must treat the original as stale.
    scheduleDelivery(port, fromApp, payload,
                     latency_ + std::max(v.duplicateExtraDelaySeconds, 0.0));
  }
  if (v.drop) {
    // Lost in the network: the sender saw a successful send.
    return true;
  }
  return scheduleDelivery(port, fromApp, std::move(payload),
                          latency_ + std::max(v.extraDelaySeconds, 0.0));
}

bool PortRegistry::scheduleDelivery(std::string_view port,
                                    std::uint32_t fromApp,
                                    core::Message payload,
                                    double delaySeconds) {
  // Routed at send time: a message to an unknown port belongs to the relay
  // even if the port opens while it is in flight (a connection is a
  // connection).
  const bool relayed = resolve(port) == nullptr;
  if (relayed && relay_ == nullptr) {
    return false;
  }
  std::uint32_t slot = 0;
  if (freeSlots_.empty()) {
    slot = static_cast<std::uint32_t>(inFlight_.size());
    inFlight_.emplace_back();
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  }
  InFlight& m = inFlight_[slot];
  m.port.assign(port);
  m.fromApp = fromApp;
  m.relayed = relayed;
  m.payload = std::move(payload);
  engine_.scheduleAfter(delaySeconds, [this, slot] { deliverParked(slot); });
  return true;
}

void PortRegistry::deliverParked(std::uint32_t slot) {
  // Take everything out and free the slot before any handler runs: a
  // handler that sends re-enters the table and may reuse this very slot.
  InFlight& m = inFlight_[slot];
  const std::uint32_t fromApp = m.fromApp;
  core::Message payload = std::move(m.payload);
  if (m.relayed) {
    const std::string port = m.port;
    freeSlots_.push_back(slot);
    if (relay_ == nullptr) {
      return;  // relay removed while the message was in flight
    }
    ++relayed_;
    relay_(port, fromApp, std::move(payload));
    return;
  }
  Handler* handler = resolve(m.port);
  freeSlots_.push_back(slot);
  if (handler == nullptr) {
    return;  // port closed while the message was in flight
  }
  ++delivered_;
  (*handler)(fromApp, std::move(payload));
}

PortRegistry::Handler* PortRegistry::resolve(std::string_view port) {
  if (cacheEpoch_ == epoch_ && *cacheName_ == port) {
    return cacheHandler_;
  }
  const auto it = ports_.find(port);
  if (it == ports_.end()) {
    return nullptr;  // misses are not cached: the next open may create it
  }
  cacheEpoch_ = epoch_;
  cacheName_ = &it->first;
  cacheHandler_ = &it->second;
  return cacheHandler_;
}

bool PortRegistry::deliverNow(std::string_view port, std::uint32_t fromApp,
                              core::Message payload) {
  affinity_.check("mpi::PortRegistry::deliverNow");
  Handler* handler = resolve(port);
  if (handler == nullptr) {
    return false;
  }
  ++delivered_;
  (*handler)(fromApp, std::move(payload));
  return true;
}

}  // namespace calciom::mpi
