#include "mpi/port.hpp"

#include <algorithm>
#include <utility>

namespace calciom::mpi {

bool PortRegistry::send(const std::string& port, std::uint32_t fromApp,
                        Info payload) {
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

bool PortRegistry::scheduleDelivery(const std::string& port,
                                    std::uint32_t fromApp, Info payload,
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
  Info payload = std::move(m.payload);
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

PortRegistry::Handler* PortRegistry::resolve(const std::string& port) {
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

bool PortRegistry::deliverNow(const std::string& port, std::uint32_t fromApp,
                              Info payload) {
  affinity_.check("mpi::PortRegistry::deliverNow");
  Handler* handler = resolve(port);
  if (handler == nullptr) {
    return false;
  }
  ++delivered_;
  (*handler)(fromApp, std::move(payload));
  return true;
}

std::size_t PortRegistry::deliverBatch(std::vector<Delivery>& batch) {
  affinity_.check("mpi::PortRegistry::deliverBatch");
  std::size_t deliveredHere = 0;
  for (Delivery& d : batch) {
    // Per-entry resolution, not hoisted: a handler may close its own port
    // mid-batch (an endpoint dying on receipt), and the epoch check turns
    // that into a re-lookup instead of a dangling call.
    Handler* handler = resolve(d.port);
    if (handler == nullptr) {
      continue;
    }
    ++delivered_;
    ++deliveredHere;
    (*handler)(d.fromApp, std::move(d.payload));
  }
  return deliveredHere;
}

}  // namespace calciom::mpi
