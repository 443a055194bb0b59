#pragma once

/// \file port.hpp
/// Cross-application messaging. The paper connects applications with
/// MPI_Comm_connect/MPI_Comm_accept (made non-blocking via a helper thread,
/// or in the prototype, a shared MPI_COMM_WORLD). We model the result: a
/// registry of ports; sending to a port delivers a coordination message
/// (`core::Message`, the typed wire of calciom/wire.hpp) to the owner's
/// handler after a configurable latency. Coordinators and the arbiter
/// communicate exclusively through this class, so coordination cost is
/// accounted in simulated time.
///
/// A port is a value (`core::msg::PortId`): the arbiter's, or one
/// application's by id. The registry keeps one arbiter slot and the
/// application handlers in a table keyed by id, so addressing a port is a
/// lookup by number. Every port carries coordination traffic, so a
/// delivery filter sees every message.
///
/// A registry is *shard-local*: it belongs to exactly one machine and
/// schedules deliveries on that machine's engine, so in a sharded platform
/// (platform::Cluster) a send can only ever reach ports of the same shard.
/// Cross-shard traffic enters through `deliverAt`, called by barrier hooks
/// (calciom::GlobalArbiter) while no shard loop runs: it lands a message
/// they have already timestamped (the hop latency is in the timestamp) and
/// passes it through this registry's filter like any send.
///
/// This header includes calciom/wire.hpp for `core::Message`: the one
/// `mpi → calciom` edge of the module graph.

#include <cstdint>
#include <functional>
#include <vector>

#include "calciom/flat_id_map.hpp"
#include "calciom/wire.hpp"
#include "sim/engine.hpp"
#include "sim/shard_affinity.hpp"

namespace calciom::mpi {

using core::msg::PortId;

/// Inspection point on the delivery path, consulted once per send() or
/// deliverAt() before the delivery event is scheduled. This is how fault
/// injection (calciom::fault::Injector) perturbs the message layer without
/// the layer knowing: a filter may drop the message, add delivery delay
/// (which also reorders it relative to later sends — delivery order is
/// timestamp order), or duplicate it. With no filter installed — or a
/// filter returning the default Verdict — the delivery path is
/// byte-for-byte the unfiltered one, which is what keeps zero-fault runs
/// bit-identical to pre-filter builds.
class DeliveryFilter {
 public:
  struct Verdict {
    /// Swallow the message in flight (the sender still sees success — a
    /// lost message, not a refused one).
    bool drop = false;
    /// Extra delivery delay on top of the registry latency.
    double extraDelaySeconds = 0.0;
    /// Also deliver a second copy of the message.
    bool duplicate = false;
    /// Extra delay of the duplicate copy.
    double duplicateExtraDelaySeconds = 0.0;
  };

  virtual ~DeliveryFilter() = default;
  [[nodiscard]] virtual Verdict onSend(PortId port, std::uint32_t fromApp,
                                       const core::Message& payload) = 0;
  /// Whether the shard behind this registry is cut off from the global
  /// arbiter in sync round `round` (1-based): its stub's round traffic is
  /// discarded and no command is delivered into it.
  [[nodiscard]] virtual bool blackedOut(std::uint64_t /*round*/) const {
    return false;
  }
};

class PortRegistry {
 public:
  using Handler =
      std::function<void(std::uint32_t fromApp, core::Message payload)>;

  PortRegistry(sim::Engine& engine, double latency)
      : engine_(engine), affinity_(&engine), latency_(latency) {
    CALCIOM_EXPECTS(latency >= 0.0);
  }
  PortRegistry(const PortRegistry&) = delete;
  PortRegistry& operator=(const PortRegistry&) = delete;

  /// The engine (= shard) this registry schedules deliveries on.
  [[nodiscard]] sim::Engine& engine() const noexcept { return engine_; }

  /// Opens `port`; messages sent to it invoke `handler` after the registry
  /// latency. Reopening an open port replaces the handler. A handler may
  /// open and close ports, its own included, while it runs.
  /// Shard-local (setup code or the owning engine's loop): a foreign shard
  /// mutating the registration set mid-round would race the owner and make
  /// in-flight routing depend on round interleaving (CALCIOM_SHARD_CHECKS
  /// builds trap it; see sim/shard_affinity.hpp).
  void openPort(PortId port, Handler handler);

  void closePort(PortId port);
  [[nodiscard]] bool hasPort(PortId port) const {
    return port.arbiter ? arbiter_ != nullptr : apps_.contains(port.app);
  }

  /// Installs (or, with nullptr, removes) the delivery filter consulted by
  /// send() and deliverAt(). Non-owning: the filter must outlive the
  /// registry's sends.
  void setDeliveryFilter(DeliveryFilter* filter) noexcept {
    filter_ = filter;
  }
  [[nodiscard]] bool hasDeliveryFilter() const noexcept {
    return filter_ != nullptr;
  }
  /// The filter's blackout answer for `round`; false without a filter.
  [[nodiscard]] bool blackedOut(std::uint64_t round) const {
    return filter_ != nullptr && filter_->blackedOut(round);
  }

  /// Sends `payload` to `port`, delivered after the registry latency.
  /// Returns false, scheduling nothing, if the port is not open at send
  /// time (the filter has seen the message by then). Delivery is skipped
  /// silently if the port closes in flight, like a connection torn down
  /// while a message is queued.
  bool send(PortId port, std::uint32_t fromApp, core::Message payload);

  /// Barrier-time delivery of a message the caller has already timestamped:
  /// lands at `at` plus the filter's extra delay, with no registry latency
  /// added (the hop latency is in `at`). Unlike send(), it schedules even
  /// when the port is closed now and resolves the port when the message
  /// lands, dropping it if the port is not open then. Returns whether the
  /// original message (not just a duplicate) was scheduled.
  bool deliverAt(sim::Time at, PortId port, std::uint32_t fromApp,
                 core::Message payload);

  [[nodiscard]] double latency() const noexcept { return latency_; }
  [[nodiscard]] std::uint64_t messagesDelivered() const noexcept {
    return delivered_;
  }

 private:
  [[nodiscard]] DeliveryFilter::Verdict verdict(PortId port,
                                                std::uint32_t fromApp,
                                                const core::Message& payload);
  /// Schedules the filtered delivery: a duplicate first (with equal extra
  /// delays it lands before the original, the adversarial case for
  /// idempotency), then the original unless dropped, each at
  /// `base + (hop + extra delay)`. That grouping keeps both callers'
  /// timestamps bit for bit: a send lands at `now + (latency + extra)`, a
  /// barrier delivery at `at + extra`. Returns whether the original was
  /// scheduled.
  bool schedule(sim::Time base, double hop, const DeliveryFilter::Verdict& v,
                PortId port, std::uint32_t fromApp, core::Message payload);
  /// Parks `payload` in a free slot and schedules its delivery event at
  /// `at`; the event captures only {registry, slot, port, sender}, which
  /// fits EventFn's inline buffer.
  void park(sim::Time at, PortId port, std::uint32_t fromApp,
            core::Message payload);
  /// The delivery event of a parked message: frees its slot, then hands the
  /// payload to the port's handler if the port is open.
  void deliverParked(std::uint32_t slot, PortId port, std::uint32_t fromApp);
  /// The handler open on `port`, or nullptr. Valid until the next
  /// openPort/closePort.
  Handler* find(PortId port);

  sim::Engine& engine_;
  /// Rule-1 guard: sends and registration changes must come from this
  /// registry's own shard (or setup/barrier context).
  sim::ShardAffinity affinity_;
  double latency_;
  /// The arbiter's handler (empty when its port is closed) and every open
  /// application port's.
  Handler arbiter_;
  core::FlatIdMap<Handler> apps_;
  DeliveryFilter* filter_ = nullptr;
  /// Messages in flight, parked until their delivery events run; a freed
  /// slot is reused by a later send.
  std::vector<core::Message> inFlight_;
  std::vector<std::uint32_t> freeSlots_;
  std::uint64_t delivered_ = 0;
};

}  // namespace calciom::mpi
