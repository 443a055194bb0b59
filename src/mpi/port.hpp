#pragma once

/// \file port.hpp
/// Cross-application messaging. The paper connects applications with
/// MPI_Comm_connect/MPI_Comm_accept (made non-blocking via a helper thread,
/// or in the prototype, a shared MPI_COMM_WORLD). We model the result: a
/// registry of named ports; sending to a port delivers a coordination
/// message (`core::Message`, the typed wire of calciom/wire.hpp) to the
/// owner's handler after a configurable latency. Coordinators and the
/// arbiter communicate exclusively through this class, so coordination cost
/// is accounted in simulated time.
///
/// Port names are `std::string_view`s looked up in a map with a
/// transparent comparator, so addressing a port never builds a string: an
/// application's port name is formatted on the stack (`core::msg::appPort`)
/// and a parked in-flight message copies it into a slot string whose
/// capacity is reused by later sends.
///
/// A registry is *shard-local*: it belongs to exactly one machine and
/// schedules deliveries on that machine's engine, so in a sharded platform
/// (platform::Cluster) a send can only ever reach ports of the same shard.
/// Two escape hatches exist for cross-shard coordination, both designed
/// around sync-horizon barriers where no shard loop is running:
///  * a *relay*: sends to ports not open locally are handed (after the
///    usual latency) to a registered relay handler together with the port
///    name, instead of failing. This is the generic forwarding path for
///    port names a shard does not host; note that arbiter traffic does NOT
///    use it today — calciom::ArbiterStub claims msg::arbiterPort()
///    directly, so the relay currently has no production wiring (covered
///    by tests/mpi_test.cpp, available for future cross-shard services);
///  * `deliverNow`: synchronous dispatch into a locally open port, used by
///    barrier hooks (calciom::GlobalArbiter) to land a cross-shard message
///    they have already timestamped and scheduled on this shard's engine
///    (the hop latency was paid by the scheduler, so no second latency is
///    added here).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "calciom/wire.hpp"
#include "sim/engine.hpp"
#include "sim/shard_affinity.hpp"

namespace calciom::mpi {

/// Inspection point on the send path, consulted once per send() before the
/// delivery event is scheduled. This is how fault injection
/// (calciom::fault::Injector) perturbs the message layer without the layer
/// knowing: a filter may drop the message, add delivery delay (which also
/// reorders it relative to later sends — delivery order is timestamp order),
/// or duplicate it. With no filter installed — or a filter returning the
/// default Verdict — the send path is byte-for-byte the unfiltered one, which
/// is what keeps zero-fault runs bit-identical to pre-filter builds.
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
  [[nodiscard]] virtual Verdict onSend(std::string_view port,
                                       std::uint32_t fromApp,
                                       const core::Message& payload) = 0;
};

class PortRegistry {
 public:
  using Handler =
      std::function<void(std::uint32_t fromApp, core::Message payload)>;
  /// Relay handler: receives messages addressed to ports that are not open
  /// locally, together with the target port's name.
  using RelayHandler = std::function<void(
      const std::string& port, std::uint32_t fromApp, core::Message payload)>;

  PortRegistry(sim::Engine& engine, double latency)
      : engine_(engine), affinity_(&engine), latency_(latency) {
    CALCIOM_EXPECTS(latency >= 0.0);
  }
  PortRegistry(const PortRegistry&) = delete;
  PortRegistry& operator=(const PortRegistry&) = delete;

  /// The engine (= shard) this registry schedules deliveries on.
  [[nodiscard]] sim::Engine& engine() const noexcept { return engine_; }

  /// Opens a named port; messages sent to it invoke `handler` after the
  /// registry latency. Reopening an existing name replaces the handler.
  /// Shard-local (setup code or the owning engine's loop): a foreign shard
  /// mutating the registration set mid-round would race the owner and make
  /// in-flight routing depend on round interleaving (CALCIOM_SHARD_CHECKS
  /// builds trap it; see sim/shard_affinity.hpp).
  void openPort(std::string_view name, Handler handler);

  void closePort(std::string_view name);
  [[nodiscard]] bool hasPort(std::string_view name) const {
    return ports_.contains(name);
  }

  /// Installs (or, with nullptr, removes) the relay for locally unknown
  /// ports. With a relay set, send() to a port that is not open locally
  /// succeeds and delivers to the relay after the registry latency; the
  /// relay sees the port name and decides where the message goes next.
  void setRelay(RelayHandler relay) { relay_ = std::move(relay); }
  [[nodiscard]] bool hasRelay() const noexcept { return relay_ != nullptr; }

  /// Installs (or, with nullptr, removes) the delivery filter consulted by
  /// send(). Non-owning: the filter must outlive the registry's sends. Only
  /// send() consults it — deliverNow() is the barrier-time path whose
  /// faultiness the barrier hook models itself (calciom::GlobalArbiter asks
  /// the injector directly when it schedules command deliveries).
  void setDeliveryFilter(DeliveryFilter* filter) noexcept {
    filter_ = filter;
  }

  /// Sends `payload` to `port`. Returns false if the port does not exist at
  /// send time and no relay is installed. Delivery is skipped silently if
  /// the port closes in flight (like a connection torn down while a message
  /// is queued) — even when a relay is installed: routing is fixed at send
  /// time, so a message addressed to a then-open port never falls back to
  /// the relay, which would resurrect traffic for an endpoint that is gone
  /// (e.g. an application terminated between barriers). Symmetrically, a
  /// message relayed because the port was unknown at send time stays with
  /// the relay even if the port opens in flight.
  bool send(std::string_view port, std::uint32_t fromApp,
            core::Message payload);

  /// Synchronously invokes `port`'s handler (no latency, no scheduling).
  /// For barrier-time relays only: the caller has already scheduled this
  /// delivery on the owning engine at a timestamp that includes the hop
  /// latency. Returns false if the port is not open. Never consults the
  /// relay: barrier hooks address concrete endpoints, and a closed port
  /// means the endpoint died in flight — the message must drop, not detour
  /// (a forwarded Grant re-entering the system could re-register a dead
  /// application).
  bool deliverNow(std::string_view port, std::uint32_t fromApp,
                  core::Message payload);

  [[nodiscard]] double latency() const noexcept { return latency_; }
  [[nodiscard]] std::uint64_t messagesDelivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::uint64_t messagesRelayed() const noexcept {
    return relayed_;
  }

 private:
  /// The unfiltered send path: schedules one delivery after `delaySeconds`
  /// (routing fixed at send time, as documented on send()).
  bool scheduleDelivery(std::string_view port, std::uint32_t fromApp,
                        core::Message payload, double delaySeconds);
  /// The delivery event of a parked message: frees its slot, then hands the
  /// payload to the port's handler (or to the relay it was routed to).
  void deliverParked(std::uint32_t slot);
  /// Epoch-validated port lookup: nullptr when the port is not open. The
  /// cached (key, handler) node pointers are stable for the life of the map
  /// node, and every openPort/closePort bumps epoch_, so a matching epoch
  /// proves the node was neither erased nor is the cache observing a stale
  /// registration set.
  Handler* resolve(std::string_view port);

  /// A message in flight, parked until its delivery event runs. The event
  /// captures only {registry, slot}, which fits EventFn's inline buffer; a
  /// freed slot keeps its port string's capacity for the next send.
  struct InFlight {
    std::string port;
    std::uint32_t fromApp = 0;
    /// Routed to the relay at send time (the port was not open locally).
    bool relayed = false;
    core::Message payload;
  };

  sim::Engine& engine_;
  /// Rule-1 guard: sends and registration changes must come from this
  /// registry's own shard (or setup/barrier context).
  sim::ShardAffinity affinity_;
  double latency_;
  /// Transparent comparator: lookups take the name as a string_view.
  std::map<std::string, Handler, std::less<>> ports_;
  RelayHandler relay_;
  DeliveryFilter* filter_ = nullptr;
  std::vector<InFlight> inFlight_;
  std::vector<std::uint32_t> freeSlots_;
  std::uint64_t delivered_ = 0;
  std::uint64_t relayed_ = 0;
  /// Registration epoch: bumped on every openPort/closePort.
  std::uint64_t epoch_ = 0;
  std::uint64_t cacheEpoch_ = ~std::uint64_t{0};
  const std::string* cacheName_ = nullptr;
  Handler* cacheHandler_ = nullptr;
};

}  // namespace calciom::mpi
