#pragma once

/// \file flow_net.hpp
/// Fluid flow-level bandwidth model. Every data movement in the simulated
/// machine (a process writing to a storage server, an aggregated
/// application-to-server stream) is a *flow*: a number of bytes traversing a
/// path of capacitated *resources* (application I/O-forwarding capacity,
/// switch ports, server NICs, disk ingest).
///
/// At any instant, active flows receive rates according to **weighted
/// max–min fairness** (progressive filling): all flows grow proportionally
/// to their weight until a resource saturates or a per-flow cap is reached,
/// those flows freeze, and filling continues. This is the standard analytic
/// model of TCP-like / request-interleaving bandwidth sharing and is what
/// makes a 744-process application crowd out a 24-process one in proportion
/// to stream counts — the central interference mechanism in the paper.
///
/// Between changes (flow start, flow completion, capacity change) rates are
/// constant, so the engine only needs an event at the next flow completion:
/// simulation cost is proportional to the number of flow events, not to
/// transferred bytes.
///
/// **Incremental recomputation.** A weighted max–min allocation decomposes
/// over the connected components of the bipartite flow/resource graph:
/// flows that share no resource (directly or transitively) never influence
/// each other's rates. This implementation exploits that: each flow event
/// discovers the component reachable from the changed resources via
/// per-resource incidence lists, settles and re-fills only that component,
/// and leaves every other flow's rate, byte account and projected completion
/// untouched. The next completion is read off an indexed 4-ary min-heap of
/// absolute projected finish times with decrease-key, so event dispatch is
/// O(log F) instead of a linear scan. The original global-recompute
/// allocator is retained verbatim in tests/support/flow_net_reference.hpp as
/// the oracle for differential testing; see src/net/README.md for the
/// invariants.
///
/// **Live flows only.** The net keeps a record for in-flight flows alone:
/// each lives in a compact slot (path and back-refs inline up to
/// kInlinePath resources) that is recycled through a free list once the
/// flow completes, and its completion trigger is re-armed in place when
/// nobody else holds it. A `FlowId` stays the flow's dense start-order
/// number and maps to its slot through a 4-byte index, so queries on a
/// finished flow stay valid and a steady stream of starts and completions
/// allocates nothing.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace calciom::net {

using ResourceId = std::uint32_t;
using FlowId = std::uint64_t;

/// Capacity / rate-cap value meaning "no limit".
inline constexpr double kUnlimited = std::numeric_limits<double>::infinity();

/// Description of a transfer submitted to the network.
struct FlowSpec {
  /// Total bytes to move. Must be >= 0; zero-byte flows complete instantly.
  double bytes = 0.0;
  /// Resources traversed (order irrelevant for the fluid model).
  std::vector<ResourceId> path;
  /// Max–min weight; models the number of independent request streams this
  /// flow aggregates (e.g. the process count of an application).
  double weight = 1.0;
  /// Absolute rate cap in bytes/s (e.g. weight × per-process NIC bandwidth).
  double rateCap = kUnlimited;
  /// Originating group (application id). Storage servers use the number of
  /// distinct groups writing to them to model request-interleaving locality
  /// loss at the disk.
  std::uint32_t group = 0;
};

class FlowNet;

/// View of the resources whose flow rates may have changed during the
/// recomputation that triggered a rates listener. Only valid for the
/// duration of the listener callback.
class AffectedResources {
 public:
  /// True if rates through `r` may have changed in this recomputation.
  [[nodiscard]] bool contains(ResourceId r) const noexcept;
  /// Affected resource ids, unordered.
  [[nodiscard]] const std::vector<ResourceId>& ids() const noexcept;

 private:
  friend class FlowNet;
  explicit AffectedResources(const FlowNet& net) noexcept : net_(net) {}
  const FlowNet& net_;
};

/// Weighted max–min fair fluid network driven by a discrete-event engine.
class FlowNet {
 public:
  /// Listener invoked after every rate recomputation with the set of
  /// resources whose rates may have changed.
  using RatesListener = std::function<void(const AffectedResources&)>;

  explicit FlowNet(sim::Engine& engine);
  FlowNet(const FlowNet&) = delete;
  FlowNet& operator=(const FlowNet&) = delete;

  /// Registers a resource with the given capacity (bytes/s, may be
  /// kUnlimited) and returns its id.
  ResourceId addResource(double capacity, std::string name = {});

  /// Changes a resource's capacity; active flow rates are recomputed and the
  /// change takes effect immediately (used by the write-back cache when it
  /// fills up and ingest collapses to the drain rate).
  void setCapacity(ResourceId r, double capacity);

  [[nodiscard]] double capacity(ResourceId r) const;
  [[nodiscard]] const std::string& resourceName(ResourceId r) const;
  [[nodiscard]] std::size_t resourceCount() const noexcept {
    return resources_.size();
  }

  /// Starts a transfer; returns its id. The flow's completion trigger fires
  /// when all bytes have been delivered.
  FlowId start(FlowSpec spec);

  /// Completion trigger of a flow (valid also after completion: a finished
  /// flow's trigger is one already-fired trigger shared net-wide).
  [[nodiscard]] std::shared_ptr<sim::Trigger> completion(FlowId f) const;

  [[nodiscard]] bool finished(FlowId f) const;
  /// Current allocated rate (bytes/s); 0 for finished flows.
  [[nodiscard]] double currentRate(FlowId f) const;
  /// Bytes still to transfer as of the engine's current time.
  [[nodiscard]] double remainingBytes(FlowId f) const;
  [[nodiscard]] std::size_t activeFlowCount() const noexcept {
    return activeCount_;
  }

  /// Instantaneous aggregate rate through a resource (bytes/s).
  [[nodiscard]] double throughputOf(ResourceId r) const;
  /// Cumulative bytes delivered through a resource since construction,
  /// integrated up to the engine's current time.
  [[nodiscard]] double deliveredThrough(ResourceId r) const;
  /// Number of distinct groups with an active flow through the resource.
  [[nodiscard]] int activeGroupsThrough(ResourceId r) const;
  /// True if the given group has an active flow through the resource.
  [[nodiscard]] bool groupActiveThrough(ResourceId r, std::uint32_t group) const;

  /// Registers a callback invoked after every rate recomputation with the
  /// affected resource set; used by the storage servers to track cache fill
  /// levels without paying for recomputations elsewhere in the machine.
  /// Listeners are shard-local: they run on the thread driving this net's
  /// engine and must only touch state owned by the same shard.
  void addRatesListener(RatesListener fn);

 private:
  friend class AffectedResources;

  /// Throws PreconditionError when called from another engine's event loop;
  /// see the definition for the shard-safety rationale.
  void expectShardLocal() const;

  /// Index of a live flow's slot in flows_.
  using SlotId = std::uint32_t;
  /// "No slot": a finished (or zero-byte) flow, an absent heap position.
  static constexpr SlotId kNoSlot = std::numeric_limits<SlotId>::max();
  /// Path length a slot stores inline; longer paths spill to a vector.
  static constexpr std::size_t kInlinePath = 4;

  /// Entry in a resource's incidence list: the active flow's slot and the
  /// index of this resource within the flow's path (so the flow's back-ref
  /// can be patched on swap-remove).
  struct IncidenceEntry {
    SlotId slot;
    std::uint32_t pathIndex;
    /// Occurrences of the resource in the flow's path (paths may repeat a
    /// resource; each occurrence counts for filling and byte accounting).
    std::uint32_t multiplicity;
  };

  struct Resource {
    double capacity;
    std::string name;
    /// Cumulative bytes integrated up to settleTime (Kahan-compensated).
    double delivered = 0.0;
    double deliveredComp = 0.0;
    /// Aggregate rate of active flows through this resource (finite part,
    /// each flow counted once — what throughputOf reports).
    double rateSum = 0.0;
    /// Like rateSum but weighted by path multiplicity — the rate at which
    /// `delivered` grows (a flow crossing a resource twice deposits twice).
    double deliveredRateSum = 0.0;
    /// Active flows with unlimited allocated rate through this resource.
    std::uint32_t unlimitedFlows = 0;
    sim::Time settleTime = 0.0;
    /// Active flows traversing this resource.
    std::vector<IncidenceEntry> flows;
    /// (group, active flow count) pairs; typically a handful of groups.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> groupCounts;
    /// Component-discovery stamp (== FlowNet::markEpoch_ when visited).
    std::uint64_t mark = 0;
    // Progressive-filling scratch, valid only inside fillComponent().
    double residual = 0.0;
    double weightOn = 0.0;
    bool bottleneck = false;
  };

  /// One resource of a flow's path and the flow's position in that
  /// resource's incidence list (kNoBackRef for a folded duplicate
  /// occurrence).
  struct PathHop {
    ResourceId res;
    std::uint32_t backRef;
  };

  /// A live flow. Slots are recycled: start() overwrites the flow's own
  /// fields. A freed slot is already out of the heap and its mark is stale,
  /// so those carry over, as do the spill capacity and the (re-armed)
  /// trigger.
  struct Slot {
    // Read by progressive filling and the completion heap.
    double weight = 1.0;
    double rateCap = kUnlimited;
    double rate = 0.0;
    /// Absolute projected completion time (heap key); kNever when stalled.
    sim::Time finishAt = sim::kNever;
    /// The flow's FlowId: its start order, the tie-break of equal finish
    /// times in the heap and within a completion batch.
    FlowId seq = 0;
    /// Component-discovery stamp.
    std::uint64_t mark = 0;
    /// Position in the completion heap, kNoSlot when absent.
    std::uint32_t heapPos = kNoSlot;
    std::uint32_t group = 0;
    std::uint32_t pathLen = 0;
    bool active = false;
    /// Bytes left as of settleTime (Kahan-compensated).
    double remaining = 0.0;
    double remainingComp = 0.0;
    sim::Time settleTime = 0.0;
    std::array<PathHop, kInlinePath> inlinePath{};
    /// Holds the path when it is longer than kInlinePath; keeps its
    /// capacity across reuse.
    std::vector<PathHop> spill;
    std::shared_ptr<sim::Trigger> done;

    [[nodiscard]] std::span<PathHop> path() noexcept {
      return {pathLen <= kInlinePath ? inlinePath.data() : spill.data(),
              pathLen};
    }
    [[nodiscard]] std::span<const PathHop> path() const noexcept {
      return {pathLen <= kInlinePath ? inlinePath.data() : spill.data(),
              pathLen};
    }
  };

  /// Bytes at or below which a flow counts as complete (guards FP drift).
  static constexpr double kByteEpsilon = 1e-6;

  /// The live slot of `f`, or nullptr once it has finished.
  [[nodiscard]] const Slot* liveSlot(FlowId f) const;

  /// Integrates a resource's delivered bytes up to `t` at its current
  /// aggregate rate. Idempotent for a given `t`.
  void settleResource(Resource& res, sim::Time t);
  /// Integrates a flow's remaining bytes up to `t` at its current rate.
  void settleFlow(Slot& f, sim::Time t);

  /// Takes a slot off the free list (or grows flows_) for a new flow.
  SlotId acquireSlot();
  /// Inserts the flow into the incidence lists of its path resources.
  void attachFlow(SlotId s);
  /// Removes the flow from the incidence lists (O(path) via back-refs).
  void detachFlow(SlotId s);

  /// Expands pendingDirtyRes_/pendingSeedFlows_ into the union of connected
  /// components touching them (compRes_/compFlows_).
  void buildComponent();
  /// Progressive filling restricted to the current component; rebuilds the
  /// per-resource aggregates and the completion-heap keys it touched.
  void fillComponent();
  /// Runs buildComponent/settle/fillComponent/reschedule/notify to a fixed
  /// point (listeners may request further capacity changes).
  void recomputeAffected();
  void scheduleNextCompletion();
  void completionEvent(std::uint64_t generation);

  [[nodiscard]] bool isAffected(ResourceId r) const noexcept {
    return resources_[r].mark == markEpoch_;
  }

  // Indexed 4-ary min-heap over active flows keyed by (finishAt, seq).
  [[nodiscard]] bool heapBefore(SlotId a, SlotId b) const noexcept;
  void heapSiftUp(std::size_t i);
  void heapSiftDown(std::size_t i);
  void heapUpdate(SlotId s);  // insert/move/remove per flows_[s].finishAt
  void heapRemove(SlotId s);

  sim::Engine& engine_;
  std::vector<Resource> resources_;
  /// Live flows, plus slots on freeSlots_ awaiting reuse.
  std::vector<Slot> flows_;
  std::vector<SlotId> freeSlots_;
  /// slotOf_[id]: the live slot of FlowId `id`, kNoSlot once it finished.
  std::vector<SlotId> slotOf_;
  /// What completion() hands out for a finished flow.
  std::shared_ptr<sim::Trigger> firedTrigger_;
  std::size_t activeCount_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<RatesListener> listeners_;
  bool recomputing_ = false;
  bool recomputePending_ = false;

  std::vector<SlotId> heap_;  // completion index; positions in Slot::heapPos

  // Recompute staging and scratch (members to avoid per-event allocation).
  std::uint64_t markEpoch_ = 0;
  std::vector<ResourceId> pendingDirtyRes_;
  std::vector<SlotId> pendingSeedFlows_;
  std::vector<ResourceId> compRes_;
  std::vector<SlotId> compFlows_;
  std::vector<SlotId> unfrozen_;
  std::vector<SlotId> still_;
  std::vector<SlotId> finishedNow_;
};

inline bool AffectedResources::contains(ResourceId r) const noexcept {
  return net_.isAffected(r);
}

inline const std::vector<ResourceId>& AffectedResources::ids() const noexcept {
  return net_.compRes_;
}

}  // namespace calciom::net
