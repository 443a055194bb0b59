#include "net/flow_net.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "sim/contracts.hpp"
#include "sim/shard_affinity.hpp"

namespace calciom::net {

namespace {

constexpr std::uint32_t kNoBackRef = std::numeric_limits<std::uint32_t>::max();

/// Kahan compensated accumulation: sum += term without losing low-order
/// bits across millions of settle steps.
inline void kahanAdd(double& sum, double& comp, double term) noexcept {
  const double y = term - comp;
  const double t = sum + y;
  comp = (t - sum) - y;
  sum = t;
}

}  // namespace

FlowNet::FlowNet(sim::Engine& engine)
    : engine_(engine), firedTrigger_(std::make_shared<sim::Trigger>()) {
  firedTrigger_->fire();
}

void FlowNet::expectShardLocal() const {
  // Shard safety: a FlowNet belongs to one engine (= one Cluster shard). It
  // may be mutated from setup code (no event loop running on this thread)
  // or from its own engine's callbacks, but never from another engine's
  // loop — with shards on worker threads that would be a data race, and
  // even single-threaded it would couple components the sharded executor
  // assumes are independent (see src/sim/README.md). Always-on (enforce,
  // not check): the FlowNet mutators are the original mechanical rule-1
  // check and every build keeps them.
  sim::ShardAffinity(&engine_).enforce("net::FlowNet");
}

ResourceId FlowNet::addResource(double capacity, std::string name) {
  expectShardLocal();
  CALCIOM_EXPECTS(capacity >= 0.0);
  Resource res;
  res.capacity = capacity;
  res.name = std::move(name);
  res.settleTime = engine_.now();
  resources_.push_back(std::move(res));
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FlowNet::setCapacity(ResourceId r, double capacity) {
  expectShardLocal();
  CALCIOM_EXPECTS(r < resources_.size());
  CALCIOM_EXPECTS(capacity >= 0.0);
  if (resources_[r].capacity == capacity) {
    return;
  }
  resources_[r].capacity = capacity;
  pendingDirtyRes_.push_back(r);
  recomputeAffected();
}

double FlowNet::capacity(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  return resources_[r].capacity;
}

const std::string& FlowNet::resourceName(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  return resources_[r].name;
}

const FlowNet::Slot* FlowNet::liveSlot(FlowId f) const {
  CALCIOM_EXPECTS(f < slotOf_.size());
  const SlotId s = slotOf_[f];
  return s == kNoSlot ? nullptr : &flows_[s];
}

FlowNet::SlotId FlowNet::acquireSlot() {
  if (freeSlots_.empty()) {
    CALCIOM_EXPECTS(flows_.size() < kNoSlot);
    flows_.emplace_back().done = std::make_shared<sim::Trigger>();
    return static_cast<SlotId>(flows_.size() - 1);
  }
  const SlotId s = freeSlots_.back();
  freeSlots_.pop_back();
  std::shared_ptr<sim::Trigger>& done = flows_[s].done;
  if (done.use_count() == 1) {
    // Nobody else can reach the fired trigger (and it has no waiters left):
    // re-arm it in place instead of allocating a new one.
    std::destroy_at(done.get());
    std::construct_at(done.get());
  } else {
    // Someone still holds the old trigger; it must stay fired for them.
    done = std::make_shared<sim::Trigger>();
  }
  return s;
}

FlowId FlowNet::start(FlowSpec spec) {
  expectShardLocal();
  CALCIOM_EXPECTS(spec.bytes >= 0.0);
  CALCIOM_EXPECTS(spec.weight > 0.0);
  CALCIOM_EXPECTS(spec.rateCap > 0.0);
  for (ResourceId r : spec.path) {
    CALCIOM_EXPECTS(r < resources_.size());
  }
  const FlowId id = slotOf_.size();
  if (spec.bytes <= kByteEpsilon) {
    slotOf_.push_back(kNoSlot);  // complete on arrival
    return id;
  }
  const SlotId s = acquireSlot();
  slotOf_.push_back(s);
  Slot& f = flows_[s];
  f.weight = spec.weight;
  f.rateCap = spec.rateCap;
  f.rate = 0.0;
  f.finishAt = sim::kNever;
  f.seq = id;
  f.group = spec.group;
  f.active = true;
  f.remaining = spec.bytes;
  f.remainingComp = 0.0;
  f.settleTime = engine_.now();
  f.pathLen = static_cast<std::uint32_t>(spec.path.size());
  if (f.pathLen > kInlinePath) {
    f.spill.resize(f.pathLen);
  }
  const std::span<PathHop> path = f.path();
  for (std::size_t i = 0; i < path.size(); ++i) {
    path[i] = PathHop{spec.path[i], kNoBackRef};
  }
  ++activeCount_;
  attachFlow(s);
  pendingSeedFlows_.push_back(s);
  recomputeAffected();
  return id;
}

std::shared_ptr<sim::Trigger> FlowNet::completion(FlowId f) const {
  const Slot* slot = liveSlot(f);
  return slot != nullptr ? slot->done : firedTrigger_;
}

bool FlowNet::finished(FlowId f) const {
  const Slot* slot = liveSlot(f);
  return slot == nullptr || slot->done->fired();
}

double FlowNet::currentRate(FlowId f) const {
  const Slot* slot = liveSlot(f);
  return slot != nullptr && slot->active ? slot->rate : 0.0;
}

double FlowNet::remainingBytes(FlowId f) const {
  const Slot* flow = liveSlot(f);
  if (flow == nullptr || !flow->active || flow->rate == kUnlimited) {
    return 0.0;
  }
  const double dt = engine_.now() - flow->settleTime;
  if (dt <= 0.0 || flow->rate <= 0.0) {
    return std::max(0.0, flow->remaining);
  }
  return std::max(0.0, flow->remaining - flow->rate * dt);
}

double FlowNet::throughputOf(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  const Resource& res = resources_[r];
  return res.unlimitedFlows > 0 ? kUnlimited : res.rateSum;
}

double FlowNet::deliveredThrough(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  const Resource& res = resources_[r];
  const double dt = engine_.now() - res.settleTime;
  if (dt <= 0.0 || res.unlimitedFlows > 0) {
    return res.delivered;
  }
  // Rates are constant between flow events, so extrapolating from the last
  // settle point is exact, not an estimate.
  return res.delivered + res.deliveredRateSum * dt;
}

int FlowNet::activeGroupsThrough(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  return static_cast<int>(resources_[r].groupCounts.size());
}

bool FlowNet::groupActiveThrough(ResourceId r, std::uint32_t group) const {
  CALCIOM_EXPECTS(r < resources_.size());
  for (const auto& [g, count] : resources_[r].groupCounts) {
    if (g == group) {
      return count > 0;
    }
  }
  return false;
}

void FlowNet::addRatesListener(RatesListener fn) {
  expectShardLocal();
  CALCIOM_EXPECTS(fn != nullptr);
  listeners_.push_back(std::move(fn));
}

void FlowNet::settleResource(Resource& res, sim::Time t) {
  const double dt = t - res.settleTime;
  if (dt > 0.0) {
    if (res.unlimitedFlows == 0 && res.deliveredRateSum > 0.0) {
      kahanAdd(res.delivered, res.deliveredComp, res.deliveredRateSum * dt);
    }
  }
  res.settleTime = t;
}

void FlowNet::settleFlow(Slot& f, sim::Time t) {
  const double dt = t - f.settleTime;
  if (dt > 0.0 && f.rate > 0.0) {
    if (f.rate == kUnlimited) {
      f.remaining = 0.0;
      f.remainingComp = 0.0;
    } else {
      const double moved = std::min(f.remaining, f.rate * dt);
      kahanAdd(f.remaining, f.remainingComp, -moved);
      if (f.remaining < 0.0) {
        f.remaining = 0.0;
        f.remainingComp = 0.0;
      }
    }
  }
  f.settleTime = t;
}

void FlowNet::attachFlow(SlotId s) {
  Slot& f = flows_[s];
  const std::span<PathHop> path = f.path();
  for (std::size_t i = 0; i < path.size(); ++i) {
    const ResourceId r = path[i].res;
    // A repeated resource folds into the first occurrence's entry.
    bool duplicate = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (path[j].res == r) {
        Resource& res = resources_[r];
        ++res.flows[path[j].backRef].multiplicity;
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    Resource& res = resources_[r];
    path[i].backRef = static_cast<std::uint32_t>(res.flows.size());
    res.flows.push_back(IncidenceEntry{s, static_cast<std::uint32_t>(i), 1});
    bool found = false;
    for (auto& [g, count] : res.groupCounts) {
      if (g == f.group) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) {
      res.groupCounts.emplace_back(f.group, 1);
    }
  }
}

void FlowNet::detachFlow(SlotId s) {
  const Slot& f = flows_[s];
  for (const PathHop& hop : f.path()) {
    if (hop.backRef == kNoBackRef) {
      continue;  // duplicate occurrence, folded into the first
    }
    Resource& res = resources_[hop.res];
    const std::uint32_t pos = hop.backRef;
    const std::size_t last = res.flows.size() - 1;
    if (pos != last) {
      res.flows[pos] = res.flows[last];
      const IncidenceEntry& moved = res.flows[pos];
      flows_[moved.slot].path()[moved.pathIndex].backRef = pos;
    }
    res.flows.pop_back();
    for (std::size_t g = 0; g < res.groupCounts.size(); ++g) {
      if (res.groupCounts[g].first == f.group) {
        if (--res.groupCounts[g].second == 0) {
          res.groupCounts[g] = res.groupCounts.back();
          res.groupCounts.pop_back();
        }
        break;
      }
    }
  }
}

void FlowNet::buildComponent() {
  ++markEpoch_;
  compRes_.clear();
  compFlows_.clear();
  for (ResourceId r : pendingDirtyRes_) {
    Resource& res = resources_[r];
    if (res.mark != markEpoch_) {
      res.mark = markEpoch_;
      compRes_.push_back(r);
    }
  }
  for (SlotId s : pendingSeedFlows_) {
    Slot& f = flows_[s];
    if (f.active && f.mark != markEpoch_) {
      f.mark = markEpoch_;
      compFlows_.push_back(s);
    }
  }
  pendingDirtyRes_.clear();
  pendingSeedFlows_.clear();

  // Breadth-first closure over the bipartite flow/resource incidence graph:
  // every active flow sharing a resource with the component joins it, and
  // pulls its whole path in.
  std::size_t ri = 0;
  std::size_t fi = 0;
  while (ri < compRes_.size() || fi < compFlows_.size()) {
    if (ri < compRes_.size()) {
      const Resource& res = resources_[compRes_[ri++]];
      for (const IncidenceEntry& e : res.flows) {
        Slot& f = flows_[e.slot];
        if (f.mark != markEpoch_) {
          f.mark = markEpoch_;
          compFlows_.push_back(e.slot);
        }
      }
    } else {
      const Slot& f = flows_[compFlows_[fi++]];
      for (const PathHop& hop : f.path()) {
        const ResourceId r = hop.res;
        Resource& res = resources_[r];
        if (res.mark != markEpoch_) {
          res.mark = markEpoch_;
          compRes_.push_back(r);
        }
      }
    }
  }
}

void FlowNet::fillComponent() {
  const sim::Time now = engine_.now();
  // Integrate the past at the rates that were in force before touching them.
  for (ResourceId r : compRes_) {
    settleResource(resources_[r], now);
  }
  for (SlotId s : compFlows_) {
    settleFlow(flows_[s], now);
  }

  // Progressive filling restricted to the component. By construction every
  // active flow through a component resource is a component flow, so the
  // allocation below equals what a global recompute would assign.
  for (ResourceId r : compRes_) {
    resources_[r].residual = resources_[r].capacity;
  }
  unfrozen_ = compFlows_;
  for (SlotId s : unfrozen_) {
    flows_[s].rate = 0.0;
  }
  while (!unfrozen_.empty()) {
    for (ResourceId r : compRes_) {
      resources_[r].weightOn = 0.0;
      resources_[r].bottleneck = false;
    }
    for (SlotId s : unfrozen_) {
      const Slot& f = flows_[s];
      for (const PathHop& hop : f.path()) {
        resources_[hop.res].weightOn += f.weight;
      }
    }
    double lambda = kUnlimited;
    for (ResourceId r : compRes_) {
      const Resource& res = resources_[r];
      if (res.weightOn > 0.0) {
        lambda = std::min(lambda, std::max(res.residual, 0.0) / res.weightOn);
      }
    }
    for (SlotId s : unfrozen_) {
      const Slot& f = flows_[s];
      lambda = std::min(lambda, f.rateCap / f.weight);
    }
    if (lambda == kUnlimited) {
      // Entirely unconstrained flows: effectively instantaneous.
      for (SlotId s : unfrozen_) {
        flows_[s].rate = kUnlimited;
      }
      break;
    }

    const double eps = lambda * 1e-9 + 1e-18;
    for (ResourceId r : compRes_) {
      Resource& res = resources_[r];
      if (res.weightOn > 0.0 &&
          std::max(res.residual, 0.0) / res.weightOn <= lambda + eps) {
        res.bottleneck = true;
      }
    }

    still_.clear();
    bool frozeAny = false;
    for (SlotId s : unfrozen_) {
      Slot& f = flows_[s];
      const bool capBound = f.rateCap / f.weight <= lambda + eps;
      bool resourceBound = false;
      for (const PathHop& hop : f.path()) {
        if (resources_[hop.res].bottleneck) {
          resourceBound = true;
          break;
        }
      }
      if (capBound || resourceBound) {
        f.rate = std::min(f.rateCap, lambda * f.weight);
        for (const PathHop& hop : f.path()) {
          resources_[hop.res].residual -= f.rate;
        }
        frozeAny = true;
      } else {
        still_.push_back(s);
      }
    }
    CALCIOM_ENSURES(frozeAny);  // progressive filling always makes progress
    std::swap(unfrozen_, still_);
  }

  // Rebuild the aggregates of every touched resource from its incidence
  // list — exact, no incremental drift.
  for (ResourceId r : compRes_) {
    Resource& res = resources_[r];
    res.rateSum = 0.0;
    res.deliveredRateSum = 0.0;
    res.unlimitedFlows = 0;
    for (const IncidenceEntry& e : res.flows) {
      const double rate = flows_[e.slot].rate;
      if (rate == kUnlimited) {
        ++res.unlimitedFlows;
      } else {
        res.rateSum += rate;
        res.deliveredRateSum += rate * e.multiplicity;
      }
    }
  }

  // Refresh projected completion times of the component's flows.
  for (SlotId s : compFlows_) {
    Slot& f = flows_[s];
    if (f.rate == kUnlimited) {
      f.finishAt = now;
    } else if (f.rate > 0.0) {
      f.finishAt = now + f.remaining / f.rate;
    } else {
      f.finishAt = sim::kNever;
    }
    heapUpdate(s);
  }
}

void FlowNet::recomputeAffected() {
  // Listeners (storage servers) may call setCapacity from inside the
  // notification, which stages more dirty resources. Run to a fixed point
  // instead of recursing: capacity updates are idempotent, so the loop
  // settles once no listener changes anything.
  if (recomputing_) {
    recomputePending_ = true;
    return;
  }
  recomputing_ = true;
  int iterations = 0;
  do {
    recomputePending_ = false;
    buildComponent();
    fillComponent();
    scheduleNextCompletion();
    const AffectedResources affected(*this);
    for (const auto& fn : listeners_) {
      fn(affected);
    }
    CALCIOM_ENSURES(++iterations < 1000);  // listener loops must converge
  } while (recomputePending_);
  recomputing_ = false;
}

void FlowNet::scheduleNextCompletion() {
  ++generation_;
  if (heap_.empty()) {
    return;  // nothing moving: a capacity change or new flow will reschedule
  }
  const sim::Time best = flows_[heap_.front()].finishAt;
  const std::uint64_t gen = generation_;
  engine_.scheduleAt(std::max(best, engine_.now()),
                     [this, gen] { completionEvent(gen); });
}

void FlowNet::completionEvent(std::uint64_t generation) {
  if (generation != generation_ || heap_.empty()) {
    return;  // superseded by a later recompute
  }
  const sim::Time now = engine_.now();
  // Absolute-time analogue of the reference's ttf <= 1e-12 test, widened by
  // a few ulp of `now` because keys are stored as absolute times.
  const sim::Time slack =
      1e-12 + 4.0 * std::numeric_limits<double>::epsilon() * std::abs(now);

  finishedNow_.clear();
  while (!heap_.empty() && flows_[heap_.front()].finishAt <= now + slack) {
    const SlotId top = heap_.front();
    heapRemove(top);
    finishedNow_.push_back(top);
  }
  if (finishedNow_.empty()) {
    // Floating-point edge: force-complete the closest flow to avoid a
    // zero-progress event loop. Its residual is below any test tolerance.
    const SlotId top = heap_.front();
    heapRemove(top);
    finishedNow_.push_back(top);
  }
  // Deterministic completion order (start order) regardless of heap layout
  // and of which slots the flows happen to occupy.
  std::sort(finishedNow_.begin(), finishedNow_.end(),
            [this](SlotId a, SlotId b) { return flows_[a].seq < flows_[b].seq; });

  // Settle before any rate changes: the finishing flows were running at
  // their old rates right up to this instant.
  for (SlotId s : finishedNow_) {
    Slot& f = flows_[s];
    for (const PathHop& hop : f.path()) {
      if (hop.backRef != kNoBackRef) {
        settleResource(resources_[hop.res], now);
      }
    }
    settleFlow(f, now);
  }
  for (SlotId s : finishedNow_) {
    Slot& f = flows_[s];
    for (const PathHop& hop : f.path()) {
      pendingDirtyRes_.push_back(hop.res);
    }
    detachFlow(s);
    f.active = false;
    f.rate = 0.0;
    f.remaining = 0.0;
    f.remainingComp = 0.0;
    f.finishAt = sim::kNever;
    --activeCount_;
  }
  recomputeAffected();
  // Fire after the network state is consistent: resumed coroutines may start
  // new flows immediately.
  for (SlotId s : finishedNow_) {
    flows_[s].done->fire();
  }
  // Release the slots only once the whole batch has fired: with LIFO reuse,
  // a flow started by the first waiter would otherwise take a later
  // finisher's slot and have that finisher's trigger fired in its place.
  for (SlotId s : finishedNow_) {
    slotOf_[flows_[s].seq] = kNoSlot;
    freeSlots_.push_back(s);
  }
}

bool FlowNet::heapBefore(SlotId a, SlotId b) const noexcept {
  const Slot& fa = flows_[a];
  const Slot& fb = flows_[b];
  return fa.finishAt < fb.finishAt ||
         (fa.finishAt == fb.finishAt && fa.seq < fb.seq);
}

void FlowNet::heapSiftUp(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!heapBefore(heap_[i], heap_[parent])) {
      break;
    }
    std::swap(heap_[i], heap_[parent]);
    flows_[heap_[i]].heapPos = static_cast<std::uint32_t>(i);
    flows_[heap_[parent]].heapPos = static_cast<std::uint32_t>(parent);
    i = parent;
  }
}

void FlowNet::heapSiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * 4 + 1;
    if (first >= n) {
      break;
    }
    std::size_t best = first;
    const std::size_t lastChild = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < lastChild; ++c) {
      if (heapBefore(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!heapBefore(heap_[best], heap_[i])) {
      break;
    }
    std::swap(heap_[i], heap_[best]);
    flows_[heap_[i]].heapPos = static_cast<std::uint32_t>(i);
    flows_[heap_[best]].heapPos = static_cast<std::uint32_t>(best);
    i = best;
  }
}

void FlowNet::heapUpdate(SlotId s) {
  Slot& f = flows_[s];
  if (f.finishAt == sim::kNever) {
    if (f.heapPos != kNoSlot) {
      heapRemove(s);
    }
    return;
  }
  if (f.heapPos == kNoSlot) {
    f.heapPos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(s);
    heapSiftUp(f.heapPos);
  } else {
    heapSiftUp(f.heapPos);
    heapSiftDown(f.heapPos);
  }
}

void FlowNet::heapRemove(SlotId s) {
  Slot& f = flows_[s];
  CALCIOM_ENSURES(f.heapPos != kNoSlot);
  const std::size_t pos = f.heapPos;
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    const SlotId moved = heap_[last];
    heap_[pos] = moved;
    flows_[moved].heapPos = static_cast<std::uint32_t>(pos);
    heap_.pop_back();
    heapSiftUp(pos);
    heapSiftDown(flows_[moved].heapPos);
  } else {
    heap_.pop_back();
  }
  f.heapPos = kNoSlot;
}

}  // namespace calciom::net
