#include "tests/support/flow_net_reference.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/contracts.hpp"

namespace calciom::net {

namespace {
/// Active flows kept in a sorted id vector for deterministic iteration.
void removeId(std::vector<FlowId>& v, FlowId id) {
  auto it = std::lower_bound(v.begin(), v.end(), id);
  CALCIOM_ENSURES(it != v.end() && *it == id);
  v.erase(it);
}
}  // namespace

ResourceId ReferenceFlowNet::addResource(double capacity, std::string name) {
  CALCIOM_EXPECTS(capacity >= 0.0);
  resources_.push_back(Resource{capacity, std::move(name)});
  return static_cast<ResourceId>(resources_.size() - 1);
}

void ReferenceFlowNet::setCapacity(ResourceId r, double capacity) {
  CALCIOM_EXPECTS(r < resources_.size());
  CALCIOM_EXPECTS(capacity >= 0.0);
  if (resources_[r].capacity == capacity) {
    return;
  }
  advanceTo(engine_.now());
  resources_[r].capacity = capacity;
  recompute();
}

double ReferenceFlowNet::capacity(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  return resources_[r].capacity;
}

const std::string& ReferenceFlowNet::resourceName(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  return resources_[r].name;
}

ReferenceFlowNet::Flow& ReferenceFlowNet::flowRef(FlowId f) {
  CALCIOM_EXPECTS(f < flows_.size());
  return flows_[f];
}

const ReferenceFlowNet::Flow& ReferenceFlowNet::flowRef(FlowId f) const {
  CALCIOM_EXPECTS(f < flows_.size());
  return flows_[f];
}

FlowId ReferenceFlowNet::start(FlowSpec spec) {
  CALCIOM_EXPECTS(spec.bytes >= 0.0);
  CALCIOM_EXPECTS(spec.weight > 0.0);
  CALCIOM_EXPECTS(spec.rateCap > 0.0);
  for (ResourceId r : spec.path) {
    CALCIOM_EXPECTS(r < resources_.size());
  }
  advanceTo(engine_.now());
  const FlowId id = flows_.size();
  flows_.emplace_back();
  Flow& f = flows_.back();
  f.spec = std::move(spec);
  f.remaining = f.spec.bytes;
  if (f.remaining <= kByteEpsilon) {
    f.remaining = 0.0;
    f.done->fire();
    return id;
  }
  f.active = true;
  active_.push_back(id);  // ids are monotonic, so the vector stays sorted
  ++activeCount_;
  recompute();
  return id;
}

std::shared_ptr<sim::Trigger> ReferenceFlowNet::completion(FlowId f) const {
  return flowRef(f).done;
}

bool ReferenceFlowNet::finished(FlowId f) const {
  return flowRef(f).done->fired();
}

double ReferenceFlowNet::currentRate(FlowId f) const {
  const Flow& flow = flowRef(f);
  return flow.active ? flow.rate : 0.0;
}

double ReferenceFlowNet::remainingBytes(FlowId f) const {
  const Flow& flow = flowRef(f);
  if (!flow.active) {
    return 0.0;
  }
  const double dt = engine_.now() - lastAdvance_;
  return std::max(0.0, flow.remaining - flow.rate * std::max(dt, 0.0));
}

double ReferenceFlowNet::throughputOf(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  double sum = 0.0;
  for (FlowId id : active_) {
    const Flow& f = flows_[id];
    for (ResourceId res : f.spec.path) {
      if (res == r) {
        sum += f.rate;
        break;
      }
    }
  }
  return sum;
}

double ReferenceFlowNet::deliveredThrough(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  return resources_[r].delivered;
}

int ReferenceFlowNet::activeGroupsThrough(ResourceId r) const {
  CALCIOM_EXPECTS(r < resources_.size());
  std::vector<std::uint32_t> groups;
  for (FlowId id : active_) {
    const Flow& f = flows_[id];
    for (ResourceId res : f.spec.path) {
      if (res == r) {
        if (std::find(groups.begin(), groups.end(), f.spec.group) ==
            groups.end()) {
          groups.push_back(f.spec.group);
        }
        break;
      }
    }
  }
  return static_cast<int>(groups.size());
}

bool ReferenceFlowNet::groupActiveThrough(ResourceId r,
                                          std::uint32_t group) const {
  CALCIOM_EXPECTS(r < resources_.size());
  for (FlowId id : active_) {
    const Flow& f = flows_[id];
    if (f.spec.group != group) {
      continue;
    }
    for (ResourceId res : f.spec.path) {
      if (res == r) {
        return true;
      }
    }
  }
  return false;
}

void ReferenceFlowNet::addRatesListener(std::function<void()> fn) {
  CALCIOM_EXPECTS(fn != nullptr);
  listeners_.push_back(std::move(fn));
}

void ReferenceFlowNet::advanceTo(sim::Time t) {
  if (t <= lastAdvance_) {
    return;
  }
  const double dt = t - lastAdvance_;
  for (FlowId id : active_) {
    Flow& f = flows_[id];
    if (f.rate <= 0.0) {
      continue;
    }
    const double moved = std::min(f.remaining, f.rate * dt);
    f.remaining -= moved;
    for (ResourceId r : f.spec.path) {
      resources_[r].delivered += moved;
    }
  }
  lastAdvance_ = t;
}

void ReferenceFlowNet::computeRates() {
  std::vector<double> residual(resources_.size());
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    residual[i] = resources_[i].capacity;
  }
  std::vector<FlowId> unfrozen = active_;
  for (FlowId id : unfrozen) {
    flows_[id].rate = 0.0;
  }

  // Progressive filling: raise the per-unit-weight level lambda until a
  // resource or a per-flow cap binds; freeze the bound flows; repeat.
  while (!unfrozen.empty()) {
    std::vector<double> weightOn(resources_.size(), 0.0);
    for (FlowId id : unfrozen) {
      for (ResourceId r : flows_[id].spec.path) {
        weightOn[r] += flows_[id].spec.weight;
      }
    }
    double lambda = kUnlimited;
    for (std::size_t r = 0; r < resources_.size(); ++r) {
      if (weightOn[r] > 0.0) {
        lambda = std::min(lambda, std::max(residual[r], 0.0) / weightOn[r]);
      }
    }
    for (FlowId id : unfrozen) {
      const Flow& f = flows_[id];
      lambda = std::min(lambda, f.spec.rateCap / f.spec.weight);
    }
    if (lambda == kUnlimited) {
      // Entirely unconstrained flows: effectively instantaneous.
      for (FlowId id : unfrozen) {
        flows_[id].rate = kUnlimited;
      }
      break;
    }

    const double eps = lambda * 1e-9 + 1e-18;
    std::vector<char> bottleneck(resources_.size(), 0);
    for (std::size_t r = 0; r < resources_.size(); ++r) {
      if (weightOn[r] > 0.0 &&
          std::max(residual[r], 0.0) / weightOn[r] <= lambda + eps) {
        bottleneck[r] = 1;
      }
    }

    std::vector<FlowId> still;
    still.reserve(unfrozen.size());
    bool frozeAny = false;
    for (FlowId id : unfrozen) {
      Flow& f = flows_[id];
      const bool capBound = f.spec.rateCap / f.spec.weight <= lambda + eps;
      bool resourceBound = false;
      for (ResourceId r : f.spec.path) {
        if (bottleneck[r] != 0) {
          resourceBound = true;
          break;
        }
      }
      if (capBound || resourceBound) {
        f.rate = std::min(f.spec.rateCap, lambda * f.spec.weight);
        for (ResourceId r : f.spec.path) {
          residual[r] -= f.rate;
        }
        frozeAny = true;
      } else {
        still.push_back(id);
      }
    }
    CALCIOM_ENSURES(frozeAny);  // progressive filling always makes progress
    unfrozen = std::move(still);
  }
}

void ReferenceFlowNet::recompute() {
  // Listeners (storage servers) may call setCapacity from inside the
  // notification, which requests another recompute. Run to a fixed point
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
    computeRates();
    scheduleNextCompletion();
    for (const auto& fn : listeners_) {
      fn();
    }
    CALCIOM_ENSURES(++iterations < 1000);  // listener loops must converge
  } while (recomputePending_);
  recomputing_ = false;
}

void ReferenceFlowNet::scheduleNextCompletion() {
  ++generation_;
  sim::Time best = sim::kNever;
  for (FlowId id : active_) {
    const Flow& f = flows_[id];
    if (f.rate <= 0.0) {
      continue;
    }
    const sim::Time ttf =
        f.rate == kUnlimited ? 0.0 : f.remaining / f.rate;
    best = std::min(best, ttf);
  }
  if (best == sim::kNever) {
    return;  // nothing moving: a capacity change or new flow will reschedule
  }
  const std::uint64_t gen = generation_;
  engine_.scheduleAfter(best, [this, gen] { completionEvent(gen); });
}

void ReferenceFlowNet::completionEvent(std::uint64_t generation) {
  if (generation != generation_) {
    return;  // superseded by a later recompute
  }
  advanceTo(engine_.now());

  std::vector<FlowId> finishedNow;
  for (FlowId id : active_) {
    Flow& f = flows_[id];
    if (f.rate <= 0.0) {
      continue;
    }
    const sim::Time ttf =
        f.rate == kUnlimited ? 0.0 : f.remaining / f.rate;
    if (f.remaining <= kByteEpsilon || ttf <= 1e-12) {
      finishedNow.push_back(id);
    }
  }
  if (finishedNow.empty()) {
    // Floating-point edge: force-complete the closest flow to avoid a
    // zero-progress event loop. Its residual is below any test tolerance.
    FlowId best = active_.front();
    sim::Time bestTtf = sim::kNever;
    for (FlowId id : active_) {
      const Flow& f = flows_[id];
      if (f.rate <= 0.0) {
        continue;
      }
      const sim::Time ttf = f.remaining / f.rate;
      if (ttf < bestTtf) {
        bestTtf = ttf;
        best = id;
      }
    }
    finishedNow.push_back(best);
  }

  for (FlowId id : finishedNow) {
    Flow& f = flows_[id];
    f.remaining = 0.0;
    f.rate = 0.0;
    f.active = false;
    removeId(active_, id);
    --activeCount_;
  }
  recompute();
  // Fire after the network state is consistent: resumed coroutines may start
  // new flows immediately.
  for (FlowId id : finishedNow) {
    flows_[id].done->fire();
  }
}

}  // namespace calciom::net
