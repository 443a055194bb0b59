#include "calciom/policy.hpp"

#include <algorithm>
#include <utility>

#include "sim/contracts.hpp"

namespace calciom::core {

PairTimes fluidPairTimes(double workA, double workB, double weightA,
                         double weightB, double efficiency) {
  CALCIOM_EXPECTS(workA >= 0.0 && workB >= 0.0);
  CALCIOM_EXPECTS(weightA > 0.0 && weightB > 0.0);
  CALCIOM_EXPECTS(efficiency > 0.0 && efficiency <= 2.0);
  const double shareA = weightA / (weightA + weightB);
  const double shareB = 1.0 - shareA;
  // Rates are in alone-work units per second; no app can exceed its alone
  // speed (rate 1). Efficiency > 1 models apps that individually cannot
  // saturate the storage (paper Fig 7b/12): together they extract more
  // aggregate service than one alone, up to 2 = no interference at all.
  const double rateA = std::min(1.0, efficiency * shareA);
  const double rateB = std::min(1.0, efficiency * shareB);
  const double candA = workA / rateA;
  const double candB = workB / rateB;
  PairTimes out;
  if (candA <= candB) {
    out.tA = candA;
    const double doneB = rateB * candA;
    out.tB = candA + (workB - doneB);  // alone speed afterwards
  } else {
    out.tB = candB;
    const double doneA = rateA * candB;
    out.tA = candB + (workA - doneA);
  }
  return out;
}

DynamicPolicy::DynamicPolicy(std::shared_ptr<const EfficiencyMetric> metric,
                             DynamicOptions options)
    : metric_(std::move(metric)), options_(options) {
  CALCIOM_EXPECTS(metric_ != nullptr);
  CALCIOM_EXPECTS(options_.overlapEfficiency > 0.0 &&
                  options_.overlapEfficiency <= 2.0);
}

std::vector<ActionCost> DynamicPolicy::evaluate(
    const PolicyContext& ctx) const {
  // Exactly the options evaluated below (at most three): the vector is kept
  // in the DecisionRecord, so spare capacity would stay for the whole run.
  const bool contended = !ctx.accessors.empty();
  std::vector<ActionCost> out;
  out.reserve(1 + (contended ? 1 : 0) +
              (options_.considerInterference && contended ? 1 : 0));
  const double estB = ctx.requester.estAloneSeconds;
  // Every option costs the requester and each accessor, one term apiece.
  const std::size_t terms = 1 + ctx.accessors.size();

  // Remaining work of the busiest accessor dominates the wait.
  double maxRemaining = 0.0;
  double accessorWeight = 0.0;
  for (const auto& a : ctx.accessors) {
    maxRemaining = std::max(maxRemaining, PolicyContext::remainingSeconds(a));
    accessorWeight += static_cast<double>(a.desc.cores);
  }

  // Option 1 — Queue (FCFS): the requester waits for the accessors to
  // drain, then writes undisturbed. Accessors are unaffected.
  {
    ActionCost c;
    c.terms.reserve(terms);
    c.action = Action::Queue;
    c.terms.push_back(AppCost{ctx.requester.cores, maxRemaining + estB,
                              std::max(estB, 1e-12)});
    for (const auto& a : ctx.accessors) {
      const double rem = PolicyContext::remainingSeconds(a);
      c.terms.push_back(
          AppCost{a.desc.cores, rem, std::max(rem, 1e-12)});
    }
    c.metricCost = metric_->cost(c.terms);
    out.push_back(std::move(c));
  }

  // Option 2 — Interrupt: accessors pause while the requester writes; their
  // phases stretch by the requester's alone time.
  if (contended) {
    ActionCost c;
    c.terms.reserve(terms);
    c.action = Action::Interrupt;
    c.terms.push_back(
        AppCost{ctx.requester.cores, estB, std::max(estB, 1e-12)});
    for (const auto& a : ctx.accessors) {
      const double rem = PolicyContext::remainingSeconds(a);
      c.terms.push_back(
          AppCost{a.desc.cores, rem + estB, std::max(rem, 1e-12)});
    }
    c.metricCost = metric_->cost(c.terms);
    out.push_back(std::move(c));
  }

  // Option 3 (extension) — Interfere: both proceed under proportional
  // sharing with an aggregate efficiency penalty.
  if (options_.considerInterference && contended) {
    const PairTimes t = fluidPairTimes(
        maxRemaining, estB, std::max(accessorWeight, 1e-9),
        static_cast<double>(ctx.requester.cores), options_.overlapEfficiency);
    ActionCost c;
    c.terms.reserve(terms);
    c.action = Action::Interfere;
    c.terms.push_back(
        AppCost{ctx.requester.cores, t.tB, std::max(estB, 1e-12)});
    for (const auto& a : ctx.accessors) {
      const double rem = PolicyContext::remainingSeconds(a);
      c.terms.push_back(AppCost{a.desc.cores, t.tA, std::max(rem, 1e-12)});
    }
    c.metricCost = metric_->cost(c.terms);
    out.push_back(std::move(c));
  }

  // Cheapest first; ties prefer the less disruptive action (Queue <
  // Interrupt < Interfere, the order the options were appended in). A
  // stable insertion sort of at most three entries: std::stable_sort would
  // allocate a temporary buffer. Same steps as libstdc++'s insertion sort
  // (an entry cheaper than the first moves to the front, any other walks
  // back past dearer ones), so even NaN costs land where they used to.
  for (auto it = out.begin() + 1; it < out.end(); ++it) {
    ActionCost c = std::move(*it);
    auto hole = it;
    if (c.metricCost < out.front().metricCost) {
      hole = std::move_backward(out.begin(), it, it + 1) - 1;
    } else {
      for (; c.metricCost < (hole - 1)->metricCost; --hole) {
        *hole = std::move(*(hole - 1));
      }
    }
    *hole = std::move(c);
  }
  return out;
}

Action DynamicPolicy::decide(const PolicyContext& ctx) {
  if (ctx.accessors.empty()) {
    return Action::Queue;  // the arbiter grants immediately
  }
  const auto costs = evaluate(ctx);
  CALCIOM_ENSURES(!costs.empty());
  return costs.front().action;
}

std::unique_ptr<Policy> makePolicy(
    PolicyKind kind, std::shared_ptr<const EfficiencyMetric> metric,
    DynamicOptions options) {
  switch (kind) {
    case PolicyKind::Interfere:
      return std::make_unique<InterferePolicy>();
    case PolicyKind::Fcfs:
      return std::make_unique<FcfsPolicy>();
    case PolicyKind::Interrupt:
      return std::make_unique<InterruptPolicy>();
    case PolicyKind::Dynamic:
      if (!metric) {
        metric = std::make_shared<CpuSecondsWasted>();
      }
      return std::make_unique<DynamicPolicy>(std::move(metric), options);
  }
  CALCIOM_ENSURES(false);
  return nullptr;
}

}  // namespace calciom::core
