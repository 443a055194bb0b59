#pragma once

/// \file policy.hpp
/// Scheduling policies. When an application announces an I/O phase while
/// others are accessing the file system, the policy chooses one of the
/// paper's three strategies:
///
///   * Interfere — let it proceed concurrently (Fig 5a);
///   * Queue     — serialize it after the current accessors, FCFS (Fig 5b);
///   * Interrupt — pause the accessors at their next hook for its benefit
///                 (Fig 5c).
///
/// The dynamic policy picks whichever minimizes the expected value of a
/// machine-wide efficiency metric, computed from the exchanged descriptors
/// (paper §IV-D).

#include <memory>
#include <string>
#include <vector>

#include "calciom/descriptor.hpp"
#include "calciom/metrics.hpp"
#include "sim/time.hpp"

namespace calciom::core {

enum class Action { Interfere, Queue, Interrupt };

[[nodiscard]] constexpr const char* toString(Action a) noexcept {
  switch (a) {
    case Action::Interfere:
      return "interfere";
    case Action::Queue:
      return "queue";
    case Action::Interrupt:
      return "interrupt";
  }
  return "?";
}

/// Snapshot handed to the policy when a request arrives.
struct PolicyContext {
  struct AccessorView {
    IoDescriptor desc;
    /// Fraction of the phase already written (latest Release report).
    double progress = 0.0;
    /// When access was granted.
    sim::Time grantTime = 0.0;
  };

  IoDescriptor requester;
  std::vector<AccessorView> accessors;
  sim::Time now = 0.0;
  std::size_t queueLength = 0;

  /// Remaining contention-free seconds of an accessor's phase.
  [[nodiscard]] static double remainingSeconds(const AccessorView& a) {
    return a.desc.estAloneSeconds * (1.0 - a.progress);
  }
};

class Policy {
 public:
  virtual ~Policy() = default;
  [[nodiscard]] virtual Action decide(const PolicyContext& ctx) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Always lets applications interfere: the uncoordinated baseline.
class InterferePolicy final : public Policy {
 public:
  [[nodiscard]] Action decide(const PolicyContext&) override {
    return Action::Interfere;
  }
  [[nodiscard]] std::string name() const override { return "interfere"; }
};

/// First-come-first-served serialization (paper §III-A-1).
class FcfsPolicy final : public Policy {
 public:
  [[nodiscard]] Action decide(const PolicyContext&) override {
    return Action::Queue;
  }
  [[nodiscard]] std::string name() const override { return "fcfs"; }
};

/// Always interrupts the current accessor (paper §III-A-2 / §IV-C).
class InterruptPolicy final : public Policy {
 public:
  [[nodiscard]] Action decide(const PolicyContext& ctx) override {
    return ctx.accessors.empty() ? Action::Queue : Action::Interrupt;
  }
  [[nodiscard]] std::string name() const override { return "interrupt"; }
};

/// Expected additional I/O seconds of every involved application under a
/// candidate action; scored by an EfficiencyMetric.
struct ActionCost {
  Action action = Action::Queue;
  double metricCost = 0.0;
  std::vector<AppCost> terms;
};

/// Closed-form fluid completion times for two jobs sharing a bottleneck
/// with weights wA:wB and a combined efficiency factor. Work is expressed
/// in alone-seconds. Efficiency < 1 models aggregate loss (locality);
/// efficiency in (1, 2] models apps that individually cannot saturate the
/// storage (each job's rate is clamped at its alone speed).
struct PairTimes {
  double tA = 0.0;
  double tB = 0.0;
};
[[nodiscard]] PairTimes fluidPairTimes(double workA, double workB,
                                       double weightA, double weightB,
                                       double efficiency = 1.0);

/// Dynamic selection (paper §III-A-4, §IV-D): evaluates Queue and Interrupt
/// (and optionally Interfere, an extension the paper discusses around
/// Fig 12) against the configured metric and picks the cheapest.
struct DynamicOptions {
  /// Also evaluate letting the applications interfere. Needs an
  /// interference estimate, which the paper leaves to future work; we use
  /// the fluid sharing model with `overlapEfficiency`.
  bool considerInterference = false;
  /// Aggregate efficiency while two applications overlap (<= 1).
  double overlapEfficiency = 1.0;
};

class DynamicPolicy final : public Policy {
 public:
  using Options = DynamicOptions;

  explicit DynamicPolicy(std::shared_ptr<const EfficiencyMetric> metric,
                         DynamicOptions options = DynamicOptions{});

  [[nodiscard]] Action decide(const PolicyContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "dynamic"; }

  /// Expected costs of every candidate action, cheapest first; exposed for
  /// tests and for the Fig 11 bench's decision traces.
  [[nodiscard]] std::vector<ActionCost> evaluate(
      const PolicyContext& ctx) const;

 private:
  std::shared_ptr<const EfficiencyMetric> metric_;
  DynamicOptions options_;
};

enum class PolicyKind { Interfere, Fcfs, Interrupt, Dynamic };

[[nodiscard]] std::unique_ptr<Policy> makePolicy(
    PolicyKind kind,
    std::shared_ptr<const EfficiencyMetric> metric = nullptr,
    DynamicOptions options = DynamicOptions{});

[[nodiscard]] constexpr const char* toString(PolicyKind k) noexcept {
  switch (k) {
    case PolicyKind::Interfere:
      return "interfering";
    case PolicyKind::Fcfs:
      return "fcfs";
    case PolicyKind::Interrupt:
      return "interruption";
    case PolicyKind::Dynamic:
      return "calciom-dynamic";
  }
  return "?";
}

}  // namespace calciom::core
