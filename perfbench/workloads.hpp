#pragma once

/// \file workloads.hpp
/// The benchmark's four campaign workloads. Each generates its inputs from
/// a seed, runs one closed batch campaign per call and checks the
/// campaign's outputs; the traced variant assembles the same campaign with
/// probes and reports the per-layer numbers.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// One campaign, timed from outside.
struct Campaign {
  /// Input generation, cluster assembly and spawning.
  double setupSeconds = 0.0;
  /// Host wall time and process CPU time of the campaign itself.
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  /// Simulated seconds the campaign covered.
  double simSeconds = 0.0;
  std::uint64_t fingerprint = 0;
  /// Empty when every output check passed.
  std::string failure;
};

/// A per-layer metric, named and with the unit BENCHMARK.json gives it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
/// Every per-layer metric, in output order.
extern const std::vector<LayerMetric> kLayerMetrics;

/// Per-layer values of one traced campaign, keyed by LayerMetric::name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// One untraced campaign at kWorkers threads (flows_sharded: one).
  virtual Campaign run() = 0;
  /// The same inputs at one worker thread (flows_sharded: kWorkers),
  /// through the library's one-call runner where one exists; its
  /// fingerprint must equal run()'s.
  virtual Campaign replica() = 0;
  /// One campaign assembled with probes; fills `out` with every metric of
  /// kLayerMetrics except `tracing.overhead_pct`, which needs the untraced
  /// runs.
  virtual Campaign traced(SpanLog& spans, LayerValues& out) = 0;
};

/// Worker threads of every measured campaign (the benchmark host has four
/// cores).
inline constexpr unsigned kWorkers = 4;

/// The workload called `name`, with inputs generated from `seed`; `small`
/// shrinks every shape for the self-test. nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool small);

}  // namespace perfbench
