// Benchmark driver: runs one workload repeatedly for a host-time budget,
// checks every campaign's outputs, and prints the metrics as the last line
// of standard output, one JSON object. run.py builds and invokes it:
//
//   calciom_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--short] [--trace-out <file>]
//
// Every run measures untraced campaigns for --seconds (at least three),
// then runs the replica at the other worker count. --trace 0 reports the
// end-to-end metrics of the untraced campaigns, each the median over the
// run, host times scaled to the reference host speed (see hostSpeed
// below); --trace 1 adds one campaign assembled with probes and reports
// the per-layer metrics, writing its spans to --trace-out. Each campaign's
// fingerprint goes to standard error.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// The seed whose fingerprints are pinned below. Every other seed is held
/// out: its campaigns must agree with each other and with the replica
/// instead.
constexpr std::uint64_t kDefaultSeed = 1;

struct Pin {
  const char* workload;
  std::uint64_t fingerprint;
};
constexpr Pin kPinned[] = {
    {"flows_sharded", 0xb480f4b407bfed48ULL},
    {"io_shared", 0x2beea7e8213a4e92ULL},
    {"replay_cluster", 0x9993e8f527cdad6fULL},
    {"replay_session", 0xe6cb0af38eb3acf0ULL},
};

constexpr std::size_t kMinCampaigns = 3;
constexpr std::size_t kMaxCampaigns = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  bool small = false;
  std::string traceOut;
};

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace-out") {
      args.traceOut = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds >= 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// HostGauge pass time at the reference host speed: about the fastest
/// pass of the development host (a 4-vCPU VM on a 2.1 GHz Xeon).
constexpr double kReferenceGaugeSeconds = 0.012;

/// Runs one campaign; an escaped exception makes it a failed campaign.
template <class Fn>
Campaign guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    Campaign k;
    k.failure = std::string("exception: ") + e.what();
    return k;
  }
}

/// Appends `"name": {"value": v, "unit": "u"}` with every digit of v.
/// Returns false for a value JSON cannot carry (printed as 0).
bool appendMetric(std::string& out, const char* name, double value,
                  const char* unit) {
  const bool finite = std::isfinite(value);
  char number[40];
  std::snprintf(number, sizeof number, "%.17g", finite ? value : 0.0);
  if (out.size() > 1) {
    out += ", ";
  }
  out += "\"";
  out += name;
  out += "\": {\"value\": ";
  out += number;
  out += ", \"unit\": \"";
  out += unit;
  out += "\"}";
  return finite;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--short] [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const std::unique_ptr<Workload> workload =
      makeWorkload(args.workload, args.seed, args.small);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::optional<std::uint64_t> reference;
  if (args.seed == kDefaultSeed && !args.small) {
    for (const Pin& pin : kPinned) {
      if (args.workload == pin.workload) {
        reference = pin.fingerprint;
      }
    }
  }

  int attempted = 0;
  int failed = 0;
  // A campaign fails when an output check fails or its fingerprint differs
  // from the pinned one (default seed) or from the first campaign's.
  const auto record = [&](const Campaign& k, const char* kind) {
    ++attempted;
    const bool ok = k.failure.empty() &&
                    (!reference.has_value() || k.fingerprint == *reference);
    if (!reference.has_value() && k.failure.empty()) {
      reference = k.fingerprint;
    }
    std::fprintf(stderr,
                 "fingerprint %s seed=%llu %s %016llx wall=%.4f cpu=%.4f%s%s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), kind,
                 static_cast<unsigned long long>(k.fingerprint),
                 k.wallSeconds, k.cpuSeconds, ok ? "" : " FAILED ",
                 k.failure.c_str());
    if (!ok) {
      ++failed;
    }
    return ok;
  };

  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> setup;
  double simSeconds = 0.0;
  double peakRss = 0.0;
  HostGauge gauge;
  std::vector<double> gaugeSeconds;
  const double start = wallNow();
  for (std::size_t n = 0;
       n < kMinCampaigns ||
       (n < kMaxCampaigns && wallNow() - start < args.seconds);
       ++n) {
    gaugeSeconds.push_back(gauge.pass());
    const Campaign k = guarded([&] { return workload->run(); });
    if (n == 0) {
      // The workload's own high-water mark. Later campaigns only add heap
      // fragmentation, which grows with how many fit in --seconds.
      peakRss = peakRssMb();
    }
    if (record(k, "untraced")) {
      wall.push_back(k.wallSeconds);
      cpu.push_back(k.cpuSeconds);
      setup.push_back(k.setupSeconds);
      simSeconds = k.simSeconds;  // deterministic: equal in every campaign
    }
  }

  record(guarded([&] { return workload->replica(); }), "replica");

  // A shared host runs the same campaign at speeds that differ by up to a
  // third from one minute to the next, and a whole run can fall into a
  // slow or a fast phase. A gauge pass before every campaign measures that
  // speed; host times are divided by it, so they read as seconds at the
  // reference speed. Medians, not minima: the fastest campaign is whichever
  // caught a short window of full speed.
  const double hostSpeed = kReferenceGaugeSeconds / median(gaugeSeconds);
  const double wallSeconds = hostSpeed * median(wall);
  std::fprintf(stderr,
               "host: median campaign %.4f s, median gauge pass %.5f s, "
               "speed %.3f of the reference\n",
               median(wall), median(gaugeSeconds), hostSpeed);

  std::string metrics = "{";
  bool finite = true;
  if (args.trace == 0) {
    finite &= appendMetric(metrics, "wall_s", wallSeconds, "s");
    finite &= appendMetric(metrics, "cpu_s", hostSpeed * median(cpu), "s");
    finite &= appendMetric(metrics, "sim_speedup", simSeconds / wallSeconds,
                           "s/s");
    finite &= appendMetric(metrics, "setup_s", hostSpeed * median(setup),
                           "s");
    finite &= appendMetric(metrics, "peak_rss_mb", peakRss, "MB");
  } else {
    SpanLog spans;
    LayerValues layers;
    const Campaign k =
        guarded([&] { return workload->traced(spans, layers); });
    record(k, "traced");
    layers["tracing.overhead_pct"] =
        wall.empty() ? 0.0 : 100.0 * (k.wallSeconds / median(wall) - 1.0);
    // How many of the kWorkers threads can run at once on this host, to
    // tell executor.busy_threads apart from a lack of cores.
    layers["host.spin_threads"] = spinThreads(kWorkers, 0.25);
    layers["host.speed"] = hostSpeed;
    if (!args.traceOut.empty() && !spans.write(args.traceOut)) {
      std::fprintf(stderr, "could not write %s\n", args.traceOut.c_str());
    }
    for (const LayerMetric& m : kLayerMetrics) {
      finite &= appendMetric(metrics, m.name, layers[m.name], m.unit);
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              failed == 0 && finite ? "true" : "false", attempted, failed,
              metrics.c_str());
  return 0;
}
