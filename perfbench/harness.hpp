#pragma once

/// \file harness.hpp
/// Host-side measurement plumbing of the benchmark: clocks, the
/// determinism fingerprint, in-memory spans with per-layer totals, and the
/// probe hooks that time a cluster's real barrier hooks from outside.
/// Everything here observes; nothing feeds back into simulated state.

#include <sys/resource.h>
#include <time.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/barrier_hook.hpp"
#include "sim/time.hpp"

namespace perfbench {

/// Host wall clock in seconds (monotonic).
inline double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host CPU time of the whole process, all threads, in seconds.
inline double cpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Cores the host gives the process right now: process CPU time over wall
/// time while `threads` threads spin for `seconds`. Near `threads` when
/// each spinner has a core of its own, near 1 when they share one.
inline double spinThreads(unsigned threads, double seconds) {
  const double c0 = cpuNow();
  const double w0 = wallNow();
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < threads; ++i) {
    spinners.emplace_back([w0, seconds] {
      while (wallNow() - w0 < seconds) {
      }
    });
  }
  for (std::thread& t : spinners) {
    t.join();
  }
  return (cpuNow() - c0) / (wallNow() - w0);
}

/// A fixed piece of host work that no change to the program can move: a
/// small event loop (a binary heap of timestamps and a FIFO) driven by a
/// xorshift generator through exp/log, close to the instruction mix of the
/// simulator's scheduling loops. Its pass time tracks how fast the host runs
/// such code at the moment.
class HostGauge {
 public:
  /// Host seconds of one pass.
  double pass() {
    const double t0 = wallNow();
    std::priority_queue<double, std::vector<double>, std::greater<>> heap;
    std::deque<double> fifo;
    double now = 0.0;
    for (int i = 0; i < kSteps; ++i) {
      const double u = 0x1.0p-53 * static_cast<double>(draw() >> 11);
      if (heap.size() < 64 || u < 0.5) {
        heap.push(now + std::exp(std::log1p(u) * 4.0));
        fifo.push_back(u);
      } else {
        now = heap.top();
        heap.pop();
        if (!fifo.empty()) {
          sink_ += fifo.front();
          fifo.pop_front();
        }
      }
    }
    sink_ += now;
    return wallNow() - t0;
  }

 private:
  static constexpr int kSteps = 200000;
  std::uint64_t draw() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }
  std::uint64_t s_ = 0x9E3779B97F4A7C15ULL;
  double sink_ = 0.0;
};

/// Resident-set high-water mark of the process in MB (Linux reports
/// ru_maxrss in KiB).
inline double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// FNV-1a over deterministic outputs, folded the way bench/perf_cluster.cpp
/// and bench/perf_replay.cpp fold theirs. Host times are never folded.
class Fingerprint {
 public:
  void fold(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= 0x100000001B3ULL;
  }
  void foldBits(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fold(bits);
  }
  void foldString(const std::string& s) noexcept {
    for (char c : s) {
      fold(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// What a span measured. The tree is fixed: Setup and Stream are roots,
/// every other layer nests inside a Campaign span, except replay_session's
/// Core and Divergence, which re-run the library's oracle after it.
enum class Layer : std::uint8_t {
  Setup,
  Campaign,
  HookStorage,
  HookArbiter,
  HookFeeder,
  Vote,
  Core,
  Divergence,
  Stream,
  kCount,
};

inline const char* layerName(Layer l) {
  static constexpr std::array<const char*,
                              static_cast<std::size_t>(Layer::kCount)>
      kNames = {"setup",        "campaign",    "hook.storage",
                "hook.arbiter", "hook.feeder", "hook.vote",
                "core",         "replay.divergence", "trace.stream"};
  return kNames[static_cast<std::size_t>(l)];
}

/// Spans of one traced campaign, kept in memory and written out once at
/// the end. Totals per layer are exact; the span list itself is capped so a
/// replay with one hook span per barrier stays a few MB.
class SpanLog {
 public:
  static constexpr std::size_t kMaxKept = 200000;

  void add(Layer layer, double start, double end) {
    totals_[static_cast<std::size_t>(layer)] += end - start;
    if (spans_.size() < kMaxKept) {
      spans_.push_back(Span{start, end, layer});
    } else {
      ++dropped_;
    }
  }
  [[nodiscard]] double total(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing);
  /// nested layers share one track and nest by time. False on I/O error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f,
                 "{\"displayTimeUnit\": \"ms\", \"droppedSpans\": %zu, "
                 "\"traceEvents\": [\n",
                 dropped_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f}%s\n",
                   layerName(s.layer), (s.start - origin) * 1e6,
                   (s.end - s.start) * 1e6, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    double start;
    double end;
    Layer layer;
  };
  std::vector<Span> spans_;
  std::array<double, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::size_t dropped_ = 0;
};

/// Times a cluster's real barrier hooks from outside. Probe 0 is registered
/// before the first real hook and probe i right after real hook i-1; the
/// cluster calls hooks in registration order, for votes and for barriers
/// alike, so the host time between probe i and probe i+1 was spent in real
/// hook i. Probes vote kNever and schedule nothing: they move no barrier, no
/// round and no counter the fingerprint folds. Never install them on a
/// cluster without real hooks — a lone kNever vote would make its rounds
/// unbounded.
class ProbeChain {
 public:
  /// `hooks[i]` is the layer of real hook i, in registration order.
  ProbeChain(SpanLog& spans, std::vector<Layer> hooks)
      : spans_(spans), hooks_(std::move(hooks)) {
    for (std::size_t i = 0; i <= hooks_.size(); ++i) {
      probes_.push_back(std::make_unique<Probe>(*this, i));
    }
  }
  ProbeChain(const ProbeChain&) = delete;
  ProbeChain& operator=(const ProbeChain&) = delete;

  /// The probe to register before real hook `i` (`i == hooks.size()`: after
  /// the last one).
  [[nodiscard]] calciom::sim::BarrierHook* probe(std::size_t i) {
    return probes_.at(i).get();
  }

 private:
  class Probe final : public calciom::sim::BarrierHook {
   public:
    Probe(ProbeChain& chain, std::size_t index)
        : chain_(chain), index_(index) {}
    bool onBarrier(calciom::sim::Time /*barrierTime*/) override {
      chain_.lap(index_, chain_.lastBarrier_, false);
      return false;
    }
    /// Constant vote, so trivially pure (determinism rule 7).
    calciom::sim::Time nextBarrierNeededBy(
        calciom::sim::Time /*now*/) override {
      chain_.lap(index_, chain_.lastVote_, true);
      return calciom::sim::kNever;
    }

   private:
    ProbeChain& chain_;
    std::size_t index_;
  };

  void lap(std::size_t index, double& last, bool vote) {
    const double now = wallNow();
    if (index > 0) {
      spans_.add(vote ? Layer::Vote : hooks_[index - 1], last, now);
    }
    last = now;
  }

  SpanLog& spans_;
  std::vector<Layer> hooks_;
  std::vector<std::unique_ptr<Probe>> probes_;
  double lastBarrier_ = 0.0;
  double lastVote_ = 0.0;
};

}  // namespace perfbench
