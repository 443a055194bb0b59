#pragma once

/// \file bench_util.hpp
/// The bench kit: what the binaries under bench/ share.
///
/// Figure binaries print the series the paper plots (header()), then check
/// its *qualitative* claims — who wins, monotonicity, crossovers, rough
/// factors — with a ShapeCheck and exit non-zero on a violation, so the
/// bench suite doubles as a regression harness for the reproduction.
///
/// Perf benches (perf_*.cpp) take one optional `--smoke` (smokeFlag()) and
/// print one JSON object (Json, jsonHeader()), which tools/bench_compare.py
/// diffs against the committed BENCH_*.json. Their fingerprints are
/// Fingerprint folds — one fold for the arbiter's decision stream and grant
/// schedule, replayFingerprint() for a whole replay — and their wall
/// columns are read off calciom::sim::Stopwatch (sim/wall_timer.hpp).

#include <bit>
#include <charconv>
#include <cinttypes>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/replay.hpp"
#include "calciom/arbiter_core.hpp"

namespace benchutil {

/// Hardware concurrency as the benches report it (0 is normalized to 1, so
/// "executor_overhead_only" style caveats can divide by it).
inline unsigned hardwareThreads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

/// The perf benches' one optional argument. Returns whether `--smoke` was
/// given; on any other argument list prints the usage line and the bench's
/// own `smokeHelp` lines to stderr and exits with status 2.
inline bool smokeFlag(int argc, char** argv, const char* smokeHelp) {
  if (argc == 2 && std::strcmp(argv[1], "--smoke") == 0) {
    return true;
  }
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--smoke]\n%s", argv[0], smokeHelp);
    std::exit(2);
  }
  return false;
}

/// Streaming JSON writer. Block containers put each member on its own
/// indented line; Inline ones keep the whole value on one line (the run
/// rows), and so does everything nested in them. Numbers carry their format
/// per field — fixed() with a decimal count, general() as `%g` — because
/// each column of a committed BENCH_*.json has its own precision and must
/// parse back to the same value.
class Json {
 public:
  enum class Style : std::uint8_t { Block, Inline };

  explicit Json(std::FILE* out = stdout) noexcept : out_(out) {}

  /// Names the next value: object members need one, array elements none.
  Json& key(std::string_view k) {
    separate();
    writeString(k);
    std::fputs(": ", out_);
    keyed_ = true;
    return *this;
  }

  Json& object(Style style = Style::Block) { return open('{', style); }
  Json& array(Style style = Style::Block) { return open('[', style); }

  /// Ends the innermost container; ending the outermost ends the line.
  Json& close() {
    const Level level = levels_.back();
    levels_.pop_back();
    if (level.style == Style::Block && level.members > 0) {
      std::fputc('\n', out_);
      indent();
    }
    std::fputc(level.opener == '{' ? '}' : ']', out_);
    if (levels_.empty()) {
      std::fputc('\n', out_);
    }
    return *this;
  }

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json& num(T v) {
    char buf[24];
    return write({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }
  /// A fingerprint: 16 lower-case hex digits, as a string.
  Json& hex(std::uint64_t v) { return print("\"%016" PRIx64 "\"", v); }

  // Object members: key(k) and the value.
  Json& object(std::string_view k, Style style = Style::Block) {
    return key(k).object(style);
  }
  Json& array(std::string_view k, Style style = Style::Block) {
    return key(k).array(style);
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json& num(std::string_view k, T v) {
    return key(k).num(v);
  }
  Json& hex(std::string_view k, std::uint64_t v) { return key(k).hex(v); }
  Json& fixed(std::string_view k, double v, int decimals) {
    return key(k).print("%.*f", decimals, v);
  }
  Json& general(std::string_view k, double v) { return key(k).print("%g", v); }
  Json& str(std::string_view k, std::string_view s) {
    key(k).value();
    writeString(s);
    return *this;
  }
  Json& flag(std::string_view k, bool v) {
    return key(k).write(v ? "true" : "false");
  }
  /// Splices already-rendered JSON (e.g. a toJson() dump) as the value.
  Json& raw(std::string_view k, std::string_view json) {
    return key(k).write(json);
  }

 private:
  struct Level {
    char opener;
    Style style;
    int members;
  };

  Json& open(char opener, Style style) {
    value();
    if (!levels_.empty() && levels_.back().style == Style::Inline) {
      style = Style::Inline;
    }
    std::fputc(opener, out_);
    levels_.push_back(Level{opener, style, 0});
    return *this;
  }

  Json& write(std::string_view token) {
    value();
    std::fwrite(token.data(), 1, token.size(), out_);
    return *this;
  }

  template <class... Args>
  Json& print(const char* format, Args... args) {
    value();
    std::fprintf(out_, format, args...);
    return *this;
  }

  /// A value follows its key directly; otherwise it is the next member.
  void value() {
    if (!keyed_) {
      separate();
    }
    keyed_ = false;
  }

  /// The comma and the line break or space before the innermost
  /// container's next member.
  void separate() {
    if (levels_.empty()) {
      return;
    }
    Level& level = levels_.back();
    if (level.members++ > 0) {
      std::fputc(',', out_);
    }
    if (level.style == Style::Block) {
      std::fputc('\n', out_);
      indent();
    } else if (level.members > 1) {
      std::fputc(' ', out_);
    }
  }

  void indent() {
    std::fprintf(out_, "%*s", static_cast<int>(2 * levels_.size()), "");
  }

  void writeString(std::string_view s) {
    std::fputc('"', out_);
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', out_);
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(out_, "\\u%04x", static_cast<unsigned>(c));
      } else {
        std::fputc(c, out_);
      }
    }
    std::fputc('"', out_);
  }

  std::FILE* out_;
  std::vector<Level> levels_;
  bool keyed_ = false;
};

/// Opens a perf bench's JSON object with its leading fields: bench name,
/// mode, the host's hardware_threads (on a 1-thread host a speedup column
/// measures scheduling overhead, not parallelism) and the fault-plan seed
/// (0 = fault-free), so a degradation curve replays from the header alone.
inline void jsonHeader(Json& json, const char* bench, const char* mode,
                       std::uint64_t faultSeed = 0) {
  json.object()
      .str("bench", bench)
      .str("mode", mode)
      .num("hardware_threads", hardwareThreads())
      .num("fault_seed", faultSeed);
}

/// FNV-1a over 64-bit words: the determinism fingerprint every perf bench
/// pins. Fold only what is deterministic — never a wall or cpu column.
class Fingerprint {
 public:
  void fold(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= 0x100000001B3ULL;
  }
  void foldBits(double v) noexcept { fold(std::bit_cast<std::uint64_t>(v)); }
  void foldString(std::string_view s) noexcept {
    for (const char c : s) {
      fold(static_cast<unsigned char>(c));
    }
  }

  /// The arbiter's decision stream: per decision its time bits,
  /// requester, action, accessor set and — when the policy exposes them
  /// (Dynamic) — each candidate action with its metric-cost bits.
  void foldDecisions(
      const std::vector<calciom::core::DecisionRecord>& decisions) noexcept {
    for (const calciom::core::DecisionRecord& d : decisions) {
      foldBits(d.time);
      fold(d.requester);
      fold(static_cast<std::uint64_t>(d.action));
      fold(d.accessors.size());
      for (const std::uint32_t a : d.accessors) {
        fold(a);
      }
      for (const calciom::core::ActionCost& c : d.costs) {
        fold(static_cast<std::uint64_t>(c.action));
        foldBits(c.metricCost);
      }
    }
  }

  /// The grant schedule: per grant its time bits, app and resume flag.
  void foldGrants(
      const std::vector<calciom::core::GrantRecord>& grants) noexcept {
    for (const calciom::core::GrantRecord& g : grants) {
      foldBits(g.time);
      fold(g.app);
      fold(g.resume ? 1u : 0u);
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Everything deterministic about a full-slice replay (analysis/replay.hpp):
/// the job and captured-event counts, the decision stream, the grant
/// schedule and the divergence JSON.
inline std::uint64_t replayFingerprint(
    const calciom::analysis::replay::ReplayResult& r) {
  Fingerprint fp;
  fp.fold(r.jobs);
  fp.fold(r.captured.size());
  fp.foldDecisions(r.decisions);
  fp.foldGrants(r.grants);
  fp.foldString(toJson(r.divergence));
  return fp.value();
}

inline void header(const std::string& figure, const std::string& title,
                   const std::string& setup) {
  std::cout << "==============================================================="
               "=================\n"
            << figure << " -- " << title << '\n'
            << "setup: " << setup << '\n'
            << "==============================================================="
               "=================\n";
}

/// Collects named pass/fail assertions on the reproduced shape.
class ShapeCheck {
 public:
  void expect(const std::string& what, bool ok) {
    std::cout << (ok ? "  [shape OK]   " : "  [shape FAIL] ") << what << '\n';
    if (!ok) {
      ++failures_;
    }
  }
  void expectNear(const std::string& what, double value, double target,
                  double tolerance) {
    const bool ok = value >= target - tolerance && value <= target + tolerance;
    std::cout << (ok ? "  [shape OK]   " : "  [shape FAIL] ") << what
              << " (value " << value << ", target " << target << " +/- "
              << tolerance << ")\n";
    if (!ok) {
      ++failures_;
    }
  }

  /// Prints the verdict and returns the process exit code.
  [[nodiscard]] int finish() const {
    std::cout << (failures_ == 0
                      ? "shape-check: all assertions passed\n"
                      : "shape-check: FAILURES — the reproduction drifted\n");
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int failures_ = 0;
};

}  // namespace benchutil
