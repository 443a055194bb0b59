#pragma once

/// \file json.hpp
/// The one JSON writer of the repository. Decision traces
/// (core::toJson), replay divergence reports (analysis::replay::toJson)
/// and the perf benches' result objects all render through it, so they
/// share one escaping rule, one member layout and one set of number forms.

#include <charconv>
#include <cinttypes>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace calciom::sim {

/// JSON writer that renders into a string. Block containers put each
/// member on its own indented line; Inline ones keep the whole value on one
/// line, and so does everything nested in them. Numbers carry their format
/// per field — fixed() with a decimal count (`%.*f`), general() as `%g`,
/// precise() as `%.9g` (the decision and divergence dumps) — because each
/// column of a committed BENCH_*.json and of a dump has its own precision
/// and must parse back to the same value.
class Json {
 public:
  enum class Style : std::uint8_t { Block, Inline };

  /// Names the next value: object members need one, array elements none.
  Json& key(std::string_view k) {
    separate();
    writeString(k);
    out_ += ": ";
    keyed_ = true;
    return *this;
  }

  Json& object(Style style = Style::Block) { return open('{', style); }
  Json& array(Style style = Style::Block) { return open('[', style); }

  /// Ends the innermost container.
  Json& close() {
    const Level level = levels_.back();
    levels_.pop_back();
    if (level.style == Style::Block && level.members > 0) {
      out_ += '\n';
      indent();
    }
    out_ += level.opener == '{' ? '}' : ']';
    return *this;
  }

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json& num(T v) {
    char buf[24];
    return write({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }
  /// A fingerprint: 16 lower-case hex digits, as a string.
  Json& hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", v);
    return write(buf);
  }

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
    return key(k).real(v, std::chars_format::fixed, decimals);
  }
  Json& general(std::string_view k, double v) {
    return key(k).real(v, std::chars_format::general, 6);
  }
  Json& precise(std::string_view k, double v) {
    return key(k).real(v, std::chars_format::general, 9);
  }
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

  /// The text rendered so far; a whole document once the outermost
  /// container is closed.
  [[nodiscard]] const std::string& text() const noexcept { return out_; }
  [[nodiscard]] std::string take() && { return std::move(out_); }

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
    out_ += opener;
    levels_.push_back(Level{opener, style, 0});
    return *this;
  }

  Json& write(std::string_view token) {
    value();
    out_ += token;
    return *this;
  }

  /// `v` as printf renders it with the conversion `format` stands for
  /// (f, g) at `precision`.
  Json& real(double v, std::chars_format format, int precision) {
    char buf[400];  // room for the 309 integer digits of a fixed-form double
    return write(
        {buf, std::to_chars(buf, buf + sizeof buf, v, format, precision).ptr});
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
      out_ += ',';
    }
    if (level.style == Style::Block) {
      out_ += '\n';
      indent();
    } else if (level.members > 1) {
      out_ += ' ';
    }
  }

  void indent() { out_.append(2 * levels_.size(), ' '); }

  void writeString(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
        out_ += esc;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<Level> levels_;
  bool keyed_ = false;
};

}  // namespace calciom::sim
