// The bench kit (bench/bench_util.hpp): the JSON writer's exact output,
// the FNV-1a fingerprint against published test vectors, and the shared
// decision-stream fold against the fold it replaced, spelled out.

#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace {

using benchutil::Fingerprint;
using benchutil::Json;
using calciom::core::Action;
using calciom::core::ActionCost;
using calciom::core::DecisionRecord;
using calciom::core::GrantRecord;

/// Runs `write` against a Json on a temporary file and returns the text.
template <class Fn>
std::string render(Fn&& write) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  {
    Json json(f);
    write(json);
  }
  std::rewind(f);
  std::string out;
  char buf[256];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

TEST(BenchJson, GoldenOutput) {
  constexpr auto kInline = Json::Style::Inline;
  const std::string got = render([&](Json& json) {
    json.object()
        .str("bench", "perf_test")
        .str("quote\"back\\slash", "value \"with\" a \\ in it")
        .object("nested")
        .num("count", 3)
        .num("delta", -2)
        .object("inner", kInline)
        .flag("ok", true)
        .close()
        .close()
        .array("rows");
    json.object(kInline)
        .fixed("p3", 1.23456, 3)
        .fixed("p6", 0.1234567, 6)
        .fixed("p0", 2500.6, 0)
        .close();
    json.object(kInline)
        .fixed("p2", 3.14159, 2)
        .fixed("p4", 0.123456, 4)
        .general("g", 2.0)
        .general("g_frac", 0.5)
        .general("g_tiny", 1e-7)
        .close();
    json.close()
        .raw("divergence", R"({"online_decisions":3,"drift":0.5})")
        .array("fingerprints", kInline)
        .hex(0xcf240e6e58704590ULL)
        .hex(0x1ULL)
        .close()
        .array("empty")
        .close()
        .close();
  });
  const std::string want =
      "{\n"
      "  \"bench\": \"perf_test\",\n"
      "  \"quote\\\"back\\\\slash\": \"value \\\"with\\\" a \\\\ in it\",\n"
      "  \"nested\": {\n"
      "    \"count\": 3,\n"
      "    \"delta\": -2,\n"
      "    \"inner\": {\"ok\": true}\n"
      "  },\n"
      "  \"rows\": [\n"
      "    {\"p3\": 1.235, \"p6\": 0.123457, \"p0\": 2501},\n"
      "    {\"p2\": 3.14, \"p4\": 0.1235, \"g\": 2, \"g_frac\": 0.5, "
      "\"g_tiny\": 1e-07}\n"
      "  ],\n"
      "  \"divergence\": {\"online_decisions\":3,\"drift\":0.5},\n"
      "  \"fingerprints\": [\"cf240e6e58704590\", \"0000000000000001\"],\n"
      "  \"empty\": []\n"
      "}\n";
  EXPECT_EQ(got, want);
}

TEST(BenchJson, ControlCharactersAreEscaped) {
  const std::string got = render([](Json& json) {
    json.object(Json::Style::Inline).str("s", "tab\there\nnewline").close();
  });
  EXPECT_EQ(got, "{\"s\": \"tab\\u0009here\\u000anewline\"}\n");
}

TEST(BenchFingerprint, MatchesFnv1aTestVectors) {
  // Folding bytes one word at a time is byte-wise FNV-1a for byte input.
  EXPECT_EQ(Fingerprint{}.value(), 0xcbf29ce484222325ULL);
  Fingerprint a;
  a.foldString("a");
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);
  Fingerprint foobar;
  foobar.foldString("foobar");
  EXPECT_EQ(foobar.value(), 0x85944171f73967e8ULL);

  Fingerprint bits;
  bits.foldBits(1.5);
  Fingerprint word;
  std::uint64_t raw = 0;
  const double v = 1.5;
  std::memcpy(&raw, &v, sizeof raw);
  word.fold(raw);
  EXPECT_EQ(bits.value(), word.value());
}

std::vector<DecisionRecord> sampleDecisions(bool withCosts) {
  std::vector<DecisionRecord> out;
  DecisionRecord d1;
  d1.time = 12.25;
  d1.requester = 3;
  d1.accessors = {1, 2};
  d1.action = Action::Interrupt;
  DecisionRecord d2;
  d2.time = 40.0;
  d2.requester = 7;
  d2.action = Action::Queue;
  if (withCosts) {
    d1.costs = {ActionCost{Action::Queue, 8.5, {}},
                ActionCost{Action::Interrupt, 2.75, {}}};
    d2.costs = {ActionCost{Action::Interfere, 0.125, {}}};
  }
  out.push_back(d1);
  out.push_back(d2);
  return out;
}

/// The decision fold every bench spelled out before the kit existed.
std::uint64_t spelledOutFold(const std::vector<DecisionRecord>& decisions,
                             bool foldCosts) {
  Fingerprint fp;
  for (const DecisionRecord& d : decisions) {
    fp.foldBits(d.time);
    fp.fold(d.requester);
    fp.fold(static_cast<std::uint64_t>(d.action));
    fp.fold(d.accessors.size());
    for (std::uint32_t a : d.accessors) {
      fp.fold(a);
    }
    if (foldCosts) {
      for (const ActionCost& c : d.costs) {
        fp.fold(static_cast<std::uint64_t>(c.action));
        fp.foldBits(c.metricCost);
      }
    }
  }
  return fp.value();
}

TEST(BenchFingerprint, FoldDecisionsEqualsTheSpelledOutFold) {
  for (const bool withCosts : {false, true}) {
    const std::vector<DecisionRecord> ds = sampleDecisions(withCosts);
    Fingerprint fp;
    fp.foldDecisions(ds);
    EXPECT_EQ(fp.value(), spelledOutFold(ds, true)) << withCosts;
  }
  // Without costs (every policy but Dynamic) the cost loop folds nothing,
  // so the fold equals one that never looked at costs.
  const std::vector<DecisionRecord> plain = sampleDecisions(false);
  Fingerprint fp;
  fp.foldDecisions(plain);
  EXPECT_EQ(fp.value(), spelledOutFold(plain, false));
  // With costs, they are part of the fingerprint.
  const std::vector<DecisionRecord> costed = sampleDecisions(true);
  EXPECT_NE(spelledOutFold(costed, true), spelledOutFold(costed, false));
}

TEST(BenchFingerprint, FoldGrantsEqualsTheSpelledOutFold) {
  const std::vector<GrantRecord> grants = {
      GrantRecord{1.5, 4, false}, GrantRecord{9.0, 2, true}};
  Fingerprint fp;
  fp.foldGrants(grants);
  Fingerprint want;
  for (const GrantRecord& g : grants) {
    want.foldBits(g.time);
    want.fold(g.app);
    want.fold(g.resume ? 1u : 0u);
  }
  EXPECT_EQ(fp.value(), want.value());
}

}  // namespace
