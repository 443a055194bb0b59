// The JSON writer (sim/json.hpp): its exact output in both layouts — the
// indented Block form the perf benches print and the one-line Inline form
// of the decision and divergence dumps — its escaping and number forms.

#include "sim/json.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace {

using calciom::sim::Json;
constexpr auto kInline = Json::Style::Inline;

TEST(SimJson, GoldenOutput) {
  Json json;
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
      "}";
  EXPECT_EQ(json.text(), want);
}

TEST(SimJson, ControlCharactersAreEscaped) {
  Json json;
  json.object(kInline).str("s", "tab\there\nnewline").close();
  EXPECT_EQ(json.text(), "{\"s\": \"tab\\u0009here\\u000anewline\"}");
}

// The one-line dump form: an Inline document with nested arrays and
// objects, %.9g numbers, and no trailing newline — what core::toJson and
// analysis::replay::toJson return.
TEST(SimJson, InlineDocumentRendersIntoTheString) {
  Json json;
  json.object(kInline)
      .precise("third", 1.0 / 3.0)
      .precise("big", 1234567890.5)
      .precise("tiny", -2.5e-7)
      .precise("whole", 40.0)
      .array("matrix");
  for (int i = 0; i < 2; ++i) {
    json.array();
    for (int j = 0; j < 3; ++j) {
      json.num(i * 3 + j);
    }
    json.close();
  }
  json.close().array("terms");
  json.object().num("cores", 32).precise("io_seconds", 0.1).close();
  json.close().array("none").close().close();
  const std::string want =
      "{\"third\": 0.333333333, \"big\": 1.23456789e+09, "
      "\"tiny\": -2.5e-07, \"whole\": 40, "
      "\"matrix\": [[0, 1, 2], [3, 4, 5]], "
      "\"terms\": [{\"cores\": 32, \"io_seconds\": 0.1}], \"none\": []}";
  EXPECT_EQ(json.text(), want);
  EXPECT_EQ(std::move(json).take(), want);
}

TEST(SimJson, WideFixedValuesAreNotTruncated) {
  Json json;
  json.object(kInline).fixed("huge", 1e80, 2).close();
  const std::string& text = json.text();
  ASSERT_GT(text.size(), 80u);
  EXPECT_EQ(text.substr(0, 10), "{\"huge\": 1");
  EXPECT_EQ(text.substr(text.size() - 4), ".00}");
}

}  // namespace
