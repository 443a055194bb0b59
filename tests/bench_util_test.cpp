// The bench kit (bench/bench_util.hpp): the leading fields every perf
// bench's JSON object opens with, and the decision-stream and grant folds
// its fingerprints pin (calciom::core::foldDecisions / foldGrants) against
// the fold they replaced, spelled out. The writer and the word fold are
// tested where they live (sim_json_test, sim_rng_test).

#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace {

using calciom::core::Action;
using calciom::core::ActionCost;
using calciom::core::DecisionRecord;
using calciom::core::foldDecisions;
using calciom::core::foldGrants;
using calciom::core::GrantRecord;
using calciom::sim::Fingerprint;
using calciom::sim::Json;

TEST(BenchKit, JsonHeaderOpensTheDocument) {
  Json json;
  benchutil::jsonHeader(json, "perf_test", "smoke", 7);
  json.close();
  EXPECT_EQ(json.text(),
            "{\n"
            "  \"bench\": \"perf_test\",\n"
            "  \"mode\": \"smoke\",\n"
            "  \"hardware_threads\": " +
                std::to_string(benchutil::hardwareThreads()) +
                ",\n"
                "  \"fault_seed\": 7\n"
                "}");
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
    foldDecisions(fp, ds);
    EXPECT_EQ(fp.value(), spelledOutFold(ds, true)) << withCosts;
  }
  // Without costs (every policy but Dynamic) the cost loop folds nothing,
  // so the fold equals one that never looked at costs.
  const std::vector<DecisionRecord> plain = sampleDecisions(false);
  Fingerprint fp;
  foldDecisions(fp, plain);
  EXPECT_EQ(fp.value(), spelledOutFold(plain, false));
  // With costs, they are part of the fingerprint.
  const std::vector<DecisionRecord> costed = sampleDecisions(true);
  EXPECT_NE(spelledOutFold(costed, true), spelledOutFold(costed, false));
}

TEST(BenchFingerprint, FoldGrantsEqualsTheSpelledOutFold) {
  const std::vector<GrantRecord> grants = {
      GrantRecord{1.5, 4, false}, GrantRecord{9.0, 2, true}};
  Fingerprint fp;
  foldGrants(fp, grants);
  Fingerprint want;
  for (const GrantRecord& g : grants) {
    want.foldBits(g.time);
    want.fold(g.app);
    want.fold(g.resume ? 1u : 0u);
  }
  EXPECT_EQ(fp.value(), want.value());
}

}  // namespace
