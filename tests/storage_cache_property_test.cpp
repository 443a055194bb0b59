// Property tests for the write-back cache model: conservation, level
// bounds, the analytic saturation predicate, and drain timing across
// randomized burst schedules.

#include <gtest/gtest.h>

#include <vector>

#include "net/flow_net.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "storage/server.hpp"

namespace {

using calciom::net::AffectedResources;
using calciom::net::FlowNet;
using calciom::net::FlowSpec;
using calciom::sim::Delay;
using calciom::sim::Engine;
using calciom::sim::Task;
using calciom::sim::Time;
using calciom::sim::Xoshiro256;
using calciom::storage::StorageServer;

struct CacheCase {
  std::uint64_t seed;
};

class CachePropertyTest : public ::testing::TestWithParam<CacheCase> {};

Task delayedBurst([[maybe_unused]] Engine& eng, FlowNet& net,
                  StorageServer& srv, Time at,
                  double bytes, std::uint32_t group) {
  co_await Delay{at};
  const auto id = net.start(FlowSpec{
      .bytes = bytes, .path = {srv.ingress()}, .group = group});
  co_await net.completion(id);
}

TEST_P(CachePropertyTest, ConservationAndBoundsUnderRandomBursts) {
  Xoshiro256 rng(GetParam().seed);
  for (int trial = 0; trial < 5; ++trial) {
    Engine eng;
    FlowNet net(eng);
    StorageServer::Config cfg;
    cfg.nicBandwidth = rng.uniform(500.0, 2000.0);
    cfg.diskBandwidth = rng.uniform(50.0, 400.0);
    cfg.cacheBytes = rng.uniform(500.0, 5000.0);
    cfg.restoreFraction = rng.uniform(0.3, 0.9);
    StorageServer srv(eng, net, cfg, "s");

    double offered = 0.0;
    const int bursts = static_cast<int>(rng.uniformInt(1, 8));
    for (int b = 0; b < bursts; ++b) {
      const double bytes = rng.uniform(100.0, 4000.0);
      offered += bytes;
      eng.spawn(delayedBurst(eng, net, srv, rng.uniform(0.0, 30.0), bytes,
                             static_cast<std::uint32_t>(b % 3)));
    }

    // Sample the level at random instants while running.
    std::vector<double> levels;
    for (int s = 0; s < 20; ++s) {
      eng.scheduleAt(rng.uniform(0.0, 60.0),
                     [&] { levels.push_back(srv.cacheLevel()); });
    }
    eng.run();

    // Conservation: everything offered was accepted by the server.
    EXPECT_NEAR(srv.delivered(), offered, offered * 1e-9 + 1e-3);
    // The level never leaves [0, capacity].
    for (double level : levels) {
      EXPECT_GE(level, -1e-9);
      EXPECT_LE(level, cfg.cacheBytes + 1e-9);
    }
  }
}

TEST_P(CachePropertyTest, SaturationMatchesAnalyticPredicate) {
  Xoshiro256 rng(GetParam().seed ^ 0x77);
  for (int trial = 0; trial < 8; ++trial) {
    Engine eng;
    FlowNet net(eng);
    StorageServer::Config cfg;
    cfg.nicBandwidth = 1000.0;
    cfg.diskBandwidth = 100.0;
    cfg.cacheBytes = rng.uniform(500.0, 4000.0);
    StorageServer srv(eng, net, cfg, "s");

    const double bytes = rng.uniform(200.0, 8000.0);
    bool sawSaturation = false;
    net.addRatesListener([&](const AffectedResources&) {
      sawSaturation |= srv.cacheSaturated();
    });
    eng.spawn(delayedBurst(eng, net, srv, 0.0, bytes, 1));
    // Poll for saturation during the run as well.
    for (double t = 0.1; t < 100.0; t += 0.1) {
      eng.scheduleAt(t, [&] { sawSaturation |= srv.cacheSaturated(); });
    }
    eng.run();

    // Analytic predicate: a single burst at NIC speed with net fill
    // (nic - disk) saturates iff its absorbed volume exceeds the point
    // where the cache fills: bytes_at_fill = nic * cacheBytes/(nic-disk).
    const double fillTime = cfg.cacheBytes / (cfg.nicBandwidth -
                                              cfg.diskBandwidth);
    const double bytesAtFill = cfg.nicBandwidth * fillTime;
    const bool expectSaturation = bytes > bytesAtFill * (1 + 1e-9);
    EXPECT_EQ(sawSaturation, expectSaturation)
        << "bytes=" << bytes << " cache=" << cfg.cacheBytes
        << " bytesAtFill=" << bytesAtFill;
  }
}

TEST_P(CachePropertyTest, BurstTimingFollowsTwoRegimeFormula) {
  Xoshiro256 rng(GetParam().seed ^ 0x99);
  for (int trial = 0; trial < 8; ++trial) {
    Engine eng;
    FlowNet net(eng);
    StorageServer::Config cfg;
    cfg.nicBandwidth = rng.uniform(800.0, 1200.0);
    cfg.diskBandwidth = rng.uniform(80.0, 120.0);
    cfg.cacheBytes = rng.uniform(1000.0, 3000.0);
    StorageServer srv(eng, net, cfg, "s");

    const double bytes = rng.uniform(500.0, 10000.0);
    const auto id = net.start(
        FlowSpec{.bytes = bytes, .path = {srv.ingress()}, .group = 1});
    Time done = -1.0;
    eng.spawn([](Engine& engine, FlowNet& network, calciom::net::FlowId f,
                 Time* out) -> Task {
      co_await network.completion(f);
      *out = engine.now();
    }(eng, net, id, &done));
    eng.run();

    const double fillRate = cfg.nicBandwidth - cfg.diskBandwidth;
    const double fillTime = cfg.cacheBytes / fillRate;
    const double bytesAtFill = cfg.nicBandwidth * fillTime;
    double expected = 0.0;
    if (bytes <= bytesAtFill) {
      expected = bytes / cfg.nicBandwidth;  // fully absorbed at NIC speed
    } else {
      expected = fillTime + (bytes - bytesAtFill) / cfg.diskBandwidth;
    }
    EXPECT_NEAR(done, expected, expected * 1e-6 + 1e-6)
        << "bytes=" << bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CachePropertyTest,
                         ::testing::Values(CacheCase{201}, CacheCase{202},
                                           CacheCase{203}, CacheCase{204}),
                         [](const ::testing::TestParamInfo<CacheCase>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

}  // namespace
