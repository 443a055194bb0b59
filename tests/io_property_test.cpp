// Property tests for the I/O layer: the analytic alone-time estimator must
// agree with the simulator across a parameter grid (this is what CALCioM
// descriptors rely on), and round planning must conserve bytes under
// arbitrary configurations.

#include <gtest/gtest.h>

#include <cstdint>

#include "io/pattern.hpp"
#include "io/writer.hpp"
#include "net/flow_net.hpp"
#include "pfs/client.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

using calciom::io::AccessPattern;
using calciom::io::CollectiveWriter;
using calciom::io::contiguousPattern;
using calciom::io::NoopHooks;
using calciom::io::PhaseResult;
using calciom::io::PhaseSpec;
using calciom::io::stridedPattern;
using calciom::io::WriterConfig;
using calciom::mpi::CommCosts;
using calciom::net::FlowNet;
using calciom::pfs::ClientContext;
using calciom::pfs::ParallelFileSystem;
using calciom::pfs::PfsClient;
using calciom::pfs::PfsConfig;
using calciom::sim::Engine;
using calciom::sim::Xoshiro256;

struct GridCase {
  std::uint64_t seed;
};

class IoEstimatePropertyTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(IoEstimatePropertyTest, EstimatorMatchesSimulatorWhenAlone) {
  Xoshiro256 rng(GetParam().seed);
  for (int trial = 0; trial < 6; ++trial) {
    Engine eng;
    FlowNet net(eng);
    PfsConfig pfsCfg;
    pfsCfg.serverCount = static_cast<int>(rng.uniformInt(1, 16));
    pfsCfg.server.nicBandwidth = rng.uniform(50e6, 2e9);
    pfsCfg.server.diskBandwidth = rng.uniform(10e6, 1e9);
    pfsCfg.stripeBytes = 1ull << rng.uniformInt(12, 20);
    ParallelFileSystem fs(eng, net, pfsCfg);
    ClientContext ctx;
    ctx.appId = 1;
    if (rng.uniform01() < 0.5) {
      ctx.perStreamCap = rng.uniform(5e6, 500e6);
    }
    if (rng.uniform01() < 0.5) {
      ctx.injectionResource =
          net.addResource(rng.uniform(100e6, 5e9), "ion");
    }
    PfsClient client(eng, net, fs, ctx);

    WriterConfig wcfg;
    wcfg.processes = static_cast<int>(rng.uniformInt(4, 2048));
    wcfg.aggregators = std::max(
        1, wcfg.processes / static_cast<int>(rng.uniformInt(2, 32)));
    wcfg.cbBufferBytes = 1ull << rng.uniformInt(20, 24);
    wcfg.commCosts = CommCosts{.latency = rng.uniform(0.0, 1e-5),
                               .bandwidthPerProcess = rng.uniform(1e6, 1e9)};
    CollectiveWriter writer(eng, client, wcfg);

    const auto mb = static_cast<std::uint64_t>(rng.uniformInt(1, 32));
    const AccessPattern pattern =
        rng.uniform01() < 0.5
            ? contiguousPattern(mb << 20)
            : stridedPattern((mb << 20) / 8, 8);
    PhaseSpec spec{.fileStem = std::string("p").append(std::to_string(trial)),
                   .fileCount = static_cast<int>(rng.uniformInt(1, 4)),
                   .pattern = pattern};

    const double estimate = writer.estimateAloneSeconds(spec);
    NoopHooks hooks;
    PhaseResult result;
    eng.spawn(writer.runPhase(spec, hooks, &result));
    eng.run();
    EXPECT_NEAR(result.elapsed(), estimate, estimate * 0.01 + 1e-6)
        << "trial " << trial << " procs=" << wcfg.processes;
    // Bytes written match the descriptor.
    EXPECT_EQ(result.bytes(),
              pattern.bytesPerProcess() *
                  static_cast<std::uint64_t>(wcfg.processes) *
                  static_cast<std::uint64_t>(spec.fileCount));
  }
}

TEST_P(IoEstimatePropertyTest, RoundPlanningConservesBytes) {
  Xoshiro256 rng(GetParam().seed ^ 0xAB);
  for (int trial = 0; trial < 40; ++trial) {
    const auto total =
        static_cast<std::uint64_t>(rng.uniformInt(0, 1 << 30));
    const int aggregators = static_cast<int>(rng.uniformInt(1, 512));
    const std::uint64_t cb = 1ull << rng.uniformInt(16, 26);
    const int rounds = CollectiveWriter::planRounds(total, aggregators, cb);
    ASSERT_GE(rounds, 1);
    std::uint64_t sum = 0;
    std::uint64_t largest = 0;
    for (int r = 0; r < rounds; ++r) {
      const std::uint64_t rb = CollectiveWriter::roundBytes(total, rounds, r);
      sum += rb;
      largest = std::max(largest, rb);
    }
    EXPECT_EQ(sum, total);
    // No round exceeds the collective buffer capacity.
    EXPECT_LE(largest,
              static_cast<std::uint64_t>(aggregators) * cb + 1);
    // Rounds are as few as possible: one less round would overflow.
    if (rounds > 1) {
      EXPECT_GT(total,
                static_cast<std::uint64_t>(rounds - 1) * aggregators * cb);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, IoEstimatePropertyTest,
                         ::testing::Values(GridCase{11}, GridCase{22},
                                           GridCase{33}, GridCase{44},
                                           GridCase{55}, GridCase{66}),
                         [](const ::testing::TestParamInfo<GridCase>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

}  // namespace
