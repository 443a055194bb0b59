// Substrate microbenchmarks (google-benchmark): cost of the discrete-event
// engine, the weighted max-min allocator, coroutine scheduling, round
// planning, trace synthesis and one coordination message. These bound how
// large a simulated campaign can get; the figure benches above run
// thousands of flow events each.

#include <benchmark/benchmark.h>

#include <vector>

#include "calciom/arbiter_core.hpp"
#include "calciom/descriptor.hpp"
#include "calciom/wire.hpp"
#include "io/writer.hpp"
#include "net/flow_net.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "workload/trace.hpp"

namespace {

using namespace calciom;

void BM_EngineScheduleAndRun(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    int fired = 0;
    for (int i = 0; i < events; ++i) {
      eng.scheduleAt(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    eng.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineScheduleAndRun)->Arg(1000)->Arg(10000)->Arg(100000);

sim::Task pingTask(int hops, int& counter) {
  for (int i = 0; i < hops; ++i) {
    co_await sim::Delay{0.001};
  }
  ++counter;
}

void BM_CoroutineHops(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    int done = 0;
    for (int i = 0; i < tasks; ++i) {
      eng.spawn(pingTask(32, done));
    }
    eng.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * tasks * 32);
}
BENCHMARK(BM_CoroutineHops)->Arg(64)->Arg(512);

void BM_MaxMinRecompute(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine eng;
    net::FlowNet netw(eng);
    std::vector<net::ResourceId> res;
    for (int i = 0; i < 16; ++i) {
      res.push_back(netw.addResource(1000.0));
    }
    state.ResumeTiming();
    for (int i = 0; i < flows; ++i) {
      net::FlowSpec spec;
      spec.bytes = 1e6;
      spec.path = {res[static_cast<std::size_t>(i % 16)]};
      spec.weight = 1.0 + (i % 7);
      netw.start(spec);  // each start triggers a full recompute
    }
    benchmark::DoNotOptimize(netw.activeFlowCount());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinRecompute)->Arg(16)->Arg(64)->Arg(256);

void BM_FlowCompletionCascade(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    net::FlowNet netw(eng);
    const net::ResourceId r = netw.addResource(1e9);
    for (int i = 0; i < flows; ++i) {
      net::FlowSpec spec;
      spec.bytes = 1e6 * (1 + i % 13);  // staggered completions
      spec.path = {r};
      netw.start(spec);
    }
    eng.run();
    benchmark::DoNotOptimize(eng.processedEvents());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowCompletionCascade)->Arg(64)->Arg(256);

void BM_TwoPhaseRoundPlanning(benchmark::State& state) {
  std::uint64_t total = 0;
  for (auto _ : state) {
    for (std::uint64_t bytes = 1 << 20; bytes <= (1ull << 36);
         bytes <<= 1) {
      const int rounds = io::CollectiveWriter::planRounds(bytes, 512,
                                                          16ull << 20);
      for (int r = 0; r < rounds; ++r) {
        total += io::CollectiveWriter::roundBytes(bytes, rounds, r);
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_TwoPhaseRoundPlanning);

void BM_IntrepidTraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    workload::IntrepidModel model;
    model.seed = 1;
    model.horizonSeconds = 3600.0 * 24 * static_cast<double>(state.range(0));
    const auto jobs = model.generate();
    benchmark::DoNotOptimize(jobs.size());
  }
}
BENCHMARK(BM_IntrepidTraceGeneration)->Arg(1)->Arg(7);

void BM_ConcurrencyAnalysis(benchmark::State& state) {
  workload::IntrepidModel model;
  model.seed = 3;
  model.horizonSeconds = 3600.0 * 24 * 7;
  const auto jobs = model.generate();
  for (auto _ : state) {
    const auto dist = workload::concurrencyDistribution(jobs);
    benchmark::DoNotOptimize(dist.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_ConcurrencyAnalysis);

void BM_Xoshiro(benchmark::State& state) {
  sim::Xoshiro256 rng(9);
  double acc = 0.0;
  for (auto _ : state) {
    acc += rng.uniform01();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Xoshiro);

/// One Session-shaped Inform through its life: built from a descriptor and
/// stamped like Session::sendToArbiter, copied once as the capture log
/// does, then read by the arbiter's admission checks (type dispatch,
/// incarnation, sequence, epoch) and its descriptor copy.
void BM_CoordinationMessage(benchmark::State& state) {
  const core::IoDescriptor desc{.appId = 4242,
                                .appName = "job4242",
                                .cores = 2048,
                                .totalBytes = 3ull << 34,
                                .files = 1,
                                .roundsPerFile = 96,
                                .bytesPerRound = 1ull << 29,
                                .estAloneSeconds = 61.234567};
  std::uint64_t seq = 0;
  for (auto _ : state) {
    core::Message wire = core::Message::inform(desc);
    wire.setSeq(++seq);
    wire.setEpoch(3);
    const core::Message captured = wire;
    const auto type = captured.type();
    const auto inc = captured.incarnation();
    const auto s = captured.seq();
    const auto epoch = captured.epoch();
    const core::IoDescriptor back = captured.descriptor();
    benchmark::DoNotOptimize(type);
    benchmark::DoNotOptimize(inc + s + epoch);
    benchmark::DoNotOptimize(back.estAloneSeconds);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoordinationMessage);

}  // namespace

BENCHMARK_MAIN();
