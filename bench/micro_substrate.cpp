// google-benchmark micro-benchmarks of the simulation substrate
// itself: event-engine throughput, coroutine round-trips, histogram
// recording, zipfian generation and PM/LLC model operations. These
// bound how much simulated work the figure benches can afford.

#include <benchmark/benchmark.h>

#include "mem/llc.hpp"
#include "mem/node_memory.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "stats/histogram.hpp"

using namespace prdma;

static void BM_EventSchedule(benchmark::State& state) {
  sim::Simulator s;
  std::uint64_t t = 0;
  for (auto _ : state) {
    s.schedule(++t % 1000, [] {});
    s.step();
  }
  benchmark::DoNotOptimize(s.events_executed());
}
BENCHMARK(BM_EventSchedule);

static void BM_EventHeapChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::Rng rng(1);
    for (std::uint64_t i = 0; i < n; ++i) {
      s.schedule(rng.uniform(0, 1'000'000), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventHeapChurn)->Arg(1024)->Arg(16384);

static void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    sim::Channel<int> a(s);
    sim::Channel<int> b(s);
    sim::spawn([](sim::Channel<int>& in, sim::Channel<int>& out) -> sim::Task<> {
      for (int i = 0; i < 100; ++i) {
        auto v = co_await in.recv();
        if (!v) break;
        out.send(*v + 1);
      }
    }(a, b));
    sim::spawn([](sim::Channel<int>& out, sim::Channel<int>& in) -> sim::Task<> {
      out.send(0);
      for (int i = 0; i < 99; ++i) {
        auto v = co_await in.recv();
        if (!v) break;
        out.send(*v + 1);
      }
    }(a, b));
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_CoroutinePingPong);

static void BM_HistogramRecord(benchmark::State& state) {
  stats::LatencyHistogram h;
  std::uint64_t v = 12345;
  for (auto _ : state) {
    v = v * 6364136223846793005ull + 1442695040888963407ull;
    h.record(v >> 40);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

static void BM_ZipfianNext(benchmark::State& state) {
  sim::ZipfianGenerator zipf(50'000, 0.99);
  sim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

static void BM_PmDeviceWriteTiming(benchmark::State& state) {
  sim::Simulator s;
  mem::PmDevice pm(s, "pm", 1 << 20, {170, 90, 6.6e9, 12e9});
  sim::SimTime t = 0;
  for (auto _ : state) {
    t = pm.write_complete_at(t, 4096);
  }
  benchmark::DoNotOptimize(t);
}
BENCHMARK(BM_PmDeviceWriteTiming);

static void BM_LlcWriteAndFlush(benchmark::State& state) {
  sim::Simulator s;
  mem::PmDevice pm(s, "pm", 1 << 20, {170, 90, 6.6e9, 12e9});
  mem::Llc llc(s, pm, {});
  std::vector<std::byte> data(4096);
  sim::SimTime t = 0;
  for (auto _ : state) {
    llc.write(0, data);
    t = llc.clflush(t, 0, data.size());
  }
  benchmark::DoNotOptimize(t);
}
BENCHMARK(BM_LlcWriteAndFlush);

constexpr std::uint64_t k64K = 64 * 1024;

// A kShadow 64 KB payload interior: dirty 1 024 content-free lines,
// then flush them all.
static void BM_LlcShadowWriteAndFlush64K(benchmark::State& state) {
  sim::Simulator s;
  mem::PmDevice pm(s, "pm", 1 << 20, {170, 90, 6.6e9, 12e9});
  mem::Llc llc(s, pm, {});
  sim::SimTime t = 0;
  for (auto _ : state) {
    llc.write_shadow(0, k64K);
    t = llc.clflush(t, 0, k64K);
  }
  benchmark::DoNotOptimize(t);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k64K));
}
BENCHMARK(BM_LlcShadowWriteAndFlush64K);

// A WFlush-style dirtiness probe over a clean 64 KB range while other
// lines of the cache are dirty.
static void BM_LlcIsDirtyClean64K(benchmark::State& state) {
  sim::Simulator s;
  mem::PmDevice pm(s, "pm", 1 << 20, {170, 90, 6.6e9, 12e9});
  mem::Llc llc(s, pm, {});
  llc.write(2 * k64K, std::vector<std::byte>(4096));
  llc.write_shadow(4 * k64K, k64K);
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc.is_dirty(k64K, k64K));
  }
}
BENCHMARK(BM_LlcIsDirtyClean64K);

BENCHMARK_MAIN();
