// google-benchmark micro-benchmarks of the simulation substrate
// itself: event-engine throughput, coroutine round-trips, histogram
// recording, zipfian generation and PM/LLC model operations and the
// shadow content plane. These bound how much simulated work the figure
// benches can afford.

#include <benchmark/benchmark.h>

#include <memory>

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

// The shadow content plane (DESIGN.md §7.3) over a 50 000-slot object
// store of 64-byte slots, each holding one 32-byte extent, as a 32 B
// cell's store does. Arg 1 declares the slots (a flat table), Arg 0
// leaves every extent to the ordered map.
constexpr std::uint64_t kShadowSlots = 50000;
constexpr std::uint64_t kShadowSlotBytes = 64;
constexpr std::uint32_t kShadowLen = 32;

std::unique_ptr<mem::NodeMemory> shadow_memory(sim::Simulator& s,
                                               bool declared) {
  mem::NodeMemoryParams p;
  p.content_mode = mem::ContentMode::kShadow;
  auto m = std::make_unique<mem::NodeMemory>(s, p);
  if (declared) m->declare_slots(0, kShadowSlotBytes, kShadowSlots);
  return m;
}

mem::PayloadRef shadow_payload(mem::NodeMemory& m) {
  mem::PayloadRef p = m.pool().acquire(0);
  p.buf()->append_shadow(kShadowLen, /*seed=*/7, /*off=*/0);
  return p;
}

// First shadow store into every slot of a fresh store (setup and
// teardown untimed).
static void BM_ShadowPlaneFirstTouch50K(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator s;
    auto m = shadow_memory(s, state.range(0) != 0);
    const mem::PayloadRef p = shadow_payload(*m);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < kShadowSlots; ++i) {
      m->dma_write_payload(i * kShadowSlotBytes, p, /*ddio=*/false);
    }
    state.PauseTiming();
    m.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kShadowSlots));
}
BENCHMARK(BM_ShadowPlaneFirstTouch50K)->Arg(0)->Arg(1);

// Store over the extent a slot already holds (same start and length).
static void BM_ShadowPlaneExactOverwrite(benchmark::State& state) {
  sim::Simulator s;
  auto m = shadow_memory(s, state.range(0) != 0);
  const mem::PayloadRef p = shadow_payload(*m);
  for (std::uint64_t i = 0; i < kShadowSlots; ++i) {
    m->dma_write_payload(i * kShadowSlotBytes, p, /*ddio=*/false);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    m->dma_write_payload((i++ * 7919 % kShadowSlots) * kShadowSlotBytes, p,
                         /*ddio=*/false);
  }
}
BENCHMARK(BM_ShadowPlaneExactOverwrite)->Arg(0)->Arg(1);

// read_payload of a written slot: one shadow segment, no bytes moved.
static void BM_ShadowPlaneReadPayload(benchmark::State& state) {
  sim::Simulator s;
  auto m = shadow_memory(s, state.range(0) != 0);
  const mem::PayloadRef p = shadow_payload(*m);
  for (std::uint64_t i = 0; i < kShadowSlots; ++i) {
    m->dma_write_payload(i * kShadowSlotBytes, p, /*ddio=*/false);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->read_payload(
        (i++ * 7919 % kShadowSlots) * kShadowSlotBytes, kShadowLen));
  }
}
BENCHMARK(BM_ShadowPlaneReadPayload)->Arg(0)->Arg(1);

BENCHMARK_MAIN();
