// Tracer determinism, ring-wrap, allocation and parity pins for the
// tracing layer (DESIGN.md §7.2):
//  * recording a span performs zero heap allocations in any mode;
//  * disabled tracers record nothing;
//  * the ring keeps the newest events and the totals stay exact after
//    a wrap;
//  * Chrome export fragments are byte-identical at --jobs 1 vs 4;
//  * the span-derived Fig. 20 accounting matches the legacy host
//    charged-ns / ServerStats counters exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util/micro.hpp"
#include "bench_util/sweep.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

// Counting operator new: lets the tests assert the record hot path is
// allocation-free (the same discipline engine_perf gates globally).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace prdma {
namespace {

TEST(Tracer, DisabledRecordsNothing) {
  trace::Tracer t;  // default kOff, nothing preallocated
  t.span(trace::Component::kSenderSw, 1, 100, 200);
  t.counter(trace::Component::kRnicSram, 50, 4096);
  EXPECT_EQ(t.total_ns(trace::Component::kSenderSw), 0u);
  EXPECT_EQ(t.samples(trace::Component::kRnicSram), 0u);
  EXPECT_EQ(t.events_recorded(), 0u);
  EXPECT_FALSE(t.enabled());
}

TEST(Tracer, RecordingAllocatesNothing) {
  trace::Tracer t;
  t.enable(trace::Mode::kFull, 1024);  // all storage preallocated here
  const std::uint64_t before = g_allocs.load();
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    t.span(trace::Component::kRnicDma, i, i * 10, i * 10 + 5,
           static_cast<std::uint16_t>(i % 4));
    t.counter(trace::Component::kRnicSram, i * 10, i);
  }
  EXPECT_EQ(g_allocs.load(), before);
  EXPECT_EQ(t.samples(trace::Component::kRnicDma), 10'000u);
}

TEST(Tracer, DisabledSpanAllocatesNothing) {
  trace::Tracer t;
  const std::uint64_t before = g_allocs.load();
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    t.span(trace::Component::kWorker, i, i, i + 1);
  }
  EXPECT_EQ(g_allocs.load(), before);
}

TEST(Tracer, RingWrapKeepsNewestAndExactTotals) {
  trace::Tracer t;
  t.enable(trace::Mode::kFull, 8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    t.span(trace::Component::kNetFlight, i, i * 100, i * 100 + 7);
  }
  EXPECT_EQ(t.events_recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 8u);
  // Oldest-first view of the newest 8 events: corr 12..19.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].corr, 12 + i);
  }
  // Totals never wrap: 20 spans of 7 ns each.
  EXPECT_EQ(t.total_ns(trace::Component::kNetFlight), 20u * 7u);
  EXPECT_EQ(t.samples(trace::Component::kNetFlight), 20u);
}

TEST(Tracer, ComponentNamesCoverEveryPredefinedComponent) {
  // Every enum value has a distinct, non-empty name and a Chrome
  // category from the fixed set the trace export groups by.
  const std::set<std::string_view> categories{"host", "net", "rnic",
                                              "rpc",  "mem", "sim"};
  std::set<std::string_view> names;
  for (trace::ComponentId id = 0; id < trace::kPredefinedComponents; ++id) {
    const std::string_view name = trace::component_name(id);
    EXPECT_FALSE(name.empty()) << id;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(trace::component_name(static_cast<trace::Component>(id)), name);
    EXPECT_TRUE(categories.count(trace::component_category(id)) == 1)
        << name << ": " << trace::component_category(id);
  }
  EXPECT_EQ(names.size(), trace::kPredefinedComponents);
  EXPECT_EQ(trace::component_name(trace::Component::kRnicDma), "rnic_dma");
  EXPECT_EQ(trace::component_category(trace::to_id(trace::Component::kRnicDma)),
            "rnic");
}

TEST(TraceExport, FragmentContainsSpansCountersAndMetadata) {
  trace::Tracer t;
  t.enable(trace::Mode::kFull, 64);
  t.span(trace::Component::kOpPersist, 7, 1'000, 3'500, 2);
  t.counter(trace::Component::kRnicSram, 2'000, 4096, 1);
  const std::string frag = trace::chrome_fragment(t, 3, "wflush-rpc");
  EXPECT_NE(frag.find("\"process_name\""), std::string::npos);
  EXPECT_NE(frag.find("wflush-rpc"), std::string::npos);
  EXPECT_NE(frag.find("\"op_persist\""), std::string::npos);
  EXPECT_NE(frag.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(frag.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(frag.find("\"rnic_sram\""), std::string::npos);
  // 1000 ns -> "1.000" us, duration 2500 ns -> "2.500" us.
  EXPECT_NE(frag.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(frag.find("\"dur\":2.500"), std::string::npos);

  const std::string doc = trace::wrap_fragments(frag);
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(doc.substr(doc.size() - 3), "]}\n");
}

bench::MicroConfig small_cell(trace::Mode mode, std::uint32_t pid) {
  bench::MicroConfig cfg;
  cfg.object_size = 1024;
  cfg.ops = 300;
  cfg.trace_mode = mode;
  cfg.trace_pid = pid;
  return cfg;
}

TEST(TraceDeterminism, FragmentsByteIdenticalAcrossJobs) {
  std::vector<bench::MicroCell> cells;
  std::uint32_t pid = 1;
  for (const auto sys : {rpcs::System::kWFlushRpc, rpcs::System::kFaRM,
                         rpcs::System::kSRFlushRpc}) {
    cells.push_back({sys, small_cell(trace::Mode::kFull, pid++)});
  }

  bench::SweepRunner serial(1);
  bench::SweepRunner parallel(4);
  const auto a = bench::run_micro_cells(serial, cells);
  const auto b = bench::run_micro_cells(parallel, cells);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(a[i].trace_json.empty());
    EXPECT_EQ(a[i].trace_json, b[i].trace_json) << "cell " << i;
    EXPECT_EQ(a[i].ops_completed, b[i].ops_completed);
    EXPECT_EQ(a[i].duration, b[i].duration);
    EXPECT_DOUBLE_EQ(a[i].sender_sw_ns, b[i].sender_sw_ns);
    EXPECT_DOUBLE_EQ(a[i].receiver_sw_ns, b[i].receiver_sw_ns);
  }
}

TEST(TraceParity, SpanAccountingMatchesCounterFallback) {
  // The Fig. 20 regression pin: the span-derived sender/receiver
  // software costs (tracing on) equal the counter-fallback accounting
  // run_micro uses with tracing off, for both a durable RPC and a
  // traditional baseline.
  for (const auto sys : {rpcs::System::kWFlushRpc, rpcs::System::kSFlushRpc,
                         rpcs::System::kFaRM, rpcs::System::kFaSST}) {
    const auto spans =
        bench::run_micro(sys, small_cell(trace::Mode::kCounters, 1));
    const auto fallback =
        bench::run_micro(sys, small_cell(trace::Mode::kOff, 1));
    ASSERT_GT(spans.ops_completed, 0u);
    ASSERT_EQ(spans.ops_completed, fallback.ops_completed);
    EXPECT_DOUBLE_EQ(spans.sender_sw_ns, fallback.sender_sw_ns)
        << rpcs::name_of(sys);
    EXPECT_DOUBLE_EQ(spans.receiver_sw_ns, fallback.receiver_sw_ns)
        << rpcs::name_of(sys);
    EXPECT_GT(spans.sender_sw_ns, 0.0);
    // Breakdown carries the same totals under the shared component ids.
    const auto ops = spans.ops_completed;
    EXPECT_DOUBLE_EQ(spans.breakdown.mean_ns(trace::Component::kSenderSw, ops),
                     spans.sender_sw_ns);
  }
}

TEST(TraceParity, TracingModeDoesNotChangeTheSimulation) {
  const auto off =
      bench::run_micro(rpcs::System::kWFlushRpc,
                       small_cell(trace::Mode::kOff, 1));
  const auto counters =
      bench::run_micro(rpcs::System::kWFlushRpc,
                       small_cell(trace::Mode::kCounters, 1));
  const auto full =
      bench::run_micro(rpcs::System::kWFlushRpc,
                       small_cell(trace::Mode::kFull, 1));
  EXPECT_EQ(off.sim_events, counters.sim_events);
  EXPECT_EQ(off.sim_events, full.sim_events);
  EXPECT_EQ(off.duration, counters.duration);
  EXPECT_EQ(off.duration, full.duration);
  EXPECT_EQ(off.ops_completed, full.ops_completed);
}

}  // namespace
}  // namespace prdma
