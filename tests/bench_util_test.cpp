// Tests for the benchmark harness: parameter derivation, the
// micro-benchmark driver (including whole-stack determinism), table
// printing and flag parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/flags.hpp"
#include "bench_util/json.hpp"
#include "bench_util/micro.hpp"
#include "bench_util/report.hpp"
#include "bench_util/sweep.hpp"
#include "bench_util/table.hpp"

namespace prdma::bench {
namespace {

// ------------------------------------------------------------ params_for

TEST(ParamsFor, SizesPmToFitStoreAndLogs) {
  MicroConfig cfg;
  cfg.object_size = 64 * 1024;
  cfg.clients = 10;
  const auto p = params_for(cfg);
  core::LogLayout lay;
  lay.slots = p.log_slots;
  lay.payload_capacity = p.max_payload;
  const std::uint64_t need =
      p.object_count * p.max_payload + 10 * lay.total_bytes();
  EXPECT_GE(p.memory.pm_capacity, need);
}

TEST(ParamsFor, LargeObjectsShrinkTheStore) {
  MicroConfig small;
  small.object_size = 1024;
  MicroConfig large;
  large.object_size = 64 * 1024;
  EXPECT_EQ(effective_objects(small), 50'000u);
  EXPECT_LT(effective_objects(large), 50'000u);
  EXPECT_GE(effective_objects(large), 64u);
}

TEST(ParamsFor, HeavyLoadSetsProcessing) {
  MicroConfig cfg;
  cfg.heavy_load = true;
  EXPECT_EQ(params_for(cfg).rpc_processing, 100 * sim::kMicrosecond);
  cfg.heavy_load = false;
  EXPECT_EQ(params_for(cfg).rpc_processing, 0u);
}

TEST(ParamsFor, KnobsPropagate) {
  MicroConfig cfg;
  cfg.net_load = 0.5;
  cfg.ddio = true;
  cfg.emulate_flush = false;
  cfg.sflush_addressing_us = 3;
  const auto p = params_for(cfg);
  EXPECT_DOUBLE_EQ(p.link.background_load, 0.5);
  EXPECT_TRUE(p.rnic.ddio);
  EXPECT_FALSE(p.rnic.emulate_flush);
  EXPECT_EQ(p.rnic.sflush_addressing, 3 * sim::kMicrosecond);
}

// -------------------------------------------------------------- run_micro

TEST(RunMicro, CompletesAllOpsAndMeasures) {
  MicroConfig cfg;
  cfg.object_size = 1024;
  cfg.ops = 200;
  const auto res = run_micro(rpcs::System::kFaRM, cfg);
  EXPECT_EQ(res.ops_completed, 200u);
  EXPECT_GT(res.kops, 0.0);
  EXPECT_GT(res.avg_us(), 0.0);
  EXPECT_GE(res.p99_us(), res.p95_us());
  EXPECT_EQ(res.server.ops_processed, 200u);
  EXPECT_GT(res.sender_sw_ns, 0.0);
  EXPECT_GT(res.receiver_sw_ns, 0.0);
}

TEST(RunMicro, DeterministicAcrossRuns) {
  MicroConfig cfg;
  cfg.object_size = 512;
  cfg.ops = 150;
  cfg.seed = 77;
  const auto a = run_micro(rpcs::System::kWFlushRpc, cfg);
  const auto b = run_micro(rpcs::System::kWFlushRpc, cfg);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_DOUBLE_EQ(a.kops, b.kops);
  EXPECT_EQ(a.latency.p99(), b.latency.p99());
}

TEST(RunMicro, SeedChangesOutcome) {
  MicroConfig cfg;
  cfg.object_size = 512;
  cfg.ops = 150;
  cfg.seed = 1;
  const auto a = run_micro(rpcs::System::kFaRM, cfg);
  cfg.seed = 2;
  const auto b = run_micro(rpcs::System::kFaRM, cfg);
  EXPECT_NE(a.duration, b.duration);
}

TEST(RunMicro, DurableWritesCompleteAtPersistVisibility) {
  MicroConfig cfg;
  cfg.object_size = 1024;
  cfg.ops = 100;
  cfg.read_ratio = 0.0;
  cfg.heavy_load = true;
  const auto res = run_micro(rpcs::System::kWFlushRpc, cfg);
  EXPECT_GT(res.durable_latency.count(), 0u);
  // Persist visibility is far below the 100 us processing injection.
  EXPECT_LT(res.durable_latency.mean(), 60'000.0);
}

TEST(RunMicro, MultipleClientsShareTheServer) {
  MicroConfig cfg;
  cfg.object_size = 256;
  cfg.ops = 300;
  cfg.clients = 3;
  const auto res = run_micro(rpcs::System::kOctopus, cfg);
  EXPECT_EQ(res.ops_completed, 300u);
}

TEST(RunMicro, BatchMultipliesProcessedOps) {
  MicroConfig cfg;
  cfg.object_size = 512;
  cfg.ops = 40;  // 40 batched calls of 4 sub-ops
  cfg.batch = 4;
  cfg.read_ratio = 0.0;
  const auto res = run_micro(rpcs::System::kWFlushRpc, cfg);
  EXPECT_EQ(res.server.ops_processed, 160u);
}

TEST(RunMicro, ShadowReadPathMatchesFullAndCopiesOnlyHeaders) {
  // Read-only cells read objects no op has written: in kShadow they
  // come back as pristine generated content (DESIGN.md §7.3), so the
  // simulation must stay identical to kFull while the bytes copied per
  // op stay header-sized, whatever the object size.
  constexpr double kHeaderBytesPerOp = 1024;
  for (const auto sys : {rpcs::System::kFaRM, rpcs::System::kWFlushRpc}) {
    std::vector<std::uint64_t> copied;  // kShadow, per object size
    for (const std::uint32_t size : {64u, 65536u}) {
      MicroConfig cfg;
      cfg.object_size = size;
      cfg.ops = 200;
      cfg.read_ratio = 1.0;
      cfg.content_mode = mem::ContentMode::kFull;
      const auto full = run_micro(sys, cfg);
      cfg.content_mode = mem::ContentMode::kShadow;
      const auto shadow = run_micro(sys, cfg);
      const std::string cell =
          std::string(rpcs::name_of(sys)) + "/" + std::to_string(size);
      EXPECT_EQ(shadow.ops_completed, 200u) << cell;
      EXPECT_EQ(shadow.ops_completed, full.ops_completed) << cell;
      EXPECT_EQ(shadow.duration, full.duration) << cell;
      EXPECT_EQ(shadow.sim_events, full.sim_events) << cell;
      EXPECT_DOUBLE_EQ(shadow.kops, full.kops) << cell;
      EXPECT_EQ(shadow.latency.count(), full.latency.count()) << cell;
      EXPECT_EQ(shadow.latency.sum(), full.latency.sum()) << cell;
      EXPECT_EQ(shadow.latency.p99(), full.latency.p99()) << cell;
      EXPECT_EQ(shadow.read_latency.sum(), full.read_latency.sum()) << cell;
      EXPECT_EQ(shadow.server.ops_processed, full.server.ops_processed) << cell;
      EXPECT_EQ(shadow.server.critical_sw_ns, full.server.critical_sw_ns)
          << cell;
      EXPECT_DOUBLE_EQ(shadow.sender_sw_ns, full.sender_sw_ns) << cell;
      EXPECT_DOUBLE_EQ(shadow.receiver_sw_ns, full.receiver_sw_ns) << cell;
      EXPECT_EQ(shadow.pool.acquires, full.pool.acquires) << cell;
      const double copied_per_op =
          static_cast<double>(shadow.bytes_copied) / 200.0;
      EXPECT_LT(copied_per_op, kHeaderBytesPerOp) << cell;
      EXPECT_GT(static_cast<double>(full.bytes_copied) / 200.0, size) << cell;
      copied.push_back(shadow.bytes_copied);
    }
    EXPECT_EQ(copied[0], copied[1])
        << rpcs::name_of(sys) << ": kShadow copies must not scale with size";
  }
}

// ----------------------------------------------------------------- report

TEST(Report, BreakdownEmitsPopulatedComponentsInNameOrder) {
  // A small traced durable cell: the row's breakdown object lists only
  // the components that recorded time, keyed by name in alphabetical
  // order, with mean ns per op and share of the summed total.
  MicroConfig cfg;
  cfg.object_size = 1024;
  cfg.ops = 100;
  cfg.read_ratio = 0.5;
  const auto res = run_micro(rpcs::System::kWFlushRpc, cfg);
  const std::string row = micro_result_json("cell", res).dump(0);
  const std::size_t at = row.find("\"breakdown\":");
  ASSERT_NE(at, std::string::npos) << row;
  EXPECT_EQ(row.substr(at),
            R"("breakdown":{)"
            R"("data_persist":{"mean_ns":1919.63,"share":0.1414611032},)"
            R"("host_sw":{"mean_ns":1979.19,"share":0.1458501903},)"
            R"("log_append":{"mean_ns":305.94,"share":0.02254528733},)"
            R"("net_flight":{"mean_ns":6012.92,"share":0.4431032526},)"
            R"("net_serialize":{"mean_ns":298.51,"share":0.02199775682},)"
            R"("receiver_sw":{"mean_ns":347.12,"share":0.02557991808},)"
            R"("rnic_dma":{"mean_ns":1490.72,"share":0.109853928},)"
            R"("rnic_wflush":{"mean_ns":87.71,"share":0.00646351295},)"
            R"("sender_sw":{"mean_ns":680.43,"share":0.0501421516},)"
            R"("worker":{"mean_ns":447.85,"share":0.03300289904}}})");
}

// ----------------------------------------------------------------- table

TEST(TablePrinter, AlignsColumnsAndSeparates) {
  TablePrinter t({"Name", "X"});
  t.add_row({"longer-name", "1.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Header pads to the widest cell.
  EXPECT_NE(out.find(" Name        "), std::string::npos);
}

TEST(TablePrinter, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(10.0, 0), "10");
}

// ----------------------------------------------------------------- flags

TEST(Flags, ParsesKeyValueAndBoolean) {
  const char* argv[] = {"prog", "--ops=500", "--seed=9", "--quick",
                        "ignored"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.u64("ops", 1), 500u);
  EXPECT_EQ(f.u64("seed", 1), 9u);
  EXPECT_TRUE(f.flag("quick"));
  EXPECT_FALSE(f.flag("missing"));
  EXPECT_EQ(f.u64("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(f.f64("missing", 1.5), 1.5);
}

TEST(Flags, ParsesReals) {
  const char* argv[] = {"prog", "--load=0.85"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(f.f64("load", 0.0), 0.85);
}

TEST(Flags, TypedStringAccessor) {
  const char* argv[] = {"prog", "--trace=out.json"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EQ(f.str("trace", ""), "out.json");
  EXPECT_EQ(f.str("json", "fallback"), "fallback");
}

TEST(Flags, RecordPathsAddJsonToOut) {
  // A bench that writes one record document (rack_scale) writes it to
  // --out, or its default, and to --json as well when that names
  // another file.
  const auto paths = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return Flags(static_cast<int>(argv.size()), const_cast<char**>(argv.data()))
        .record_paths("BENCH_x.json");
  };
  using V = std::vector<std::string>;
  EXPECT_EQ(paths({}), V{"BENCH_x.json"});
  EXPECT_EQ(paths({"--json=r.json"}), (V{"BENCH_x.json", "r.json"}));
  EXPECT_EQ(paths({"--out=o.json", "--json=r.json"}), (V{"o.json", "r.json"}));
  EXPECT_EQ(paths({"--out=o.json", "--json=o.json"}), V{"o.json"});
  EXPECT_EQ(paths({"--out=o.json"}), V{"o.json"});
}

TEST(Flags, CommonRegistryCoversSharedKnobs) {
  const auto& specs = Flags::common_flags();
  for (const char* name : {"seed", "ops", "jobs", "json", "trace", "quick",
                           "help"}) {
    const bool present = std::any_of(
        specs.begin(), specs.end(),
        [name](const FlagSpec& s) { return s.name == name; });
    EXPECT_TRUE(present) << name;
  }
}

TEST(Flags, GeneratedHelpListsExtrasAndCommons) {
  const char* argv[] = {"prog", "--help"};
  Flags f(2, const_cast<char**>(argv),
          {{"variant", "NAME", "which flush variant to run"}},
          "Demo synopsis line.");
  EXPECT_TRUE(f.help_requested());
  const std::string usage = f.usage();
  EXPECT_NE(usage.find("Usage: prog"), std::string::npos);
  EXPECT_NE(usage.find("Demo synopsis line."), std::string::npos);
  EXPECT_NE(usage.find("--variant=NAME"), std::string::npos);
  EXPECT_NE(usage.find("which flush variant to run"), std::string::npos);
  EXPECT_NE(usage.find("--trace=PATH"), std::string::npos);
  EXPECT_NE(usage.find("--jobs=N"), std::string::npos);
}

// ------------------------------------------------------------------ json

TEST(Json, DumpsOrderedDeterministicDocuments) {
  Json doc = Json::object();
  doc.set("b_first", Json::num(std::uint64_t{3}))
      .set("a_second", Json::str("x\"y"))
      .set("arr", Json::array().push(Json::num(1.5)).push(Json::boolean(true)));
  const std::string compact = doc.dump(0);
  // Insertion order, not key order.
  EXPECT_LT(compact.find("b_first"), compact.find("a_second"));
  EXPECT_NE(compact.find("\"x\\\"y\""), std::string::npos);
  EXPECT_EQ(compact, doc.dump(0));  // stable
  EXPECT_NE(doc.dump(2).find('\n'), std::string::npos);
}

TEST(Json, EmitWritesFile) {
  const std::string path = "bench_util_test_emit.json";
  Json doc = Json::object();
  doc.set("bench", Json::str("unit"));
  ASSERT_TRUE(emit_json(path, doc));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"bench\": \"unit\""), std::string::npos);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- SweepRunner

TEST(SweepRunner, JobsFromFlagsDefaultsToSerial) {
  const char* argv[] = {"prog"};
  EXPECT_EQ(jobs_from(Flags(1, const_cast<char**>(argv))), 1u);
  const char* argv4[] = {"prog", "--jobs=4"};
  EXPECT_EQ(jobs_from(Flags(2, const_cast<char**>(argv4))), 4u);
  const char* argv0[] = {"prog", "--jobs=0"};
  // 0 = hardware threads clamped to [2, 4], resolved by the runner.
  EXPECT_EQ(SweepRunner(jobs_from(Flags(2, const_cast<char**>(argv0)))).jobs(),
            SweepRunner::default_jobs());
}

TEST(SweepRunner, MapReturnsResultsInSubmissionOrder) {
  SweepRunner runner(4);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<int> out =
      runner.map(items, [](const int& v) { return v * 3; });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(SweepRunner, MapNParityAcrossJobCounts) {
  const auto cell = [](std::size_t i) {
    // Deterministic per-cell work with its own state, as the contract
    // (DESIGN.md §7.1) requires of every sweep cell.
    std::uint64_t h = 0x9E3779B97F4A7C15ull + i;
    for (int r = 0; r < 1000; ++r) h = h * 6364136223846793005ull + i;
    return h;
  };
  SweepRunner serial(1);
  SweepRunner wide(8);
  EXPECT_EQ(serial.map_n(64, cell), wide.map_n(64, cell));
}

TEST(SweepRunner, RunMicroCellsMatchesSerialRunMicro) {
  // The real thing end-to-end: whole simulations on worker threads must
  // merge byte-identically to the serial loop.
  std::vector<MicroCell> cells;
  for (const auto sys :
       {rpcs::System::kWFlushRpc, rpcs::System::kFaRM, rpcs::System::kSFlushRpc,
        rpcs::System::kWFlushRpc}) {
    MicroConfig cfg;
    cfg.object_size = 512;
    cfg.ops = 120;
    cfg.seed = 5 + cells.size();
    cells.push_back({sys, cfg});
  }
  SweepRunner parallel(4);
  const auto par = run_micro_cells(parallel, cells);
  ASSERT_EQ(par.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto ref = run_micro(cells[i].system, cells[i].cfg);
    EXPECT_EQ(par[i].duration, ref.duration) << i;
    EXPECT_EQ(par[i].ops_completed, ref.ops_completed) << i;
    EXPECT_DOUBLE_EQ(par[i].kops, ref.kops) << i;
    EXPECT_EQ(par[i].sim_events, ref.sim_events) << i;
    EXPECT_EQ(par[i].latency.p99(), ref.latency.p99()) << i;
  }
}

}  // namespace
}  // namespace prdma::bench
