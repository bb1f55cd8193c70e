// Tests for the nine baseline RPC systems (Fig. 2 / Table 1) and the
// system registry. Baseline semantics under test: completion arrives
// only after the server persisted AND processed the request — the
// coupling the paper's durable RPCs remove.

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "core/wire.hpp"
#include "mem/device.hpp"
#include "rpcs/registry.hpp"
#include "sim/task.hpp"

namespace prdma::rpcs {
namespace {

using namespace prdma::sim::literals;
using core::Cluster;
using core::ModelParams;
using core::RpcDeployment;
using core::RpcOp;
using core::RpcRequest;
using core::RpcResult;
using sim::SimTime;
using sim::Task;

ModelParams small_params() {
  ModelParams p;
  p.memory.pm_capacity = 64ull << 20;
  p.memory.dram_capacity = 32ull << 20;
  p.max_payload = 2048;
  p.object_count = 128;
  return p;
}

struct Deployment {
  std::unique_ptr<Cluster> cluster;
  RpcDeployment dep;
};

Deployment deploy(System s, ModelParams p, std::size_t clients = 1) {
  Deployment d;
  d.cluster = std::make_unique<Cluster>(p, 1 + clients);
  std::vector<std::size_t> idx;
  for (std::size_t i = 1; i <= clients; ++i) idx.push_back(i);
  d.dep = make_deployment(*d.cluster, s, 0, idx, p);
  return d;
}

// -------------------------------------------------------------- registry

TEST(Registry, ThirteenSystems) {
  EXPECT_EQ(all_systems().size(), 13u);
  EXPECT_EQ(name_of(System::kWFlushRpc), "WFlush-RPC");
  EXPECT_EQ(name_of(System::kDaRPC), "DaRPC");
  EXPECT_TRUE(info_of(System::kSFlushRpc).durable);
  EXPECT_FALSE(info_of(System::kFaRM).durable);
  EXPECT_EQ(info_of(System::kFaSST).transport, "UD");
  EXPECT_EQ(info_of(System::kHerd).transport, "UC");
  EXPECT_TRUE(info_of(System::kLITE).kernel_level);
}

TEST(Registry, EvaluationLineupGatesFasstByMtu) {
  const auto small = evaluation_lineup(1024);
  const auto large = evaluation_lineup(64 * 1024);
  const auto has = [](const std::vector<System>& v, System s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  EXPECT_TRUE(has(small, System::kFaSST));
  EXPECT_FALSE(has(large, System::kFaSST));
  EXPECT_TRUE(has(large, System::kWFlushRpc));
  EXPECT_EQ(small.size(), 11u);
}

// ------------------------------------------------- all baselines, e2e

class BaselineE2E : public ::testing::TestWithParam<System> {};

TEST_P(BaselineE2E, WriteThenReadRoundTrip) {
  auto d = deploy(GetParam(), small_params());
  RpcResult w, r;
  sim::spawn([](Deployment& dep, RpcResult& wo, RpcResult& ro) -> Task<> {
    wo = co_await dep.dep.clients[0]->call(RpcRequest{RpcOp::kWrite, 7, 777});
    ro = co_await dep.dep.clients[0]->call(RpcRequest{RpcOp::kRead, 7, 777});
  }(d, w, r));
  d.cluster->sim().run();

  EXPECT_TRUE(w.ok) << name_of(GetParam());
  EXPECT_TRUE(r.ok);
  EXPECT_GT(w.latency(), 0u);
  EXPECT_GT(r.latency(), 0u);
  EXPECT_EQ(w.durable_at, w.completed_at)
      << "baseline writes are durable exactly at completion";
  EXPECT_EQ(d.dep.server->stats().ops_processed, 2u);
}

TEST_P(BaselineE2E, WriteIsDurableAtCompletion) {
  // Crash the server right after the client's completion: the object
  // data must survive (the baselines' "natural" durability, §3).
  auto d = deploy(GetParam(), small_params());
  auto* srv = d.dep.server.get();
  bool crashed = false;
  sim::spawn([](Deployment& dep, bool& flag) -> Task<> {
    const auto res = co_await dep.dep.clients[0]->call(
        RpcRequest{RpcOp::kWrite, 3, 512});
    EXPECT_TRUE(res.ok);
    dep.cluster->node(0).crash();
    flag = true;
  }(d, crashed));
  d.cluster->sim().run();
  ASSERT_TRUE(crashed);

  auto* base = dynamic_cast<BaselineServer*>(srv);
  ASSERT_NE(base, nullptr);
  std::vector<std::byte> got(512);
  d.cluster->node(0).mem().pm().peek(base->store().addr_of(3), got);
  // Payload pattern for seq 1.
  for (std::uint32_t i = 0; i < 512; ++i) {
    ASSERT_EQ(got[i], static_cast<std::byte>((1 * 131 + i * 7) & 0xFF))
        << name_of(GetParam()) << " byte " << i;
  }
}

TEST_P(BaselineE2E, CompletionWaitsForProcessing) {
  // Heavy load: injected 100 µs processing sits on the client's
  // critical path for every baseline — the cost the durable RPCs dodge.
  ModelParams p = small_params();
  p.rpc_processing = 100_us;
  auto d = deploy(GetParam(), p);
  RpcResult res;
  sim::spawn([](Deployment& dep, RpcResult& out) -> Task<> {
    out = co_await dep.dep.clients[0]->call(RpcRequest{RpcOp::kWrite, 1, 256});
  }(d, res));
  d.cluster->sim().run();
  EXPECT_TRUE(res.ok);
  // > 85 µs: the injected 100 µs processing carries lognormal jitter.
  EXPECT_GT(res.latency(), 85_us) << name_of(GetParam());
}

TEST_P(BaselineE2E, ManySequentialOpsComplete) {
  auto d = deploy(GetParam(), small_params());
  int ok_count = 0;
  sim::spawn([](Deployment& dep, int& n) -> Task<> {
    for (int i = 0; i < 50; ++i) {
      const auto res = co_await dep.dep.clients[0]->call(RpcRequest{
          i % 2 == 0 ? RpcOp::kWrite : RpcOp::kRead,
          static_cast<std::uint64_t>(i % 16), 128});
      if (res.ok) ++n;
    }
  }(d, ok_count));
  d.cluster->sim().run();
  EXPECT_EQ(ok_count, 50) << name_of(GetParam());
  EXPECT_EQ(d.dep.server->stats().ops_processed, 50u);
}

TEST_P(BaselineE2E, TwoClientsShareOneServer) {
  auto d = deploy(GetParam(), small_params(), 2);
  int done = 0;
  for (int c = 0; c < 2; ++c) {
    sim::spawn([](Deployment& dep, int client, int& n) -> Task<> {
      for (int i = 0; i < 10; ++i) {
        const auto res = co_await dep.dep.clients[client]->call(
            RpcRequest{RpcOp::kWrite, static_cast<std::uint64_t>(i), 64});
        if (res.ok) ++n;
      }
    }(d, c, done));
  }
  d.cluster->sim().run();
  EXPECT_EQ(done, 20) << name_of(GetParam());
  EXPECT_EQ(d.dep.server->stats().ops_processed, 20u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselineE2E,
    ::testing::Values(System::kL5, System::kRFP, System::kFaSST,
                      System::kOctopus, System::kFaRM, System::kScaleRPC,
                      System::kDaRPC, System::kHerd, System::kLITE),
    [](const auto& inf) { return std::string(name_of(inf.param)); });

// -------------------------------------------------- system specifics

TEST(ScaleRpc, WarmupAddsPeriodicCost) {
  // With warm-up every 5 ops, op latencies show a periodic spike.
  ModelParams p = small_params();
  p.scalerpc_process_per_warmup = 5;
  auto d = deploy(System::kScaleRPC, p);
  std::vector<SimTime> lat;
  sim::spawn([](Deployment& dep, std::vector<SimTime>& out) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      const auto res = co_await dep.dep.clients[0]->call(
          RpcRequest{RpcOp::kWrite, 1, 128});
      out.push_back(res.latency());
    }
  }(d, lat));
  d.cluster->sim().run();
  ASSERT_EQ(lat.size(), 10u);
  // Ops 0 and 5 carry the warm-up exchange; compare to their successors.
  EXPECT_GT(lat[0], lat[1] * 3 / 2);
  EXPECT_GT(lat[5], lat[6] * 3 / 2);
}

TEST(Lite, KernelCostsMakeItSlowerThanOctopus) {
  ModelParams p = small_params();
  SimTime lite_lat = 0;
  SimTime octo_lat = 0;
  for (System s : {System::kLITE, System::kOctopus}) {
    auto d = deploy(s, p);
    SimTime out = 0;
    sim::spawn([](Deployment& dep, SimTime& o) -> Task<> {
      const auto res = co_await dep.dep.clients[0]->call(
          RpcRequest{RpcOp::kWrite, 1, 256});
      o = res.latency();
    }(d, out));
    d.cluster->sim().run();
    (s == System::kLITE ? lite_lat : octo_lat) = out;
  }
  EXPECT_GT(lite_lat, octo_lat);
}

TEST(Rfp, ReadPollingCostsExtraRoundTripsUnderProcessing) {
  ModelParams p = small_params();
  p.rpc_processing = 50_us;
  SimTime rfp_lat = 0;
  SimTime farm_lat = 0;
  for (System s : {System::kRFP, System::kFaRM}) {
    auto d = deploy(s, p);
    SimTime out = 0;
    sim::spawn([](Deployment& dep, SimTime& o) -> Task<> {
      const auto res = co_await dep.dep.clients[0]->call(
          RpcRequest{RpcOp::kWrite, 1, 256});
      o = res.latency();
    }(d, out));
    d.cluster->sim().run();
    (s == System::kRFP ? rfp_lat : farm_lat) = out;
  }
  // RFP's client keeps issuing RDMA reads while the server processes;
  // its completion can only land on a poll boundary, at or after FaRM's
  // push-based completion.
  EXPECT_GT(rfp_lat, farm_lat);
}

TEST(Batching, BaselineBatchProcessesAllSubOps) {
  auto d = deploy(System::kDaRPC, small_params());
  RpcResult res;
  sim::spawn([](Deployment& dep, RpcResult& out) -> Task<> {
    std::vector<RpcRequest> batch(8, RpcRequest{RpcOp::kWrite, 0, 128});
    out = co_await dep.dep.clients[0]->call_batch(batch);
  }(d, res));
  d.cluster->sim().run();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(d.dep.server->stats().ops_processed, 8u);
}

TEST(Durability, BaselineVsDurableLatencyUnderHeavyLoad) {
  // The paper's headline comparison in miniature: same workload, heavy
  // processing — the durable RPC's write completion beats the baseline
  // by roughly the processing time.
  ModelParams p = small_params();
  p.rpc_processing = 100_us;
  SimTime farm = 0;
  SimTime wflush = 0;
  for (System s : {System::kFaRM, System::kWFlushRpc}) {
    auto d = deploy(s, p);
    SimTime out = 0;
    sim::spawn([](Deployment& dep, SimTime& o) -> Task<> {
      // A couple of warmup ops, then measure.
      (void)co_await dep.dep.clients[0]->call(RpcRequest{RpcOp::kWrite, 1, 512});
      const auto res = co_await dep.dep.clients[0]->call(
          RpcRequest{RpcOp::kWrite, 2, 512});
      o = res.latency();
    }(d, out));
    d.cluster->sim().run();
    (s == System::kFaRM ? farm : wflush) = out;
  }
  EXPECT_GT(farm, wflush + 80_us)
      << "durable RPC must dodge the 100 µs processing on its critical path";
}

// ------------------------------------------ data-plane A/B stat pins

/// Fingerprint of a short fig08/fig13-style run. Two data-plane
/// configurations are interchangeable iff their pins are identical:
/// any timing or accounting drift shows up in at least one field.
struct RunPin {
  SimTime final_time = 0;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  SimTime latency_sum = 0;
  std::uint64_t ops_processed = 0;
  std::uint64_t pm_bytes_written = 0;
};

RunPin pinned_run(System s, mem::ContentMode mode, std::uint32_t len) {
  ModelParams p = small_params();
  p.memory.content_mode = mode;
  auto d = deploy(s, p);
  RunPin pin;
  sim::spawn([](Deployment& dep, RunPin& out, std::uint32_t n) -> Task<> {
    for (std::uint64_t i = 0; i < 20; ++i) {
      // Mostly writes, every fourth op reads back an object written by
      // an earlier iteration.
      const bool rd = (i % 4 == 3);
      const auto res = co_await dep.dep.clients[0]->call(
          RpcRequest{rd ? RpcOp::kRead : RpcOp::kWrite,
                     static_cast<std::uint32_t>((rd ? i - 1 : i) % 5), n});
      EXPECT_TRUE(res.ok);
      out.latency_sum += res.latency();
      ++out.ops;
    }
  }(d, pin, len));
  d.cluster->sim().run();
  pin.final_time = d.cluster->sim().now();
  pin.events = d.cluster->sim().events_executed();
  pin.ops_processed = d.dep.server->stats().ops_processed;
  pin.pm_bytes_written = d.cluster->node(0).mem().pm().bytes_written();
  return pin;
}

void expect_same_pin(const RunPin& a, const RunPin& b, std::string_view what) {
  EXPECT_EQ(a.final_time, b.final_time) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.ops, b.ops) << what;
  EXPECT_EQ(a.latency_sum, b.latency_sum) << what;
  EXPECT_EQ(a.ops_processed, b.ops_processed) << what;
  EXPECT_EQ(a.pm_bytes_written, b.pm_bytes_written) << what;
}

TEST(DataPlane, ShadowContentModeMatchesFullStats) {
  // Content elision may only drop byte copies — every simulated
  // timing and accounting stat stays byte-identical to kFull.
  for (System s : {System::kWFlushRpc, System::kFaSST, System::kSFlushRpc}) {
    const RunPin full = pinned_run(s, mem::ContentMode::kFull, 1024);
    const RunPin shadow = pinned_run(s, mem::ContentMode::kShadow, 1024);
    expect_same_pin(full, shadow, name_of(s));
  }
}

}  // namespace
}  // namespace prdma::rpcs

namespace prdma::rpcs {
namespace {

class MrEnforcedE2E : public ::testing::TestWithParam<System> {};

TEST_P(MrEnforcedE2E, AllSystemsRunWithRegionProtectionOn) {
  // Every protocol must have registered exactly the regions it uses:
  // with enforcement on, a mixed workload still completes fully.
  ModelParams p = small_params();
  p.rnic.enforce_mr = true;
  auto d = deploy(GetParam(), p);
  int ok_count = 0;
  sim::spawn([](Deployment& dep, int& n) -> Task<> {
    for (int i = 0; i < 20; ++i) {
      const auto res = co_await dep.dep.clients[0]->call(RpcRequest{
          i % 2 == 0 ? RpcOp::kWrite : RpcOp::kRead,
          static_cast<std::uint64_t>(i % 8), 256});
      if (res.ok) ++n;
    }
  }(d, ok_count));
  d.cluster->sim().run();
  EXPECT_EQ(ok_count, 20) << name_of(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, MrEnforcedE2E,
    ::testing::Values(System::kL5, System::kRFP, System::kFaSST,
                      System::kOctopus, System::kFaRM, System::kScaleRPC,
                      System::kDaRPC, System::kHerd, System::kLITE,
                      System::kSRFlushRpc, System::kSFlushRpc,
                      System::kWRFlushRpc, System::kWFlushRpc),
    [](const auto& inf) {
      std::string name{name_of(inf.param)};
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace prdma::rpcs

// ===================================================================
// Crash-path asymmetry (§5.4): after a server power failure,
// traditional baselines must re-send every interrupted request (and
// its data) from the client, while the durable RPCs replay committed
// log entries server-side and re-send nothing that was acknowledged.
// ===================================================================

#include "fault/experiment.hpp"

namespace prdma::rpcs {
namespace {

fault::FailureRunConfig crash_config(std::uint64_t seed) {
  fault::FailureRunConfig cfg;
  cfg.read_ratio = 0.0;  // writes are where durability semantics differ
  cfg.ops = 240;
  cfg.crashes = 2;
  cfg.window = 4;
  cfg.value_size = 2048;
  cfg.seed = seed;
  cfg.heavy_processing = true;  // a real backlog spans the crash instant
  return cfg;
}

class TraditionalCrash : public ::testing::TestWithParam<System> {};

TEST_P(TraditionalCrash, ResendsEverythingReplaysNothing) {
  const auto r = fault::run_with_failures(GetParam(), crash_config(5));
  EXPECT_EQ(r.crashes, 2u);
  EXPECT_EQ(r.ops_completed, 240u);
  EXPECT_GT(r.resends, 0u)
      << "a baseline client must re-drive requests lost in the crash";
  EXPECT_EQ(r.replayed, 0u)
      << "baselines have no redo log to replay from";
}

INSTANTIATE_TEST_SUITE_P(Crash, TraditionalCrash,
                         ::testing::Values(System::kFaRM, System::kL5,
                                           System::kDaRPC, System::kRFP,
                                           System::kScaleRPC,
                                           System::kOctopus, System::kLITE,
                                           System::kHerd, System::kFaSST),
                         [](const auto& info) {
                           return std::string(name_of(info.param));
                         });

TEST(TraditionalRecovery, StaleCompletionCannotCompleteAPostAfterReconnect) {
  // RFP polls the server's result slot with RDMA reads. The server dies
  // with one of those reads in flight; during the outage the client's
  // old QP exhausts its retry budget and delivers a retry-exceeded
  // completion for that read. It belongs to the dead endpoint: no read
  // posted after the reconnect may complete with it.
  ModelParams p = small_params();
  p.rpc_processing = 20_us;  // each call polls the result slot a few times
  p.rnic.retransmit_interval = 10_us;
  p.rnic.retransmit_backoff = 1.0;
  p.rnic.max_retransmits = 2;
  auto d = deploy(System::kRFP, p);
  core::RpcServer& server = *d.dep.server;
  core::RpcClient& client = *d.dep.clients[0];

  RpcResult interrupted;
  int after = 0;
  sim::spawn([](core::RpcClient& cli, RpcResult& out) -> Task<> {
    out = co_await cli.call(RpcRequest{RpcOp::kWrite, 1, 256});
  }(client, interrupted));
  sim::spawn([](Cluster& c, core::RpcServer& srv, core::RpcClient& cli,
                int& ok) -> Task<> {
    co_await sim::delay(c.sim(), 8_us);  // a result-slot read is in flight
    srv.on_crash();
    c.node(0).crash();
    cli.abort_pending();
    co_await sim::delay(c.sim(), 2 * sim::kMillisecond);  // retries run out
    c.node(0).restart();
    co_await srv.recover_and_restart();
    srv.reconnect_client(cli);
    for (int i = 0; i < 8; ++i) {
      const auto res = co_await cli.call(
          RpcRequest{i % 2 == 0 ? RpcOp::kWrite : RpcOp::kRead, 2, 256});
      if (res.ok) ++ok;
    }
  }(*d.cluster, server, client, after));
  d.cluster->sim().run();

  EXPECT_FALSE(interrupted.ok) << "the call the crash cut short must fail";
  EXPECT_EQ(after, 8)
      << "a completion from the pre-crash QP failed a post-reconnect read";
}

class DurableCrash : public ::testing::TestWithParam<System> {};

TEST_P(DurableCrash, ReplaysFromTheLogWithoutDataResend) {
  const auto r = fault::run_with_failures(GetParam(), crash_config(5));
  EXPECT_EQ(r.crashes, 2u);
  EXPECT_EQ(r.ops_completed, 240u);
  EXPECT_GT(r.replayed, 0u)
      << "committed-but-unprocessed entries must replay server-side";
  // At most the in-flight window can need re-sending per crash; the
  // watermark spares everything that reached the log.
  EXPECT_LE(r.resends, 2u * 4u)
      << "the log watermark should spare the client most re-sends";
  EXPECT_EQ(r.oracle_violations, 0u)
      << "the durability oracle audits every crash in the harness";
}

INSTANTIATE_TEST_SUITE_P(Crash, DurableCrash,
                         ::testing::Values(System::kWFlushRpc,
                                           System::kSFlushRpc,
                                           System::kWRFlushRpc,
                                           System::kSRFlushRpc),
                         [](const auto& info) {
                           std::string name(name_of(info.param));
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace prdma::rpcs
