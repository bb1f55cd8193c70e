// Partitioned parallel event engine (src/sim/partitioned_engine.*,
// DESIGN.md §7.5): partition mapping, the conservative epoch loop and
// its per-edge outbox channels, the lookahead-violation guard, the
// fabric's flat link table, the crash-coherence rule — and the
// headline contract: a multi-node micro-benchmark cell is
// byte-identical at --engine-threads 1, 2 and 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util/micro.hpp"
#include "core/node.hpp"
#include "net/fabric.hpp"
#include "rpcs/registry.hpp"
#include "sim/partitioned_engine.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "workload/client_pool.hpp"

namespace prdma {
namespace {

using sim::EngineConfig;
using sim::PartitionedEngine;
using Partitioning = sim::EngineConfig::Partitioning;

EngineConfig per_node(unsigned threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.partitioning = Partitioning::kPerNode;
  return cfg;
}

// ------------------------------------------------- partition mapping

TEST(Engine, DefaultConfigIsOnePartitionRunLikeAPlainSimulator) {
  PartitionedEngine eng(4, {});  // 1 thread, kAuto -> single partition
  EXPECT_EQ(eng.partitions(), 1u);
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(eng.partition_of_node(n), 0u);
    EXPECT_EQ(&eng.shard_of_node(n), &eng.shard(0));
  }
  std::vector<int> order;
  eng.shard(0).schedule_at(50, [&order] { order.push_back(2); });
  eng.shard_of_node(3).schedule_at(10, [&order] { order.push_back(1); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.events_executed(), 2u);
}

TEST(Engine, AutoPartitioningShardsPerNodeOnlyWhenThreaded) {
  EngineConfig threaded;
  threaded.threads = 4;
  PartitionedEngine eng(6, threaded);
  EXPECT_EQ(eng.partitions(), 6u);
  for (std::size_t n = 0; n < 6; ++n) EXPECT_EQ(eng.partition_of_node(n), n);

  EngineConfig single;
  single.threads = 4;
  single.partitioning = Partitioning::kSingle;
  PartitionedEngine forced(6, single);
  EXPECT_EQ(forced.partitions(), 1u);
}

// --------------------------------------- outbox channels & determinism

TEST(Engine, CrossPartitionTiesMergeInSrcThenPushOrder) {
  // Four same-timestamp events from three source partitions: the merge
  // must order them by (source partition, push index) — never by which
  // worker got there first.
  PartitionedEngine eng(3, per_node(2));
  eng.set_lookahead(10);
  std::vector<int> order;
  eng.schedule_remote(2, 0, 5, [&order] { order.push_back(20); });
  eng.schedule_remote(1, 0, 5, [&order] { order.push_back(10); });
  eng.schedule_remote(2, 0, 5, [&order] { order.push_back(21); });
  eng.schedule_remote(0, 0, 5, [&order] { order.push_back(1); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 20, 21}));
  EXPECT_EQ(eng.events_executed(), 4u);
}

TEST(Engine, CrossPartitionChannelsStayFifoUnderConcurrentSenders) {
  // Three source partitions each stream 64 numbered events into
  // partition 0 from their own worker; every (src -> 0) channel must
  // deliver its sequence in push order across many epochs.
  constexpr int kSteps = 64;
  constexpr sim::SimTime kLookahead = 8;
  PartitionedEngine eng(4, per_node(4));
  eng.set_lookahead(kLookahead);
  std::array<std::vector<int>, 4> got;
  std::vector<std::shared_ptr<std::function<void(int)>>> steps;
  for (std::size_t src = 1; src < 4; ++src) {
    auto step = std::make_shared<std::function<void(int)>>();
    steps.push_back(step);
    *step = [&eng, &got, src, step](int i) {
      sim::Simulator& s = eng.shard(src);
      // now + lookahead is always at/above the epoch horizon: legal.
      eng.schedule_remote(src, 0, s.now() + kLookahead,
                          [&got, src, i] { got[src].push_back(i); });
      if (i + 1 < kSteps) {
        s.schedule_at(s.now() + 3, [step, i] { (*step)(i + 1); });
      }
    };
    eng.shard(src).schedule_at(1 + src, [step] { (*step)(0); });
  }
  eng.run();
  // Each step captures its own shared_ptr: break the cycles.
  for (auto& step : steps) *step = nullptr;
  for (std::size_t src = 1; src < 4; ++src) {
    ASSERT_EQ(got[src].size(), static_cast<std::size_t>(kSteps)) << src;
    for (int i = 0; i < kSteps; ++i) EXPECT_EQ(got[src][i], i) << src;
  }
}

TEST(Engine, LookaheadViolationThrows) {
  // An event at t=100 may not schedule into a sibling partition below
  // the epoch horizon (100 + L) — conservative order would break.
  PartitionedEngine eng(2, per_node(2));
  eng.set_lookahead(10);
  eng.shard(0).schedule_at(100, [&eng] {
    eng.schedule_remote(0, 1, 105, [] {});
  });
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, MultiPartitionRunRequiresALookahead) {
  PartitionedEngine eng(2, per_node(2));
  eng.shard(0).schedule_at(1, [] {});
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, EpochHooksRunOnEveryPartitionIncludingSerial) {
  PartitionedEngine serial(2, {});
  int serial_runs = 0;
  serial.set_epoch_hook(0, [&serial_runs] { ++serial_runs; });
  serial.run();
  EXPECT_EQ(serial_runs, 1);

  PartitionedEngine eng(2, per_node(2));
  eng.set_lookahead(5);
  std::array<int, 2> runs{0, 0};
  eng.set_epoch_hook(0, [&runs] { ++runs[0]; });
  eng.set_epoch_hook(1, [&runs] { ++runs[1]; });
  eng.shard(0).schedule_at(3, [] {});
  eng.shard(1).schedule_at(40, [] {});  // forces several epochs
  eng.run();
  EXPECT_GE(runs[0], 1);
  EXPECT_GE(runs[1], 1);
  EXPECT_EQ(eng.events_executed(), 2u);
}

TEST(Engine, EpochHookSchedulingIsCaughtAtTermination) {
  // Termination is decided from the shard heaps alone, so an epoch
  // hook that pushes into an outbox could have its event silently
  // dropped — the engine must fail loudly instead.
  PartitionedEngine eng(2, per_node(1));
  eng.set_lookahead(5);
  eng.shard(0).schedule_at(1, [] {});
  bool pushed = false;
  eng.set_epoch_hook(1, [&eng, &pushed] {
    if (pushed) return;
    pushed = true;
    // Partition 0 has already merged this phase; with every heap
    // drained the run would otherwise end with this event unmerged.
    eng.schedule_remote(1, 0, 1'000'000, [] {});
  });
  EXPECT_THROW(eng.run(), std::logic_error);
  EXPECT_TRUE(pushed);
}

// ------------------------------------------------- fabric link table

TEST(Fabric, LinkTableGrowthPreservesEveryOverride) {
  // Several hundred directed pairs force multiple rehashes of the flat
  // open-addressing table; every override must survive, and the
  // engine's lookahead bound must see the true minimum.
  sim::Simulator s;
  sim::Rng rng(7);
  net::LinkParams def;
  def.propagation = 2000;
  net::Fabric f(s, rng, def);
  constexpr std::uint32_t kPairs = 300;
  for (std::uint32_t i = 0; i < kPairs; ++i) {
    f.direct_link(i * 7, i * 13 + 1).propagation = 1000 + i;
  }
  for (std::uint32_t i = 0; i < kPairs; ++i) {
    EXPECT_EQ(f.direct_link(i * 7, i * 13 + 1).propagation, 1000 + i) << i;
  }
  EXPECT_EQ(f.min_propagation(), 1000u);
}

TEST(Fabric, LinkTableIsFrozenDuringAPartitionedRun) {
  // Worker threads probe the open-addressing table concurrently, so
  // registration pre-creates every directed pair and a first-touch
  // insert from inside a partitioned run must fail fast instead of
  // racing a rehash.
  sim::Rng rng(7);
  PartitionedEngine eng(2, per_node(1));
  eng.set_lookahead(5);
  net::Fabric f(eng.shard(0), rng, net::LinkParams{});
  f.bind_engine(&eng, 42);
  f.register_node(0, eng.shard(0), [](net::Packet) {});
  f.register_node(1, eng.shard(1), [](net::Packet) {});

  // Pre-created pairs: looking one up mid-run is fine.
  bool looked_up = false;
  eng.shard(0).schedule_at(1, [&f, &looked_up] {
    looked_up = f.direct_link(0, 1).propagation > 0;
  });
  eng.run();
  EXPECT_TRUE(looked_up);

  // A link to a node never registered does not exist; creating it from
  // a worker thread would mutate the shared table.
  PartitionedEngine eng2(2, per_node(1));
  eng2.set_lookahead(5);
  net::Fabric f2(eng2.shard(0), rng, net::LinkParams{});
  f2.bind_engine(&eng2, 42);
  f2.register_node(0, eng2.shard(0), [](net::Packet) {});
  f2.register_node(1, eng2.shard(1), [](net::Packet) {});
  eng2.shard(0).schedule_at(1, [&f2] { (void)f2.direct_link(0, 5); });
  EXPECT_THROW(eng2.run(), std::logic_error);
}

// ------------------------------------------------ crash-coherence rule

TEST(Engine, CrashHooksRefusedOnAPartitionedCluster) {
  bench::MicroConfig mc;
  mc.content_mode = mem::ContentMode::kFull;
  const auto params = bench::params_for(mc);

  EngineConfig cfg;
  cfg.threads = 2;
  core::Cluster parallel(params, 3, cfg);
  EXPECT_EQ(parallel.engine().partitions(), 3u);
  EXPECT_THROW(parallel.node(0).crash(), std::logic_error);
  EXPECT_THROW((void)parallel.sim(), std::logic_error);

  core::Cluster serial(params, 3);
  serial.node(0).crash();  // single partition: accepted
  EXPECT_EQ(&serial.sim(), &serial.sim_of(0));
}

// --------------------------------------------- end-to-end byte parity

/// Noise-free (zero jitter/load/loss) fig08-style cell: the run
/// consumes no fabric RNG draws at all, so serial and partitioned
/// engines must agree on every model-visible stat bit for bit.
bench::MicroConfig parity_config(unsigned threads, std::size_t clients = 3) {
  bench::MicroConfig mc;
  mc.objects = 512;
  mc.object_size = 4096;
  mc.ops = 600;
  mc.clients = clients;
  mc.jitter_sigma = 0.0;
  mc.engine_threads = threads;
  return mc;
}

/// Every model-visible field of a MicroResult. Host-allocator gauges
/// (sim_pool_allocs, pool.outstanding_peak, pool.slab_bytes) are
/// compared separately: sharding changes *where* slabs grow, not what
/// the model computes, so they match across thread counts of the
/// partitioned engine but not between serial and partitioned layouts.
void expect_model_identical(const bench::MicroResult& a,
                            const bench::MicroResult& b,
                            std::string_view what) {
  EXPECT_EQ(a.duration, b.duration) << what;
  EXPECT_EQ(a.ops_completed, b.ops_completed) << what;
  EXPECT_EQ(a.sim_events, b.sim_events) << what;
  EXPECT_EQ(a.latency.count(), b.latency.count()) << what;
  EXPECT_EQ(a.latency.sum(), b.latency.sum()) << what;
  EXPECT_EQ(a.latency.min(), b.latency.min()) << what;
  EXPECT_EQ(a.latency.max(), b.latency.max()) << what;
  EXPECT_EQ(a.write_latency.sum(), b.write_latency.sum()) << what;
  EXPECT_EQ(a.read_latency.sum(), b.read_latency.sum()) << what;
  EXPECT_EQ(a.durable_latency.sum(), b.durable_latency.sum()) << what;
  EXPECT_EQ(a.server.ops_processed, b.server.ops_processed) << what;
  EXPECT_EQ(a.server.critical_sw_ns, b.server.critical_sw_ns) << what;
  EXPECT_EQ(a.server.bytes_applied, b.server.bytes_applied) << what;
  EXPECT_EQ(a.server.backlog_peak, b.server.backlog_peak) << what;
  EXPECT_EQ(a.bytes_copied, b.bytes_copied) << what;
  EXPECT_EQ(a.pool.acquires, b.pool.acquires) << what;
  EXPECT_EQ(a.pool.recycles, b.pool.recycles) << what;
  EXPECT_EQ(a.pool.oversize_allocs, b.pool.oversize_allocs) << what;
  EXPECT_EQ(a.sender_sw_ns, b.sender_sw_ns) << what;
  EXPECT_EQ(a.receiver_sw_ns, b.receiver_sw_ns) << what;
  EXPECT_EQ(a.kops, b.kops) << what;
  EXPECT_EQ(a.net_drops, b.net_drops) << what;
  EXPECT_EQ(a.rnic_retransmits, b.rnic_retransmits) << what;
}

TEST(EngineParity, DurableCellsAreByteIdenticalAcrossThreadCounts) {
  for (const rpcs::System s :
       {rpcs::System::kWFlushRpc, rpcs::System::kSFlushRpc,
        rpcs::System::kFaRM}) {
    const auto r1 = bench::run_micro(s, parity_config(1));
    const auto r2 = bench::run_micro(s, parity_config(2));
    const auto r8 = bench::run_micro(s, parity_config(8));
    expect_model_identical(r1, r2, rpcs::name_of(s));
    expect_model_identical(r1, r8, rpcs::name_of(s));
    // Between two partitioned runs the shard layout is identical, so
    // even the allocator gauges must match exactly.
    EXPECT_EQ(r2.sim_pool_allocs, r8.sim_pool_allocs) << rpcs::name_of(s);
    EXPECT_EQ(r2.pool.outstanding_peak, r8.pool.outstanding_peak)
        << rpcs::name_of(s);
    EXPECT_EQ(r2.pool.slab_bytes, r8.pool.slab_bytes) << rpcs::name_of(s);
  }
}

TEST(EngineParity, LossyCellsAreByteIdenticalAcrossThreadCounts) {
  // A lossy point-to-point fabric pins the per-node layout even at one
  // thread (DESIGN.md §7.8): loss draws then come from per-link RNG
  // streams and every drop / go-back-N replay replays identically at
  // any --engine-threads value.
  const auto lossy = [](unsigned threads) {
    bench::MicroConfig mc = parity_config(threads);
    mc.loss_probability = 0.01;
    mc.retransmit_interval = 500 * sim::kMicrosecond;
    return mc;
  };
  const auto r1 = bench::run_micro(rpcs::System::kWFlushRpc, lossy(1));
  const auto r2 = bench::run_micro(rpcs::System::kWFlushRpc, lossy(2));
  const auto r8 = bench::run_micro(rpcs::System::kWFlushRpc, lossy(8));
  ASSERT_GT(r1.ops_completed, 0u);
  EXPECT_GT(r1.net_drops, 0u);
  EXPECT_GT(r1.rnic_retransmits, 0u);
  // The layout (not the thread count) defines the schedule: the lossy
  // cell is partitioned per node even on the single-threaded engine.
  EXPECT_GT(r1.engine_partitions, 1u);
  expect_model_identical(r1, r2, "lossy wflush x2");
  expect_model_identical(r1, r8, "lossy wflush x8");
}

/// Per-node WFlush-RPC cluster driven by one closed-loop writer per
/// client node, with the shard heaps inspectable after the run.
struct TimerRun {
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t drops = 0;
  sim::SimTime max_now = 0;
  sim::SimTime last_done = 0;
  std::vector<sim::SimTime> done_at;  ///< per client
  std::vector<std::size_t> shard_pending;
};

TimerRun run_timer_cluster(unsigned threads, double loss) {
  bench::MicroConfig mc = parity_config(threads);
  mc.loss_probability = loss;
  mc.retransmit_interval = 500 * sim::kMicrosecond;
  const core::ModelParams params = bench::params_for(mc);
  core::Cluster cluster(params, 1 + mc.clients, per_node(threads));
  std::vector<std::size_t> client_nodes;
  for (std::size_t c = 0; c < mc.clients; ++c) client_nodes.push_back(1 + c);
  auto dep = rpcs::make_deployment(cluster, rpcs::System::kWFlushRpc, 0,
                                   client_nodes, params);
  TimerRun out;
  out.done_at.assign(mc.clients, 0);
  for (std::size_t c = 0; c < mc.clients; ++c) {
    sim::spawn([](core::RpcClient& client, sim::Simulator& sim,
                  sim::SimTime& done) -> sim::Task<> {
      for (std::uint64_t i = 0; i < 60; ++i) {
        const auto res = co_await client.call(
            core::RpcRequest{core::RpcOp::kWrite, i % 32, 1024});
        EXPECT_TRUE(res.ok);
      }
      done = sim.now();
    }(*dep.clients[c], cluster.sim_of(client_nodes[c]), out.done_at[c]));
  }
  cluster.run();
  out.events = cluster.events_executed();
  out.epochs = cluster.engine().epochs();
  out.max_now = cluster.engine().max_now();
  out.drops = cluster.fabric().packets_dropped();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    out.retransmits += cluster.node(i).rnic().retransmits();
  }
  for (const sim::SimTime t : out.done_at) {
    out.last_done = std::max(out.last_done, t);
  }
  for (std::size_t p = 0; p < cluster.engine().partitions(); ++p) {
    out.shard_pending.push_back(cluster.engine().shard(p).pending());
  }
  return out;
}

TEST(EngineTimers, LossyRunWithCancelledTimersIsThreadCountIndependent) {
  const TimerRun r1 = run_timer_cluster(1, 0.02);
  const TimerRun r4 = run_timer_cluster(4, 0.02);
  EXPECT_GT(r1.drops, 0u);
  EXPECT_GT(r1.retransmits, 0u);
  EXPECT_EQ(r1.events, r4.events);
  EXPECT_EQ(r1.epochs, r4.epochs);
  EXPECT_EQ(r1.retransmits, r4.retransmits);
  EXPECT_EQ(r1.drops, r4.drops);
  EXPECT_EQ(r1.done_at, r4.done_at);
  EXPECT_EQ(r1.max_now, r4.max_now);
}

TEST(EngineTimers, CleanRunEndsWithoutADeadTimerTail) {
  // No loss: every RC timer is cancelled by its ACK, so every shard
  // drains with its last live event and the epoch loop stops there —
  // not one retransmit interval after the last send.
  for (const unsigned threads : {1u, 4u}) {
    const TimerRun r = run_timer_cluster(threads, 0.0);
    ASSERT_EQ(r.shard_pending.size(), 4u);
    for (const std::size_t pending : r.shard_pending) EXPECT_EQ(pending, 0u);
    EXPECT_EQ(r.retransmits, 0u);
    ASSERT_GT(r.last_done, 0u);
    EXPECT_LT(r.max_now, r.last_done + 500 * sim::kMicrosecond)
        << threads << " threads";
  }
}

TEST(EngineParity, FaultPlanCellsAreByteIdenticalAcrossThreadCounts) {
  // A fault plan alone (no uniform loss) also pins the per-node
  // layout; a loss burst plus a healed partition must replay the same
  // drops and retransmissions at every thread count.
  const auto faulted = [](unsigned threads) {
    bench::MicroConfig mc = parity_config(threads);
    mc.retransmit_interval = 500 * sim::kMicrosecond;
    net::LossBurst burst;
    burst.begin = 0;
    burst.end = 2 * sim::kMillisecond;
    burst.loss = 0.02;
    burst.corrupt = 0.005;
    mc.faults.bursts.push_back(burst);
    net::NetPartition part;
    part.island = {1};
    part.begin = 300 * sim::kMicrosecond;
    part.end = 500 * sim::kMicrosecond;
    mc.faults.partitions.push_back(part);
    return mc;
  };
  const auto r1 = bench::run_micro(rpcs::System::kWFlushRpc, faulted(1));
  const auto r2 = bench::run_micro(rpcs::System::kWFlushRpc, faulted(2));
  const auto r8 = bench::run_micro(rpcs::System::kWFlushRpc, faulted(8));
  ASSERT_GT(r1.ops_completed, 0u);
  EXPECT_GT(r1.net_drops, 0u);
  EXPECT_GT(r1.engine_partitions, 1u);
  expect_model_identical(r1, r2, "faulted wflush x2");
  expect_model_identical(r1, r8, "faulted wflush x8");
}

// ------------------------------------------- per-rack partition layout

TEST(Engine, PerRackMapGroupsNodesAndValidates) {
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.partitioning = Partitioning::kPerRack;
  cfg.partition_map = {0, 0, 1, 1, 2};
  PartitionedEngine eng(5, cfg);
  EXPECT_EQ(eng.partitions(), 3u);
  EXPECT_EQ(eng.partition_of_node(0), 0u);
  EXPECT_EQ(eng.partition_of_node(1), 0u);
  EXPECT_EQ(eng.partition_of_node(3), 1u);
  EXPECT_EQ(eng.partition_of_node(4), 2u);
  EXPECT_EQ(&eng.shard_of_node(0), &eng.shard_of_node(1));

  EngineConfig short_map = cfg;
  short_map.partition_map = {0, 0, 1};  // nodes 3, 4 unmapped
  EXPECT_THROW(PartitionedEngine(5, short_map), std::invalid_argument);

  EngineConfig gap = cfg;
  gap.partition_map = {0, 0, 2, 2, 2};  // partition id 1 never used
  EXPECT_THROW(PartitionedEngine(5, gap), std::invalid_argument);
}

TEST(Engine, AdaptiveEpochsKeepCrossPartitionTieOrder) {
  // Same-timestamp arrivals into rack 0 from two sibling racks must
  // execute in the canonical (time, send time, source, push order)
  // order — never in the order the epoch structure happened to merge
  // them. Adaptive epochs change the structure, so the observed
  // schedule must be identical with the extension on and off.
  std::array<std::vector<int>, 2> orders;
  for (const bool adaptive : {false, true}) {
    EngineConfig cfg;
    cfg.threads = 2;
    cfg.partitioning = Partitioning::kPerRack;
    cfg.partition_map = {0, 0, 1, 1, 2, 2};
    cfg.adaptive_epochs = adaptive;
    PartitionedEngine eng(6, cfg);
    eng.set_lookahead(10);
    std::vector<int>& order = orders[adaptive ? 1 : 0];
    // Both racks send at local time 6 for arrival 30: a full tie on
    // (time, send time) resolved by source partition, then push order.
    eng.shard(2).schedule_at(6, [&eng, &order] {
      eng.schedule_remote(2, 0, 30, [&order] { order.push_back(201); });
    });
    eng.shard(1).schedule_at(6, [&eng, &order] {
      eng.schedule_remote(1, 0, 30, [&order] { order.push_back(101); });
      eng.schedule_remote(1, 0, 30, [&order] { order.push_back(102); });
    });
    // A later send that still arrives at t=30 sorts after both.
    eng.shard(2).schedule_at(19, [&eng, &order] {
      eng.schedule_remote(2, 0, 30, [&order] { order.push_back(202); });
    });
    eng.shard(0).schedule_at(30, [&order] { order.push_back(1); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 101, 102, 201, 202}))
        << "adaptive=" << adaptive;
  }
  EXPECT_EQ(orders[0], orders[1]);
}

bench::MicroConfig rack_parity_config(unsigned threads) {
  bench::MicroConfig mc = parity_config(threads);
  mc.topology.preset = net::TopologyPreset::kLeafSpine;
  mc.topology.racks = 2;
  mc.topology.spines = 2;
  return mc;
}

TEST(EngineParity, PerRackCellsAreByteIdenticalAcrossThreadCounts) {
  // Two-rack leaf-spine cells resolve to the per-rack layout (pinned
  // at every thread count); the whole-model schedule must not depend
  // on how many workers execute it.
  const auto r1 = bench::run_micro(rpcs::System::kWFlushRpc,
                                   rack_parity_config(1));
  const auto r2 = bench::run_micro(rpcs::System::kWFlushRpc,
                                   rack_parity_config(2));
  const auto r8 = bench::run_micro(rpcs::System::kWFlushRpc,
                                   rack_parity_config(8));
  EXPECT_EQ(r1.engine_partitions, 2u);
  EXPECT_EQ(r2.engine_partitions, 2u);
  expect_model_identical(r1, r2, "per-rack x2 threads");
  expect_model_identical(r1, r8, "per-rack x8 threads");
  // Epoch counts are part of the deterministic schedule.
  EXPECT_EQ(r1.engine_epochs, r2.engine_epochs);
  EXPECT_EQ(r1.engine_epochs, r8.engine_epochs);
}

TEST(EngineParity, ExplicitPerRackOnASingleRackMatchesTheDefaultLayout) {
  // The rack preset is one rack: the per-rack layout degenerates to a
  // single partition, and the model stats still match the default
  // (per-node) layout bit for bit.
  bench::MicroConfig def = parity_config(1);
  def.topology.preset = net::TopologyPreset::kRack;
  bench::MicroConfig forced = def;
  forced.engine_threads = 2;
  forced.partitioning = Partitioning::kPerRack;
  const auto a = bench::run_micro(rpcs::System::kWFlushRpc, def);
  const auto b = bench::run_micro(rpcs::System::kWFlushRpc, forced);
  EXPECT_EQ(b.engine_partitions, 1u);
  expect_model_identical(a, b, "rack preset per-rack vs default");
}

TEST(EngineParity, AdaptiveEpochsAreAPureScheduleOptimization) {
  // Adaptive extension changes how many barrier rounds the run takes —
  // never what the model computes.
  bench::MicroConfig on = rack_parity_config(4);
  bench::MicroConfig off = on;
  off.adaptive_epochs = false;
  const auto r_on = bench::run_micro(rpcs::System::kWFlushRpc, on);
  const auto r_off = bench::run_micro(rpcs::System::kWFlushRpc, off);
  expect_model_identical(r_on, r_off, "adaptive on vs off");
  EXPECT_LE(r_on.engine_epochs, r_off.engine_epochs);
  EXPECT_GT(r_on.engine_epochs, 0u);
}

// ------------------------------------------- aggregated client pools

TEST(ClientPool, MatchesExplicitCoroutineClientsOnCountStats) {
  // With reads disabled the op mix is RNG-independent: K virtual
  // clients aggregated into a pool must complete exactly the same
  // work as K explicit driver coroutines.
  bench::MicroConfig classic = parity_config(1);
  classic.read_ratio = 0.0;
  bench::MicroConfig pooled = classic;
  pooled.clients_per_host = 4;
  pooled.client_outstanding = 4;
  const auto a = bench::run_micro(rpcs::System::kWFlushRpc, classic);
  const auto b = bench::run_micro(rpcs::System::kWFlushRpc, pooled);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.durable_latency.count(), b.durable_latency.count());
  EXPECT_EQ(a.server.ops_processed, b.server.ops_processed);
  EXPECT_EQ(a.server.bytes_applied, b.server.bytes_applied);
}

TEST(ClientPool, PooledCellsAreByteIdenticalAcrossThreadCounts) {
  // The 512-host rack_scale identity gate in miniature: an aggregated
  // pool with think times on a two-rack fabric replays the identical
  // schedule at any worker count.
  bench::MicroConfig base = rack_parity_config(1);
  base.clients_per_host = 32;
  base.client_outstanding = 8;
  base.client_think_ns = 2000;
  bench::MicroConfig wide = base;
  wide.engine_threads = 8;
  const auto r1 = bench::run_micro(rpcs::System::kWFlushRpc, base);
  const auto r8 = bench::run_micro(rpcs::System::kWFlushRpc, wide);
  expect_model_identical(r1, r8, "pooled clients x8 threads");
  EXPECT_EQ(r1.engine_epochs, r8.engine_epochs);
}

TEST(ClientPool, RejectsBatchedRequests) {
  bench::MicroConfig mc = parity_config(1);
  mc.clients_per_host = 2;
  mc.batch = 4;
  EXPECT_THROW(bench::run_micro(rpcs::System::kWFlushRpc, mc),
               std::invalid_argument);
}

/// The aggregated pool as it was before arrivals became heap state:
/// every virtual client's think-end is its own schedule()d event, so
/// the simulator holds one event per thinking client. Kept here as the
/// reference workload::ClientPool is diffed against.
class EventPerClientPool {
 public:
  EventPerClientPool(sim::Simulator& sim, core::RpcClient& client,
                     workload::ClientPoolConfig cfg)
      : sim_(sim),
        client_(client),
        cfg_(cfg),
        rng_(cfg.seed),
        zipf_(std::max<std::uint64_t>(1, cfg.object_count), cfg.zipf_theta),
        ready_(sim, 0) {
    cfg_.clients = std::max<std::uint64_t>(1, cfg_.clients);
    cfg_.max_outstanding = std::max<std::uint32_t>(1, cfg_.max_outstanding);
    ring_.resize(static_cast<std::size_t>(cfg_.clients), 0);
  }

  void start() {
    if (cfg_.total_ops == 0) {
      done_ = true;
      return;
    }
    for (std::uint32_t p = 0; p < cfg_.max_outstanding; ++p) {
      sim::spawn(puller());
    }
    for (std::uint64_t id = 0; id < cfg_.clients; ++id) {
      queue_next(static_cast<std::uint32_t>(id));
    }
  }

  [[nodiscard]] const workload::ClientPoolStats& stats() const {
    return stats_;
  }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] sim::SimTime finished_at() const { return finished_at_; }

 private:
  void queue_next(std::uint32_t id) {
    if (cfg_.mean_think_ns == 0) {
      wake_client(id);
      return;
    }
    const auto think = static_cast<sim::SimTime>(
        rng_.exponential(static_cast<double>(cfg_.mean_think_ns)));
    sim_.schedule(think, [this, id] { wake_client(id); });
  }

  void wake_client(std::uint32_t id) {
    ring_[(ring_head_ + ring_size_) % ring_.size()] = id;
    ++ring_size_;
    ready_.release();
  }

  sim::Task<> puller() {
    for (;;) {
      co_await ready_.acquire();
      if (issued_ >= cfg_.total_ops) co_return;
      const std::uint32_t id = ring_[ring_head_];
      ring_head_ = (ring_head_ + 1) % ring_.size();
      --ring_size_;
      ++issued_;
      core::RpcRequest req;
      req.obj_id = zipf_.next(rng_);
      req.op = rng_.bernoulli(cfg_.read_ratio) ? core::RpcOp::kRead
                                               : core::RpcOp::kWrite;
      req.len = cfg_.op_len;
      const core::RpcResult res = co_await client_.call(req);
      if (res.ok) {
        ++stats_.ops_completed;
        stats_.latency.record(res.latency());
        if (req.op == core::RpcOp::kWrite) {
          stats_.write_latency.record(res.latency());
          if (res.durable_at > res.issued_at) {
            stats_.durable_latency.record(res.durable_at - res.issued_at);
          }
        } else {
          stats_.read_latency.record(res.latency());
        }
      }
      ++attempts_done_;
      if (attempts_done_ == cfg_.total_ops) {
        finished_at_ = sim_.now();
        done_ = true;
        ready_.release(cfg_.max_outstanding);
      } else if (issued_ < cfg_.total_ops) {
        queue_next(id);
      }
    }
  }

  sim::Simulator& sim_;
  core::RpcClient& client_;
  workload::ClientPoolConfig cfg_;
  sim::Rng rng_;
  sim::ZipfianGenerator zipf_;
  sim::Semaphore ready_;
  std::vector<std::uint32_t> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t attempts_done_ = 0;
  workload::ClientPoolStats stats_;
  sim::SimTime finished_at_ = 0;
  bool done_ = false;
};

/// run_micro's pooled mode with the pool type as a parameter: a
/// two-rack leaf-spine cell on the per-rack engine, one WFlush-RPC
/// server and one pool per client host. Fills the MicroResult fields
/// expect_model_identical() compares.
template <typename Pool>
bench::MicroResult run_pooled_cell(const bench::MicroConfig& cfg) {
  const core::ModelParams params = bench::params_for(cfg);
  EngineConfig ecfg;
  ecfg.threads = cfg.engine_threads;
  ecfg.partitioning = Partitioning::kPerRack;
  core::Cluster cluster(params, 1 + cfg.clients, ecfg);
  std::vector<std::size_t> client_nodes;
  for (std::size_t i = 0; i < cfg.clients; ++i) client_nodes.push_back(1 + i);
  auto dep = rpcs::make_deployment(cluster, rpcs::System::kWFlushRpc,
                                   cfg.replication, client_nodes, params);
  std::vector<std::unique_ptr<Pool>> pools;
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    workload::ClientPoolConfig pc;
    pc.clients = cfg.clients_per_host;
    pc.total_ops = cfg.ops / cfg.clients;
    pc.max_outstanding = cfg.client_outstanding;
    pc.mean_think_ns = cfg.client_think_ns;
    pc.read_ratio = cfg.read_ratio;
    pc.op_len = cfg.object_size;
    pc.object_count = params.object_count;
    pc.zipf_theta = cfg.zipf_theta;
    pc.seed = cfg.seed * 7919 + c * 64;
    pools.push_back(std::make_unique<Pool>(cluster.sim_of(client_nodes[c]),
                                           *dep.clients[c], pc));
    pools.back()->start();
  }
  cluster.run();

  bench::MicroResult r;
  for (const auto& pool : pools) {
    EXPECT_TRUE(pool->done());
    r.duration = std::max(r.duration, pool->finished_at());
    const workload::ClientPoolStats& s = pool->stats();
    r.ops_completed += s.ops_completed;
    r.latency.merge(s.latency);
    r.write_latency.merge(s.write_latency);
    r.read_latency.merge(s.read_latency);
    r.durable_latency.merge(s.durable_latency);
  }
  r.server = dep.server->stats();
  r.sim_events = cluster.events_executed();
  r.engine_epochs = cluster.engine().epochs();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& mem = cluster.node(i).mem();
    r.bytes_copied += mem.pm().bytes_copied() + mem.dram().bytes_copied();
    r.pool.acquires += mem.pool().stats().acquires;
    r.pool.recycles += mem.pool().stats().recycles;
    r.pool.oversize_allocs += mem.pool().stats().oversize_allocs;
  }
  return r;
}

TEST(ClientPool, MatchesTheEventPerClientPoolAtEveryThreadCount) {
  // Arrivals as heap state must replay the one-event-per-client pool
  // exactly: same pops, same RNG draws, same results — at 1, 2 and 8
  // engine threads. The second shape has few clients and long thinks,
  // so fresh arrivals often undercut the armed head and several keys
  // are armed at once.
  struct Shape {
    std::uint64_t clients;
    std::uint32_t outstanding;
    sim::SimTime think_ns;
  };
  for (const Shape& shape : {Shape{32, 8, 2000}, Shape{3, 1, 50'000}}) {
    SCOPED_TRACE("clients_per_host " + std::to_string(shape.clients));
    bench::MicroConfig cfg = rack_parity_config(1);
    cfg.clients_per_host = shape.clients;
    cfg.client_outstanding = shape.outstanding;
    cfg.client_think_ns = shape.think_ns;
    const auto base = run_pooled_cell<EventPerClientPool>(cfg);
    EXPECT_EQ(base.ops_completed, cfg.ops);
    for (const unsigned threads : {1u, 2u, 8u}) {
      cfg.engine_threads = threads;
      const auto ref = run_pooled_cell<EventPerClientPool>(cfg);
      const auto got = run_pooled_cell<workload::ClientPool>(cfg);
      const std::string what = "threads " + std::to_string(threads);
      expect_model_identical(got, ref, what);
      expect_model_identical(got, base, what + " vs serial reference");
      EXPECT_EQ(got.engine_epochs, ref.engine_epochs) << what;
    }
  }
}

TEST(ClientPool, MillionNominalClientsKeepTheEventSlabSmall) {
  // 2^20 virtual clients on one host: every first arrival is reserved
  // at start, yet the simulator only ever holds the armed heads, so
  // its slab stays independent of the client count. One partition, no
  // worker threads.
  bench::MicroConfig cfg = parity_config(1, 1);
  const core::ModelParams params = bench::params_for(cfg);
  core::Cluster cluster(params, 2);
  auto dep = rpcs::make_deployment(cluster, rpcs::System::kWFlushRpc,
                                   cfg.replication, std::vector<std::size_t>{1}, params);
  workload::ClientPoolConfig pc;
  pc.clients = std::uint64_t{1} << 20;
  pc.total_ops = 2000;
  pc.max_outstanding = 8;
  pc.mean_think_ns = 2000;
  pc.op_len = 4096;
  pc.object_count = params.object_count;
  workload::ClientPool pool(cluster.sim_of(1), *dep.clients[0], pc);
  pool.start();
  cluster.run();
  EXPECT_TRUE(pool.done());
  EXPECT_EQ(pool.stats().ops_completed, pc.total_ops);
  // Every reserved arrival still fires once (it pushes the ready ring).
  EXPECT_GT(cluster.events_executed(), pc.clients);
  EXPECT_LT(cluster.sim().slab_slots(), 1000u);
}

TEST(EngineParity, WiderClusterStaysIdenticalWithPipelinedClients) {
  // Fig. 13 shape: more clients, deeper pipeline, heavier server.
  bench::MicroConfig base = parity_config(1, 7);
  base.durable_pipeline = 4;
  base.server_cpu_load = 0.2;
  bench::MicroConfig wide = base;
  wide.engine_threads = 8;
  const auto r1 = bench::run_micro(rpcs::System::kWFlushRpc, base);
  const auto r8 = bench::run_micro(rpcs::System::kWFlushRpc, wide);
  expect_model_identical(r1, r8, "wflush x7 clients");
  // ops split evenly over clients x pipeline depth loops
  EXPECT_EQ(r1.ops_completed, (600 / (7 * 4)) * (7 * 4));
}

// -------------------------------- fitting workers to the load (§7.5)

/// One hot rack: the server's rack of a 4 x 4 leaf-spine cell runs more
/// than half of all events, every other rack a few clients' share.
bench::MicroConfig skewed_rack_config(unsigned threads) {
  bench::MicroConfig mc = rack_parity_config(threads);
  mc.topology.racks = 4;
  mc.topology.hosts_per_rack = 4;
  mc.clients = 15;
  return mc;
}

TEST(EngineFitting, SkewedRackCellIsByteIdenticalAtEveryWorkerCount) {
  const auto r1 = bench::run_micro(rpcs::System::kWFlushRpc,
                                   skewed_rack_config(1));
  ASSERT_EQ(r1.engine_partitions, 4u);
  EXPECT_GT(r1.engine_max_partition_event_share, 0.5);
  EXPECT_EQ(r1.engine_workers_used, 1u);
  for (const unsigned t : {2u, 3u, 4u, 8u}) {
    const auto rt = bench::run_micro(rpcs::System::kWFlushRpc,
                                     skewed_rack_config(t));
    const std::string what = "skewed racks x" + std::to_string(t);
    expect_model_identical(r1, rt, what);
    EXPECT_EQ(r1.engine_epochs, rt.engine_epochs) << what;
    EXPECT_EQ(r1.engine_max_partition_event_share,
              rt.engine_max_partition_event_share) << what;
    // Never more workers than partitions or the configured maximum.
    EXPECT_GE(rt.engine_workers_used, 1u) << what;
    EXPECT_LE(rt.engine_workers_used, std::min(t, 4u)) << what;
    // Three or more candidate workers on one hot rack: at least one
    // only adds barrier spin, and the engine parks it.
    if (t >= 3) {
      EXPECT_LT(rt.engine_workers_used, std::min(t, 4u)) << what;
    }
  }
}

/// Synthetic per-node load on static epochs of one lookahead window
/// each: partition p ticks in windows [first[p], last), and every tick
/// runs `burst` local events plus one event sent to partition p + 1
/// (which it runs in the next window). Epoch k's per-partition event
/// counts are therefore exact, and `log[p]` records what partition p
/// ran, in order.
struct TickLoad {
  std::vector<std::uint64_t> first;
  std::uint64_t last = 64;
  std::uint64_t burst = 8;
};

struct TickRun {
  std::vector<std::vector<std::uint64_t>> log;
  std::uint64_t epochs = 0;
  unsigned workers = 0;
  std::uint64_t rejoins = 0;
};

TickRun run_ticks(const TickLoad& load, unsigned threads) {
  constexpr sim::SimTime kL = 100;
  const std::size_t P = load.first.size();
  EngineConfig cfg = per_node(threads);
  cfg.adaptive_epochs = false;
  PartitionedEngine eng(P, cfg);
  eng.set_lookahead(kL);
  TickRun out;
  out.log.resize(P);
  std::function<void(std::size_t, std::uint64_t)> tick =
      [&](std::size_t p, std::uint64_t k) {
        sim::Simulator& sim = eng.shard(p);
        out.log[p].push_back(k);
        for (std::uint64_t i = 1; i <= load.burst; ++i) {
          sim.schedule_at(k * kL + i,
                          [&out, p, i] { out.log[p].push_back(1000 + i); });
        }
        const std::size_t q = (p + 1) % P;
        eng.schedule_remote(p, q, (k + 1) * kL + kL / 2,
                            [&out, p, q] { out.log[q].push_back(2000 + p); });
        if (k + 1 < load.last) {
          sim.schedule_at((k + 1) * kL, [&tick, p, k] { tick(p, k + 1); });
        }
      };
  for (std::size_t p = 0; p < P; ++p) {
    const std::uint64_t k0 = load.first[p];
    eng.shard(p).schedule_at(k0 * kL, [&tick, p, k0] { tick(p, k0); });
  }
  eng.run();
  out.epochs = eng.epochs();
  out.workers = eng.workers_used();
  out.rejoins = eng.worker_rejoins();
  return out;
}

TEST(EngineFitting, EvenLoadKeepsEveryWorker) {
  // Eight equally busy partitions: dropping any of eight workers puts
  // two partitions on one of them, doubling the critical path.
  TickLoad even;
  even.first.assign(8, 0);
  const TickRun serial = run_ticks(even, 1);
  EXPECT_EQ(serial.workers, 1u);
  for (const unsigned t : {2u, 4u, 8u}) {
    const TickRun r = run_ticks(even, t);
    EXPECT_EQ(r.workers, t) << t << " threads";
    EXPECT_EQ(r.rejoins, 0u) << t << " threads";
    EXPECT_EQ(r.log, serial.log) << t << " threads";
    EXPECT_EQ(r.epochs, serial.epochs) << t << " threads";
  }
}

TEST(EngineFitting, ShedWorkersRejoinWhenTheLoadSpreads) {
  // Sixteen windows of one busy partition (plus the single event it
  // sends its neighbour), then four equally busy ones. The first
  // rebalances park workers that would only spin; the one after the
  // load spreads must wake them again. The schedule — every
  // partition's run order and the epoch count — never notices.
  TickLoad shift;
  shift.first = {0, 16, 16, 16};
  const TickRun serial = run_ticks(shift, 1);
  for (const unsigned t : {2u, 3u, 4u}) {
    const TickRun r = run_ticks(shift, t);
    EXPECT_EQ(r.log, serial.log) << t << " threads";
    EXPECT_EQ(r.epochs, serial.epochs) << t << " threads";
    // Three workers split four equal partitions no better than two.
    EXPECT_EQ(r.workers, t == 3 ? 2u : t) << t << " threads";
    EXPECT_GE(r.rejoins, 1u) << t << " threads";
  }
}

}  // namespace
}  // namespace prdma
