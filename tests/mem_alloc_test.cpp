// Steady-state allocation pins for the memory substrate (DESIGN.md
// §7.3): once warm, the LLC's dirty extents, its bytes side table and
// the shadow content plane recycle their nodes, so the payload
// write -> flush -> read cycle performs no heap allocation at all.
// The same holds for host software charges (DESIGN.md §7.1), for
// coroutine frames (per-shard arenas) and, end to end, for a mirrored
// durable write over a lossy fabric.
// A counting global operator new makes that literally checkable; it
// lives in its own binary so it cannot perturb other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_util/micro.hpp"
#include "core/durable_rpc.hpp"
#include "core/node.hpp"
#include "host/host.hpp"
#include "mem/llc.hpp"
#include "mem/node_memory.hpp"
#include "repl/replication.hpp"
#include "rpcs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

void counted_free(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace prdma::mem {
namespace {

constexpr std::uint64_t kObject = 64 * 1024;

TEST(MemAlloc, ShadowPayloadCycleIsAllocationFree) {
  sim::Simulator sim;
  NodeMemoryParams params;
  params.pm_capacity = 1 << 23;
  params.dram_capacity = 1 << 20;
  params.content_mode = ContentMode::kShadow;
  NodeMemory mem(sim, params);

  // A 64 KB object image as the benchmarks store it: header and commit
  // bytes around a shadow interior.
  PayloadRef img = mem.pool().acquire(24);
  img.buf()->append_bytes(std::vector<std::byte>(16, std::byte{0x5A}));
  img.buf()->append_shadow(kObject - 24, /*seed=*/7, /*off=*/0);
  img.buf()->append_bytes(std::vector<std::byte>(8, std::byte{0xC3}));

  // Five object slots at shifting offsets: stores overlap earlier
  // shadow extents partially, half of them stay dirty until capacity
  // pressure evicts them, and every store is read back.
  std::uint64_t read_bytes = 0;
  const auto cycle = [&](std::uint64_t i) {
    const std::uint64_t addr = (i % 5) * kObject + (i % 3) * 4096;
    mem.cpu_write_payload(addr, img);
    if (i % 2 == 0) (void)mem.clflush(0, addr, kObject);
    const PayloadRef back = mem.read_payload(addr, kObject);
    read_bytes += back.size();
  };
  for (std::uint64_t i = 0; i < 240; ++i) cycle(i);  // warm-up

  const std::uint64_t evictions0 = mem.llc().evictions();
  const std::uint64_t before = g_allocs.load();
  for (std::uint64_t i = 240; i < 1240; ++i) cycle(i);
  EXPECT_EQ(g_allocs.load() - before, 0u)
      << "steady-state shadow payload cycle allocated";
  EXPECT_GT(mem.llc().evictions(), evictions0) << "loop must exercise eviction";
  EXPECT_EQ(read_bytes, 1240 * kObject);
}

TEST(MemAlloc, PristineReadStageDmaCycleIsAllocationFree) {
  // The read path of an RPC over never-written objects (DESIGN.md
  // §7.3): object -> staging buffer (CPU copy plus an 8-byte trailer
  // word) -> RNIC read of the staged response -> DMA into the client's
  // buffer on another node. The objects are pristine, so once warm the
  // cycle allocates nothing and copies only the trailer words.
  sim::Simulator sim;
  NodeMemoryParams params;
  params.pm_capacity = 1 << 23;
  params.dram_capacity = 1 << 20;
  params.content_mode = ContentMode::kShadow;
  NodeMemory server(sim, params);
  NodeMemory client(sim, params);
  constexpr std::uint64_t kObjects = 64;
  const std::uint64_t stage = kObjects * kObject;
  server.declare_pristine(0, kObjects * kObject);

  const std::vector<std::byte> trailer(8, std::byte{0x7E});
  const auto cycle = [&](std::uint64_t i) {
    const std::uint64_t obj = (i * 37) % kObjects * kObject;
    server.cpu_write_payload(stage, server.read_payload(obj, kObject));
    server.cpu_write(stage + kObject, trailer);
    const PayloadRef resp = server.read_payload(stage, kObject + 8);
    client.dma_write_payload((i % 4) * 2 * kObject, resp, /*ddio=*/true);
  };
  for (std::uint64_t i = 0; i < 240; ++i) cycle(i);  // warm-up

  const std::uint64_t copied0 =
      server.pm().bytes_copied() + client.pm().bytes_copied();
  const std::uint64_t before = g_allocs.load();
  for (std::uint64_t i = 240; i < 1240; ++i) cycle(i);
  EXPECT_EQ(g_allocs.load() - before, 0u)
      << "steady-state pristine read cycle allocated";
  const std::uint64_t copied =
      server.pm().bytes_copied() + client.pm().bytes_copied() - copied0;
  EXPECT_LE(copied, 1000 * 4 * kCacheLine)
      << "only trailer lines may move bytes";
  EXPECT_EQ(server.pristine().size(), 1u);
}

TEST(MemAlloc, OverlappingWatchFiresAreAllocationFree) {
  // A ring watch per connection plus overlapping poll watches that come
  // and go, and a callback that writes again (a nested fire): once
  // warm, firing, adding and removing watches allocate nothing. The
  // watched ranges are DRAM, so only the watch path is exercised.
  sim::Simulator sim;
  NodeMemoryParams params;
  params.pm_capacity = 1 << 20;
  params.dram_capacity = 1 << 20;
  NodeMemory mem(sim, params);
  constexpr std::uint64_t kBase = NodeMemory::kDramBase;
  const std::vector<std::byte> word(8, std::byte{0x7});
  std::uint64_t fired = 0;
  for (std::uint64_t c = 0; c < 64; ++c) {
    mem.add_watch(kBase + c * 4096, 4096, [&fired] { ++fired; });
  }
  mem.add_watch(kBase + 100, 8, [&] {
    ++fired;
    mem.cpu_write(kBase + 200 * 4096 + 8, word);  // nested fire
  });
  mem.add_watch(kBase + 200 * 4096, 64, [&fired] { ++fired; });
  const auto cycle = [&](std::uint64_t i) {
    const std::uint64_t addr = kBase + (i % 64) * 4096 + 96;
    const auto poll = mem.add_watch(addr, 16, [&fired] { ++fired; });
    mem.cpu_write(addr, word);  // ring watch + poll watch (+ nested)
    mem.remove_watch(poll);
  };
  for (std::uint64_t i = 0; i < 200; ++i) cycle(i);  // warm-up

  const std::uint64_t before = g_allocs.load();
  const std::uint64_t fired_before = fired;
  for (std::uint64_t i = 200; i < 1200; ++i) cycle(i);
  EXPECT_EQ(g_allocs.load() - before, 0u)
      << "steady-state watch fire/add/remove allocated";
  // 1 000 writes, each firing the ring and poll watches, plus the
  // nested pair on the 15 writes to ring 0 (i = 256, 320, ..., 1152).
  EXPECT_EQ(fired - fired_before, 2000u + 15u * 2u);
}

TEST(MemAlloc, ByteStoreFlushCycleIsAllocationFree) {
  sim::Simulator sim;
  PmDevice pm(sim, "pm", 1 << 20, DeviceTiming{170, 90, 6.6e9, 12e9});
  Llc llc(sim, pm, LlcParams{});
  const std::vector<std::byte> data(4096 + 40, std::byte{0x11});
  std::vector<std::byte> out(data.size());
  const auto cycle = [&](std::uint64_t i) {
    const std::uint64_t addr = (i % 7) * 8192 + (i % 5) * 24;
    llc.write(addr, data);
    llc.read(addr, out);
    if (i % 3 != 0) (void)llc.clflush(0, addr, data.size());
  };
  for (std::uint64_t i = 0; i < 200; ++i) cycle(i);  // warm-up

  const std::uint64_t before = g_allocs.load();
  for (std::uint64_t i = 200; i < 1200; ++i) cycle(i);
  EXPECT_EQ(g_allocs.load() - before, 0u)
      << "steady-state byte store/flush cycle allocated";
}

TEST(MemAlloc, RestoringStoredLinesIsAllocationFree) {
  // The byte plane allocates a line and grows its table only on a
  // line's first store: stores into lines already stored (one line or
  // several, across a DRAM crash that zeros them in place) and loads
  // of any line, stored or not, allocate nothing.
  sim::Simulator sim;
  PmDevice pm(sim, "pm", 1 << 24, DeviceTiming{170, 90, 6.6e9, 12e9});
  DramDevice dram(sim, "dram", 1 << 24, DeviceTiming{80, 80, 20e9, 20e9});
  const std::vector<std::byte> header(8, std::byte{0x22});
  const std::vector<std::byte> payload(3 * kCacheLine + 40, std::byte{0x33});
  std::vector<std::byte> out(payload.size());
  const auto header_at = [](std::uint64_t i) { return i * 4096 + 24; };
  for (Device* dev : {static_cast<Device*>(&pm), static_cast<Device*>(&dram)}) {
    for (std::uint64_t i = 0; i < 1000; ++i) dev->poke(header_at(i), header);
    dev->poke(1 << 23, payload);
  }
  const std::uint64_t pm_lines = pm.stored_lines();

  const std::uint64_t before = g_allocs.load();
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (Device* dev :
         {static_cast<Device*>(&pm), static_cast<Device*>(&dram)}) {
      for (std::uint64_t i = 0; i < 1000; ++i) {
        dev->poke(header_at((i * 7 + round) % 1000), header);
      }
      dev->poke((1 << 23) + 8 * round, std::span(payload).first(
                                           payload.size() - 8 * round));
      dev->peek(1 << 23, out);
      dev->peek(12345 * 64, out);  // never stored
    }
    dram.crash();
  }
  EXPECT_EQ(g_allocs.load() - before, 0u) << "re-storing a stored line allocated";
  EXPECT_EQ(pm.stored_lines(), pm_lines);
  EXPECT_EQ(dram.stored_lines(), pm_lines);
}


TEST(MemAlloc, HostExecCycleIsAllocationFree) {
  // A host charge is an awaiter in the caller's frame, and one queued
  // for a core is an intrusive node, so once the event slab is warm
  // charging costs no allocation: uncontended, and with four tasks
  // queueing on one core. Each task is one long-lived coroutine, so
  // only the charges fall inside the measured window.
  for (const unsigned tasks : {1u, 4u}) {
    SCOPED_TRACE(tasks);
    sim::Simulator sim;
    sim::Rng rng{9};
    host::HostParams params;
    params.cores = 1;
    host::Host host(sim, rng, params);
    std::uint64_t loops = 0;
    for (unsigned t = 0; t < tasks; ++t) {
      sim::spawn([](host::Host& h, std::uint64_t& n) -> sim::Task<> {
        for (int i = 0; i < 1000; ++i) {
          co_await h.exec(400);
          co_await h.charge_poll();
          co_await h.memcpy_exec(4096);
          co_await h.sleep(100);
          ++n;
        }
      }(host, loops));
    }
    sim.run_until(100'000);  // warm-up
    const std::uint64_t warm_loops = loops;

    const std::uint64_t before = g_allocs.load();
    sim.run();
    EXPECT_EQ(g_allocs.load() - before, 0u)
        << "steady-state host charge cycle allocated";
    EXPECT_GT(warm_loops, 10u);
    EXPECT_GT(loops - warm_loops, tasks * 800u) << "measured window too short";
    EXPECT_EQ(loops, tasks * 1000u);
  }
}


TEST(MemAlloc, FrameArenaReturnsEveryChunkAtTeardown) {
  // Frames of several classes, a parked root and a frame larger than
  // any class: once the simulator is gone, every allocation it made
  // (arena chunks included) has been freed.
  const std::uint64_t live0 = g_allocs.load() - g_frees.load();
  std::uint64_t chunks = 0;
  {
    sim::Simulator sim;
    sim::Event never(sim);
    int sum = 0;
    sim::spawn([](sim::Simulator& s, sim::Event& ev, int& out) -> sim::Task<> {
      const auto small = [](sim::Simulator& s2) -> sim::Task<int> {
        co_await sim::delay(s2, 3);
        co_return 1;
      };
      const auto big = [](sim::Simulator& s2) -> sim::Task<int> {
        char pad[1500] = {};
        co_await sim::delay(s2, 3);
        co_return pad[0] + 2;
      };
      for (int i = 0; i < 200; ++i) out += co_await small(s) + co_await big(s);
      (void)co_await ev.wait();  // parked when the run ends
    }(sim, never, sum));
    sim.run();
    EXPECT_EQ(sum, 600);
    chunks = sim.frames().arena.chunk_count();
  }
  EXPECT_GT(chunks, 0u);
  EXPECT_EQ(g_allocs.load() - g_frees.load(), live0);
}

TEST(MemAlloc, FirstShadowStoreIntoAColdSlotIsAllocationFree) {
  // A durable write lands its payload as a shadow extent in three slot
  // rings their owners declare (DESIGN.md §7.3): the client's staging
  // slot, the server's redo-log slot and the object's slot. Once a run
  // is under way, the first shadow store into a slot of each that no
  // write has reached yet allocates nothing: the extent goes into the
  // ring's flat table. (The header and commit words around a staged or
  // logged payload are byte stores, whose first landing in a line
  // grows the devices' sparse byte planes; they are left out here.)
  bench::MicroConfig cfg;
  cfg.objects = 1024;
  cfg.object_size = 4096;
  cfg.read_ratio = 0.0;
  cfg.clients = 1;
  cfg.content_mode = ContentMode::kShadow;
  const core::ModelParams params = bench::params_for(cfg);
  core::Cluster cluster(params, 2);
  const std::vector<std::size_t> client_nodes{1};
  core::RpcDeployment dep = rpcs::make_deployment(
      cluster, rpcs::System::kWFlushRpc, cfg.replication, client_nodes,
      params);
  auto& server = dynamic_cast<core::DurableRpcServer&>(*dep.server);
  auto& client = dynamic_cast<core::DurableRpcClient&>(*dep.clients[0]);

  // Eight writes to objects 0-7 take staging and log slots 0-7.
  int ok = 0;
  sim::spawn([](core::RpcClient& c, int& done) -> sim::Task<> {
    for (std::uint64_t i = 0; i < 8; ++i) {
      const core::RpcResult r =
          co_await c.call(core::RpcRequest{core::RpcOp::kWrite, i, 4096});
      if (r.ok) ++done;
    }
  }(client, ok));
  cluster.run();
  ASSERT_EQ(ok, 8);

  // Entry 9's slots in both rings, and object 900, are cold.
  const std::uint64_t seq = client.next_seq();
  const std::uint64_t stage =
      client.staging_addr(seq) + core::LogLayout::kEntryHeaderBytes;
  const std::uint64_t log =
      server.log(client.conn_index()).layout().payload_addr(seq);
  const std::uint64_t object = server.store().addr_of(900);
  NodeMemory& smem = server.node().mem();
  NodeMemory& cmem = cluster.node(1).mem();
  PayloadRef payload = cmem.pool().acquire(0);
  payload.buf()->append_shadow(4096, seq, 0);
  // The LLC recycles the nodes of its dirty extents; flushed stores to
  // three apart warm objects leave it a spare for each store below.
  for (int k = 0; k < 2; ++k) {
    for (const std::uint64_t obj : {0, 2, 4}) {
      smem.cpu_write_payload(server.store().addr_of(obj), payload);
    }
    for (const std::uint64_t obj : {0, 2, 4}) {
      (void)smem.clflush(0, server.store().addr_of(obj), 4096);
    }
  }
  const std::size_t server_inline = smem.inline_extent_count();
  const std::size_t client_inline = cmem.inline_extent_count();

  const std::uint64_t before = g_allocs.load();
  cmem.cpu_write_payload(stage, payload);
  smem.dma_write_payload(log, payload, /*ddio=*/true);
  smem.cpu_write_payload(object, smem.read_payload(log, 4096));
  EXPECT_EQ(g_allocs.load() - before, 0u) << "a cold slot allocated";
  EXPECT_EQ(cmem.inline_extent_count(), client_inline + 1);
  EXPECT_EQ(smem.inline_extent_count(), server_inline + 2);
  EXPECT_EQ(smem.mapped_extent_count() + cmem.mapped_extent_count(), 0u);
  EXPECT_EQ(smem.shadow_digest_at(object, 4096), shadow_digest(seq, 0, 4096));
}

TEST(MemAlloc, WarmMirroredDurableWriteOverALossyFabricIsAllocationFree) {
  // The whole op path: a WFlush-RPC client mirrors every write to two
  // replicas over cables that drop 1 % of packets (go-back-N replays,
  // duplicate suppression, out-of-order parking). Frames come from the
  // shard's arena, the RC windows are rings, completions and the
  // replication ledger are flat, so once every structure has reached
  // its high-water mark an op allocates nothing. The one exception is
  // by design: the ledger keeps every transaction, in chunks that
  // double (two allocations each), so it is counted out explicitly.
  // Every write goes to an object no write has reached before: the
  // object slots' flat shadow tables take cold slots without a node.
  bench::MicroConfig cfg;
  cfg.objects = 1 << 14;
  cfg.object_size = 4096;
  cfg.read_ratio = 0.0;
  cfg.clients = 1;
  cfg.loss_probability = 1e-2;
  cfg.retransmit_interval = 200 * sim::kMicrosecond;
  cfg.replication.protocol = repl::Protocol::kMirror;
  cfg.replication.replicas = 2;
  const core::ModelParams params = bench::params_for(cfg);
  core::Cluster cluster(params, 3);
  const std::vector<std::size_t> client_nodes{2};
  core::RpcDeployment dep = rpcs::make_deployment(
      cluster, rpcs::System::kWFlushRpc, cfg.replication, client_nodes,
      params);

  constexpr int kWarm = 10000;
  constexpr int kMeasured = 4000;
  auto& client = dynamic_cast<repl::ReplicatedClient&>(*dep.clients[0]);
  std::uint64_t at_warm = 0;
  std::uint64_t at_end = 0;
  std::size_t chunks_at_warm = 0;
  int ok = 0;
  sim::spawn([](repl::ReplicatedClient& c, std::uint64_t& warm,
                std::uint64_t& end, std::size_t& chunks,
                int& done) -> sim::Task<> {
    for (int i = 0; i < kWarm + kMeasured; ++i) {
      if (i == kWarm) {
        warm = g_allocs.load();
        chunks = c.txns().chunk_count();
      }
      core::RpcRequest req;
      req.op = core::RpcOp::kWrite;
      req.obj_id = static_cast<std::uint64_t>(i);
      req.len = 4096;
      const core::RpcResult r = co_await c.call(req);
      if (r.ok) ++done;
    }
    end = g_allocs.load();
  }(client, at_warm, at_end, chunks_at_warm, ok));
  cluster.run();
  EXPECT_EQ(ok, kWarm + kMeasured);
  EXPECT_GT(cluster.fabric().packets_dropped(), 0u) << "the loss must bite";
  const std::uint64_t ledger_allocs =
      2 * (client.txns().chunk_count() - chunks_at_warm);
  EXPECT_EQ(at_end - at_warm, ledger_allocs)
      << "a warm mirrored durable write allocated";
}

}  // namespace
}  // namespace prdma::mem
