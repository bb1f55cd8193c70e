// Steady-state allocation pins for the memory substrate (DESIGN.md
// §7.3): once warm, the LLC's dirty extents, its bytes side table and
// the shadow content plane recycle their nodes, so the payload
// write -> flush -> read cycle performs no heap allocation at all.
// The same holds for host software charges (DESIGN.md §7.1).
// A counting global operator new makes that literally checkable; it
// lives in its own binary so it cannot perturb other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "host/host.hpp"
#include "mem/llc.hpp"
#include "mem/node_memory.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

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

}  // namespace
}  // namespace prdma::mem
