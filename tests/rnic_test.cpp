// Tests for the network fabric, the simulated RNIC and the verbs
// layer. These pin down the exact semantics the paper's analysis
// depends on: RC ACK at T_A (SRAM arrival) vs. persistence at T_B,
// the DDIO read-after-write trap, and the Flush primitives.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "mem/node_memory.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "rdma/completer.hpp"
#include "rdma/session.hpp"
#include "rnic/rnic.hpp"
#include "rnic/seq_window.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace prdma {
namespace {

using namespace prdma::sim::literals;
using net::Packet;
using net::WireOp;
using rnic::Cq;
using rnic::Rnic;
using rnic::Transport;
using rnic::Wc;
using rnic::WcStatus;
using sim::SimTime;
using sim::Simulator;
using sim::Task;

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed * 37 + i) & 0xFF);
  }
  return out;
}

// ----------------------------------------------------------------- Fabric

struct FabricFixture : ::testing::Test {
  Simulator sim;
  sim::Rng rng{7};
  net::LinkParams lp{};
  FabricFixture() { lp.jitter_sigma = 0.0; }
};

TEST_F(FabricFixture, DeliversWithPropagationAndSerialization) {
  net::Fabric fab(sim, rng, lp);
  SimTime arrival = 0;
  fab.register_node(2, sim, [&](Packet) { arrival = sim.now(); });
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.op = WireOp::kWrite;
  p.length = 10'000;
  p.payload = net::make_payload(pattern(10'000));
  fab.send(p);
  sim.run();
  // 10066 wire bytes at 5 GB/s ≈ 2013 ns + 1000 ns propagation.
  EXPECT_NEAR(static_cast<double>(arrival), 3013.0, 20.0);
  EXPECT_EQ(fab.packets_delivered(), 1u);
}

TEST_F(FabricFixture, SerializationQueuesSameDirection) {
  net::Fabric fab(sim, rng, lp);
  std::vector<SimTime> arrivals;
  fab.register_node(2, sim, [&](Packet) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.src = 1;
    p.dst = 2;
    p.op = WireOp::kWrite;
    p.length = 50'000;
    p.payload = net::make_payload(pattern(50'000));
    fab.send(p);
  }
  sim.run();
  EXPECT_EQ(arrivals.size(), 3u);
  const SimTime gap1 = arrivals[1] - arrivals[0];
  const SimTime gap2 = arrivals[2] - arrivals[1];
  // Back-to-back packets are spaced by one serialization time (~10 µs).
  EXPECT_NEAR(static_cast<double>(gap1), 10013.0, 50.0);
  EXPECT_NEAR(static_cast<double>(gap2), 10013.0, 50.0);
}

TEST_F(FabricFixture, ReverseDirectionDoesNotQueue) {
  net::Fabric fab(sim, rng, lp);
  SimTime fwd = 0;
  SimTime rev = 0;
  fab.register_node(2, sim, [&](Packet) { fwd = sim.now(); });
  fab.register_node(1, sim, [&](Packet) { rev = sim.now(); });
  Packet big;
  big.src = 1;
  big.dst = 2;
  big.op = WireOp::kWrite;
  big.length = 1'000'000;
  big.payload = net::make_payload(pattern(100));  // size model only
  fab.send(big);
  Packet small;
  small.src = 2;
  small.dst = 1;
  small.op = WireOp::kAck;
  fab.send(small);
  sim.run();
  EXPECT_LT(rev, fwd) << "full-duplex: reverse traffic must not queue";
}

TEST_F(FabricFixture, BackgroundLoadInflatesLatency) {
  net::Fabric idle_fab(sim, rng, lp);
  SimTime idle_arrival = 0;
  idle_fab.register_node(2, sim, [&](Packet) { idle_arrival = sim.now(); });
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.op = WireOp::kWrite;
  p.length = 60'000;
  p.payload = net::make_payload(pattern(64));
  idle_fab.send(p);
  sim.run();

  Simulator sim2;
  sim::Rng rng2(7);
  net::LinkParams busy = lp;
  busy.background_load = 0.7;
  net::Fabric busy_fab(sim2, rng2, busy);
  SimTime busy_arrival = 0;
  busy_fab.register_node(2, sim2, [&](Packet) { busy_arrival = sim2.now(); });
  busy_fab.send(p);
  sim2.run();
  EXPECT_GT(busy_arrival, idle_arrival + idle_arrival / 2);
}

TEST_F(FabricFixture, LossDropsPackets) {
  lp.loss_probability = 1.0;
  net::Fabric fab(sim, rng, lp);
  int got = 0;
  fab.register_node(2, sim, [&](Packet) { ++got; });
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.op = WireOp::kAck;
  fab.send(p);
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(fab.packets_dropped(), 1u);
}

TEST_F(FabricFixture, UnregisteredDestinationDropsOnArrival) {
  net::Fabric fab(sim, rng, lp);
  fab.register_node(2, sim, [](Packet) {});
  fab.unregister_node(2);
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.op = WireOp::kAck;
  fab.send(p);
  sim.run();
  EXPECT_EQ(fab.packets_dropped(), 1u);
}

// ------------------------------------------------------------ RNIC rig

/// Two nodes ("c" = client/sender 0, "s" = server/receiver 1) wired
/// through one fabric, with CQs and a connected RC QP pair.
struct Rig {
  Simulator sim;
  sim::Rng rng{11};
  net::LinkParams lp{};
  net::Fabric fab;
  mem::NodeMemoryParams mp{};
  mem::NodeMemory cmem;
  mem::NodeMemory smem;
  rnic::RnicParams rp{};
  Rnic cnic;
  Rnic snic;
  Cq c_scq, c_rcq, s_scq, s_rcq;
  rnic::Qp* cqp = nullptr;
  rnic::Qp* sqp = nullptr;

  explicit Rig(rnic::RnicParams rparams = {}, net::LinkParams link = {},
               Transport transport = Transport::kRC)
      : lp(link),
        fab(sim, rng, lp),
        cmem(sim, small_mem()),
        smem(sim, small_mem()),
        rp(rparams),
        cnic(sim, rng, fab, cmem, 0, rp),
        snic(sim, rng, fab, smem, 1, rp),
        c_scq(sim),
        c_rcq(sim),
        s_scq(sim),
        s_rcq(sim) {
    auto [a, b] = rdma::connect_pair(cnic, transport, c_scq, c_rcq, snic,
                                     transport, s_scq, s_rcq);
    cqp = a;
    sqp = b;
  }

  static mem::NodeMemoryParams small_mem() {
    mem::NodeMemoryParams p;
    p.pm_capacity = 8ull << 20;
    p.dram_capacity = 8ull << 20;
    return p;
  }
};

TEST(RnicWrite, ContentLandsInRemotePm) {
  Rig rig;
  const auto data = pattern(4096);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);

  bool completed = false;
  sim::spawn([](Rig& r, bool& done) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    const auto wc = co_await s.write(mem::NodeMemory::kDramBase, 4096, 0x1000);
    EXPECT_TRUE(wc.has_value());
    EXPECT_EQ(wc->status, WcStatus::kSuccess);
    done = true;
  }(rig, completed));
  rig.sim.run();
  EXPECT_TRUE(completed);

  std::vector<std::byte> out(4096);
  rig.smem.pm().peek(0x1000, out);
  EXPECT_EQ(out, data);
}

TEST(RnicWrite, AckArrivesBeforePersistence_TheT_A_T_B_Gap) {
  // The paper's §2.4 hazard: the RC ACK (work completion) races ahead
  // of actual persistence. A crash straight after the WC loses data.
  Rig rig;
  const std::uint64_t len = 256 * 1024;
  const auto data = pattern(len);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);

  bool wc_seen = false;
  sim::spawn([](Rig& r, std::uint64_t n, bool& flag) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    const auto wc = co_await s.write(mem::NodeMemory::kDramBase, n, 0);
    EXPECT_TRUE(wc.has_value());
    flag = true;
    // Power failure at the receiver immediately after the sender's WC.
    r.snic.crash();
    r.smem.crash();
  }(rig, len, wc_seen));
  rig.sim.run();
  EXPECT_TRUE(wc_seen);

  // Torn-DMA crash model: at most a line-aligned prefix proportional to
  // the elapsed transfer landed on media; the ACKed write as a whole is
  // NOT durable and its tail is gone (T_A < T_B).
  std::vector<std::byte> out(len);
  rig.smem.pm().peek(0, out);
  EXPECT_NE(out, data)
      << "data ACKed but not persisted must be lost on crash (T_A < T_B)";
  std::vector<std::byte> tail(mem::kCacheLine);
  rig.smem.pm().peek(len - mem::kCacheLine, tail);
  EXPECT_EQ(tail, std::vector<std::byte>(mem::kCacheLine, std::byte{0}))
      << "the transfer's tail cannot have landed before the crash";
  EXPECT_GT(rig.snic.bytes_lost_in_crashes(), 0u);
}

TEST(RnicWrite, WFlushClosesTheGap) {
  // Same scenario, but a WFlush follows the write: after the flush ACK
  // the data must survive the crash (§4.1.1).
  Rig rig;
  const std::uint64_t len = 256 * 1024;
  const auto data = pattern(len);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);

  bool flushed = false;
  sim::spawn([](Rig& r, std::uint64_t n, bool& flag) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    s.post_write_nowait(mem::NodeMemory::kDramBase, n, 0);
    const auto wc = co_await s.wflush(0, n);
    EXPECT_TRUE(wc.has_value());
    EXPECT_EQ(wc->status, WcStatus::kSuccess);
    flag = true;
    r.snic.crash();
    r.smem.crash();
  }(rig, len, flushed));
  rig.sim.run();
  EXPECT_TRUE(flushed);

  std::vector<std::byte> out(len);
  rig.smem.pm().peek(0, out);
  EXPECT_EQ(out, data) << "flush-ACKed data must survive the crash";
}

TEST(RnicWrite, FlushAckIsLaterThanPlainAck) {
  // WFlush costs more than the bare write ACK — that's the price of
  // the durability guarantee.
  SimTime plain_done = 0;
  SimTime flush_done = 0;
  {
    Rig rig;
    rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(65536));
    sim::spawn([](Rig& r, SimTime& t) -> Task<> {
      rdma::Completer comp(r.sim, r.c_scq);
      rdma::QpSession s(r.cnic, *r.cqp, comp);
      (void)co_await s.write(mem::NodeMemory::kDramBase, 65536, 0);
      t = r.sim.now();
    }(rig, plain_done));
    rig.sim.run();
  }
  {
    Rig rig;
    rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(65536));
    sim::spawn([](Rig& r, SimTime& t) -> Task<> {
      rdma::Completer comp(r.sim, r.c_scq);
      rdma::QpSession s(r.cnic, *r.cqp, comp);
      s.post_write_nowait(mem::NodeMemory::kDramBase, 65536, 0);
      (void)co_await s.wflush(0, 65536);
      t = r.sim.now();
    }(rig, flush_done));
    rig.sim.run();
  }
  EXPECT_GT(flush_done, plain_done);
}

TEST(RnicDdio, ReadAfterWriteIsFooledByDdio) {
  // §2.4: with DDIO the read-back succeeds while the data is volatile.
  rnic::RnicParams rp;
  rp.ddio = true;
  Rig rig(rp);
  const auto data = pattern(1024);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);

  std::vector<std::byte> readback(1024);
  sim::spawn([](Rig& r, std::vector<std::byte>& rb) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    (void)co_await s.write(mem::NodeMemory::kDramBase, 1024, 0x2000);
    // Read-after-write "persistence check".
    (void)co_await s.read(0x2000, 1024, mem::NodeMemory::kDramBase + 65536);
    r.cmem.cpu_read(mem::NodeMemory::kDramBase + 65536, rb);
    // The check passed — now the power fails.
    r.snic.crash();
    r.smem.crash();
  }(rig, readback));
  rig.sim.run();

  EXPECT_EQ(readback, data) << "read-after-write returns the cached data";
  std::vector<std::byte> pm_content(1024);
  rig.smem.pm().peek(0x2000, pm_content);
  EXPECT_EQ(pm_content, std::vector<std::byte>(1024, std::byte{0}))
      << "…but PM never saw it: the check was a lie (paper §2.4)";
}

TEST(RnicDdio, WithoutDdioReadAfterWriteReallyPersists) {
  Rig rig;  // ddio off by default
  const auto data = pattern(1024);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);
  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    (void)co_await s.write(mem::NodeMemory::kDramBase, 1024, 0x2000);
    (void)co_await s.read(0x2000, 1024, mem::NodeMemory::kDramBase + 65536);
    r.snic.crash();
    r.smem.crash();
  }(rig));
  rig.sim.run();
  std::vector<std::byte> pm_content(1024);
  rig.smem.pm().peek(0x2000, pm_content);
  EXPECT_EQ(pm_content, data)
      << "without DDIO, a completed read implies the prior write drained";
}

TEST(RnicDdio, WFlushPersistsEvenUnderDdio) {
  rnic::RnicParams rp;
  rp.ddio = true;
  Rig rig(rp);
  const auto data = pattern(2048);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);
  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    s.post_write_nowait(mem::NodeMemory::kDramBase, 2048, 0x3000);
    (void)co_await s.wflush(0x3000, 2048);
    r.snic.crash();
    r.smem.crash();
  }(rig));
  rig.sim.run();
  std::vector<std::byte> pm_content(2048);
  rig.smem.pm().peek(0x3000, pm_content);
  EXPECT_EQ(pm_content, data);
}

// ------------------------------------------------------------- send/recv

TEST(RnicSend, DeliversIntoPostedRecvBuffer) {
  Rig rig;
  const auto data = pattern(512);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);
  const std::uint64_t recv_buf = mem::NodeMemory::kDramBase + 4096;
  rig.snic.post_recv(*rig.sqp, recv_buf, 4096, 77);

  std::optional<Wc> recv_wc;
  sim::spawn([](Rig& r, std::optional<Wc>& out) -> Task<> {
    auto wc = co_await r.s_rcq.channel().recv();
    out = wc;
  }(rig, recv_wc));
  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    (void)co_await s.send(mem::NodeMemory::kDramBase, 512);
  }(rig));
  rig.sim.run();

  EXPECT_TRUE(recv_wc.has_value());
  EXPECT_EQ(recv_wc->wr_id, 77u);
  EXPECT_EQ(recv_wc->byte_len, 512u);
  EXPECT_EQ(recv_wc->local_addr, recv_buf);
  std::vector<std::byte> out(512);
  rig.smem.cpu_read(recv_buf, out);
  EXPECT_EQ(out, data);
}

TEST(RnicSend, SendBeforeRecvPostWaitsInRnrQueue) {
  Rig rig;
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
  std::optional<Wc> recv_wc;
  sim::spawn([](Rig& r, std::optional<Wc>& out) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    (void)co_await s.send(mem::NodeMemory::kDramBase, 64);
    // Post the recv long after the send arrived.
    co_await sim::delay(r.sim, 50_us);
    r.snic.post_recv(*r.sqp, mem::NodeMemory::kDramBase, 4096, 5);
    auto wc = co_await r.s_rcq.channel().recv();
    out = wc;
  }(rig, recv_wc));
  rig.sim.run();
  EXPECT_TRUE(recv_wc.has_value());
  EXPECT_EQ(recv_wc->wr_id, 5u);
  EXPECT_GE(rig.snic.rnr_events(), 1u);
}

TEST(RnicSend, SFlushCopiesMessageIntoPm) {
  // send lands in a DRAM message buffer; SFlush DMA-copies it into the
  // PM destination (redo-log slot) and ACKs persistence (§4.1.1).
  Rig rig;
  const auto data = pattern(1000);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);
  const std::uint64_t msg_buf = mem::NodeMemory::kDramBase + 8192;
  rig.snic.post_recv(*rig.sqp, msg_buf, 4096, 1);

  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    s.post_send_nowait(mem::NodeMemory::kDramBase, 1000);
    (void)co_await s.sflush(/*pm_dest=*/0x4000, 1000);
    r.snic.crash();
    r.smem.crash();
  }(rig));
  rig.sim.run();

  std::vector<std::byte> pm_content(1000);
  rig.smem.pm().peek(0x4000, pm_content);
  EXPECT_EQ(pm_content, data) << "SFlush-acked send must be in PM";
}

TEST(RnicSend, SFlushEmulationChargesAddressingDelay) {
  SimTime with_emulation = 0;
  SimTime hw_mode = 0;
  for (bool emulate : {true, false}) {
    rnic::RnicParams rp;
    rp.emulate_flush = emulate;
    Rig rig(rp);
    rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(256));
    rig.snic.post_recv(*rig.sqp, mem::NodeMemory::kDramBase, 4096, 1);
    SimTime done = 0;
    sim::spawn([](Rig& r, SimTime& t) -> Task<> {
      rdma::Completer comp(r.sim, r.c_scq);
      rdma::QpSession s(r.cnic, *r.cqp, comp);
      s.post_send_nowait(mem::NodeMemory::kDramBase, 256);
      (void)co_await s.sflush(0x100, 256);
      t = r.sim.now();
    }(rig, done));
    rig.sim.run();
    (emulate ? with_emulation : hw_mode) = done;
  }
  EXPECT_GT(with_emulation, hw_mode + 6_us)
      << "emulated SFlush pays the paper's ~7 µs addressing cost (§4.1.3)";
}

// -------------------------------------------------------------- UD / UC

TEST(RnicUd, SendCompletesLocallyAndMtuEnforced) {
  Rig rig({}, {}, Transport::kUD);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(4096));
  rig.snic.post_recv(*rig.sqp, mem::NodeMemory::kDramBase, 4096, 9);

  bool sent = false;
  sim::spawn([](Rig& r, bool& done) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    const auto wc = co_await s.send(mem::NodeMemory::kDramBase, 4096);
    EXPECT_TRUE(wc.has_value());
    done = true;
  }(rig, sent));
  rig.sim.run();
  EXPECT_TRUE(sent);
  EXPECT_THROW(
      rig.cnic.post_send(*rig.cqp, mem::NodeMemory::kDramBase, 8192, 1),
      std::invalid_argument);
}

TEST(RnicUc, WriteWorksWithoutAcks) {
  Rig rig({}, {}, Transport::kUC);
  const auto data = pattern(2048);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);
  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    const auto wc = co_await s.write(mem::NodeMemory::kDramBase, 2048, 0x100);
    EXPECT_TRUE(wc.has_value());  // local completion at wire
  }(rig));
  rig.sim.run();
  std::vector<std::byte> out(2048);
  rig.smem.pm().peek(0x100, out);
  EXPECT_EQ(out, data);
}

TEST(RnicUc, ReadAndFlushRejected) {
  Rig rig({}, {}, Transport::kUC);
  EXPECT_THROW(rig.cnic.post_read(*rig.cqp, 0, 64, mem::NodeMemory::kDramBase, 1),
               std::invalid_argument);
  EXPECT_THROW(rig.cnic.post_wflush(*rig.cqp, 0, 64, 2), std::invalid_argument);
  EXPECT_THROW(rig.cnic.post_sflush(*rig.cqp, 0, 64, 3), std::invalid_argument);
}

// ------------------------------------------------------------ reliability

TEST(RnicReliability, RetransmitsThroughLoss) {
  rnic::RnicParams rp;
  rp.retransmit_interval = 200_us;
  net::LinkParams lp;
  lp.loss_probability = 0.4;
  Rig rig(rp, lp);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(128));

  int completed = 0;
  sim::spawn([](Rig& r, int& done) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    for (int i = 0; i < 20; ++i) {
      const auto wc = co_await s.write(mem::NodeMemory::kDramBase, 128,
                                       static_cast<std::uint64_t>(i) * 256);
      EXPECT_TRUE(wc.has_value());
      if (wc->status == WcStatus::kSuccess) ++done;
    }
  }(rig, completed));
  rig.sim.run();
  EXPECT_EQ(completed, 20);
  EXPECT_GT(rig.cnic.retransmits(), 0u);
}

TEST(RnicReliability, RetryExceededWhenPeerDead) {
  rnic::RnicParams rp;
  rp.retransmit_interval = 50_us;
  rp.max_retransmits = 3;
  Rig rig(rp);
  rig.snic.crash();
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));

  std::optional<Wc> result;
  sim::spawn([](Rig& r, std::optional<Wc>& out) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    out = co_await s.write(mem::NodeMemory::kDramBase, 64, 0);
  }(rig, result));
  rig.sim.run();
  EXPECT_TRUE(result.has_value());
  EXPECT_EQ(result->status, WcStatus::kRetryExceeded);
}

TEST(RnicReliability, InOrderProcessingUnderJitter) {
  // Heavy jitter reorders packets in flight; the receiver must still
  // process them in sequence order, so a flush never overtakes its
  // write. We verify via content correctness across many write+flush
  // pairs.
  net::LinkParams lp;
  lp.jitter_sigma = 0.6;
  Rig rig({}, lp);
  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    for (int i = 0; i < 30; ++i) {
      const auto data = pattern(512, i);
      r.cmem.cpu_write(mem::NodeMemory::kDramBase, data);
      s.post_write_nowait(mem::NodeMemory::kDramBase, 512,
                          static_cast<std::uint64_t>(i) * 1024);
      const auto wc = co_await s.wflush(static_cast<std::uint64_t>(i) * 1024, 512);
      EXPECT_TRUE(wc.has_value());
      EXPECT_EQ(wc->status, WcStatus::kSuccess);
      // After each flush ACK the content must already be persistent.
      std::vector<std::byte> out(512);
      r.smem.pm().peek(static_cast<std::uint64_t>(i) * 1024, out);
      EXPECT_EQ(out, data) << "op " << i;
    }
  }(rig));
  rig.sim.run();
}

TEST(RnicReliability, GoBackNReplaysWindowAfterLinkFlap) {
  // The cable goes dark before any packet flies and heals at 300 µs:
  // every posted write is rejected at the egress (an accounted
  // kLinkDown drop, never silent), then the head-of-window timeout
  // replays the whole unacked window each round until the link heals.
  rnic::RnicParams rp;
  rp.retransmit_interval = 100_us;
  Rig rig(rp);
  net::FaultPlan plan;
  net::LinkFlap flap;
  flap.a = 0;
  flap.b = 1;
  flap.down_at = 1;
  flap.up_at = 300_us;
  plan.link_flaps.push_back(flap);
  rig.fab.set_fault_plan(plan);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));

  int completed = 0;
  sim::spawn([](Rig& r, int& done) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    for (int i = 0; i < 4; ++i) {
      s.post_write_nowait(mem::NodeMemory::kDramBase, 64,
                          static_cast<std::uint64_t>(i) * 256);
    }
    const auto wc = co_await s.write(mem::NodeMemory::kDramBase, 64, 4 * 256);
    EXPECT_TRUE(wc.has_value());
    if (wc && wc->status == WcStatus::kSuccess) ++done;
  }(rig, completed));
  rig.sim.run();
  EXPECT_EQ(completed, 1);
  // 5 first transmissions + at least one full-window replay round.
  EXPECT_GE(rig.cnic.retransmits(), 5u);
  EXPECT_GE(rig.fab.packets_dropped(net::DropReason::kLinkDown), 5u);
  EXPECT_EQ(rig.fab.packets_dropped(net::DropReason::kLoss), 0u);
  EXPECT_EQ(rig.cnic.sram_used(), 0u);
  EXPECT_EQ(rig.snic.sram_used(), 0u);
}

TEST(RnicReliability, DuplicatesSuppressedUnderLossAndJitter) {
  // Loss plus heavy jitter: retransmitted packets race their originals,
  // so the receiver sees duplicates both below expected_seq and inside
  // the out-of-order buffer. Each write must execute exactly once
  // (every flush ACK certifies the content) and duplicate SRAM must be
  // released — a leak would show as residual occupancy after the run.
  rnic::RnicParams rp;
  rp.retransmit_interval = 150_us;
  net::LinkParams lp;
  lp.loss_probability = 0.25;
  lp.jitter_sigma = 0.5;
  Rig rig(rp, lp);
  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    for (int i = 0; i < 25; ++i) {
      const auto data = pattern(512, i);
      r.cmem.cpu_write(mem::NodeMemory::kDramBase, data);
      s.post_write_nowait(mem::NodeMemory::kDramBase, 512,
                          static_cast<std::uint64_t>(i) * 1024);
      const auto wc =
          co_await s.wflush(static_cast<std::uint64_t>(i) * 1024, 512);
      EXPECT_TRUE(wc.has_value());
      EXPECT_EQ(wc->status, WcStatus::kSuccess);
      std::vector<std::byte> out(512);
      r.smem.pm().peek(static_cast<std::uint64_t>(i) * 1024, out);
      EXPECT_EQ(out, data) << "op " << i;
    }
  }(rig));
  rig.sim.run();
  EXPECT_GT(rig.cnic.retransmits(), 0u);
  EXPECT_GT(rig.fab.packets_dropped(net::DropReason::kLoss), 0u);
  EXPECT_EQ(rig.cnic.sram_used(), 0u);
  EXPECT_EQ(rig.snic.sram_used(), 0u);
}

TEST(RnicReliability, BackoffIsCappedAtRetransmitCap) {
  // Same dead peer, same retry budget: the capped configuration must
  // escalate to kRetryExceeded sooner than the uncapped one, because
  // its rearm delay stops doubling at the cap.
  const auto fail_time = [](SimTime cap) {
    rnic::RnicParams rp;
    rp.retransmit_interval = 100_us;
    rp.max_retransmits = 4;
    rp.retransmit_cap = cap;
    Rig rig(rp);
    rig.snic.crash();
    rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
    std::optional<Wc> out;
    sim::spawn([](Rig& r, std::optional<Wc>& o) -> Task<> {
      rdma::Completer comp(r.sim, r.c_scq);
      rdma::QpSession s(r.cnic, *r.cqp, comp);
      o = co_await s.write(mem::NodeMemory::kDramBase, 64, 0);
    }(rig, out));
    rig.sim.run();
    EXPECT_TRUE(out.has_value());
    EXPECT_EQ(out->status, WcStatus::kRetryExceeded);
    return rig.sim.now();
  };
  const SimTime capped = fail_time(200_us);
  const SimTime uncapped = fail_time(100 * sim::kMillisecond);
  EXPECT_LT(capped, uncapped);
}

TEST(RnicReliability, ErrorQpFlushesPendingAndSubsequentPosts) {
  // Bounded-retry escalation: the head WR completes kRetryExceeded,
  // every later pending WR flushes, and posts after the escalation
  // fail immediately instead of starting a fresh retry ladder.
  rnic::RnicParams rp;
  rp.retransmit_interval = 50_us;
  rp.max_retransmits = 2;
  Rig rig(rp);
  rig.snic.crash();
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));

  std::optional<Wc> pending;
  std::optional<Wc> later;
  SimTime pending_at = 0;
  SimTime later_at = 0;
  sim::spawn([](Rig& r, std::optional<Wc>& p, std::optional<Wc>& l,
                SimTime& pt, SimTime& lt) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    // Head of the window (will exhaust its retries)…
    s.post_write_nowait(mem::NodeMemory::kDramBase, 64, 0);
    // …and a queued WR behind it, flushed by the escalation.
    p = co_await s.write(mem::NodeMemory::kDramBase, 64, 256);
    pt = r.sim.now();
    // A post after the QP entered the error state fails immediately.
    l = co_await s.write(mem::NodeMemory::kDramBase, 64, 512);
    lt = r.sim.now();
  }(rig, pending, later, pending_at, later_at));
  rig.sim.run();
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(pending->status, WcStatus::kFlushed);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->status, WcStatus::kFlushed);
  EXPECT_EQ(later_at, pending_at) << "post-error posts must fail instantly";
}

// ---------------------------------------------------------- retransmit timers
//
// Every path that takes a WR out of the unacked window cancels its
// retransmission timer, so a run ends at its last live event instead
// of one retransmit interval after its last send.

TEST(RnicTimers, CleanExchangeLeavesNothingPendingAfterTheLastWc) {
  Rig rig;
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(512));
  std::size_t pending_at_last_wc = SIZE_MAX;
  SimTime last_wc = 0;
  sim::spawn([](Rig& r, std::size_t& pending, SimTime& at) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    for (int i = 0; i < 8; ++i) {
      s.post_write_nowait(mem::NodeMemory::kDramBase, 512,
                          static_cast<std::uint64_t>(i) * 1024);
      const auto wc = co_await s.wflush(static_cast<std::uint64_t>(i) * 1024, 512);
      EXPECT_TRUE(wc.has_value() && wc->status == WcStatus::kSuccess);
    }
    pending = r.sim.pending();
    at = r.sim.now();
  }(rig, pending_at_last_wc, last_wc));
  rig.sim.run();
  EXPECT_EQ(pending_at_last_wc, 0u);
  EXPECT_EQ(rig.sim.now(), last_wc);
  EXPECT_LT(rig.sim.now(), rig.rp.retransmit_interval);
}

TEST(RnicTimers, NakCancelsTheTimerOfTheRejectedWr) {
  rnic::RnicParams rp;
  rp.enforce_mr = true;
  Rig rig(rp);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(256));
  rig.cnic.post_write(*rig.cqp, mem::NodeMemory::kDramBase, 256, 0x9000, 1);
  rig.sim.run();
  ASSERT_EQ(rig.c_scq.depth(), 1u);
  EXPECT_EQ(rig.snic.access_violations(), 1u);
  EXPECT_LT(rig.sim.now(), rp.retransmit_interval)
      << "the NAKed WR's timer outlived it";
}

TEST(RnicTimers, RetryExhaustionCancelsTheFlushedWrsTimers) {
  // Head plus two WRs behind it, peer dead: the head's last timeout
  // escalates and flushes the others, whose re-watch timers must go
  // with them — the run ends at the escalation.
  rnic::RnicParams rp;
  rp.retransmit_interval = 50_us;
  rp.max_retransmits = 2;
  Rig rig(rp);
  rig.snic.crash();
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
  for (std::uint64_t i = 0; i < 3; ++i) {
    rig.cnic.post_write(*rig.cqp, mem::NodeMemory::kDramBase, 64, i * 256, i);
  }
  SimTime escalated_at = 0;
  sim::spawn([](Rig& r, SimTime& at) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      const auto wc = co_await r.c_scq.channel().recv();
      EXPECT_TRUE(wc.has_value());
      EXPECT_EQ(wc->status,
                i == 0 ? WcStatus::kRetryExceeded : WcStatus::kFlushed);
    }
    at = r.sim.now();
  }(rig, escalated_at));
  rig.sim.run();
  ASSERT_GT(escalated_at, 0u);
  EXPECT_EQ(rig.sim.now(), escalated_at);
  EXPECT_EQ(rig.sim.pending(), 0u);
}

TEST(RnicTimers, CrashCancelsEveryPendingTimer) {
  Rig rig;
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
  for (std::uint64_t i = 0; i < 3; ++i) {
    rig.cnic.post_write(*rig.cqp, mem::NodeMemory::kDramBase, 64, i * 256, i);
  }
  const std::size_t before = rig.sim.pending();
  rig.cnic.crash();
  EXPECT_EQ(rig.sim.pending(), before - 3) << "one timer per unacked WR";
  rig.sim.run();
  EXPECT_EQ(rig.c_scq.pushed(), 3u);  // all three flushed
  EXPECT_LT(rig.sim.now(), rig.rp.retransmit_interval);
}

TEST(RnicTimers, ReleasingPacketBuffersCancelsTheirTimers) {
  Rig rig;
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
  for (std::uint64_t i = 0; i < 3; ++i) {
    rig.cnic.post_write(*rig.cqp, mem::NodeMemory::kDramBase, 64, i * 256, i);
  }
  const std::size_t before = rig.sim.pending();
  rig.cnic.release_packet_buffers();
  EXPECT_EQ(rig.sim.pending(), before - 3) << "one timer per unacked WR";
  rig.sim.run();
  EXPECT_LT(rig.sim.now(), rig.rp.retransmit_interval);
}

TEST(RnicTimers, NotifyOnAnErroredQpIsNeverRetransmitted) {
  // The server's QP exhausts its retries while the cable is dark and
  // goes to error. Its smartNIC lookup table still answers the client's
  // next write with a notify on that QP; the notify's predecessor was
  // lost, so the client parks it out of order and never ACKs it. The
  // notify's timer must not replay it or fail the QP a second time.
  rnic::RnicParams rp;
  rp.smartnic_rflush = true;
  rp.retransmit_interval = 50_us;
  rp.max_retransmits = 2;
  Rig rig(rp);
  net::FaultPlan plan;
  net::LinkFlap flap;
  flap.a = 0;
  flap.b = 1;
  flap.down_at = 1;
  flap.up_at = 500_us;
  plan.link_flaps.push_back(flap);
  rig.fab.set_fault_plan(plan);
  const std::uint64_t notify = mem::NodeMemory::kDramBase + 512 * 1024;
  rig.snic.configure_auto_persist(*rig.sqp, 0x1000, 4096, notify);
  rig.smem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));

  rig.snic.post_write(*rig.sqp, mem::NodeMemory::kDramBase, 64, 0x2000, 7);
  std::uint64_t retransmits_at_error = 0;
  rig.sim.schedule(600_us, [&rig, &retransmits_at_error] {
    ASSERT_TRUE(rig.sqp->in_error);
    retransmits_at_error = rig.snic.retransmits();
    rig.cnic.post_write(*rig.cqp, mem::NodeMemory::kDramBase, 64, 0x1000, 8);
  });
  rig.sim.run();

  EXPECT_GE(rig.snic.flushes_executed(), 1u);
  EXPECT_EQ(rig.cqp->ooo.size(), 1u) << "the notify must arrive unACKed";
  EXPECT_EQ(rig.sqp->unacked.size(), 1u);
  EXPECT_EQ(rig.snic.retransmits(), retransmits_at_error);
  ASSERT_EQ(rig.s_scq.pushed(), 1u) << "the QP failed more than once";
  const auto wc = rig.s_scq.channel().try_recv();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRetryExceeded);
}

// ---------------------------------------------------------------- various

TEST(RnicWriteImm, NotifiesReceiverCpuWithImmediate) {
  Rig rig;
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(256));
  rig.snic.post_recv(*rig.sqp, mem::NodeMemory::kDramBase + 64 * 1024, 0, 42);

  std::optional<Wc> notify;
  sim::spawn([](Rig& r, std::optional<Wc>& out) -> Task<> {
    out = co_await r.s_rcq.channel().recv();
  }(rig, notify));
  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    (void)co_await s.write(mem::NodeMemory::kDramBase, 256, 0x500, 0xABCDu);
  }(rig));
  rig.sim.run();
  EXPECT_TRUE(notify.has_value());
  EXPECT_TRUE(notify->has_imm);
  EXPECT_EQ(notify->imm, 0xABCDu);
  EXPECT_EQ(notify->local_addr, 0x500u);
}

TEST(RnicRead, FetchesRemoteContent) {
  Rig rig;
  const auto data = pattern(4096, 9);
  rig.smem.pm().poke(0x8000, data);
  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    const auto wc = co_await s.read(0x8000, 4096, mem::NodeMemory::kDramBase);
    EXPECT_TRUE(wc.has_value());
    EXPECT_EQ(wc->byte_len, 4096u);
  }(rig));
  rig.sim.run();
  std::vector<std::byte> out(4096);
  rig.cmem.cpu_read(mem::NodeMemory::kDramBase, out);
  EXPECT_EQ(out, data);
}

TEST(RnicSram, TinySramBacklogsButCompletes) {
  rnic::RnicParams rp;
  rp.sram_capacity = 8 * 1024;  // fits ~1 packet of 4 KiB
  Rig rig(rp);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(4096));
  int done = 0;
  sim::spawn([](Rig& r, int& n) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    for (int i = 0; i < 16; ++i) {
      s.post_write_nowait(mem::NodeMemory::kDramBase, 4096,
                          static_cast<std::uint64_t>(i) * 8192);
    }
    const auto wc = co_await s.wflush(15 * 8192, 4096);
    EXPECT_TRUE(wc.has_value());
    n = 1;
  }(rig, done));
  rig.sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(rig.snic.sram_used(), 0u) << "all SRAM released after drain";
}

TEST(RnicCompleter, DemuxesConcurrentWrs) {
  Rig rig;
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
  std::vector<std::uint64_t> lens;
  sim::spawn([](Rig& r, std::vector<std::uint64_t>& out) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    // Post three ops back-to-back, then await them out of post order.
    const std::uint64_t w1 = comp.fresh_wr();
    const std::uint64_t w2 = comp.fresh_wr();
    const std::uint64_t w3 = comp.fresh_wr();
    r.cnic.post_write(*r.cqp, mem::NodeMemory::kDramBase, 16, 0, w1);
    r.cnic.post_write(*r.cqp, mem::NodeMemory::kDramBase, 32, 64, w2);
    r.cnic.post_write(*r.cqp, mem::NodeMemory::kDramBase, 64, 128, w3);
    const auto c3 = co_await comp.wait(w3);
    const auto c1 = co_await comp.wait(w1);
    const auto c2 = co_await comp.wait(w2);
    EXPECT_TRUE(c1 && c2 && c3);
    out = {c1->byte_len, c2->byte_len, c3->byte_len};
  }(rig, lens));
  rig.sim.run();
  EXPECT_EQ(lens, (std::vector<std::uint64_t>{16, 32, 64}));
}

TEST(RnicPersistRange, LocalRFlushBuildingBlock) {
  rnic::RnicParams rp;
  rp.ddio = true;
  Rig rig(rp);
  const auto data = pattern(512);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, data);
  bool persisted = false;
  sim::spawn([](Rig& r, bool& done) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    (void)co_await s.write(mem::NodeMemory::kDramBase, 512, 0x900);
    EXPECT_FALSE(r.smem.range_persistent(0x900, 512));  // DDIO-dirty
    sim::Event ev(r.sim);
    r.snic.persist_range(0x900, 512, [&ev](SimTime) { ev.set(); });
    co_await ev.wait();
    EXPECT_TRUE(r.smem.range_persistent(0x900, 512));
    done = true;
  }(rig, persisted));
  rig.sim.run();
  EXPECT_TRUE(persisted);
  std::vector<std::byte> out(512);
  rig.smem.pm().peek(0x900, out);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace prdma

namespace prdma {
namespace {

TEST(SmartNic, AutoPersistNotifiesWithoutReceiverCpu) {
  // §4.5: the receiver NIC's lookup table persists incoming writes and
  // pushes a counter to the sender — no receiver software runs at all.
  rnic::RnicParams rp;
  rp.smartnic_rflush = true;
  Rig rig(rp);
  const std::uint64_t notify = mem::NodeMemory::kDramBase + 512 * 1024;
  rig.snic.configure_auto_persist(*rig.sqp, 0x1000, 64 * 1024, notify);

  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(2048));
  sim::spawn([](Rig& r, std::uint64_t naddr) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    for (int i = 0; i < 3; ++i) {
      s.post_write_nowait(mem::NodeMemory::kDramBase, 2048,
                          0x1000 + static_cast<std::uint64_t>(i) * 4096);
    }
    // Wait for the third NIC-issued notification to land locally.
    sim::Event ev(r.sim);
    const auto watch = r.cmem.add_watch(naddr, 8, [&r, naddr, &ev] {
      std::byte raw[8];
      r.cmem.cpu_read(naddr, raw);
      std::uint64_t v = 0;
      std::memcpy(&v, raw, 8);
      if (v >= 3) ev.set();
    });
    co_await ev.wait();
    r.cmem.remove_watch(watch);
    // Notified => persistent: a crash right now must lose nothing.
    r.snic.crash();
    r.smem.crash();
  }(rig, notify));
  rig.sim.run();

  std::vector<std::byte> out(2048);
  rig.smem.pm().peek(0x1000 + 2 * 4096, out);
  EXPECT_EQ(out, pattern(2048)) << "NIC-notified data must survive the crash";
  EXPECT_GE(rig.snic.flushes_executed(), 3u);
}

TEST(SmartNic, DisabledFlagIgnoresLookupTable) {
  Rig rig;  // smartnic_rflush off
  const std::uint64_t notify = mem::NodeMemory::kDramBase + 512 * 1024;
  rig.snic.configure_auto_persist(*rig.sqp, 0x1000, 4096, notify);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(256));
  sim::spawn([](Rig& r) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    (void)co_await s.write(mem::NodeMemory::kDramBase, 256, 0x1000);
  }(rig));
  rig.sim.run();
  std::byte raw[8] = {};
  rig.cmem.cpu_read(notify, raw);
  std::uint64_t v = 1;
  std::memcpy(&v, raw, 8);
  EXPECT_EQ(v, 0u) << "no notification when the mode is off";
}

}  // namespace
}  // namespace prdma

namespace prdma {
namespace {

struct MrRig : Rig {
  MrRig() : Rig(enforcing()) {}
  static rnic::RnicParams enforcing() {
    rnic::RnicParams p;
    p.enforce_mr = true;
    return p;
  }
};

TEST(MemoryRegions, WriteOutsideRegisteredRegionIsNaked) {
  MrRig rig;
  rig.snic.register_mr(0x1000, 4096, static_cast<std::uint8_t>(
                                         rnic::Access::kRemoteWrite));
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(256));

  std::optional<Wc> inside, outside;
  sim::spawn([](MrRig& r, std::optional<Wc>& in, std::optional<Wc>& out)
                 -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    in = co_await s.write(mem::NodeMemory::kDramBase, 256, 0x1000);
    out = co_await s.write(mem::NodeMemory::kDramBase, 256, 0x9000);
  }(rig, inside, outside));
  rig.sim.run();

  ASSERT_TRUE(inside.has_value());
  EXPECT_EQ(inside->status, WcStatus::kSuccess);
  ASSERT_TRUE(outside.has_value());
  EXPECT_EQ(outside->status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(rig.snic.access_violations(), 1u);

  // The NAKed write must not have touched memory.
  std::vector<std::byte> raw(256);
  rig.smem.pm().peek(0x9000, raw);
  EXPECT_EQ(raw, std::vector<std::byte>(256, std::byte{0}));
}

TEST(MemoryRegions, PermissionBitsAreChecked) {
  MrRig rig;
  // Write-only region: reads and flushes must be rejected.
  rig.snic.register_mr(0x1000, 4096, static_cast<std::uint8_t>(
                                         rnic::Access::kRemoteWrite));
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
  std::optional<Wc> rd, fl;
  sim::spawn([](MrRig& r, std::optional<Wc>& ro, std::optional<Wc>& fo)
                 -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    (void)co_await s.write(mem::NodeMemory::kDramBase, 64, 0x1000);
    ro = co_await s.read(0x1000, 64, mem::NodeMemory::kDramBase + 4096);
    fo = co_await s.wflush(0x1000, 64);
  }(rig, rd, fl));
  rig.sim.run();
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->status, WcStatus::kRemoteAccessError);
  ASSERT_TRUE(fl.has_value());
  EXPECT_EQ(fl->status, WcStatus::kRemoteAccessError);
}

TEST(MemoryRegions, FullAccessRegionPermitsEverything) {
  MrRig rig;
  rig.snic.register_mr(0, 1 << 20, rnic::kAccessAll);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(128));
  bool all_ok = true;
  sim::spawn([](MrRig& r, bool& ok) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    const auto w = co_await s.write(mem::NodeMemory::kDramBase, 128, 0x2000);
    const auto f = co_await s.wflush(0x2000, 128);
    const auto rd = co_await s.read(0x2000, 128,
                                    mem::NodeMemory::kDramBase + 8192);
    ok = w && f && rd && w->status == WcStatus::kSuccess &&
         f->status == WcStatus::kSuccess && rd->status == WcStatus::kSuccess;
  }(rig, all_ok));
  rig.sim.run();
  EXPECT_TRUE(all_ok);
}

TEST(MemoryRegions, DeregisterRevokesAccess) {
  MrRig rig;
  const auto rkey = rig.snic.register_mr(
      0x1000, 4096, static_cast<std::uint8_t>(rnic::Access::kRemoteWrite));
  rig.snic.deregister_mr(rkey);
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
  std::optional<Wc> wc;
  sim::spawn([](MrRig& r, std::optional<Wc>& out) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    out = co_await s.write(mem::NodeMemory::kDramBase, 64, 0x1000);
  }(rig, wc));
  rig.sim.run();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRemoteAccessError);
}

TEST(MemoryRegions, EnforcementOffPermitsEverything) {
  Rig rig;  // default params: enforce_mr == false, empty table
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(64));
  std::optional<Wc> wc;
  sim::spawn([](Rig& r, std::optional<Wc>& out) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    out = co_await s.write(mem::NodeMemory::kDramBase, 64, 0x7000);
  }(rig, wc));
  rig.sim.run();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kSuccess);
}

TEST(MemoryRegions, CrashClearsProtectionState) {
  MrRig rig;
  rig.snic.register_mr(0, 1 << 20, rnic::kAccessAll);
  EXPECT_EQ(rig.snic.mr_table().size(), 1u);
  rig.snic.crash();
  EXPECT_EQ(rig.snic.mr_table().size(), 0u);
}

TEST(MemoryRegions, RangeMustBeFullyInsideOneRegion) {
  MrRig rig;
  rig.snic.register_mr(0x1000, 4096, static_cast<std::uint8_t>(
                                         rnic::Access::kRemoteWrite));
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(512));
  std::optional<Wc> wc;
  sim::spawn([](MrRig& r, std::optional<Wc>& out) -> Task<> {
    rdma::Completer comp(r.sim, r.c_scq);
    rdma::QpSession s(r.cnic, *r.cqp, comp);
    // Write straddles the end of the region.
    out = co_await s.write(mem::NodeMemory::kDramBase, 512, 0x1F00);
  }(rig, wc));
  rig.sim.run();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRemoteAccessError);
}


// ------------------------------------------------------- QP window rings
//
// The unacked send window and the out-of-order receive buffer are
// seq-indexed rings (rnic::SeqWindow). SeqWindowDifferential drives a
// ring and a std::map through the same scripted operations; the
// QpWindowDifferential scenarios replay reorder, duplicates, loss,
// NAK, retry exhaustion and crashes through two RNICs and compare
// every work completion (order, status, time) and the pending-event
// count at each one against the trace the std::map windows produced.

/// Checks the ring against the map: size, lowest key, every lookup in
/// [lo - 2, hi + 2) and the ascending iteration order.
void expect_same(rnic::SeqWindow<int>& ring, const std::map<std::uint64_t, int>& ref,
                 const std::string& where) {
  ASSERT_EQ(ring.size(), ref.size()) << where;
  ASSERT_EQ(ring.empty(), ref.empty()) << where;
  if (ref.empty()) return;
  ASSERT_EQ(ring.front_seq(), ref.begin()->first) << where;
  const std::uint64_t lo = ref.begin()->first;
  const std::uint64_t hi = ref.rbegin()->first + 1;
  for (std::uint64_t s = lo >= 2 ? lo - 2 : 0; s < hi + 2; ++s) {
    const auto it = ref.find(s);
    const int* got = ring.find(s);
    ASSERT_EQ(got != nullptr, it != ref.end()) << where << " seq " << s;
    if (got != nullptr) {
      ASSERT_EQ(*got, it->second) << where << " seq " << s;
    }
  }
  std::vector<std::pair<std::uint64_t, int>> order;
  ring.for_each([&order](std::uint64_t s, int v) { order.emplace_back(s, v); });
  ASSERT_EQ(order, (std::vector<std::pair<std::uint64_t, int>>(ref.begin(),
                                                               ref.end())))
      << where;
}

TEST(SeqWindowDifferential, UnackedWindowPattern) {
  // Sends append at the next seq; ACKs erase anywhere (in order, out of
  // order, duplicated), NAKs erase one, retry exhaustion and crashes
  // clear the lot, and sequence numbers keep rising across clears.
  std::mt19937_64 gen(42);
  rnic::SeqWindow<int> ring;
  std::map<std::uint64_t, int> ref;
  std::uint64_t next_seq = 0;
  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(gen() % 100);
    if (op < 45) {
      const int v = static_cast<int>(gen() % 1000);
      ring[next_seq] = v;
      ref[next_seq] = v;
      ++next_seq;
    } else if (op < 70 && !ref.empty()) {
      const std::uint64_t s = ref.begin()->first;  // in-order ACK
      ring.erase(s);
      ref.erase(s);
    } else if (op < 97) {
      // Out-of-order, duplicate or stale ACK anywhere near the window.
      const std::uint64_t span = next_seq + 4;
      const std::uint64_t s = gen() % span;
      ring.erase(s);
      ref.erase(s);
    } else {
      ring.clear();
      ref.clear();
    }
    expect_same(ring, ref, "step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_LE(ring.capacity(), 256u) << "capacity follows the widest span";
}

TEST(SeqWindowDifferential, OutOfOrderBufferPattern) {
  // Early packets park at any seq above the expected one, replays of a
  // parked seq are looked up before parking, and each in-order arrival
  // releases the successor at the new expected seq.
  std::mt19937_64 gen(7);
  rnic::SeqWindow<int> ring;
  std::map<std::uint64_t, int> ref;
  std::uint64_t expected = 0;
  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(gen() % 100);
    if (op < 50) {
      const std::uint64_t s = expected + 1 + gen() % 40;
      EXPECT_EQ(ring.contains(s), ref.count(s) != 0);
      if (ref.count(s) == 0) {
        ring[s] = static_cast<int>(s);
        ref.emplace(s, static_cast<int>(s));
      }
    } else if (op < 98) {
      ++expected;
      if (int* v = ring.find(expected)) {
        EXPECT_EQ(*v, ref.at(expected));
        ring.erase(expected);
        ref.erase(expected);
      }
    } else {
      ring.clear();
      ref.clear();
      expected += 100;
    }
    expect_same(ring, ref, "step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SeqWindowDifferential, GrowthKeepsEveryEntryAtItsSeq) {
  rnic::SeqWindow<int> ring;
  std::map<std::uint64_t, int> ref;
  EXPECT_EQ(ring.capacity(), 0u) << "no storage until the first entry";
  // Insert below and above the current range to force both-sided growth.
  for (std::uint64_t s : {1000u, 1003u, 998u, 1020u, 990u, 1100u, 1001u}) {
    ring[s] = static_cast<int>(s);
    ref[s] = static_cast<int>(s);
    expect_same(ring, ref, "insert " + std::to_string(s));
  }
  EXPECT_GE(ring.capacity(), 111u);
  for (std::uint64_t s : {990u, 1100u, 1003u}) {
    ring.erase(s);
    ref.erase(s);
    expect_same(ring, ref, "erase " + std::to_string(s));
  }
}

/// One scripted two-RNIC exchange; returns its completion trace.
struct WindowScenario {
  const char* name = "";
  rnic::RnicParams rp;
  net::LinkParams lp;
  int writes = 12;           ///< pipelined write + WFlush pairs
  int sends = 0;             ///< send + SFlush pairs (posted recvs)
  bool bad_rkey_every_4th = false;
  bool dead_peer = false;
  SimTime crash_client_at = 0;   ///< 0: never
  SimTime crash_server_at = 0;   ///< 0: never
};

std::string run_window_scenario(const WindowScenario& sc) {
  Rig rig(sc.rp, sc.lp);
  if (sc.rp.enforce_mr) {
    rig.snic.register_mr(0, 1 << 20, rnic::kAccessAll);
  }
  if (sc.dead_peer) rig.snic.crash();
  rig.cmem.cpu_write(mem::NodeMemory::kDramBase, pattern(512, 3));
  if (sc.crash_client_at != 0) {
    rig.sim.schedule_at(sc.crash_client_at, [&rig] { rig.cnic.crash(); });
  }
  if (sc.crash_server_at != 0) {
    rig.sim.schedule_at(sc.crash_server_at, [&rig] { rig.snic.crash(); });
  }
  std::ostringstream trace;
  std::uint64_t wr = 1;
  for (int i = 0; i < sc.sends; ++i) {
    rig.snic.post_recv(*rig.sqp, (static_cast<std::uint64_t>(i) % 8) * 1024,
                       1024, 900 + static_cast<std::uint64_t>(i));
  }
  // Everything is posted up front, so the windows hold many WRs at once.
  for (int i = 0; i < sc.writes; ++i) {
    const std::uint64_t remote =
        sc.bad_rkey_every_4th && i % 4 == 3 ? (2ull << 20) : i * 1024ull;
    rig.cnic.post_write(*rig.cqp, mem::NodeMemory::kDramBase, 512, remote, wr++);
    rig.cnic.post_wflush(*rig.cqp, remote, 512, wr++);
  }
  for (int i = 0; i < sc.sends; ++i) {
    rig.cnic.post_send(*rig.cqp, mem::NodeMemory::kDramBase, 256, wr++);
    rig.cnic.post_sflush(*rig.cqp, 0x40000 + i * 512ull, 256, wr++);
  }
  const std::uint64_t expected = wr - 1;
  sim::spawn([](Rig& r, std::ostringstream& out, std::uint64_t n) -> Task<> {
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto wc = co_await r.c_scq.channel().recv();
      if (!wc.has_value()) {
        out << "cq-reset@" << r.sim.now() << "\n";
        co_return;
      }
      out << r.sim.now() << " wr=" << wc->wr_id << " st="
          << static_cast<int>(wc->status) << " op=" << static_cast<int>(wc->op)
          << " pend=" << r.sim.pending() << "\n";
    }
  }(rig, trace, expected));
  sim::spawn([](Rig& r, std::ostringstream& out, int n) -> Task<> {
    for (int k = 0; k < n; ++k) {
      const auto wc = co_await r.s_rcq.channel().recv();
      if (!wc.has_value()) co_return;
      out << r.sim.now() << " recv wr=" << wc->wr_id
          << " len=" << wc->byte_len << "\n";
    }
  }(rig, trace, sc.sends));
  rig.sim.run();
  trace << "end=" << rig.sim.now() << " pend=" << rig.sim.pending()
        << " retx=" << rig.cnic.retransmits()
        << " rx=" << rig.snic.packets_received() << "/"
        << rig.cnic.packets_received()
        << " drops=" << rig.fab.packets_dropped()
        << " sram=" << rig.snic.sram_used() << "/" << rig.cnic.sram_used()
        << " viol=" << rig.snic.access_violations() << "\n";
  return trace.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<WindowScenario> window_scenarios() {
  std::vector<WindowScenario> out;
  WindowScenario reorder;
  reorder.name = "reorder";
  reorder.lp.jitter_sigma = 0.8;
  out.push_back(reorder);
  WindowScenario dups;
  dups.name = "loss+duplicates";
  dups.rp.retransmit_interval = 150_us;
  dups.lp.loss_probability = 0.2;
  dups.lp.jitter_sigma = 0.6;
  dups.writes = 30;
  out.push_back(dups);
  WindowScenario loss;
  loss.name = "loss";
  loss.rp.retransmit_interval = 100_us;
  loss.lp.loss_probability = 0.15;
  loss.writes = 20;
  loss.sends = 6;
  out.push_back(loss);
  WindowScenario nak;
  nak.name = "nak";
  nak.rp.enforce_mr = true;
  nak.lp.jitter_sigma = 0.5;
  nak.bad_rkey_every_4th = true;
  out.push_back(nak);
  WindowScenario fail;
  fail.name = "fail_qp";
  fail.rp.retransmit_interval = 50_us;
  fail.rp.max_retransmits = 3;
  fail.dead_peer = true;
  fail.writes = 5;
  out.push_back(fail);
  WindowScenario crash;
  crash.name = "crash";
  crash.rp.retransmit_interval = 80_us;
  crash.lp.loss_probability = 0.2;
  crash.lp.jitter_sigma = 0.6;
  crash.writes = 16;
  crash.crash_client_at = 5_us;
  out.push_back(crash);
  WindowScenario server_crash;
  server_crash.name = "server-crash";
  server_crash.rp.retransmit_interval = 60_us;
  server_crash.rp.max_retransmits = 2;
  server_crash.lp.jitter_sigma = 0.8;
  server_crash.writes = 16;
  server_crash.crash_server_at = 4_us;
  out.push_back(server_crash);
  return out;
}

TEST(QpWindowDifferential, CompletionsMatchTheMapWindows) {
  // (scenario, completions, FNV-1a of the full trace) as recorded with
  // the std::map windows on the same seeds.
  const std::map<std::string, std::pair<std::size_t, std::uint64_t>> golden = {
      {"reorder", {25, 483084050775373193ull}},
      {"loss+duplicates", {61, 7072958733981847663ull}},
      {"loss", {59, 5046622966994897085ull}},
      {"nak", {25, 2083120374994384636ull}},
      {"fail_qp", {11, 14810252006703192622ull}},
      {"crash", {33, 15750431825417878136ull}},
      {"server-crash", {33, 10522199720791722351ull}},
  };
  for (const WindowScenario& sc : window_scenarios()) {
    const std::string trace = run_window_scenario(sc);
    const std::size_t lines =
        static_cast<std::size_t>(std::count(trace.begin(), trace.end(), '\n'));
    const auto it = golden.find(sc.name);
    ASSERT_NE(it, golden.end()) << sc.name;
    EXPECT_EQ(lines, it->second.first) << sc.name << "\n" << trace;
    EXPECT_EQ(fnv1a(trace), it->second.second) << sc.name << "\n" << trace;
  }
}

}  // namespace
}  // namespace prdma
