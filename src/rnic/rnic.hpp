#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "mem/node_memory.hpp"
#include "net/fabric.hpp"
#include "net/packet.hpp"
#include "rnic/completion.hpp"
#include "rnic/mr.hpp"
#include "rnic/params.hpp"
#include "rnic/qp.hpp"
#include "sim/ring_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/tracer.hpp"

namespace prdma::rnic {

/// Completion callback for the DMA engine and the local persistence
/// engine. Move-only with 104 B of inline storage: these callbacks ride
/// inside scheduled events on the hottest path in the simulator, and
/// the previous std::function cost a heap allocation per DMA
/// completion. The budget covers every capture in the tree (the largest
/// is the smartNIC auto-persist continuation) with room for the
/// enclosing event to stay within sim::kEventInlineBytes.
using DmaCallback = sim::InlineFunction<void(sim::SimTime), 104>;

/// Simulated RDMA NIC.
///
/// Models the hardware behaviours the paper's analysis depends on:
///  * a volatile SRAM packet buffer — RC ACKs are generated when data
///    reaches this buffer (time T_A), *before* it is persistent (T_B);
///  * a FIFO DMA engine draining SRAM into host memory across PCIe,
///    steered by DDIO (LLC) or straight into the persist domain;
///  * reads and flushes that must order behind in-flight DMA writes;
///  * the proposed Flush primitives (§4.1): WFlush/SFlush executed on
///    behalf of the remote sender, and persist_range() as the local
///    building block for receiver-initiated RFlush;
///  * RC retransmission with a configurable interval (§5.4);
///  * crash semantics: everything in SRAM, the DMA queue and QP state
///    vanishes; only bytes already DMA-ed into the persist domain
///    survive.
class Rnic {
 public:
  Rnic(sim::Simulator& sim, sim::Rng& rng, net::Fabric& fabric,
       mem::NodeMemory& memory, net::NodeId id, RnicParams params);
  ~Rnic();

  Rnic(const Rnic&) = delete;
  Rnic& operator=(const Rnic&) = delete;

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] RnicParams& params() { return params_; }
  [[nodiscard]] mem::NodeMemory& memory() { return mem_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  // ---- verbs-level control path ----

  Qp& create_qp(Transport transport, Cq& send_cq, Cq& recv_cq);

  /// Registers [addr, +len) for remote access (ibv_reg_mr analogue).
  /// Enforcement is gated by params().enforce_mr.
  std::uint32_t register_mr(std::uint64_t addr, std::uint64_t len,
                            std::uint8_t access) {
    return mrs_.register_mr(addr, len, access);
  }
  void deregister_mr(std::uint32_t rkey) { mrs_.deregister(rkey); }
  [[nodiscard]] const MrTable& mr_table() const { return mrs_; }
  [[nodiscard]] Qp* find_qp(std::uint32_t qpn);
  void connect(Qp& qp, net::NodeId peer, std::uint32_t peer_qpn);

  // ---- verbs-level data path (posts are instantaneous; host software
  //      cost is charged by the host layer before calling these) ----

  void post_recv(Qp& qp, std::uint64_t addr, std::uint64_t len,
                 std::uint64_t wr_id);

  /// Two-sided send; data is read from local memory [local_addr, +len).
  void post_send(Qp& qp, std::uint64_t local_addr, std::uint64_t len,
                 std::uint64_t wr_id,
                 std::optional<std::uint32_t> imm = std::nullopt);

  /// One-sided write to peer memory.
  void post_write(Qp& qp, std::uint64_t local_addr, std::uint64_t len,
                  std::uint64_t remote_addr, std::uint64_t wr_id,
                  std::optional<std::uint32_t> imm = std::nullopt);

  /// One-sided read of peer memory into local memory.
  void post_read(Qp& qp, std::uint64_t remote_addr, std::uint64_t len,
                 std::uint64_t local_addr, std::uint64_t wr_id);

  /// Sender-initiated WFlush (§4.1.1): asks the peer RNIC to persist
  /// [remote_addr, +len) and ACK. RC only.
  void post_wflush(Qp& qp, std::uint64_t remote_addr, std::uint64_t len,
                   std::uint64_t wr_id);

  /// Sender-initiated SFlush (§4.1.1): asks the peer RNIC to resolve
  /// the landing address of the QP's most recent send and persist it
  /// into PM at `pm_dest_addr` (the redo-log slot). RC only.
  void post_sflush(Qp& qp, std::uint64_t pm_dest_addr, std::uint64_t len,
                   std::uint64_t wr_id);

  // ---- local persistence engine (used by RFlush emulation, §4.1.2) ----

  /// Invokes `on_done(t)` at the simulated time t when every byte of
  /// [addr, +len) is in the persist domain: waits for in-flight DMA
  /// over the range, then writes back any dirty LLC lines.
  void persist_range(std::uint64_t addr, std::uint64_t len,
                     DmaCallback on_done);

  /// §4.5 smartNIC RFlush: registers [addr, +len) in the NIC's lookup
  /// table. After each incoming RDMA write into the region completes
  /// its DMA, the NIC persists it and RDMA-writes a monotonically
  /// increasing persisted-entry counter to `notify_addr` at the peer
  /// of `qp` — with no receiver-CPU involvement. Requires
  /// params.smartnic_rflush.
  void configure_auto_persist(Qp& qp, std::uint64_t addr, std::uint64_t len,
                              std::uint64_t notify_addr,
                              std::uint64_t initial_counter = 0);

  /// Drops all smartNIC auto-persist configurations (crash).
  void clear_auto_persist() { auto_persist_.clear(); }

  // ---- failure model ----

  /// Power failure: drops SRAM contents, in-flight DMA, backlogged
  /// packets and QP state; detaches from the fabric.
  void crash();

  /// Restart after a crash: re-attaches to the fabric with empty
  /// state. QPs must be re-created by the application layer.
  void restart();

  /// Drops every buffered packet (unacked windows, out-of-order and
  /// RNR queues) without any other state change. Cluster teardown
  /// calls this on every node before any node is destroyed: buffered
  /// packets hold PayloadRefs into their *sender's* buffer pool, so a
  /// lossy run that ends with parked duplicates must release them
  /// while all pools are still alive.
  void release_packet_buffers() {
    for (auto& qp : qps_) {
      clear_unacked(*qp);
      qp->ooo.clear();
      qp->rnr_queue.clear();
    }
  }

  [[nodiscard]] bool alive() const { return alive_; }

  // ---- introspection / stats ----

  [[nodiscard]] std::uint64_t sram_used() const { return sram_used_; }
  [[nodiscard]] std::size_t pending_dma() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t bytes_lost_in_crashes() const {
    return bytes_lost_;
  }
  [[nodiscard]] std::uint64_t packets_received() const { return rx_packets_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t rnr_events() const { return rnr_events_; }
  [[nodiscard]] std::uint64_t flushes_executed() const { return flushes_; }

  /// Attaches a tracer: records SRAM occupancy samples, DMA drain
  /// spans and WFlush/SFlush/RFlush execution spans on track id().
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct PendingDma {
    std::uint64_t addr;
    std::uint64_t len;
    sim::SimTime done;
    /// Crash-tearing model: when power fails mid-transfer, the
    /// line-aligned prefix proportional to elapsed transfer time has
    /// physically reached the media (non-DDIO PM writes only; DDIO
    /// fills and DRAM are volatile and simply vanish).
    sim::SimTime begin = 0;
    net::PayloadRef payload = nullptr;
    bool ddio = false;
  };

  // -- receive path --
  void on_packet(net::Packet p);
  void dispatch(net::Packet p);
  void admit_data(net::Packet p);
  void process_admitted(net::Packet p);
  void deliver_send(Qp& qp, net::Packet p);
  void handle_read_req(net::Packet p);
  void handle_wflush(net::Packet p);
  void handle_sflush(net::Packet p);
  void handle_ack(const net::Packet& p);
  void release_sram(std::uint64_t bytes);
  void try_admit_backlog();

  // -- transmit path --
  /// Pushes a data packet through the TX pipeline (WQE fetch + PCIe
  /// data read), then onto the wire. Returns the wire-accepted time.
  sim::SimTime transmit_data(net::Packet p);
  /// RNIC-generated control packet (ACK, flush-ACK, read response).
  void transmit_control(net::Packet p);
  /// Schedules the retransmission timer of pending WR `seq` on `qpn`
  /// after `delay`; the caller stores the handle in its PendingWr.
  [[nodiscard]] sim::EventHandle arm_retransmit(std::uint32_t qpn,
                                                std::uint64_t seq,
                                                sim::SimTime delay);
  /// Empties the unacked window, cancelling every WR's timer.
  void clear_unacked(Qp& qp);
  /// The rearm delay after `timeouts` consecutive head-of-window
  /// timeout rounds: interval * backoff^timeouts, capped.
  [[nodiscard]] sim::SimTime backoff_delay(int timeouts) const;
  /// Bounded-retry escalation: puts `qp` in the error state, completes
  /// the head WR kRetryExceeded and flushes every later pending WR so
  /// upper layers (Completer::fail_pending via their CQ polling) see a
  /// clean failure instead of a hang.
  void fail_qp(Qp& qp);
  void complete_send_wr(Qp& qp, std::uint64_t seq, const net::Packet& ack);

  // -- DMA engine --
  void enqueue_dma_write(std::uint64_t addr, net::PayloadRef payload,
                         std::uint64_t len, bool ddio, DmaCallback on_done);
  [[nodiscard]] sim::SimTime drain_time(std::uint64_t addr,
                                        std::uint64_t len) const;
  void prune_pending();

  [[nodiscard]] bool is_rc(const Qp& qp) const {
    return qp.transport == Transport::kRC;
  }

  sim::Simulator& sim_;
  sim::Rng& rng_;
  net::Fabric& fabric_;
  mem::NodeMemory& mem_;
  net::NodeId id_;
  RnicParams params_;
  trace::Tracer* tracer_ = nullptr;

  /// Samples the SRAM gauge after every occupancy change.
  void trace_sram() {
    if (tracer_) {
      tracer_->counter(trace::Component::kRnicSram, sim_.now(), sram_used_,
                       static_cast<std::uint16_t>(id_));
    }
  }
  void trace_span(trace::Component c, std::uint64_t corr, sim::SimTime t0,
                  sim::SimTime t1) {
    if (tracer_) {
      tracer_->span(c, corr, t0, t1, static_cast<std::uint16_t>(id_));
    }
  }

  bool alive_ = true;
  std::uint64_t epoch_ = 0;  ///< bumped on crash; stale callbacks no-op

  /// Indexed by QPN - 1: QPNs are handed out densely from 1 and a QP
  /// lives as long as its RNIC.
  std::vector<std::unique_ptr<Qp>> qps_;

  std::uint64_t sram_used_ = 0;
  sim::RingQueue<net::Packet> backlog_;

  sim::SimTime tx_busy_until_ = 0;
  sim::SimTime dma_busy_until_ = 0;
  std::vector<PendingDma> pending_;

  struct AutoPersist {
    std::uint32_t qpn;
    std::uint64_t addr;
    std::uint64_t len;
    std::uint64_t notify_addr;
    std::uint64_t counter = 0;
  };
  std::vector<AutoPersist> auto_persist_;
  void maybe_auto_persist(std::uint64_t addr, std::uint64_t len);

  /// True when the op may proceed (permission granted or enforcement
  /// off); otherwise NAKs the packet back to its sender.
  bool check_access_or_nak(const net::Packet& p, Access need);

  MrTable mrs_;
  std::uint64_t bytes_lost_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t rnr_events_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t access_violations_ = 0;

 public:
  [[nodiscard]] std::uint64_t access_violations() const {
    return access_violations_;
  }
};

}  // namespace prdma::rnic
