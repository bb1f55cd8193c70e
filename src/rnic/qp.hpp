#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "rnic/completion.hpp"
#include "rnic/seq_window.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace prdma::rnic {

/// RDMA transport service types (§2.2 of the paper).
enum class Transport : std::uint8_t {
  kRC,  ///< reliable connection: ACKed, retransmitted
  kUC,  ///< unreliable connection: writes allowed, no ACKs
  kUD,  ///< unreliable datagram: sends only, MTU-limited
};

/// A posted receive buffer awaiting an incoming send.
struct RecvWqe {
  std::uint64_t addr = 0;
  std::uint64_t length = 0;
  std::uint64_t wr_id = 0;
};

/// Queue pair endpoint state. Owned by the Rnic; protocol code holds
/// QpId handles, never pointers, so crashes can invalidate freely.
struct Qp {
  std::uint32_t qpn = 0;
  Transport transport = Transport::kRC;
  net::NodeId peer = 0;
  std::uint32_t peer_qpn = 0;
  bool connected = false;

  Cq* send_cq = nullptr;
  Cq* recv_cq = nullptr;

  sim::RingQueue<RecvWqe> recv_queue;

  // --- sender-side RC reliability state ---
  std::uint64_t next_seq = 0;
  struct PendingWr {
    net::Packet packet;  // kept for retransmission
    /// Timeout rounds this packet has seen as head of the unacked
    /// window (go-back-N counts retries of the head; a packet's budget
    /// restarts when it becomes the head).
    int attempts = 0;
    /// The WR's pending retransmission timer; cancelled whenever the
    /// WR leaves `unacked`.
    sim::EventHandle timer;
  };
  SeqWindow<PendingWr> unacked;  // seq -> wr
  /// Retry budget exhausted: the QP took the bounded-retry -> error
  /// escalation. Pending WRs were flushed; new posts fail immediately.
  bool in_error = false;

  // --- receiver-side state ---
  /// Landing zone of the most recent send DMA (consulted by SFlush,
  /// which in hardware would parse the packet; §4.1.1).
  std::uint64_t last_send_addr = 0;
  std::uint64_t last_send_len = 0;

  /// Packets that arrived before a recv buffer was posted (RNR queue).
  sim::RingQueue<net::Packet> rnr_queue;

  /// Receiver-side RC ordering: next sequence number to process.
  /// Packets that arrive early (network jitter) wait in `ooo`;
  /// packets below `expected_seq` are retransmitted duplicates.
  std::uint64_t expected_seq = 0;
  SeqWindow<net::Packet> ooo;
};

}  // namespace prdma::rnic
