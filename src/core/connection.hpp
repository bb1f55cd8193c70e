#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>

#include "core/node.hpp"
#include "core/redo_log.hpp"
#include "rdma/completer.hpp"
#include "rdma/session.hpp"
#include "sim/sync.hpp"

namespace prdma::core {

/// The verbs half of one end of an RPC connection: its completion
/// queues, the completer that drains the send CQ, and sessions over
/// the request QP and, for Herd, a UD response QP sharing both CQs.
struct Endpoint {
  explicit Endpoint(sim::Simulator& sim) : scq(sim), rcq(sim) {}

  rnic::Cq scq;
  rnic::Cq rcq;
  std::unique_ptr<rdma::Completer> completer;
  std::unique_ptr<rdma::QpSession> session;     ///< request channel
  std::unique_ptr<rdma::QpSession> ud_session;  ///< Herd response channel

  [[nodiscard]] rnic::Qp& qp() { return session->qp(); }

  /// Creates or replaces the completer (spawning its dispatcher). A
  /// successor never reuses a predecessor's wr ids: a stale completion
  /// that raced the teardown would match a fresh post and acknowledge
  /// it without any wire round-trip.
  void renew_completer(sim::Simulator& sim);

  /// Crash teardown: resets both CQs (waking their pollers with
  /// nothing) and fails every parked verbs waiter — a reset alone can
  /// be swallowed by a completion already in flight to the dispatcher.
  void tear_down();

  /// A client's half of a server crash: zeroes each `[addr, +len)` of
  /// `wake` (the writes fire the memory watches of parked pollers,
  /// whose predicates observe the caller's aborted flag), then tears
  /// the endpoint down.
  void abort(mem::NodeMemory& mem,
             std::initializer_list<std::pair<std::uint64_t, std::uint64_t>>
                 wake);
};

/// Server-side state of one RPC connection, shared by the durable and
/// the baseline servers: the server endpoint, the request ring the
/// client writes into (a redo log in PM for the durable RPCs, a
/// volatile DRAM ring for the baselines), the receive ring of the
/// send-based designs, and the arrival channel the ring watch feeds.
struct Connection {
  Connection(Node& server_node, Node& client_node, std::size_t index,
             LogLayout layout)
      : server(server_node),
        client(client_node),
        idx(index),
        ep(server_node.simulator()),
        log(server_node, layout),
        arrivals(server_node.simulator()) {}

  Node& server;
  Node& client;
  std::size_t idx;
  Endpoint ep;
  RedoLog log;
  std::uint64_t msg_base = 0;    ///< DRAM receive ring (send-based designs)
  std::uint32_t msg_slots = 0;
  std::uint64_t stage_addr = 0;  ///< server staging (notify words, responses)
  std::uint64_t next_seq = 1;    ///< next entry expected from the client
  sim::Channel<std::uint64_t> arrivals;
  mem::NodeMemory::WatchId watch = 0;

  /// Opens a fresh QP pair of `transport` to the client's endpoint
  /// `peer` (plus a UD pair when `ud_response`) with sessions on both
  /// ends. Connect and reconnect both come through here: the client's
  /// send CQ is reset and its completer renewed, so completions from a
  /// dead pre-crash QP are dropped and can never match a fresh post.
  /// The server completer must already exist.
  void wire(Endpoint& peer, rnic::Transport transport, bool ud_response);

  /// Allocates and declares a receive ring of `slots` log-slot-sized
  /// buffers in server DRAM.
  void alloc_msg_ring(std::uint32_t slots);
  /// Posts one receive per ring slot on the server QP.
  void post_msg_recvs();
  /// Re-posts the receive buffer at `addr` once its message is handled.
  void recycle_msg_slot(std::uint64_t addr);

  /// Watches the request ring: every committed entry in sequence order
  /// is announced on `arrivals`.
  void watch_ring();

  /// Per-connection crash reset: drops the ring watch, wakes the
  /// arrival and completion pollers with nothing, fails verbs waiters.
  void reset_on_crash();
};

}  // namespace prdma::core
