#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/connection.hpp"
#include "core/node.hpp"
#include "core/object_store.hpp"
#include "core/params.hpp"
#include "core/redo_log.hpp"
#include "core/rpc.hpp"
#include "sim/sync.hpp"

namespace prdma::core {

/// The four durable RPC designs of §4 (Fig. 4).
enum class FlushVariant : std::uint8_t {
  kWFlush,   ///< RDMA write + sender-initiated WFlush
  kSFlush,   ///< RDMA send + sender-initiated SFlush
  kWRFlush,  ///< RDMA write + receiver-initiated RFlush
  kSRFlush,  ///< RDMA send + receiver-initiated RFlush
};

[[nodiscard]] constexpr bool is_send_based(FlushVariant v) {
  return v == FlushVariant::kSFlush || v == FlushVariant::kSRFlush;
}
[[nodiscard]] constexpr bool is_receiver_initiated(FlushVariant v) {
  return v == FlushVariant::kWRFlush || v == FlushVariant::kSRFlush;
}
[[nodiscard]] std::string_view variant_name(FlushVariant v);

class DurableRpcServer;

/// Client half of a durable RPC connection.
///
/// Write path: stage a redo-log entry image, ship it (write+WFlush /
/// send+SFlush / write-or-send + receiver RFlush notification), and
/// complete as soon as remote persistence is visible — *before* the
/// server has processed the request (§4.2). Reads queue through the
/// same log for FIFO ordering and complete when the response lands.
class DurableRpcClient : public RpcClient {
 public:
  sim::Task<RpcResult> call(const RpcRequest& req) override;
  sim::Task<RpcResult> call_batch(const std::vector<RpcRequest>& reqs) override;
  [[nodiscard]] std::string_view name() const override;

  /// Sequence of the next entry this client will emit.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Which server-side connection this client is (index into the
  /// server's redo logs).
  [[nodiscard]] std::size_t conn_index() const { return conn_idx_; }

  /// Client-DRAM staging slot of entry `seq`'s image.
  [[nodiscard]] std::uint64_t staging_addr(std::uint64_t seq) const {
    return staging_base_ + ((seq - 1) % window_size_) * staging_slot_bytes_;
  }

  /// The client's verbs session (the durability oracle installs phase
  /// traces here to derive targeted crash timestamps).
  [[nodiscard]] rdma::QpSession* session() { return ep_.session.get(); }

  /// Persist-ACK hook: fires at the simulated instant this client
  /// observes remote persistence for write `seq` (the moment it would
  /// report durability to its application). Payload bytes are the
  /// deterministic pattern for `seq`, so (seq, payload_len) fully
  /// determines the acknowledged content.
  using AckHook = std::function<void(std::uint64_t seq,
                                     std::uint32_t payload_len)>;
  void set_ack_hook(AckHook fn) { ack_hook_ = std::move(fn); }

  /// Highest sequence the server has acknowledged as persisted/consumed
  /// (from the notify words mirrored into client memory).
  [[nodiscard]] std::uint64_t consumed_seen() const;

  /// Fault support: wake every pending call with a failure result
  /// (server died; the fault harness decides what to re-send).
  void abort_pending() override;

 private:
  friend class DurableRpcServer;
  DurableRpcClient(DurableRpcServer& server, Node& node, std::size_t conn_idx);

  sim::Task<RpcResult> transmit_entry(RpcOp op, std::uint64_t obj_id,
                                      std::uint32_t len, std::uint32_t batch);
  sim::Task<> credit_pump();

  DurableRpcServer& server_;
  Node& node_;
  std::size_t conn_idx_;

  Endpoint ep_;  // its recv CQ stays unused (no recvs), but QPs need one

  sim::Semaphore window_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t credits_released_ = 0;

  // client DRAM regions
  std::uint64_t staging_base_ = 0;   ///< ring of entry images
  std::uint64_t notify_base_ = 0;    ///< [0,8) consumed, [8,16) persisted
  std::uint64_t resp_base_ = 0;      ///< response ring (reads)

  std::uint32_t window_size_ = 0;
  std::uint64_t staging_slot_bytes_ = 0;
  std::uint64_t resp_slot_bytes_ = 0;
  bool aborted_ = false;
  AckHook ack_hook_;
};

/// Server half: per-connection redo logs in PM, arrival pumps
/// (ring-polling for write-based variants, recv completions for
/// send-based ones), the RFlush persist+notify path, a shared worker
/// pool that processes log entries asynchronously, and the redo-log
/// recovery path (§4.2, Fig. 5).
class DurableRpcServer : public RpcServer {
 public:
  DurableRpcServer(Cluster& cluster, std::size_t server_idx, FlushVariant v,
                   const ModelParams& params);
  ~DurableRpcServer() override;

  /// Connects a client on node `client_idx`; allocates its log ring,
  /// message buffers and notify/response regions.
  std::unique_ptr<DurableRpcClient> connect_client(std::size_t client_idx);

  void start() override;
  [[nodiscard]] const ServerStats& stats() const override { return stats_; }
  [[nodiscard]] std::string_view name() const override {
    return variant_name(variant_);
  }

  [[nodiscard]] FlushVariant variant() const { return variant_; }
  [[nodiscard]] ObjectStore& store() { return *store_; }
  [[nodiscard]] Node& node() { return server_; }
  /// Queued write/read requests over every connection.
  [[nodiscard]] std::uint64_t backlog() const { return backlog_; }

  // ---- fault-injection interface (Fig. 12 experiments) ----

  /// Software teardown after the node crashed: stops pumps/workers.
  void on_crash() override;

  /// After Node::restart(): replays committed-but-unconsumed log
  /// entries (without any client involvement), rebuilds QPs and
  /// arrival pumps, and resumes. Resolves when recovery is complete.
  sim::Task<> recover_and_restart() override;

  /// Re-wires a client to the server's post-restart QP endpoint.
  void reconnect_client(DurableRpcClient& client);
  void reconnect_client(RpcClient& client) override {
    reconnect_client(dynamic_cast<DurableRpcClient&>(client));
  }

  /// Highest entry sequence of connection `conn_idx` that is durable in
  /// the log (used by clients to decide what needs re-sending). Media
  /// view — never counts bytes stuck in volatile caches or NIC SRAM.
  [[nodiscard]] std::uint64_t durable_watermark(std::size_t conn_idx) const;

  /// Read-only view of connection `conn_idx`'s redo log (oracle use).
  [[nodiscard]] const RedoLog& log(std::size_t conn_idx) const {
    return conns_.at(conn_idx)->log;
  }

  /// Replay hook: fires for every log entry recovery is about to
  /// re-execute (before its side effects are applied).
  using ReplayHook =
      std::function<void(std::size_t conn_idx, const LogEntryView& e)>;
  void set_replay_hook(ReplayHook fn) { replay_hook_ = std::move(fn); }

 private:
  friend class DurableRpcClient;

  /// A connection whose request ring is the client's redo log in PM.
  struct Conn : Connection {
    using Connection::Connection;
    std::uint64_t backlog = 0;
    // Out-of-order completion tracking for the consumed watermark:
    // completed_oo[s % size] flags seq s in (completed_floor,
    // completed_floor + size]. Sized to the log ring, which bounds how
    // far past the floor a client can write; grows if ever exceeded.
    std::uint64_t completed_floor = 0;
    std::vector<bool> completed_oo;
    // client-side addresses (client DRAM)
    std::uint64_t notify_consumed_addr = 0;
    std::uint64_t notify_persist_addr = 0;
    std::uint64_t resp_base = 0;
  };

  struct WorkItem {
    Conn* conn;
    LogEntryView entry;
    bool recovered = false;
    /// Fast-path read answered inline by the poller (no worker spawn).
    bool fast = false;
  };

  void register_log(const Conn& conn);
  /// W-RFlush with a smartNIC (§4.5): hands the persist path to the NIC.
  void configure_smartnic(Conn& conn);
  sim::Task<> conn_loop_write_based(Conn& conn);
  sim::Task<> conn_loop_send_based(Conn& conn);
  sim::Task<> worker_loop();
  sim::Task<> process_item(WorkItem item);
  sim::Task<> advance_consumed(Conn& conn, std::uint64_t seq);
  /// Counts one more queued request on `conn` (and the server total).
  void enqueue_backlog(Conn& conn);
  void notify_word(Conn& conn, std::uint64_t client_addr, std::uint64_t value);
  sim::Task<> persist_slot(Conn& conn, const LogEntryView& e);

  /// Trace track (Chrome "tid") of the server node.
  [[nodiscard]] std::uint16_t trace_track() const {
    return static_cast<std::uint16_t>(server_.id());
  }

  Cluster& cluster_;
  Node& server_;
  FlushVariant variant_;
  ModelParams params_;
  std::uint32_t window_;
  std::unique_ptr<ObjectStore> store_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<sim::Channel<WorkItem>> work_q_;
  ServerStats stats_;
  /// Sum of every connection's backlog, kept as requests queue and
  /// finish so a request never walks the connection list.
  std::uint64_t backlog_ = 0;
  ReplayHook replay_hook_;
  bool running_ = false;
  /// Bumped on every crash; coroutines resumed across the boundary
  /// observe the mismatch and abandon their work (zombie guard).
  std::uint64_t epoch_ = 0;
};

}  // namespace prdma::core
