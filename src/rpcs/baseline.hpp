#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/connection.hpp"
#include "core/node.hpp"
#include "core/object_store.hpp"
#include "core/params.hpp"
#include "core/rpc.hpp"
#include "sim/sync.hpp"

namespace prdma::rpcs {

/// Configuration matrix for the baseline RPC systems of Fig. 2 /
/// Table 1. The paper's own observation (§3) is that these systems all
/// share one flow — request, receiver-CPU handling with persistence,
/// response — and differ only in the primitives used at each step;
/// this struct encodes exactly those differences.
struct BaselineConfig {
  std::string_view name = "?";

  /// Transport of the request channel.
  rnic::Transport req_transport = rnic::Transport::kRC;

  /// How the request reaches the server CPU.
  enum class Detect {
    kPoll,      ///< one-sided write into a ring, CPU polls (FaRM/L5/RFP/...)
    kWriteImm,  ///< write-with-immediate, CPU gets a recv WC (Octopus/LITE)
    kRecv,      ///< two-sided send, CPU gets a recv WC (DaRPC/FaSST)
  };
  Detect detect = Detect::kPoll;

  /// How the response reaches the client.
  enum class Respond {
    kWrite,       ///< server RDMA-writes into the client's buffer; client polls
    kClientRead,  ///< client repeatedly RDMA-reads the server result slot (RFP)
    kWriteImm,    ///< server write-imm; client takes a recv WC (Octopus/LITE)
    kUdSend,      ///< response on a separate UD QP (Herd)
    kSend,        ///< two-sided send back (DaRPC/FaSST)
  };
  Respond respond = Respond::kWrite;

  /// Extra per-op software cost on each side (LITE kernel traps).
  sim::SimTime extra_client_cost = 0;
  sim::SimTime extra_server_cost = 0;

  /// Additional verbs posted per request (L5's separate valid-flag write).
  std::uint32_t extra_posts = 0;

  /// ScaleRPC: one warm-up exchange per this many process-phase ops
  /// (0 = no warm-up phases).
  std::uint32_t warmup_every = 0;

  /// UD MTU limit applies (FaSST/Herd responses).
  bool mtu_limited = false;

  /// §4.4.1 case study (Fig. 7a): follow the data write with a WFlush
  /// so remote persistence becomes visible at the flush ACK, before
  /// the RPC response. Only meaningful for write-request systems.
  bool wflush_after_write = false;
};

BaselineConfig farm_config();
BaselineConfig l5_config();
BaselineConfig rfp_config();
BaselineConfig scalerpc_config(std::uint32_t process_per_warmup);
BaselineConfig octopus_config();
BaselineConfig lite_config(sim::SimTime kernel_cost);
BaselineConfig herd_config();
BaselineConfig darpc_config();
BaselineConfig fasst_config();
/// Octopus retrofitted with the WFlush primitive (§4.4.1, Fig. 7a).
BaselineConfig octopus_wflush_config();

class BaselineServer;

/// Client half of a baseline RPC system. Traditional semantics: the
/// call completes when the *response* arrives; the server persisted
/// the data before responding, so completion == durability (the
/// coupling the paper's durable RPCs break).
class BaselineClient : public core::RpcClient {
 public:
  sim::Task<core::RpcResult> call(const core::RpcRequest& req) override;
  sim::Task<core::RpcResult> call_batch(
      const std::vector<core::RpcRequest>& reqs) override;
  [[nodiscard]] std::string_view name() const override;
  void abort_pending() override;

 private:
  friend class BaselineServer;
  BaselineClient(BaselineServer& server, core::Node& node, std::size_t idx);

  sim::Task<core::RpcResult> do_call(core::RpcOp op, std::uint64_t obj_id,
                                     std::uint32_t len, std::uint32_t batch);
  sim::Task<> maybe_warmup(std::uint64_t image_len);
  sim::Task<bool> await_response(std::uint64_t seq, std::uint32_t resp_len);

  BaselineServer& server_;
  core::Node& node_;
  std::size_t conn_idx_;

  core::Endpoint ep_;

  std::uint64_t next_seq_ = 1;
  std::uint64_t ops_since_warmup_ = 0;
  bool recvs_posted_ = false;
  bool aborted_ = false;
  std::uint64_t staging_base_ = 0;
  std::uint64_t resp_base_ = 0;       // client DRAM (write/write-imm paths)
  std::uint64_t warmup_ack_addr_ = 0;
};

/// Server half: per-connection request rings / recv buffers, inline
/// handling (persist + injected processing) and the configured
/// response path.
class BaselineServer : public core::RpcServer {
 public:
  BaselineServer(core::Cluster& cluster, std::size_t server_idx,
                 BaselineConfig config, const core::ModelParams& params);
  ~BaselineServer() override;

  std::unique_ptr<BaselineClient> connect_client(std::size_t client_idx);

  void start() override;
  [[nodiscard]] const core::ServerStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] std::string_view name() const override { return config_.name; }

  // Fault-injection interface (traditional-RPC side of Fig. 12): the
  // server has no redo log, so a restart recovers nothing — clients
  // must re-send everything incomplete.
  void on_crash() override;
  sim::Task<> recover_and_restart() override;
  void reconnect_client(core::RpcClient& client) override;
  [[nodiscard]] core::ObjectStore& store() { return *store_; }
  [[nodiscard]] const BaselineConfig& config() const { return config_; }

 private:
  friend class BaselineClient;

  /// A connection whose request ring (`log`) is volatile DRAM.
  struct Conn : core::Connection {
    using core::Connection::Connection;
    std::uint64_t result_base = 0;  // server-side result slots (RFP)
    std::uint64_t warmup_base = 0;  // ScaleRPC announcement slot
    std::uint64_t warmup_seen = 0;
    std::unique_ptr<sim::Channel<std::uint64_t>> warmup_ch;
    mem::NodeMemory::WatchId warmup_watch = 0;
    // client-side addresses
    std::uint64_t client_resp_base = 0;
    std::uint64_t client_warmup_ack = 0;
    std::uint64_t client_staging = 0;
  };

  sim::Task<> conn_loop_poll(Conn& conn);
  sim::Task<> conn_loop_wc(Conn& conn);
  sim::Task<> warmup_loop(Conn& conn);
  sim::Task<> handle_and_respond(Conn& conn, core::LogEntryView e);
  void register_regions(const Conn& conn);
  [[nodiscard]] bool ud_response() const {
    return config_.respond == BaselineConfig::Respond::kUdSend;
  }

  core::Cluster& cluster_;
  core::Node& server_;
  BaselineConfig config_;
  core::ModelParams params_;
  std::unique_ptr<core::ObjectStore> store_;
  std::vector<std::unique_ptr<Conn>> conns_;
  core::ServerStats stats_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;  ///< crash-zombie guard (see durable server)

  void install_detection(Conn& conn);
};

}  // namespace prdma::rpcs
