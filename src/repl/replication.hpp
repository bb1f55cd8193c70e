#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/durable_rpc.hpp"
#include "core/node.hpp"
#include "core/params.hpp"
#include "core/rpc.hpp"
#include "sim/sync.hpp"

namespace prdma::repl {

/// Multi-replica durability protocols layered over the durable RPCs.
///
/// Both protocols ship every redo-log transaction to R replicas, each
/// of which is a full DurableRpcServer (own PM log ring, own recovery
/// path). The durable-RPC variant — WFlush / SFlush / W-RFlush /
/// S-RFlush — is the per-hop persistence primitive; the protocol
/// decides hop ordering and when the application ACK fires:
///
///  * kChain — chain replication in the style of FaRM/CR: the entry is
///    persisted on the head, then forwarded hop by hop down the chain
///    (each forward re-issues the durable RPC from the previous
///    replica's node), and the ACK travels back once the tail is
///    durable. Latency grows with R; each link moves the payload once.
///  * kMirror — synchronous mirroring (Tavakkol et al.): the client
///    issues all R durable RPCs in parallel from its own node and ACKs
///    at the latest persist-ACK. Latency ~ the slowest single replica.
enum class Protocol : std::uint8_t {
  kNone,    ///< no replication: plain single-primary durable RPC
  kChain,
  kMirror,
};

[[nodiscard]] std::string_view protocol_name(Protocol p);
[[nodiscard]] std::optional<Protocol> protocol_from_name(std::string_view s);

struct ReplicationConfig {
  Protocol protocol = Protocol::kNone;
  std::size_t replicas = 2;  ///< replica count R (nodes [0, R))
  /// FAULT-INJECTION MUTANT: acknowledge the transaction as soon as
  /// the HEAD replica persisted it and complete the remaining hops in
  /// the background — the classic "local durability equals cluster
  /// durability" bug. A crash of the head inside the forwarding window
  /// then loses an acked transaction cluster-wide; the replicated
  /// oracle must catch it.
  bool ack_before_replica_persist = false;

  [[nodiscard]] bool active() const { return protocol != Protocol::kNone; }
};

class ReplicatedClient;

/// Server side of a replicated deployment: R DurableRpcServers on
/// nodes [0, R), plus per-replica crash/recovery orchestration. The
/// bench harnesses talk to it through the plain RpcServer interface
/// (stats() reports the head replica).
class ReplicaSet : public core::RpcServer {
 public:
  ReplicaSet(core::Cluster& cluster, core::FlushVariant v,
             const ReplicationConfig& cfg, const core::ModelParams& params);
  ~ReplicaSet() override;

  void start() override;
  [[nodiscard]] const core::ServerStats& stats() const override {
    return servers_.front()->stats();
  }
  [[nodiscard]] std::string_view name() const override { return name_; }

  /// Connects a replicated client on node `app_idx` (must not be a
  /// replica node). One durable-RPC connection per replica is opened;
  /// call before start(), like DurableRpcServer::connect_client.
  std::unique_ptr<ReplicatedClient> connect_client(std::size_t app_idx);

  [[nodiscard]] std::size_t replica_count() const { return servers_.size(); }
  [[nodiscard]] Protocol protocol() const { return cfg_.protocol; }
  [[nodiscard]] core::FlushVariant variant() const { return variant_; }
  [[nodiscard]] core::Cluster& cluster() { return cluster_; }
  [[nodiscard]] core::DurableRpcServer& server(std::size_t r) {
    return *servers_.at(r);
  }
  [[nodiscard]] const core::DurableRpcServer& server(std::size_t r) const {
    return *servers_.at(r);
  }

  // ---- per-replica fault injection ----

  /// Full power-failure sequence for replica `r` at the current
  /// instant: software teardown, node hardware loss (torn DMA lands on
  /// its PM), client hop aborts, and a scheduled recovery after
  /// `restart_delay` (> 0 — a dead replica always restarts, so every
  /// waiting coroutine eventually resumes). Crashing an already-down
  /// replica is allowed and restarts its recovery clock
  /// (crash-during-recovery schedules do exactly this). Throws where
  /// Node::crash() does: kShadow content mode, multi-partition engine.
  void crash_replica(std::size_t r, sim::SimTime restart_delay);

  /// True once replica `r`'s server recovered and is serving again.
  [[nodiscard]] bool is_up(std::size_t r) const { return server_up_.at(r); }
  /// Set while replica `r` is up; clients wait on it before re-sending.
  [[nodiscard]] sim::Event& up_event(std::size_t r) { return *up_.at(r); }

  /// Media durable watermark of (replica r, connection conn) captured
  /// at r's most recent crash instant — exactly what r's recovery will
  /// replay. Monotone across repeated crashes of the same replica.
  [[nodiscard]] std::uint64_t watermark_at_crash(std::size_t r,
                                                 std::size_t conn) const;

  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }

  /// Observers fire synchronously inside crash_replica (after the
  /// node's hardware state settled) / at the end of a successful
  /// recovery, with the replica index. The cluster oracle audits here.
  void add_crash_observer(std::function<void(std::size_t)> fn);
  void add_recovery_observer(std::function<void(std::size_t)> fn);

 private:
  friend class ReplicatedClient;

  sim::Task<> recover_replica(std::size_t r, std::uint64_t my_epoch);

  core::Cluster& cluster_;
  core::FlushVariant variant_;
  ReplicationConfig cfg_;
  std::string name_;
  std::vector<std::unique_ptr<core::DurableRpcServer>> servers_;
  std::vector<std::unique_ptr<sim::Event>> up_;
  std::vector<bool> server_up_;   ///< server recovered (set before up_)
  std::vector<bool> node_alive_;  ///< hardware state (guards double crash)
  /// Bumped per crash of the replica; a scheduled recovery whose epoch
  /// is stale abandons — the superseding crash scheduled its own.
  std::vector<std::uint64_t> down_epoch_;
  std::vector<std::vector<std::uint64_t>> watermark_at_crash_;
  std::vector<ReplicatedClient*> clients_;
  std::vector<std::function<void(std::size_t)>> crash_observers_;
  std::vector<std::function<void(std::size_t)>> recovery_observers_;
  std::uint64_t crashes_ = 0;
  bool started_ = false;
};

/// One replicated transaction as the client tracked it. seq_on[r] is
/// the redo-log sequence the transaction got on replica r's connection
/// (0 while that hop is still in flight) — the join key between the
/// cluster-level ACK and each replica's media view.
struct TxnRecord {
  std::uint64_t txn = 0;
  std::uint32_t payload_len = 0;
  std::span<std::uint64_t> seq_on;  ///< one per replica, in the ledger
  sim::SimTime acked_at = 0;
  bool acked = false;
};

/// Every transaction one client issued, indexed by txn (dense from 1).
/// Records and their seq_on arrays live in chunks that double in size
/// (kFirstChunk records first), so a record never moves while a
/// coroutine holds it and the ledger allocates O(log n) times over a
/// run instead of twice per transaction. Iterates in txn order as
/// (txn, record) pairs, like the std::map it replaces.
class TxnLedger {
 public:
  explicit TxnLedger(std::size_t replicas) : replicas_(replicas) {}

  /// Appends the record of transaction size() + 1, seq_on all zero.
  TxnRecord& add() {
    const std::size_t i = size_;
    const std::size_t k = chunk_of(i);
    if (k == chunks_.size()) {
      const std::size_t n = kFirstChunk << k;
      chunks_.push_back(Chunk{std::make_unique<TxnRecord[]>(n),
                              std::make_unique<std::uint64_t[]>(n * replicas_)});
    }
    const std::size_t off = i - chunk_base(k);
    TxnRecord& rec = chunks_[k].records[off];
    rec.txn = ++size_;
    rec.seq_on = {&chunks_[k].seqs[off * replicas_], replicas_};
    return rec;
  }

  /// The record of transaction `txn` (1 <= txn <= size()).
  [[nodiscard]] TxnRecord& at(std::uint64_t txn) {
    const std::size_t k = chunk_of(txn - 1);
    return chunks_[k].records[txn - 1 - chunk_base(k)];
  }
  [[nodiscard]] const TxnRecord& at(std::uint64_t txn) const {
    return const_cast<TxnLedger*>(this)->at(txn);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

  class const_iterator {
   public:
    using value_type = std::pair<std::uint64_t, const TxnRecord&>;
    using difference_type = std::ptrdiff_t;

    const_iterator(const TxnLedger* l, std::uint64_t txn) : l_(l), txn_(txn) {}
    value_type operator*() const { return {txn_, l_->at(txn_)}; }
    const_iterator& operator++() {
      ++txn_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return txn_ == o.txn_; }

   private:
    const TxnLedger* l_;
    std::uint64_t txn_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 1}; }
  [[nodiscard]] const_iterator end() const { return {this, size_ + 1}; }

 private:
  static constexpr std::size_t kFirstChunk = 64;
  /// Chunk k holds records [kFirstChunk * (2^k - 1), kFirstChunk * (2^(k+1) - 1)).
  static std::size_t chunk_of(std::size_t i) {
    return static_cast<std::size_t>(std::bit_width(i / kFirstChunk + 1)) - 1;
  }
  static std::size_t chunk_base(std::size_t k) {
    return kFirstChunk * ((std::size_t{1} << k) - 1);
  }

  struct Chunk {
    std::unique_ptr<TxnRecord[]> records;
    std::unique_ptr<std::uint64_t[]> seqs;
  };
  std::size_t replicas_;
  std::size_t size_ = 0;
  std::vector<Chunk> chunks_;
};

/// Client half: owns one DurableRpcClient per replica ("hop").
///
/// Hop placement models where the protocol runs: mirror issues every
/// hop from the application's node; chain issues hop 0 from the
/// application and hop j>=1 from replica j-1's node (the forwarder),
/// so chain latency includes the store-and-forward path and a tail->
/// client ack propagation.
///
/// Writes self-heal across replica crashes: a failed hop waits for the
/// target (and, for chain, the forwarding host) to come back, then
/// either observes the entry in the crash-instant media watermark
/// (recovery replayed it) or re-sends. Reads go to the head replica.
class ReplicatedClient : public core::RpcClient {
 public:
  sim::Task<core::RpcResult> call(const core::RpcRequest& req) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  void abort_pending() override;

  /// The per-replica durable-RPC hop (per-replica oracles attach their
  /// persist-ACK hooks here).
  [[nodiscard]] core::DurableRpcClient& hop(std::size_t r) {
    return *hops_.at(r);
  }
  /// Node index the hop to replica `r` is issued from.
  [[nodiscard]] std::size_t hop_host(std::size_t r) const {
    return hop_host_.at(r);
  }
  [[nodiscard]] std::size_t conn_index() const { return conn_idx_; }

  /// Fires at the instant the replicated transaction is acknowledged
  /// to the application (all hops durable; head hop only under the
  /// ack_before_replica_persist mutant).
  using TxnAckHook = std::function<void(const TxnRecord&)>;
  void set_txn_ack_hook(TxnAckHook fn) { txn_ack_hook_ = std::move(fn); }

  [[nodiscard]] const TxnLedger& txns() const { return txns_; }
  [[nodiscard]] std::uint64_t acked() const { return acked_; }
  [[nodiscard]] std::uint64_t resends() const { return resends_; }

 private:
  friend class ReplicaSet;
  ReplicatedClient(ReplicaSet& set, std::size_t app_idx);

  sim::Task<core::RpcResult> write_txn(core::RpcRequest req);
  sim::Task<core::RpcResult> read_head(core::RpcRequest req);
  /// One durable RPC to replica `h` with crash-healing retry.
  sim::Task<core::RpcResult> hop_write(std::size_t h, core::RpcRequest req);
  sim::Task<> mirror_hop(std::size_t h, core::RpcRequest req,
                         std::uint64_t txn, sim::WaitGroup& wg);
  /// Mutant background completions (detached; no stack references).
  sim::Task<> chain_tail(core::RpcRequest req, std::uint64_t txn);
  sim::Task<> mirror_tail(std::size_t h, core::RpcRequest req,
                          std::uint64_t txn);
  sim::Task<> wait_hop_usable(std::size_t h);
  void on_replica_crash(std::size_t r);
  void repair_hops();
  [[nodiscard]] std::uint16_t track_of(std::size_t node_idx) const {
    return static_cast<std::uint16_t>(node_idx);
  }

  ReplicaSet& set_;
  std::size_t app_idx_;
  std::size_t conn_idx_;
  std::string name_;
  std::vector<std::unique_ptr<core::DurableRpcClient>> hops_;
  std::vector<std::size_t> hop_host_;
  std::vector<bool> hop_dirty_;  ///< endpoint died; reconnect when possible
  std::uint64_t acked_ = 0;
  std::uint64_t resends_ = 0;
  TxnLedger txns_;
  TxnAckHook txn_ack_hook_;
};

/// Builds a started ReplicaSet deployment: replicas on nodes [0, R),
/// one ReplicatedClient per entry of `client_nodes` (each must be >= R).
core::RpcDeployment make_replicated_deployment(
    core::Cluster& cluster, core::FlushVariant v, const ReplicationConfig& cfg,
    std::span<const std::size_t> client_nodes, const core::ModelParams& params);

}  // namespace prdma::repl
