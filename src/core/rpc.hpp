#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "core/node.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace prdma::core {

/// Operation kinds the micro-benchmarks issue (§5.1).
enum class RpcOp : std::uint32_t {
  kRead = 1,
  kWrite = 2,
};

/// One client request against the remote object store.
struct RpcRequest {
  RpcOp op = RpcOp::kWrite;
  std::uint64_t obj_id = 0;
  std::uint32_t len = 0;  ///< object bytes to move
};

/// Client-observed outcome of one RPC.
struct RpcResult {
  bool ok = false;
  sim::SimTime issued_at = 0;
  /// When remote persistence became visible to the sender (writes
  /// only; equals completed_at for traditional RPCs, earlier for the
  /// durable RPCs — the paper's headline mechanism).
  sim::SimTime durable_at = 0;
  sim::SimTime completed_at = 0;
  /// System-specific identifier of the request (the wire sequence
  /// number); lets fault harnesses match failed calls against the
  /// server's durable watermark.
  std::uint64_t tag = 0;

  [[nodiscard]] sim::SimTime latency() const { return completed_at - issued_at; }
};

/// Interface every RPC system implements at the client side. The
/// micro/macro-benchmarks only ever talk to this.
class RpcClient {
 public:
  virtual ~RpcClient() = default;

  /// Executes one operation; resolves when the RPC is complete from
  /// the application's perspective (see RpcResult::completed_at).
  virtual sim::Task<RpcResult> call(const RpcRequest& req) = 0;

  /// Executes a batch of operations as one flow-controlled unit (§4.3).
  /// Default: sequential calls; systems with native batching override.
  virtual sim::Task<RpcResult> call_batch(const std::vector<RpcRequest>& reqs) {
    RpcResult last{};
    for (const auto& r : reqs) {
      last = co_await call(r);
      if (!last.ok) break;
    }
    co_return last;
  }

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Fault support: wake every pending call with a failure result
  /// (server died; the fault harness decides what to re-send).
  virtual void abort_pending() {}
};

/// Aggregate server-side accounting shared by all server models.
struct ServerStats {
  std::uint64_t ops_processed = 0;
  /// Receiver software time spent on the client-visible critical path
  /// (Fig. 20 decomposition): request detection + any work the client
  /// waits on. Asynchronous (decoupled) processing is excluded.
  std::uint64_t critical_sw_ns = 0;
  std::uint64_t bytes_applied = 0;
  std::uint64_t backlog_peak = 0;   ///< max logged-but-unprocessed entries
  std::uint64_t throttle_events = 0;
  std::uint64_t recoveries = 0;     ///< entries replayed from the redo log
};

/// Interface for the server half of an RPC system.
class RpcServer {
 public:
  virtual ~RpcServer() = default;

  /// Spawns the server's poller/worker processes.
  virtual void start() = 0;

  [[nodiscard]] virtual const ServerStats& stats() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // ---- fault-injection interface (Fig. 12 experiments) ----

  /// Software teardown after the node crashed: stops pumps/workers.
  virtual void on_crash() {}

  /// After Node::restart(): rebuild state (durable servers replay the
  /// redo log first) and resume serving.
  virtual sim::Task<> recover_and_restart() { co_return; }

  /// Re-wires a client to the server's post-restart endpoints.
  virtual void reconnect_client(RpcClient& client) { (void)client; }
};

/// A connected client/server deployment of one RPC system.
struct RpcDeployment {
  std::unique_ptr<RpcServer> server;
  std::vector<std::unique_ptr<RpcClient>> clients;
};

/// Suspends until a write lands in [addr, +len) making `ready` true,
/// then charges one poll detection on `poller`'s host. Resolves
/// immediately (cost only) if `ready` already holds. Client-side
/// helper; server loops use channel-based pumps so crashes can cancel
/// them. The predicate lives in the coroutine frame: no std::function,
/// so a capture of any size costs no allocation.
template <typename Ready>
sim::Task<> poll_until(Node& node, std::uint64_t addr, std::uint64_t len,
                       Ready ready) {
  if (!ready()) {
    sim::Event ev(node.rnic().simulator());
    const auto watch = node.mem().add_watch(addr, len, [&ev, &ready] {
      if (ready()) ev.set();
    });
    co_await ev.wait();
    node.mem().remove_watch(watch);
  }
  co_await node.host().charge_poll();
}

}  // namespace prdma::core
