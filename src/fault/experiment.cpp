#include "fault/experiment.hpp"

#include <algorithm>
#include <memory>

#include "bench_util/micro.hpp"
#include "check/harness.hpp"
#include "core/durable_rpc.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace prdma::fault {

using core::RpcOp;
using core::RpcRequest;
using core::RpcResult;
using sim::SimTime;
using sim::Task;

namespace {

/// Shared state between the drivers and the crash orchestrator.
struct Harness {
  std::uint64_t remaining = 0;
  std::uint64_t completed = 0;
  std::uint64_t resends = 0;
  std::vector<std::uint64_t> crash_at;  ///< completed-count trigger points
  std::size_t next_crash = 0;
  bool crash_requested = false;
  sim::Event* up = nullptr;
  sim::Event* crash_trigger = nullptr;
  std::uint64_t durable_watermark = 0;  ///< snapshot at last recovery
  bool durable = false;
  sim::Semaphore* retry_mutex = nullptr;
  /// Baseline per-retry wait. Single source of truth: read out of
  /// params.rnic.retransmit_interval, the same QP timer the transport's
  /// own go-back-N machinery runs on.
  sim::SimTime retry_delay = 0;
};

Task<> driver(core::RpcClient& client, Harness& h, FailureRunConfig cfg,
              std::uint64_t object_count, sim::Rng rng, sim::WaitGroup& wg,
              sim::Simulator& sim) {
  sim::ZipfianGenerator zipf(object_count, 0.99);
  for (;;) {
    if (h.remaining == 0) break;
    --h.remaining;

    RpcRequest req;
    req.obj_id = zipf.next(rng);
    req.op = rng.bernoulli(cfg.read_ratio) ? RpcOp::kRead : RpcOp::kWrite;
    req.len = cfg.value_size;

    RpcResult res = co_await client.call(req);
    while (!res.ok) {
      // The server died under this request. Wait out the outage…
      if (!h.up->is_set()) {
        (void)co_await h.up->wait();
      }
      // …then recover with the system's semantics.
      if (h.durable && req.op == RpcOp::kWrite &&
          res.tag != 0 && res.tag <= h.durable_watermark) {
        // The entry reached the redo log before the crash: the server
        // replayed it during recovery — nothing to re-send (§4.2).
        res.ok = true;
        break;
      }
      ++h.resends;
      if (!h.durable) {
        // Traditional RC stack: each lost work request surfaces on its
        // own retransmission-timer expiry; the client then re-sends
        // request AND data (§5.4: 100 ms interval — the QP timer).
        co_await h.retry_mutex->acquire();
        co_await sim::delay(sim, h.retry_delay);
        res = co_await client.call(req);
        h.retry_mutex->release();
      } else {
        // Durable RPCs: the log watermark told the client exactly what
        // was lost; re-issue immediately.
        res = co_await client.call(req);
      }
    }

    ++h.completed;
    if (h.next_crash < h.crash_at.size() &&
        h.completed >= h.crash_at[h.next_crash] && !h.crash_requested) {
      h.crash_requested = true;
      ++h.next_crash;
      h.crash_trigger->set();
    }
  }
  wg.done();
}

Task<> orchestrator(const check::ServerUnderTest& sut, Harness& h,
                    FailureRunConfig cfg, FailureRunResult& out) {
  auto* durable_server = dynamic_cast<core::DurableRpcServer*>(&sut.server);
  for (std::uint32_t i = 0; i < cfg.crashes; ++i) {
    // A named local, not a negated co_await inside the `if`: see
    // recovery_loop in check/explorer.cpp.
    const bool triggered = co_await h.crash_trigger->wait();
    if (!triggered) break;
    h.crash_trigger->reset();
    h.up->reset();

    // Power failure at the server: software stop, hardware state loss,
    // durability audit.
    check::crash_server(sut);
    ++out.crashes;

    // What made it into the redo log before the lights went out?
    h.durable_watermark =
        durable_server != nullptr ? durable_server->durable_watermark(0) : 0;

    // Unikernel restart (§5.4: ~300 ms), then recovery + reconnect.
    co_await check::restart_server(sut, cfg.restart_delay);

    h.crash_requested = false;
    h.up->set();
  }
}

}  // namespace

FailureRunResult run_with_failures(rpcs::System system,
                                   const FailureRunConfig& cfg) {
  bench::MicroConfig mc;
  mc.object_size = cfg.value_size;
  mc.objects = 4096;
  mc.seed = cfg.seed;
  mc.heavy_load = cfg.heavy_processing;
  // Crash injection requires the full content plane (Node::crash()).
  mc.content_mode = mem::ContentMode::kFull;
  mc.topology = cfg.topology;
  core::ModelParams params = bench::params_for(mc);
  params.log_slots = std::max(cfg.window * 2, 8u);
  params.flow_threshold = std::max(cfg.window, 4u);
  params.rnic.retransmit_interval = cfg.retransmit_interval;
  // Fig. 12 models the paper's fixed 100 ms timer (§5.4): every retry
  // round costs exactly one interval, so pin the QP backoff off.
  params.rnic.retransmit_backoff = 1.0;

  core::Cluster cluster(params, 2);
  const std::size_t client_nodes[] = {1};
  auto dep = rpcs::make_deployment(cluster, system, 0, client_nodes, params);

  // Audit durable systems with the durability oracle (a pure observer:
  // it charges no simulated time, so results stay bit-identical).
  std::unique_ptr<check::DurabilityOracle> oracle;
  if (auto* ds = dynamic_cast<core::DurableRpcServer*>(dep.server.get())) {
    oracle = std::make_unique<check::DurabilityOracle>(*ds);
    for (auto& c : dep.clients) {
      oracle->attach_client(dynamic_cast<core::DurableRpcClient&>(*c));
    }
  }

  FailureRunResult result;
  sim::Event up(cluster.sim());
  up.set();
  sim::Event crash_trigger(cluster.sim());
  sim::Semaphore retry_mutex(cluster.sim(), 1);

  Harness h;
  h.remaining = cfg.ops;
  h.up = &up;
  h.crash_trigger = &crash_trigger;
  h.durable = rpcs::info_of(system).durable;
  h.retry_mutex = &retry_mutex;
  h.retry_delay = params.rnic.retransmit_interval;
  for (std::uint32_t i = 1; i <= cfg.crashes; ++i) {
    h.crash_at.push_back(cfg.ops * i / (cfg.crashes + 1));
  }

  sim::WaitGroup wg(cluster.sim());
  wg.add(cfg.window);
  for (std::uint32_t d = 0; d < cfg.window; ++d) {
    sim::spawn(driver(*dep.clients[0], h, cfg, params.object_count,
                      sim::Rng(cfg.seed * 31 + d), wg, cluster.sim()));
  }
  const check::ServerUnderTest sut{cluster.node(0), *dep.server,
                                   {dep.clients[0].get()}, oracle.get()};
  sim::spawn(orchestrator(sut, h, cfg, result));
  std::optional<SimTime> end;
  sim::spawn(check::watch_finish(wg, cluster.sim(), end));

  cluster.sim().run();
  result.total = end.value_or(cluster.sim().now());
  result.ops_completed = h.completed;
  result.resends = h.resends;
  result.replayed = dep.server->stats().recoveries;
  result.oracle_violations = oracle ? oracle->violations().size() : 0;
  return result;
}

std::vector<AvailabilityPoint> compose_figure12(
    double read_ratio, const std::vector<double>& availabilities,
    std::uint64_t seed, std::uint64_t ops_per_measurement,
    const net::TopologyConfig& topology) {
  // Measure per-op time and per-crash overhead for both systems with
  // the real crash/recovery machinery, then compose paper-scale totals
  // (1e9 RPCs; simulating that directly is out of reach).
  struct Measured {
    double t_op_s;
    double o_crash_s;
  };
  const auto measure = [&](rpcs::System sys) {
    FailureRunConfig base;
    base.read_ratio = read_ratio;
    base.ops = ops_per_measurement;
    base.crashes = 0;
    base.seed = seed;
    base.topology = topology;
    const auto clean = run_with_failures(sys, base);

    FailureRunConfig crashy = base;
    crashy.crashes = 2;
    const auto faulty = run_with_failures(sys, crashy);

    Measured m;
    m.t_op_s = sim::to_s(clean.total) / static_cast<double>(clean.ops_completed);
    m.o_crash_s =
        (sim::to_s(faulty.total) - sim::to_s(clean.total)) /
        static_cast<double>(std::max(1u, faulty.crashes));
    m.o_crash_s = std::max(m.o_crash_s, 0.0);
    return m;
  };

  const Measured durable = measure(rpcs::System::kWFlushRpc);
  const Measured traditional = measure(rpcs::System::kFaRM);

  // Per-RPC failure model (§5.4: "we simulate unexpected failures for
  // the unikernels with different probabilities of server
  // availability"): an operation encounters a server failure with
  // probability (1 - a) and then pays the measured per-crash
  // client-visible overhead of its system.
  std::vector<AvailabilityPoint> out;
  for (const double a : availabilities) {
    const double p = 1.0 - a;
    const double t_d = durable.t_op_s + p * durable.o_crash_s;
    const double t_t = traditional.t_op_s + p * traditional.o_crash_s;
    out.push_back({a, t_d / t_t});
  }
  return out;
}

}  // namespace prdma::fault
