#include "check/explorer.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench_util/micro.hpp"
#include "check/harness.hpp"
#include "check/search.hpp"
#include "rpcs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace prdma::check {

using core::RpcOp;
using core::RpcRequest;
using core::RpcResult;
using sim::SimTime;
using sim::Task;

namespace {

/// Shared state between the write drivers and the recovery coroutine.
struct Harness {
  std::uint64_t remaining = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t resends = 0;
  std::uint64_t object_count = 1;
  std::uint32_t value_size = 0;
  std::uint64_t durable_watermark = 0;  ///< media snapshot at the crash
  sim::Event* up = nullptr;
};

Task<> write_driver(core::DurableRpcClient& client, Harness& h,
                    sim::WaitGroup& wg) {
  for (;;) {
    if (h.remaining == 0) break;
    --h.remaining;

    RpcRequest req;
    req.op = RpcOp::kWrite;
    req.obj_id = h.issued++ % h.object_count;
    req.len = h.value_size;

    RpcResult res = co_await client.call(req);
    while (!res.ok) {
      if (!h.up->is_set()) {
        (void)co_await h.up->wait();
      }
      if (res.tag != 0 && res.tag <= h.durable_watermark) {
        // In the log before the lights went out: the server replayed it
        // during recovery, nothing to re-send (§4.2).
        res.ok = true;
        break;
      }
      ++h.resends;
      res = co_await client.call(req);
    }
    ++h.completed;
  }
  wg.done();
}

/// Waits for the crash, brings the server back and reopens the gate.
Task<> recovery_loop(const ServerUnderTest& sut, Harness& h,
                     sim::Event& crashed, SimTime restart_delay) {
  // A named local, not the wait negated inside the `if` condition:
  // GCC 12.2 miscompiles that form in some coroutines. Here the server
  // never restarted after the crash, and explore() died on SIGILL.
  // CI's tier1 job rejects the form anywhere in src/ and tests/.
  const bool fired = co_await crashed.wait();
  if (!fired) co_return;
  co_await restart_server(sut, restart_delay);
  h.up->set();
}

/// Every candidate schedule of one exploration, in serial order:
/// targeted crashes straddling each phase boundary (t-1, t, t+1), then
/// seeded random crash instants over the whole run.
std::vector<Schedule> crash_candidates(const ExplorerConfig& cfg,
                                       const ExplorerReport& rep) {
  std::vector<Schedule> out;
  for (const SimTime t : rep.boundary_points) {
    for (const std::int64_t dt : {-1, 0, 1}) {
      const auto at = static_cast<std::int64_t>(t) + dt;
      if (at < 1) continue;
      out.push_back(Schedule{cfg.seed, static_cast<SimTime>(at), cfg.ops});
    }
  }
  sim::Rng rng(cfg.seed ^ 0xC2B2AE3D27D4EB4Full);
  const SimTime span = std::max<SimTime>(rep.clean_end, 2);
  for (std::uint32_t i = 0; i < cfg.random_schedules; ++i) {
    out.push_back(Schedule{cfg.seed, rng.uniform(1, span - 1), cfg.ops});
  }
  return out;
}

}  // namespace

ScheduleResult run_schedule(const ExplorerConfig& cfg, const Schedule& s,
                            std::vector<SimTime>* boundaries) {
  bench::MicroConfig mc;
  mc.object_size = cfg.value_size;
  mc.objects = 4096;
  mc.seed = s.seed;
  mc.heavy_load = cfg.heavy_processing;
  // Crash schedules need byte-exact post-crash state (torn entries,
  // oracle byte checks) — shadow content is not enough.
  mc.content_mode = mem::ContentMode::kFull;
  core::ModelParams params = bench::params_for(mc);
  params.log_slots = std::max(cfg.window * 2, 8u);
  params.flow_threshold = std::max(cfg.window, 4u);
  params.rnic.retransmit_interval = cfg.retransmit_interval;
  params.rnic.ack_before_persist = cfg.ack_before_persist;
  params.link.loss_probability = cfg.loss_probability;
  params.faults = cfg.faults;
  params.seed = s.seed;

  core::Cluster cluster(params, 2);
  const std::size_t client_nodes[] = {1};
  auto dep = rpcs::make_deployment(cluster, rpcs::system_for(cfg.variant), 0,
                                   client_nodes, params);
  auto& server = dynamic_cast<core::DurableRpcServer&>(*dep.server);
  auto& client = dynamic_cast<core::DurableRpcClient&>(*dep.clients[0]);

  DurabilityOracle oracle(server);
  oracle.attach_client(client);

  if (boundaries != nullptr) {
    client.session()->set_trace([boundaries, &cluster](rdma::Phase) {
      boundaries->push_back(cluster.sim().now());
    });
    server.log(0).set_trace(
        [boundaries, &cluster](core::RedoLog::TracePoint, std::uint64_t) {
          boundaries->push_back(cluster.sim().now());
        });
  }

  ScheduleResult result;
  result.schedule = s;

  sim::Event up(cluster.sim());
  up.set();
  sim::Event crashed(cluster.sim());

  Harness h;
  h.remaining = s.ops;
  h.object_count = params.object_count;
  h.value_size = cfg.value_size;
  h.up = &up;

  const ServerUnderTest sut{cluster.node(0), server, {&client}, &oracle};
  if (s.crash_at > 0) {
    // The full power-failure sequence at one simulated nanosecond, then
    // the media snapshot the write drivers trust after recovery.
    cluster.sim().schedule_at(s.crash_at, [&] {
      up.reset();
      crash_server(sut);
      h.durable_watermark = server.durable_watermark(0);
      result.crash_fired = true;
      crashed.set();
    });
    sim::spawn(recovery_loop(sut, h, crashed, cfg.restart_delay));
  }

  sim::WaitGroup wg(cluster.sim());
  wg.add(cfg.window);
  for (std::uint32_t d = 0; d < cfg.window; ++d) {
    sim::spawn(write_driver(client, h, wg));
  }
  std::optional<SimTime> end;
  sim::spawn(watch_finish(wg, cluster.sim(), end));

  cluster.sim().run();

  result.ops_completed = h.completed;
  result.resends = h.resends;
  result.acks = oracle.acks_recorded();
  result.replays = oracle.replays_observed();
  result.end_time = end.value_or(cluster.sim().now());
  result.violations = oracle.violations();

  if (boundaries != nullptr) {
    std::sort(boundaries->begin(), boundaries->end());
    boundaries->erase(std::unique(boundaries->begin(), boundaries->end()),
                      boundaries->end());
  }
  return result;
}

ExplorerReport explore(const ExplorerConfig& cfg) {
  return search_schedules<ExplorerReport>(
      Schedule{cfg.seed, 0, cfg.ops}, cfg.max_boundary_points, cfg.jobs,
      [&cfg](const Schedule& s, std::vector<SimTime>* boundaries) {
        return run_schedule(cfg, s, boundaries);
      },
      [&cfg](const ExplorerReport& rep) { return crash_candidates(cfg, rep); },
      format_reproducer);
}

const char* net_fault_family_name(NetFaultFamily family) {
  switch (family) {
    case NetFaultFamily::kCrashDuringRetransmit:
      return "crash-during-retransmit";
    case NetFaultFamily::kFlapDuringRecovery:
      return "flap-during-recovery";
    case NetFaultFamily::kPartitionThenHeal:
      return "partition-then-heal";
  }
  return "?";
}

ExplorerConfig with_net_faults(ExplorerConfig cfg, NetFaultFamily family) {
  // Size the fault windows off a clean dry run of the same workload.
  ExplorerConfig clean = cfg;
  clean.loss_probability = 0.0;
  clean.faults = net::FaultPlan{};
  const ScheduleResult base =
      run_schedule(clean, Schedule{cfg.seed, 0, cfg.ops});
  const SimTime span = std::max<SimTime>(base.end_time, 16);

  // Shrink the RC timer: recovery from a dropped packet should cost
  // backoff rounds inside the run, not the paper's 100 ms crash-
  // detection interval. The driver's crash-retry delay shrinks with it
  // (run_schedule reads params.rnic.retransmit_interval).
  cfg.retransmit_interval =
      std::min<SimTime>(cfg.retransmit_interval, 200 * sim::kMicrosecond);

  net::FaultPlan plan;
  switch (family) {
    case NetFaultFamily::kCrashDuringRetransmit: {
      // Lossy from early on: almost every crash instant the explorer
      // probes lands while go-back-N replays are in flight.
      net::LossBurst b;
      b.begin = span / 8;
      b.end = span * 4;  // outlasts post-crash recovery traffic too
      b.loss = 0.05;
      b.corrupt = 0.01;
      plan.bursts.push_back(b);
      break;
    }
    case NetFaultFamily::kFlapDuringRecovery: {
      // The cable goes dark across the middle of the run; crashes near
      // the flap probe recovery traffic racing a dead link.
      net::LinkFlap f;
      f.a = 0;
      f.b = 1;
      f.down_at = span / 3;
      f.up_at = span / 3 + span / 8 + 1;
      plan.link_flaps.push_back(f);
      break;
    }
    case NetFaultFamily::kPartitionThenHeal: {
      net::NetPartition p;
      p.island = {1};  // the client's island
      p.begin = span / 2;
      p.end = span / 2 + span / 8 + 1;
      plan.partitions.push_back(p);
      break;
    }
  }
  plan.validate();
  cfg.faults = std::move(plan);
  return cfg;
}

std::string format_reproducer(const Schedule& s) {
  std::ostringstream os;
  os << "seed=" << s.seed << " crash_at=" << s.crash_at << "ns ops=" << s.ops;
  return os.str();
}

std::optional<Schedule> parse_reproducer(const std::string& line) {
  Schedule s;
  unsigned long long seed = 0;
  unsigned long long crash_at = 0;
  unsigned long long ops = 0;
  if (std::sscanf(line.c_str(), "seed=%llu crash_at=%lluns ops=%llu", &seed,
                  &crash_at, &ops) != 3) {
    return std::nullopt;
  }
  s.seed = seed;
  s.crash_at = crash_at;
  s.ops = ops;
  return s;
}

}  // namespace prdma::check
