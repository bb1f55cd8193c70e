#include "check/repl_explorer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "bench_util/micro.hpp"
#include "check/harness.hpp"
#include "check/search.hpp"
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

struct ReplHarness {
  std::uint64_t remaining = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t object_count = 1;
  std::uint32_t value_size = 0;
};

/// Replicated writes self-heal inside ReplicatedClient (per-hop
/// retry against the crash-instant media watermark), so the driver is
/// a plain pipelined issue loop.
Task<> repl_write_driver(repl::ReplicatedClient& client, ReplHarness& h,
                         sim::WaitGroup& wg) {
  for (;;) {
    if (h.remaining == 0) break;
    --h.remaining;

    RpcRequest req;
    req.op = RpcOp::kWrite;
    req.obj_id = h.issued++ % h.object_count;
    req.len = h.value_size;

    (void)co_await client.call(req);
    ++h.completed;
  }
  wg.done();
}

/// Every candidate schedule of one replicated exploration, in serial
/// order: per-replica boundary straddles, correlated, crash-during-
/// recovery and failover pairs, then seeded random singles and pairs.
std::vector<ReplSchedule> repl_candidates(const ReplExplorerConfig& cfg,
                                          const ReplExplorerReport& rep) {
  std::vector<ReplSchedule> candidates;

  // Single-replica crashes straddling each phase boundary.
  for (std::size_t r = 0; r < cfg.replicas; ++r) {
    for (const SimTime t : rep.boundary_points) {
      for (const std::int64_t dt : {-1, 0, 1}) {
        const auto at = static_cast<std::int64_t>(t) + dt;
        if (at < 1) continue;
        candidates.push_back(
            ReplSchedule{cfg.seed, cfg.ops, {{r, static_cast<SimTime>(at)}}});
      }
    }
  }

  // Correlated crashes — every replica at the same instant.
  for (const SimTime t : rep.boundary_points) {
    ReplSchedule s{cfg.seed, cfg.ops, {}};
    for (std::size_t r = 0; r < cfg.replicas; ++r) s.crashes.push_back({r, t});
    candidates.push_back(std::move(s));
  }

  // Crash-during-recovery (re-kill the same replica while it is down
  // / replaying) and failover (second replica dies while the first
  // recovers).
  for (const SimTime t : rep.boundary_points) {
    candidates.push_back(ReplSchedule{
        cfg.seed, cfg.ops, {{0, t}, {0, t + cfg.restart_delay / 2}}});
    candidates.push_back(ReplSchedule{
        cfg.seed,
        cfg.ops,
        {{0, t}, {0, t + cfg.restart_delay + 2 * sim::kMicrosecond}}});
    candidates.push_back(ReplSchedule{
        cfg.seed,
        cfg.ops,
        {{0, t}, {1 % cfg.replicas, t + cfg.restart_delay / 2}}});
  }

  // Seeded random singles and pairs over the whole run.
  sim::Rng rng(cfg.seed ^ 0xC2B2AE3D27D4EB4Full);
  const SimTime span = std::max<SimTime>(rep.clean_end, 2);
  for (std::uint32_t i = 0; i < cfg.random_schedules; ++i) {
    const auto r = static_cast<std::size_t>(
        rng.uniform(0, cfg.replicas - 1));
    candidates.push_back(
        ReplSchedule{cfg.seed, cfg.ops, {{r, rng.uniform(1, span - 1)}}});
  }
  for (std::uint32_t i = 0; i < cfg.random_schedules / 2; ++i) {
    const auto r1 = static_cast<std::size_t>(rng.uniform(0, cfg.replicas - 1));
    const auto r2 = static_cast<std::size_t>(rng.uniform(0, cfg.replicas - 1));
    const SimTime t1 = rng.uniform(1, span - 1);
    const SimTime t2 = rng.uniform(1, span + cfg.restart_delay);
    candidates.push_back(ReplSchedule{cfg.seed, cfg.ops, {{r1, t1}, {r2, t2}}});
  }

  return candidates;
}

}  // namespace

ReplScheduleResult run_repl_schedule(const ReplExplorerConfig& cfg,
                                     const ReplSchedule& s,
                                     std::vector<SimTime>* boundaries) {
  bench::MicroConfig mc;
  mc.object_size = cfg.value_size;
  mc.objects = 4096;
  mc.seed = s.seed;
  // Crash schedules need byte-exact post-crash state on every replica.
  mc.content_mode = mem::ContentMode::kFull;
  core::ModelParams params = bench::params_for(mc);
  params.log_slots = std::max(cfg.window * 2, 8u);
  params.flow_threshold = std::max(cfg.window, 4u);
  params.rnic.retransmit_interval = cfg.retransmit_interval;
  params.link.loss_probability = cfg.loss_probability;
  params.faults = cfg.faults;
  params.seed = s.seed;

  core::Cluster cluster(params, cfg.replicas + 1);
  const std::size_t client_nodes[] = {cfg.replicas};
  repl::ReplicationConfig rcfg;
  rcfg.protocol = cfg.protocol;
  rcfg.replicas = cfg.replicas;
  rcfg.ack_before_replica_persist = cfg.ack_before_replica_persist;
  auto dep = repl::make_replicated_deployment(cluster, cfg.variant, rcfg,
                                              client_nodes, params);
  auto& set = dynamic_cast<repl::ReplicaSet&>(*dep.server);
  auto& client = dynamic_cast<repl::ReplicatedClient&>(*dep.clients[0]);

  ClusterOracle oracle(set, {&client});

  if (boundaries != nullptr) {
    for (std::size_t r = 0; r < set.replica_count(); ++r) {
      client.hop(r).session()->set_trace([boundaries, &cluster](rdma::Phase) {
        boundaries->push_back(cluster.sim().now());
      });
      set.server(r).log(0).set_trace(
          [boundaries, &cluster](core::RedoLog::TracePoint, std::uint64_t) {
            boundaries->push_back(cluster.sim().now());
          });
    }
  }

  ReplScheduleResult result;
  result.schedule = s;

  for (const CrashPoint& cp : s.crashes) {
    if (cp.at == 0 || cp.replica >= set.replica_count()) continue;
    cluster.sim().schedule_at(cp.at, [&set, &cfg, cp] {
      set.crash_replica(cp.replica, cfg.restart_delay);
    });
  }

  ReplHarness h;
  h.remaining = s.ops;
  h.object_count = params.object_count;
  h.value_size = cfg.value_size;

  sim::WaitGroup wg(cluster.sim());
  wg.add(cfg.window);
  for (std::uint32_t d = 0; d < cfg.window; ++d) {
    sim::spawn(repl_write_driver(client, h, wg));
  }

  std::optional<SimTime> end;
  sim::spawn(watch_finish(wg, cluster.sim(), end));

  cluster.sim().run();

  result.crashes_fired = set.crashes();
  result.ops_completed = h.completed;
  result.resends = client.resends();
  result.txn_acks = client.acked();
  result.hop_acks = oracle.acks_recorded();
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

ReplExplorerReport explore_repl(const ReplExplorerConfig& cfg) {
  return search_schedules<ReplExplorerReport>(
      ReplSchedule{cfg.seed, cfg.ops, {}}, cfg.max_boundary_points, cfg.jobs,
      [&cfg](const ReplSchedule& s, std::vector<SimTime>* boundaries) {
        return run_repl_schedule(cfg, s, boundaries);
      },
      [&cfg](const ReplExplorerReport& rep) {
        return repl_candidates(cfg, rep);
      },
      format_repl_reproducer);
}

std::string format_repl_reproducer(const ReplSchedule& s) {
  std::ostringstream os;
  os << "seed=" << s.seed << " ops=" << s.ops << " crash=";
  if (s.crashes.empty()) {
    os << "none";
  } else {
    for (std::size_t i = 0; i < s.crashes.size(); ++i) {
      os << (i ? "," : "") << s.crashes[i].replica << "@" << s.crashes[i].at
         << "ns";
    }
  }
  return os.str();
}

std::optional<ReplSchedule> parse_repl_reproducer(const std::string& line) {
  ReplSchedule s;
  unsigned long long seed = 0;
  unsigned long long ops = 0;
  int pos = -1;
  if (std::sscanf(line.c_str(), "seed=%llu ops=%llu crash=%n", &seed, &ops,
                  &pos) != 2 ||
      pos < 0) {
    return std::nullopt;
  }
  s.seed = seed;
  s.ops = ops;
  const char* p = line.c_str() + pos;
  if (std::strcmp(p, "none") == 0) return s;
  while (*p != '\0') {
    unsigned long long replica = 0;
    unsigned long long at = 0;
    int used = 0;
    if (std::sscanf(p, "%llu@%lluns%n", &replica, &at, &used) != 2) {
      return std::nullopt;
    }
    s.crashes.push_back(
        {static_cast<std::size_t>(replica), static_cast<SimTime>(at)});
    p += used;
    if (*p == ',') {
      ++p;
    } else if (*p != '\0') {
      return std::nullopt;
    }
  }
  if (s.crashes.empty()) return std::nullopt;
  return s;
}

}  // namespace prdma::check
