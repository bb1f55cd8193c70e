#include "bench_util/micro.hpp"

#include "bench_util/flags.hpp"
#include "bench_util/sweep.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/node.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "trace/export.hpp"
#include "workload/client_pool.hpp"

namespace prdma::bench {

using core::ModelParams;
using core::RpcOp;
using core::RpcRequest;
using sim::SimTime;
using sim::Task;

std::uint64_t effective_objects(const MicroConfig& cfg) {
  // Fit the object store into a bounded PM window (the paper's testbed
  // had 1 TB of Optane; we model a window). Cap the store at 192 MiB.
  const std::uint64_t slot = std::max<std::uint64_t>(cfg.object_size, 64);
  const std::uint64_t budget = 192ull << 20;
  return std::min<std::uint64_t>(cfg.objects, std::max<std::uint64_t>(
                                                  budget / slot, 64));
}

core::ModelParams params_for(const MicroConfig& cfg) {
  ModelParams p;
  p.seed = cfg.seed;
  p.max_payload = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(cfg.object_size) * cfg.batch, 64);
  p.object_count = effective_objects(cfg);
  p.rpc_processing = cfg.heavy_load ? 100 * sim::kMicrosecond : 0;
  p.link.background_load = cfg.net_load;
  p.link.jitter_sigma = cfg.jitter_sigma;
  p.link.loss_probability = cfg.loss_probability;
  p.topology = cfg.topology;
  p.faults = cfg.faults;
  if (cfg.retransmit_interval > 0) {
    p.rnic.retransmit_interval = cfg.retransmit_interval;
  }
  p.rnic.ddio = cfg.ddio;
  p.rnic.emulate_flush = cfg.emulate_flush;
  p.rnic.smartnic_rflush = cfg.smartnic_rflush;
  if (cfg.sflush_addressing_us != UINT64_MAX) {
    p.rnic.sflush_addressing = cfg.sflush_addressing_us * sim::kMicrosecond;
  }
  if (cfg.server_cores > 0) p.host.cores = cfg.server_cores;
  if (cfg.server_workers > 0) p.server_workers = cfg.server_workers;
  p.memory.content_mode = cfg.content_mode;

  // Size the PM window: object store + one redo log ring per client +
  // slack for headers/alignment.
  core::LogLayout lay;
  lay.slots = p.log_slots;
  lay.payload_capacity = p.max_payload;
  const std::uint64_t store_bytes =
      p.object_count * std::max<std::uint64_t>(p.max_payload, 64);
  const std::uint64_t log_bytes = cfg.clients * lay.total_bytes();
  p.memory.pm_capacity = store_bytes + log_bytes + (32ull << 20);

  // DRAM: staging/resp rings per client-side window + server buffers.
  // A replicated client opens one durable-RPC hop per replica, each
  // with its own staging/response rings (chain spreads them over the
  // forwarder nodes; sizing every node for the fan-out keeps the
  // parameter set uniform).
  const std::uint64_t fan_out =
      cfg.replication.active() ? cfg.replication.replicas : 1;
  const std::uint64_t per_conn =
      4 * static_cast<std::uint64_t>(p.flow_threshold) *
      (p.max_payload + 256);
  p.memory.dram_capacity = cfg.clients * fan_out * per_conn + (64ull << 20);
  return p;
}

namespace {

/// Per-driver slice of the result. Each driver coroutine lives on its
/// client's node/partition and records only here, so a partitioned run
/// has no cross-thread stat writes; the shards merge in spawn order
/// after the run (histogram merges are commutative bucket adds — the
/// merged stats equal the historical shared-result accounting).
struct DriverShard {
  MicroResult res;
  SimTime finished_at = 0;
  bool done = false;
};

struct ClientDriver {
  core::RpcClient* client;
  std::uint64_t ops;
  DriverShard* shard;
  sim::Rng rng;
};

Task<> drive_client(ClientDriver drv, const MicroConfig cfg,
                    std::uint64_t object_count, sim::Simulator& sim) {
  MicroResult* result = &drv.shard->res;
  sim::ZipfianGenerator zipf(object_count, cfg.zipf_theta);
  for (std::uint64_t i = 0; i < drv.ops; ++i) {
    RpcRequest req;
    req.obj_id = zipf.next(drv.rng);
    req.op = drv.rng.bernoulli(cfg.read_ratio) ? RpcOp::kRead : RpcOp::kWrite;
    req.len = cfg.object_size;

    core::RpcResult res;
    if (cfg.batch > 1) {
      std::vector<RpcRequest> batch(cfg.batch, req);
      res = co_await drv.client->call_batch(batch);
    } else {
      res = co_await drv.client->call(req);
    }
    if (res.ok) {
      ++result->ops_completed;
      result->latency.record(res.latency());
      if (req.op == RpcOp::kWrite) {
        result->write_latency.record(res.latency());
        if (res.durable_at > res.issued_at) {
          result->durable_latency.record(res.durable_at - res.issued_at);
        }
      } else {
        result->read_latency.record(res.latency());
      }
    }
  }
  drv.shard->finished_at = sim.now();
  drv.shard->done = true;
}

}  // namespace

MicroResult run_micro(rpcs::System system, const MicroConfig& cfg) {
  const ModelParams params = params_for(cfg);
  const std::size_t server_nodes =
      cfg.replication.active() ? cfg.replication.replicas : 1;
  sim::EngineConfig ecfg;
  ecfg.threads = std::max(1u, cfg.engine_threads);
  // Chain replication hops clients on forwarder nodes (coroutines that
  // span nodes) and kFull tracing needs one event ring: both pin the
  // whole cluster into a single partition, which is trivially
  // thread-count independent.
  const bool chain =
      cfg.replication.active() &&
      cfg.replication.protocol == repl::Protocol::kChain;
  // A lossy or faulty fabric draws loss/corruption decisions at every
  // egress; the per-node layout gives each link its own RNG stream so
  // those draws replay identically at every thread count (§7.8).
  const bool lossy = cfg.loss_probability > 0.0 || !cfg.faults.empty();
  if (chain || cfg.trace_mode == trace::Mode::kFull) {
    ecfg.partitioning = sim::EngineConfig::Partitioning::kSingle;
  } else if (cfg.partitioning != sim::EngineConfig::Partitioning::kAuto) {
    // Explicit layout override (rack_scale's per-node vs per-rack
    // barrier-count A/B). Cluster fills the per-rack map if needed.
    ecfg.partitioning = cfg.partitioning;
  } else if (cfg.topology.switched() &&
             net::rack_count(cfg.topology, server_nodes + cfg.clients) >= 2) {
    // Multi-rack fabrics partition per rack (DESIGN.md §7.7): only
    // the ToR-spine trunks cross partitions, so the conservative
    // lookahead grows from half the shortest cable to half the trunk
    // propagation and whole racks advance without a barrier. Pinned
    // at every thread count, like per-node below.
    ecfg.partitioning = sim::EngineConfig::Partitioning::kPerRack;
  } else if (cfg.topology.switched() || lossy) {
    // Switched fabrics interleave many nodes' packets through shared
    // egress ports, so same-timestamp ties between merged cross-
    // partition hops and locally scheduled events are common — and the
    // serial heap orders them differently than the epoch merge. Pin
    // the per-node layout even at one thread: every --engine-threads
    // value then replays the identical partitioned schedule. Lossy
    // point-to-point cells pin it too, for the per-link RNGs.
    ecfg.partitioning = sim::EngineConfig::Partitioning::kPerNode;
  }
  ecfg.adaptive_epochs = cfg.adaptive_epochs;
  core::Cluster cluster(params, server_nodes + cfg.clients, ecfg);
  cluster.enable_tracing(cfg.trace_mode, cfg.trace_capacity);
  trace::Tracer& tracer = cluster.tracer();

  std::vector<std::size_t> client_nodes;
  for (std::size_t i = 0; i < cfg.clients; ++i) {
    client_nodes.push_back(server_nodes + i);
  }
  auto dep = rpcs::make_deployment(cluster, system, cfg.replication,
                                   client_nodes, params);

  for (std::size_t r = 0; r < server_nodes; ++r) {
    cluster.node(r).host().set_load(cfg.server_cpu_load);
  }
  for (const std::size_t i : client_nodes) {
    cluster.node(i).host().set_load(cfg.client_cpu_load);
    // Client host software is the sender side of the Fig. 20 breakdown.
    cluster.node(i).host().set_tracer(&cluster.tracer_of(i),
                                      trace::Component::kSenderSw,
                                      static_cast<std::uint16_t>(i));
  }

  MicroResult result;
  // Durable RPCs pipeline (persist-ack completion lets the sender run
  // ahead, §4.2); traditional RPCs are closed-loop serial.
  const std::uint32_t depth = rpcs::info_of(system).durable
                                  ? std::max<std::uint32_t>(
                                        1, cfg.durable_pipeline)
                                  : 1;
  const std::uint64_t ops_per_loop =
      std::max<std::uint64_t>(1, cfg.ops / (cfg.clients * depth));
  std::vector<std::unique_ptr<DriverShard>> shards;
  std::vector<std::unique_ptr<workload::ClientPool>> pools;
  if (cfg.clients_per_host > 0) {
    // Aggregated closed-loop mode (DESIGN.md §7.7): one ClientPool per
    // host stands in for clients_per_host virtual clients — the 512-
    // host rack_scale points drive half a million clients this way.
    if (cfg.batch > 1) {
      throw std::invalid_argument(
          "clients_per_host mode issues single-op RPCs; batch must be 1");
    }
    const std::uint64_t ops_per_host =
        std::max<std::uint64_t>(1, cfg.ops / cfg.clients);
    pools.reserve(cfg.clients);
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      workload::ClientPoolConfig pc;
      pc.clients = cfg.clients_per_host;
      pc.total_ops = ops_per_host;
      pc.max_outstanding = std::max<std::uint32_t>(1, cfg.client_outstanding);
      pc.mean_think_ns = cfg.client_think_ns;
      pc.read_ratio = cfg.read_ratio;
      pc.op_len = cfg.object_size;
      pc.object_count = params.object_count;
      pc.zipf_theta = cfg.zipf_theta;
      pc.seed = cfg.seed * 7919 + c * 64;  // same stream family as classic
      pools.push_back(std::make_unique<workload::ClientPool>(
          cluster.sim_of(client_nodes[c]), *dep.clients[c], std::move(pc)));
      pools.back()->start();
    }
  } else {
    shards.reserve(cfg.clients * depth);
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      for (std::uint32_t d = 0; d < depth; ++d) {
        shards.push_back(std::make_unique<DriverShard>());
        ClientDriver drv{dep.clients[c].get(), ops_per_loop,
                         shards.back().get(),
                         sim::Rng(cfg.seed * 7919 + c * 64 + d)};
        sim::spawn(drive_client(drv, cfg, params.object_count,
                                cluster.sim_of(client_nodes[c])));
      }
    }
  }

  cluster.run();

  // Merge driver shards in spawn order. Every shard finishing is the
  // historical WaitGroup end condition: the cell ends when the last
  // driver records its final completion.
  bool finished = true;
  SimTime end_time = 0;
  for (const auto& shard : shards) {
    finished = finished && shard->done;
    end_time = std::max(end_time, shard->finished_at);
    result.ops_completed += shard->res.ops_completed;
    result.latency.merge(shard->res.latency);
    result.write_latency.merge(shard->res.write_latency);
    result.read_latency.merge(shard->res.read_latency);
    result.durable_latency.merge(shard->res.durable_latency);
  }
  for (const auto& pool : pools) {
    finished = finished && pool->done();
    end_time = std::max(end_time, pool->finished_at());
    const workload::ClientPoolStats& s = pool->stats();
    result.ops_completed += s.ops_completed;
    result.active_clients += s.active_clients;
    result.latency.merge(s.latency);
    result.write_latency.merge(s.write_latency);
    result.read_latency.merge(s.read_latency);
    result.durable_latency.merge(s.durable_latency);
  }
  if (!finished) {
    // Deadlock/bug guard: report what completed.
    end_time = std::max(end_time, cluster.engine().max_now());
  }

  result.duration = end_time;
  result.server = dep.server->stats();
  result.sim_events = cluster.events_executed();
  result.sim_pool_allocs = cluster.sim_pool_allocations();
  result.engine_partitions = cluster.engine().partitions();
  result.engine_epochs = cluster.engine().epochs();
  result.engine_barrier_wall_ns = cluster.engine().barrier_wall_ns();
  result.engine_workers_used = cluster.engine().workers_used();
  if (result.sim_events > 0) {
    result.engine_max_partition_event_share =
        static_cast<double>(cluster.engine().max_partition_events()) /
        static_cast<double>(result.sim_events);
  }
  result.net_switch_hops = cluster.fabric().switch_hops();
  result.net_max_port_queue_ns = cluster.fabric().max_port_queue_ns();
  result.net_pfc_pauses = cluster.fabric().pfc_pauses();
  result.net_drops = cluster.fabric().packets_dropped();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    result.rnic_retransmits += cluster.node(i).rnic().retransmits();
    auto& mem = cluster.node(i).mem();
    result.bytes_copied += mem.pm().bytes_copied() + mem.dram().bytes_copied();
    const mem::BufferPoolStats s = mem.pool().stats();
    result.pool.acquires += s.acquires;
    result.pool.recycles += s.recycles;
    result.pool.outstanding += s.outstanding;
    result.pool.outstanding_peak += s.outstanding_peak;
    result.pool.slab_bytes += s.slab_bytes;
    result.pool.oversize_allocs += s.oversize_allocs;
  }
  if (result.ops_completed > 0) {
    const auto ops = static_cast<double>(result.ops_completed);
    if (tracer.enabled()) {
      // Span-derived accounting: exact parity with the counter-based
      // fallback below (pinned by trace_test), but decomposed per
      // component.
      result.sender_sw_ns =
          static_cast<double>(tracer.total_ns(trace::Component::kSenderSw)) /
          ops;
      result.receiver_sw_ns =
          static_cast<double>(tracer.total_ns(trace::Component::kReceiverSw)) /
          ops;
    } else {
      // Tracing off: the host charged-ns / ServerStats counters carry
      // the same totals the spans would have recorded.
      std::uint64_t client_sw = 0;
      for (const std::size_t i : client_nodes) {
        client_sw += cluster.node(i).host().charged_ns();
      }
      result.sender_sw_ns = static_cast<double>(client_sw) / ops;
      result.receiver_sw_ns =
          static_cast<double>(result.server.critical_sw_ns) / ops;
    }
  }
  if (tracer.enabled()) {
    for (trace::ComponentId id = 0; id < trace::kPredefinedComponents; ++id) {
      const std::uint64_t total = tracer.total_ns(id);
      if (total == 0) continue;  // counters and idle components
      result.breakdown.add_total(id, total, tracer.samples(id));
    }
    if (tracer.mode() == trace::Mode::kFull) {
      result.trace_json = trace::chrome_fragment(
          tracer, cfg.trace_pid, std::string(rpcs::name_of(system)));
    }
  }
  if (end_time > 0) {
    result.kops = static_cast<double>(result.ops_completed) * cfg.batch /
                  sim::to_ms(end_time);
  }
  return result;
}

std::vector<MicroResult> run_micro_cells(SweepRunner& runner,
                                         const std::vector<MicroCell>& cells) {
  // Expected cost of a cell scales with op count and object size; the
  // hint only orders scheduling, results stay in cell order.
  std::vector<double> hints;
  hints.reserve(cells.size());
  for (const MicroCell& c : cells) {
    hints.push_back(static_cast<double>(c.cfg.ops) *
                    (1000.0 + static_cast<double>(c.cfg.object_size)));
  }
  std::vector<MicroResult> out(cells.size());
  runner.for_each_hinted(cells.size(), hints, [&](std::size_t i) {
    out[i] = run_micro(cells[i].system, cells[i].cfg);
  });
  return out;
}

repl::ReplicationConfig replication_from(const Flags& flags) {
  repl::ReplicationConfig cfg;
  const std::string v = flags.str("replication", {});
  if (!v.empty()) {
    const auto p = repl::protocol_from_name(v);
    if (!p.has_value()) {
      throw std::invalid_argument(
          "--replication must be none, chain or mirror, got: " + v);
    }
    cfg.protocol = *p;
  }
  cfg.replicas = static_cast<std::size_t>(flags.u64("replicas", 2));
  return cfg;
}

net::TopologyConfig topology_from(const Flags& flags) {
  net::TopologyConfig cfg;
  const std::string v = flags.str("topology", {});
  if (!v.empty()) {
    const auto p = net::preset_from_name(v);
    if (!p.has_value()) {
      throw std::invalid_argument(
          "--topology must be point-to-point, rack or leaf-spine, got: " + v);
    }
    cfg.preset = *p;
  }
  cfg.racks = static_cast<std::uint32_t>(flags.u64("racks", cfg.racks));
  cfg.hosts_per_rack =
      static_cast<std::uint32_t>(flags.u64("hosts-per-rack", 0));
  cfg.spines = static_cast<std::uint32_t>(flags.u64("spines", cfg.spines));
  cfg.pfc = flags.flag("pfc");
  return cfg;
}

unsigned engine_threads_from(const Flags& flags, unsigned def) {
  const std::uint64_t t = flags.u64("engine-threads", def);
  return static_cast<unsigned>(std::max<std::uint64_t>(1, t));
}

mem::ContentMode content_mode_from(const Flags& flags, mem::ContentMode def) {
  const std::string v = flags.str("content-mode", {});
  if (v.empty()) return def;
  if (v == "full") return mem::ContentMode::kFull;
  if (v == "shadow") return mem::ContentMode::kShadow;
  throw std::invalid_argument("--content-mode must be full or shadow, got: " +
                              v);
}

}  // namespace prdma::bench
