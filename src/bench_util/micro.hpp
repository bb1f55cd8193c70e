#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/rpc.hpp"
#include "mem/buffer_pool.hpp"
#include "mem/device.hpp"
#include "repl/replication.hpp"
#include "rpcs/registry.hpp"
#include "sim/partitioned_engine.hpp"
#include "stats/breakdown.hpp"
#include "stats/histogram.hpp"
#include "trace/tracer.hpp"

namespace prdma::bench {

/// Configuration of one micro-benchmark cell (§5.1/§5.2 defaults:
/// 50 K objects, 300 K ops, zipfian with R:W 1:1, 64 KB objects;
/// bench binaries scale `ops` down by default — pass --ops to change).
struct MicroConfig {
  std::uint64_t objects = 50'000;
  std::uint32_t object_size = 64 * 1024;
  std::uint64_t ops = 8'000;       ///< total across all clients
  double read_ratio = 0.5;
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
  std::size_t clients = 1;
  std::uint32_t batch = 1;         ///< ops aggregated per RPC (§4.3)
  bool heavy_load = false;         ///< +100 µs processing per op (§5.2)
  double net_load = 0.0;           ///< background network traffic (Fig. 14)
  /// Link latency jitter (log-normal sigma). The model default; parity
  /// tests pin 0 so a run consumes no fabric noise draws at all and is
  /// byte-identical across engine thread counts.
  double jitter_sigma = 0.03;
  /// Worker threads of the partitioned event engine (DESIGN.md §7.5).
  /// 1 (the default) is the bit-exact serial engine; >1 shards the
  /// cluster one partition per node under conservative lookahead.
  /// Chain replication and kFull tracing force a single partition
  /// regardless (their coroutines/ring span nodes). Switched
  /// topologies force the per-node layout even at one thread, so a
  /// rack/leaf-spine cell replays the identical partitioned schedule
  /// at every --engine-threads value (DESIGN.md §7.6).
  unsigned engine_threads = 1;
  /// Engine partition layout override. kAuto (the default) applies the
  /// policy above: chain replication / kFull tracing pin a single
  /// partition, switched cells with >= 2 racks pin the per-rack layout
  /// at every thread count, remaining switched cells pin per-node.
  /// kPerRack / kPerNode / kSingle force a layout for A/B comparisons
  /// (rack_scale's barrier-count experiment); chain/kFull still win.
  sim::EngineConfig::Partitioning partitioning =
      sim::EngineConfig::Partitioning::kAuto;
  /// Adaptive epoch extension (DESIGN.md §7.7): per-partition horizons
  /// grow beyond the static lookahead whenever the other partitions'
  /// earliest pending work allows. A pure function of the schedule —
  /// stats are pinned byte-identical on vs off (engine_test).
  bool adaptive_epochs = true;
  /// Aggregated closed-loop load (DESIGN.md §7.7): when > 0, every
  /// client host drives this many virtual closed-loop clients through
  /// one workload::ClientPool (shared RNG, exponential think times,
  /// at most client_outstanding requests in flight per host) instead
  /// of spawning one coroutine per client × pipeline-depth. This is
  /// what lets rack_scale reach 512 hosts × 1000 clients. 0 keeps the
  /// classic per-coroutine driver. Requires batch == 1.
  std::uint64_t clients_per_host = 0;
  /// Mean exponential think time between a virtual client's completion
  /// and its next request (clients_per_host mode only).
  prdma::sim::SimTime client_think_ns = 0;
  /// Bound on concurrently outstanding requests per host pool
  /// (clients_per_host mode only).
  std::uint32_t client_outstanding = 8;
  /// Fabric shape (DESIGN.md §7.6). The default point-to-point preset
  /// reproduces the historical flat fabric byte for byte; rack /
  /// leaf-spine route packets over switches with per-port egress
  /// queues (incast, ECMP, optional PFC). Wired from --topology
  /// --racks --hosts-per-rack --spines --pfc via topology_from().
  net::TopologyConfig topology;
  /// Uniform packet-loss probability on every cable (lossy-fabric axis,
  /// DESIGN.md §7.8). Non-zero loss pins the per-node engine layout so
  /// the per-link RNG loss draws replay identically at every
  /// --engine-threads value.
  double loss_probability = 0.0;
  /// Deterministic network-fault schedule (link flaps, switch crashes,
  /// partitions, loss bursts; DESIGN.md §7.8). Installed into the
  /// fabric when non-empty; pins the per-node layout like loss above.
  net::FaultPlan faults;
  /// Override of the RC retransmission timer base interval (0 = keep
  /// the model default). Loss sweeps shrink this so recovery cost, not
  /// the paper's 100 ms crash-detection timer, dominates.
  prdma::sim::SimTime retransmit_interval = 0;
  double server_cpu_load = 0.0;    ///< busy receiver (Fig. 15)
  double client_cpu_load = 0.0;    ///< busy sender (Fig. 16)
  bool ddio = false;
  bool emulate_flush = true;       ///< paper's emulation vs ideal hardware
  bool smartnic_rflush = false;    ///< §4.5 NIC-issued RFlush
  /// Override of the SFlush addressing emulation delay in µs
  /// (UINT64_MAX = keep the model default of 7 µs, §4.1.3).
  std::uint64_t sflush_addressing_us = UINT64_MAX;
  /// Override of server cores / durable worker threads (0 = model
  /// defaults). Fig. 17 uses the testbed's 20-core server.
  unsigned server_cores = 0;
  unsigned server_workers = 0;
  /// Outstanding requests per durable-RPC client (§4.2: "the sender
  /// can issue other RPC requests without waiting for the completion
  /// event"). Baselines are always closed-loop serial (their client
  /// must wait for the response). Latency benches keep this at 1;
  /// throughput benches (Fig. 8) raise it.
  std::uint32_t durable_pipeline = 1;
  // ---- tracing (DESIGN.md §7.2) ----
  /// kCounters by default: exact per-component totals feed the span
  /// breakdown and sender/receiver software accounting of every cell;
  /// Report::configure upgrades to kFull when --trace is given.
  trace::Mode trace_mode = trace::Mode::kCounters;
  std::size_t trace_capacity = trace::Tracer::kDefaultCapacity;
  std::uint32_t trace_pid = 1;  ///< Chrome pid of this cell's fragment
  /// Content fidelity of every node's memory (DESIGN.md §7.3). Shadow
  /// by default: timing, stats and JSON output are pinned identical to
  /// kFull, only the payload byte copies are elided. Harnesses that
  /// inject crashes (check/, fault/) pin kFull — Node::crash() refuses
  /// shadow mode.
  mem::ContentMode content_mode = mem::ContentMode::kShadow;
  /// Multi-replica durability axis (src/repl). kNone (the default)
  /// reproduces the single-primary deployment bit for bit; chain or
  /// mirror replicate every write across `replication.replicas`
  /// durable servers on nodes [0, R) with clients beyond them.
  /// Durable systems only.
  repl::ReplicationConfig replication;
};

/// Outcome of one micro-benchmark cell.
struct MicroResult {
  double kops = 0.0;                        ///< completed ops per ms
  stats::LatencyHistogram latency;          ///< per-op completion latency
  stats::LatencyHistogram write_latency;
  stats::LatencyHistogram read_latency;
  stats::LatencyHistogram durable_latency;  ///< writes: persist visibility
  prdma::sim::SimTime duration = 0;
  core::ServerStats server;
  std::uint64_t ops_completed = 0;
  std::uint64_t sim_events = 0;  ///< simulator events the cell replayed
  /// Pooled mode (clients_per_host > 0): virtual clients that issued at
  /// least one op — the active share of the nominal population.
  std::uint64_t active_clients = 0;
  /// Span-derived (tracer) software costs per op — what Fig. 20 plots.
  /// With tracing off they fall back to the host charged-ns /
  /// ServerStats counters (exact parity, pinned by trace_test).
  double sender_sw_ns = 0.0;    ///< client software per op (kSenderSw spans)
  double receiver_sw_ns = 0.0;  ///< receiver critical path (kReceiverSw spans)
  // ---- topology / congestion accounting (DESIGN.md §7.6) ----
  /// Switch traversals the cell's packets executed (0 = point-to-point).
  std::uint64_t net_switch_hops = 0;
  /// Worst single egress-queue wait at any topology port (incast).
  prdma::sim::SimTime net_max_port_queue_ns = 0;
  /// PFC pauses recorded across all ports (0 unless topology.pfc).
  std::uint64_t net_pfc_pauses = 0;
  // ---- lossy-fabric accounting (DESIGN.md §7.8) ----
  /// Packets the fabric dropped (loss, corruption, downed links,
  /// partitions, dead nodes) — every drop is accounted, never silent.
  std::uint64_t net_drops = 0;
  /// RC data packets the RNICs replayed after retransmission timeouts.
  std::uint64_t rnic_retransmits = 0;
  /// Per-component time totals from the cell's tracer.
  stats::SpanBreakdown breakdown;
  /// Chrome trace-event fragment (kFull cells only; see Report).
  std::string trace_json;
  // ---- data-plane accounting (DESIGN.md §7.3) ----
  /// Content bytes actually moved by the cell's devices (poke/peek);
  /// this is what kShadow shrinks while the timing plane is unchanged.
  std::uint64_t bytes_copied = 0;
  /// Payload-pool traffic summed over all nodes.
  mem::BufferPoolStats pool;
  /// Event-pool heap refills in the simulator (steady state: 0 per op).
  std::uint64_t sim_pool_allocs = 0;
  // ---- partitioned-engine accounting (DESIGN.md §7.7) ----
  /// Partitions the cell's engine sharded the cluster into (1 = serial).
  std::uint64_t engine_partitions = 0;
  /// Lookahead epochs (barrier rounds) the run executed. Deterministic:
  /// a pure function of config + seed, identical at every thread count.
  std::uint64_t engine_epochs = 0;
  /// Wall-clock nanoseconds workers spent inside epoch barriers. Host
  /// telemetry — excluded from every determinism/identity comparison.
  std::uint64_t engine_barrier_wall_ns = 0;
  /// Workers the engine ended on after fitting its worker count to the
  /// load (<= engine_threads; sim::PartitionedEngine::workers_used).
  /// Differs between thread counts, so it is no identity field.
  unsigned engine_workers_used = 1;
  /// Largest share of all executed events that one partition ran
  /// (1.0 = serial). Deterministic per layout: the hot partition bounds
  /// how much any worker count can gain.
  double engine_max_partition_event_share = 1.0;

  [[nodiscard]] double avg_us() const { return latency.mean() / 1e3; }
  [[nodiscard]] double p95_us() const {
    return static_cast<double>(latency.p95()) / 1e3;
  }
  [[nodiscard]] double p99_us() const {
    return static_cast<double>(latency.p99()) / 1e3;
  }
};

/// Derives the full model-parameter set for a cell: sizes the PM
/// window to fit the object store + redo logs, wires the load knobs.
core::ModelParams params_for(const MicroConfig& cfg);

/// Effective object count after fitting the store into the modeled PM
/// window (large-object cells shrink the store; access skew is
/// unaffected).
std::uint64_t effective_objects(const MicroConfig& cfg);

/// Runs one cell of the §5.2 micro-benchmark for `system`.
MicroResult run_micro(rpcs::System system, const MicroConfig& cfg);

/// One (system, config) cell of a sweep grid, for SweepRunner::map.
struct MicroCell {
  rpcs::System system;
  MicroConfig cfg;
};

class SweepRunner;

/// Runs every cell (in parallel per `runner`) and returns the results
/// in cell order — byte-identical to calling run_micro serially.
/// Cells are scheduled longest-expected-first (ops × object size) so a
/// huge cell submitted last cannot serialize the tail of the sweep.
std::vector<MicroResult> run_micro_cells(SweepRunner& runner,
                                         const std::vector<MicroCell>& cells);

class Flags;

/// Shared --content-mode flag convention: absent → `def` (benches pass
/// kShadow), --content-mode=full|shadow overrides.
mem::ContentMode content_mode_from(const Flags& flags,
                                   mem::ContentMode def =
                                       mem::ContentMode::kShadow);

/// Shared replication flags: --replication=none|chain|mirror (default
/// none) and --replicas=N (default 2).
repl::ReplicationConfig replication_from(const Flags& flags);

/// Shared --engine-threads flag: worker threads of the partitioned
/// event engine (DESIGN.md §7.5). Absent or 0 → `def` (benches pass 1,
/// the bit-exact serial engine). Crash-injecting harnesses must keep
/// the default — Node::crash() refuses a partitioned engine.
unsigned engine_threads_from(const Flags& flags, unsigned def = 1);

/// Shared topology flag family: --topology=point-to-point|rack|
/// leaf-spine (default point-to-point) plus --racks, --hosts-per-rack,
/// --spines and --pfc. Throws std::invalid_argument on unknown preset
/// names.
net::TopologyConfig topology_from(const Flags& flags);

}  // namespace prdma::bench
