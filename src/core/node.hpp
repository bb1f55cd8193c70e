#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "host/host.hpp"
#include "mem/node_memory.hpp"
#include "net/fabric.hpp"
#include "rdma/allocator.hpp"
#include "rnic/rnic.hpp"
#include "sim/partitioned_engine.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/tracer.hpp"

namespace prdma::core {

/// One machine: memory system (PM + DRAM + LLC), RNIC, CPU model and
/// region allocators. Composition root for the substrates.
class Node {
 public:
  Node(sim::Simulator& sim, sim::Rng& rng, net::Fabric& fabric,
       net::NodeId id, const ModelParams& params, bool partitioned = false)
      : id_(id),
        partitioned_(partitioned),
        sim_(sim),
        rng_(rng.fork()),
        mem_(sim, params.memory),
        rnic_(sim, rng_, fabric, mem_, id, params.rnic),
        host_(sim, rng_, params.host),
        pm_alloc_(0, params.memory.pm_capacity),
        dram_alloc_(mem::NodeMemory::kDramBase, params.memory.dram_capacity) {}

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] mem::NodeMemory& mem() { return mem_; }
  [[nodiscard]] rnic::Rnic& rnic() { return rnic_; }
  [[nodiscard]] host::Host& host() { return host_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] rdma::RegionAllocator& pm_alloc() { return pm_alloc_; }
  [[nodiscard]] rdma::RegionAllocator& dram_alloc() { return dram_alloc_; }

  /// Power failure of this machine, and the one checked entry every
  /// crash goes through (explorers, fault experiments, replica
  /// crashes). The hardware loses its volatile state: in-flight DMA
  /// lands torn, SRAM, dirty LLC lines and DRAM vanish, PM survives.
  /// Software teardown (an RPC server stopping its pumps) is the
  /// caller's job and comes first.
  ///
  /// Refused, before any state changes, in kShadow content mode (torn
  /// entries and post-crash byte checks need the full content plane)
  /// and on a multi-partition engine (DESIGN.md §7.5 crash coherence:
  /// a power failure tears down software on other nodes' partitions
  /// mid-epoch, which a conservative engine cannot order).
  void crash() {
    check_crashable();
    rnic_.crash();
    mem_.crash();
  }

  /// Throws the std::logic_error crash() would throw, and does nothing
  /// else: callers with software teardown to do before the power
  /// failure ask first, so a refused crash leaves no state behind.
  void check_crashable() const {
    if (mem_.content_mode() == mem::ContentMode::kShadow) {
      throw std::logic_error(
          "a crash requires ContentMode::kFull (run with "
          "--content-mode=full)");
    }
    if (partitioned_) {
      throw std::logic_error(
          "a crash requires a single-partition engine (run with "
          "--engine-threads 1)");
    }
  }

  /// Power-up after a crash; PM contents are intact, everything
  /// volatile is gone. The application layer re-creates QPs and runs
  /// recovery from the redo log.
  void restart() { rnic_.restart(); }

 private:
  net::NodeId id_;
  bool partitioned_;
  sim::Simulator& sim_;
  sim::Rng rng_;
  mem::NodeMemory mem_;
  rnic::Rnic rnic_;
  host::Host host_;
  rdma::RegionAllocator pm_alloc_;
  rdma::RegionAllocator dram_alloc_;
};

/// A simulated testbed: event engine + fabric + N nodes, built from one
/// ModelParams. Node 0 is conventionally the server in point-to-point
/// experiments.
///
/// The engine always owns the Simulator shards. With the default
/// EngineConfig (1 thread) there is exactly one shard and every byte of
/// behaviour matches the historical single-Simulator cluster; with more
/// threads each node gets its own partition, its own tracer shard and
/// its own fabric RNG streams, and run() drives the conservative
/// epoch loop (DESIGN.md §7.5).
class Cluster {
 public:
  /// Resolves an EngineConfig against the declared topology before the
  /// engine is built (member-init order: engine_ precedes fabric_): a
  /// kPerRack request with no explicit map derives one from the
  /// topology's rack striping (net::rack_partition_map) — each ToR and
  /// its hosts share a partition; spines follow their deterministic
  /// owner host (Topology::switch_owner). Which layout a run uses is
  /// the caller's choice (bench::run_micro picks per-rack for
  /// multi-rack fabrics); kAuto keeps the engine's own meaning: one
  /// partition at one thread, one per node above.
  [[nodiscard]] static sim::EngineConfig resolve_engine_config(
      const ModelParams& params, std::size_t node_count,
      sim::EngineConfig engine) {
    if (engine.partitioning == sim::EngineConfig::Partitioning::kPerRack &&
        engine.partition_map.empty()) {
      const std::vector<std::uint32_t> racks =
          net::rack_partition_map(params.topology, node_count);
      engine.partition_map.assign(racks.begin(), racks.end());
    }
    return engine;
  }

  explicit Cluster(const ModelParams& params, std::size_t node_count = 2,
                   sim::EngineConfig engine = {})
      : params_(params),
        engine_(node_count,
                resolve_engine_config(params, node_count, std::move(engine))),
        rng_(params.seed),
        fabric_(engine_.shard(0), rng_, params.link) {
    fabric_.bind_engine(&engine_, params.seed);
    // After bind_engine (ports inherit partitions + the link seed),
    // before any node registers. Point-to-point is a no-op beyond
    // storing the config, keeping the flat fabric byte-identical.
    fabric_.set_topology(params.topology, node_count);
    if (!params.faults.empty()) fabric_.set_fault_plan(params.faults);
    fabric_.set_tracer(&tracer_);
    const std::size_t parts = engine_.partitions();
    for (std::size_t p = 1; p < parts; ++p) {
      shard_tracers_.push_back(std::make_unique<trace::Tracer>());
    }
    nodes_.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
      trace::Tracer& t = tracer_of(i);
      nodes_.push_back(std::make_unique<Node>(
          engine_.shard_of_node(i), rng_, fabric_,
          static_cast<net::NodeId>(i), params_, parts > 1));
      nodes_.back()->rnic().set_tracer(&t);
      nodes_.back()->host().set_tracer(&t, trace::Component::kHostSw,
                                       static_cast<std::uint16_t>(i));
      nodes_.back()->mem().pool().set_tracer(&t,
                                             static_cast<std::uint16_t>(i));
      fabric_.set_node_tracer(static_cast<net::NodeId>(i), &t);
    }
    for (std::size_t p = 0; p < parts; ++p) {
      std::vector<Node*> owned;
      for (const auto& n : nodes_) {
        if (engine_.partition_of_node(n->id()) == p) owned.push_back(n.get());
      }
      engine_.set_epoch_hook(p, [owned = std::move(owned)] {
        for (Node* n : owned) n->mem().pool().drain_remote_frees();
      });
    }
  }

  /// Processes still parked when the run ended (CQ dispatchers, server
  /// loops, polls) reference nodes, so their frames are destroyed
  /// first, while every node is alive. Buffered packets (ooo / RNR /
  /// unacked windows) hold PayloadRefs into their sender's pool;
  /// release them all before the first node (and its pool) goes away —
  /// a lossy run can end with duplicates still parked in another
  /// node's reorder buffer.
  ~Cluster() {
    engine_.destroy_parked_roots();
    for (auto& n : nodes_) {
      if (n) n->rnic().release_packet_buffers();
    }
  }

  /// The single Simulator of a serial cluster. Throws on a
  /// multi-partition engine — serial-only harnesses (crash explorers,
  /// fault experiments) fail fast instead of scheduling on the wrong
  /// shard; partition-aware code uses sim_of().
  [[nodiscard]] sim::Simulator& sim() {
    if (engine_.partitions() > 1) {
      throw std::logic_error(
          "Cluster::sim() is ambiguous with a multi-partition engine; "
          "use sim_of(node) or run with --engine-threads 1");
    }
    return engine_.shard(0);
  }
  /// The Simulator shard node `i`'s events run on.
  [[nodiscard]] sim::Simulator& sim_of(std::size_t i) {
    return engine_.shard_of_node(i);
  }
  [[nodiscard]] sim::PartitionedEngine& engine() { return engine_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] net::Fabric& fabric() { return fabric_; }

  /// The cluster's deterministic tracer (mode kOff until enabled; the
  /// instrumented layers then record into it with zero timing impact).
  /// After a multi-partition run() the per-shard totals have been
  /// merged in here; read aggregates from this one only.
  [[nodiscard]] trace::Tracer& tracer() { return tracer_; }
  /// The tracer shard node `i`'s layers record into (== tracer() for
  /// partition 0 and for every serial cluster).
  [[nodiscard]] trace::Tracer& tracer_of(std::size_t i) {
    const std::size_t p = engine_.partition_of_node(i);
    return p == 0 ? tracer_ : *shard_tracers_[p - 1];
  }

  /// Enables tracing on the main tracer and every shard tracer. kFull
  /// (per-event ring) is confined to single-partition engines.
  void enable_tracing(trace::Mode mode,
                      std::size_t capacity = trace::Tracer::kDefaultCapacity) {
    if (mode == trace::Mode::kFull && engine_.partitions() > 1) {
      throw std::logic_error(
          "kFull tracing (event ring) requires --engine-threads 1");
    }
    trace_capacity_ = capacity;
    tracer_.enable(mode, capacity);
    for (auto& t : shard_tracers_) t->enable(mode, capacity);
  }

  /// Runs the engine to completion: derives the conservative lookahead
  /// from the fabric, drives the epoch loop (or the plain serial run),
  /// then folds shard tracer totals into tracer().
  void run() {
    if (engine_.partitions() > 1) {
      // Lookahead from the cables that can actually cross a partition
      // boundary: under per-rack partitioning only the trunks do, so L
      // grows with the inter-rack propagation instead of being pinned
      // to the shortest intra-rack cable (DESIGN.md §7.7). Falls back
      // to the global minimum when nothing is known to cross.
      sim::SimTime min_prop = fabric_.min_cross_partition_propagation();
      if (min_prop == std::numeric_limits<sim::SimTime>::max()) {
        min_prop = fabric_.min_propagation();
      }
      if (min_prop < 2) {
        throw std::logic_error(
            "multi-partition run requires link propagation >= 2 ns "
            "(lookahead is half the minimum propagation)");
      }
      engine_.set_lookahead(std::max<sim::SimTime>(1, min_prop / 2));
    }
    engine_.run();
    // Epoch/barrier telemetry: the epoch count is deterministic (a
    // pure function of the schedule); barrier wall-ns is host noise and
    // excluded from every model-identity comparison.
    tracer_.counter(trace::Component::kEngineEpochs, engine_.max_now(),
                    engine_.epochs(), 0);
    tracer_.counter(trace::Component::kEngineBarrierNs, engine_.max_now(),
                    engine_.barrier_wall_ns(), 0);
    for (auto& t : shard_tracers_) {
      if (!t->enabled()) continue;
      tracer_.merge_totals_from(*t);
      // Reset so a later run() does not double-count, keeping the
      // capacity requested by enable_tracing().
      t->enable(t->mode(), trace_capacity_);
    }
  }

  [[nodiscard]] std::uint64_t events_executed() const {
    return engine_.events_executed();
  }
  [[nodiscard]] std::uint64_t sim_pool_allocations() const {
    return engine_.pool_allocations();
  }

  [[nodiscard]] const ModelParams& params() const { return params_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }

 private:
  ModelParams params_;
  sim::PartitionedEngine engine_;
  sim::Rng rng_;
  trace::Tracer tracer_;  ///< before fabric_/nodes_: outlives its users
  /// Tracers of partitions 1..P-1 (partition 0 records into tracer_).
  std::vector<std::unique_ptr<trace::Tracer>> shard_tracers_;
  /// Ring capacity from the last enable_tracing(); shard tracers are
  /// re-enabled with it when run() resets their totals.
  std::size_t trace_capacity_ = trace::Tracer::kDefaultCapacity;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace prdma::core
