#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/faults.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/partitioned_engine.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/tracer.hpp"

namespace prdma::net {

/// Why the fabric discarded a packet. Every discard — random loss,
/// fault injection, or delivery to a crashed node — goes through one
/// accounted path: a per-reason total, a per-port counter on switched
/// presets, and a kNetDrop tracer tick.
enum class DropReason : std::uint8_t {
  kLoss = 0,     ///< random per-packet loss (LinkParams / LossBurst)
  kCorrupt,      ///< corrupted frame discarded by the link-layer CRC
  kLinkDown,     ///< egress cable down per the FaultPlan
  kPartition,    ///< src and dst on opposite sides of a NetPartition
  kUnreachable,  ///< no surviving route in the current fault epoch
  kDeadNode,     ///< destination crashed/unregistered before arrival
  kCount
};

[[nodiscard]] constexpr const char* drop_reason_name(DropReason r) {
  switch (r) {
    case DropReason::kLoss: return "loss";
    case DropReason::kCorrupt: return "corrupt";
    case DropReason::kLinkDown: return "link-down";
    case DropReason::kPartition: return "partition";
    case DropReason::kUnreachable: return "unreachable";
    case DropReason::kDeadNode: return "dead-node";
    case DropReason::kCount: break;
  }
  return "?";
}

/// The packet engine of the simulated fabric.
///
/// Shape comes from a declarative net::Topology (set_topology): under
/// the degenerate point-to-point preset every directed node pair has
/// its own serialization queue (a busy-until horizon) in a flat
/// open-addressing table keyed on the packed 64-bit (from,to) id —
/// state() is the per-packet hot path and used to walk a red-black
/// tree per send (see engine_perf's data-plane section for the pinned
/// lookup cost). Under a switched preset (rack / leaf-spine) send()
/// instead walks the precomputed ECMP route hop by hop: every directed
/// cable is a Port with its own egress queue, noise stream and
/// congestion counters, switches charge a store-and-forward latency,
/// and contention at fan-in ports (incast) shows up as queue-occupancy
/// delay — optionally surfaced as PFC pauses past a backlog threshold.
///
/// Under a multi-partition engine (bind_engine), the fabric is the
/// cross-partition boundary: a hop whose next vertex lives in another
/// partition is routed through the engine's per-edge outboxes (switch
/// forwarding runs on the deterministic owner host's shard —
/// Topology::switch_owner), link noise draws come from per-link/per-
/// port RNG streams (seeded order-independently), and the jitter
/// multiplier is clamped to >= 0.5 so every arrival respects the
/// conservative lookahead of half the minimum propagation delay.
class Fabric {
 public:
  Fabric(sim::Simulator& sim, sim::Rng& rng, LinkParams defaults)
      : sim_(sim), rng_(rng), defaults_(defaults) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Registers the packet sink of a node's RNIC together with the
  /// simulator shard its events must run on.
  void register_node(NodeId id, sim::Simulator& sim,
                     std::function<void(Packet)> deliver);

  /// Removes a node from the fabric (crashed); packets in flight to it
  /// are discarded on arrival until it re-registers — through the
  /// accounted drop path (DropReason::kDeadNode), never silently.
  void unregister_node(NodeId id);

  [[nodiscard]] bool node_registered(NodeId id) const {
    return id < nodes_.size() && nodes_[id].sink != nullptr;
  }

  /// Installs the fabric shape for `hosts` nodes (Cluster calls this
  /// right after bind_engine, before any node registers). The
  /// point-to-point preset keeps the flat direct-link table and is
  /// byte-identical to the historical fabric; switched presets build
  /// the graph, precompute ECMP routes and materialize one Port (with
  /// its own RNG stream seeded from the bind_engine seed) per directed
  /// cable.
  void set_topology(const TopologyConfig& cfg, std::size_t hosts);

  /// Installs a deterministic fault schedule (call after set_topology,
  /// before the run starts). Link flaps and switch crashes reject
  /// packets at the affected egress for their down interval and switch
  /// routing to precomputed per-epoch ECMP failover tables; partitions
  /// block at the source egress; loss/corruption bursts raise the
  /// effective drop rates inside their window. Fault state is a pure
  /// function of simulated time — the plan schedules no events — so an
  /// active plan stays byte-identical at any engine thread count.
  void set_fault_plan(FaultPlan plan);

  [[nodiscard]] const FaultPlan& fault_plan() const { return plan_; }
  [[nodiscard]] bool fault_plan_active() const { return have_faults_; }

  [[nodiscard]] const TopologyConfig& topology_config() const {
    return topo_cfg_;
  }
  /// The installed graph (nullptr before set_topology).
  [[nodiscard]] const Topology* topology() const { return topo_.get(); }
  /// True when send() walks switch routes instead of direct links.
  [[nodiscard]] bool routed() const {
    return topo_ != nullptr && topo_->switched();
  }

  /// Transmits `p`; delivery is scheduled per the link model (direct
  /// link or multi-hop route). Returns the local "wire accepted" time
  /// (after first-hop serialization) so the sender can model TX-queue
  /// occupancy.
  sim::SimTime send(Packet p);

  /// Per-directed-pair parameter override of the point-to-point table
  /// (creates on first use). Under a switched topology these links are
  /// only consulted for host pairs the graph leaves disconnected.
  LinkParams& direct_link(NodeId from, NodeId to);

  /// Minimum one-way propagation over every cable whose traversal can
  /// cross an engine-partition boundary — the basis of the per-rack
  /// conservative lookahead (DESIGN.md §7.7). A routed port crosses
  /// when any of its successors (the destination host, or the ports
  /// out of its destination switch) executes on a different partition;
  /// a direct link crosses when its endpoints' partitions differ *and*
  /// the graph leaves the pair unrouted (routed pairs never take the
  /// flat table, so its default-propagation entries must not shrink
  /// the bound below the trunks'). Returns SimTime max when no cable
  /// crosses (single partition, or not bound to an engine) — callers
  /// fall back to min_propagation().
  [[nodiscard]] sim::SimTime min_cross_partition_propagation() const;

  /// Applies `fn` (any LinkParams& callable) to the default
  /// parameters, every direct point-to-point link and every topology
  /// port — the setup-phase bulk-override hook. Template visitor: the
  /// historical const std::function& signature allocated per call.
  template <typename Fn>
  void for_each_link(Fn&& fn) {
    fn(defaults_);
    for (LinkSlot& slot : links_) {
      if (slot.key != kEmptyKey) fn(slot.state.params);
    }
    for (Port& port : ports_) fn(port.params);
  }

  /// Minimum one-way propagation over the defaults, every existing
  /// link override and every topology port — the engine's conservative
  /// lookahead is derived from it (links created after this call
  /// inherit the defaults, so the bound stays valid).
  [[nodiscard]] sim::SimTime min_propagation() const;

  [[nodiscard]] std::uint64_t packets_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t packets_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Drops attributed to one cause (sums to packets_dropped()).
  [[nodiscard]] std::uint64_t packets_dropped(DropReason r) const {
    return drops_by_reason_[static_cast<std::size_t>(r)].load(
        std::memory_order_relaxed);
  }
  /// Bytes that occupied a cable, summed over every hop a packet took
  /// (a 3-port route charges the packet three times — wire occupancy,
  /// not goodput).
  [[nodiscard]] std::uint64_t bytes_carried() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Switch traversals executed (0 under point-to-point).
  [[nodiscard]] std::uint64_t switch_hops() const {
    return switch_hops_.load(std::memory_order_relaxed);
  }

  // ---- per-port congestion introspection (switched presets) ----

  struct PortStats {
    Vertex from = 0;
    Vertex to = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    /// Egress-queue wait behind earlier packets, total / worst single.
    sim::SimTime queue_ns_total = 0;
    sim::SimTime queue_ns_peak = 0;
    std::uint64_t pfc_events = 0;
    sim::SimTime pfc_pause_ns = 0;
    /// Packets discarded at this egress, any reason / CRC discards.
    std::uint64_t drops = 0;
    std::uint64_t corrupt_drops = 0;
  };

  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }
  /// Snapshot of port `i` (indexes match Topology edge ids). Only
  /// meaningful between runs — port counters are single-writer by the
  /// owner shard during a partitioned run.
  [[nodiscard]] PortStats port_stats(std::size_t i) const;
  /// Worst single egress-queue wait over all ports.
  [[nodiscard]] sim::SimTime max_port_queue_ns() const;
  /// PFC pauses recorded over all ports (0 unless cfg.pfc).
  [[nodiscard]] std::uint64_t pfc_pauses() const;
  [[nodiscard]] sim::SimTime pfc_pause_ns_total() const;

  /// Attaches the default tracer; send() records serialization +
  /// flight spans on the source node's track, and switch hops record
  /// kNetSwitchHop spans / kNetPortQueue gauges on the owner's tracer.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    for (auto& ctx : nodes_) {
      if (ctx.tracer == nullptr) ctx.tracer = tracer;
    }
  }

  /// Per-node tracer override: spans for packets *sent by* `id` (and
  /// for switches owned by `id`) are recorded here (each partition
  /// records into its own shard tracer).
  void set_node_tracer(NodeId id, trace::Tracer* tracer) {
    ctx(id).tracer = tracer;
  }

  /// Routes cross-partition sends through `engine` and switches link
  /// noise to per-link RNG streams derived from `seed`. Call before
  /// any link state exists (Cluster construction). On a multi-partition
  /// engine this also freezes the link table against insertion during
  /// run(): every directed pair is pre-created here and at each
  /// register_node(), and state() throws if a worker-thread send would
  /// insert (worker threads probe the open-addressing table
  /// concurrently, so it must not grow or gain slots mid-run).
  void bind_engine(sim::PartitionedEngine* engine, std::uint64_t seed);

 private:
  struct LinkState {
    LinkParams params;
    sim::SimTime busy_until = 0;
    /// Partitioned runs only: this link's private noise stream.
    std::unique_ptr<sim::Rng> rng;
  };

  struct NodeCtx {
    sim::Simulator* sim = nullptr;
    std::function<void(Packet)> sink;
    trace::Tracer* tracer = nullptr;
    std::size_t partition = 0;
  };

  /// One directed cable of a switched topology. All mutable state is
  /// single-writer: forwarding out of a vertex always executes on the
  /// owner host's shard, so no atomics on the per-hop path.
  struct Port {
    LinkParams params;
    Vertex from = 0;
    Vertex to = 0;
    /// Host whose shard runs this port's egress (the vertex itself
    /// for host ports, Topology::switch_owner for switch ports).
    NodeId owner = 0;
    std::size_t partition = 0;
    sim::Simulator* sim = nullptr;
    sim::SimTime busy_until = 0;
    std::unique_ptr<sim::Rng> rng;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    sim::SimTime queue_ns_total = 0;
    sim::SimTime queue_ns_peak = 0;
    std::uint64_t pfc_events = 0;
    sim::SimTime pfc_pause_ns = 0;
    std::uint64_t drops = 0;
    std::uint64_t corrupt_drops = 0;
  };

  /// Sorted disjoint [down, up) spans during which one cable (or one
  /// direct pair) rejects packets at its egress.
  struct DownSpans {
    std::vector<std::pair<sim::SimTime, sim::SimTime>> spans;
    [[nodiscard]] bool down_at(sim::SimTime t) const {
      for (const auto& [lo, hi] : spans) {
        if (t < lo) return false;
        if (t < hi) return true;
      }
      return false;
    }
  };

  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  static std::uint64_t pack(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  static std::size_t hash_key(std::uint64_t key) {
    // splitmix64 finalizer — avalanches the packed id so linear
    // probing stays short for clustered node ids.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return static_cast<std::size_t>(key);
  }

  LinkState& state(NodeId from, NodeId to);
  void grow_links();
  void precreate_links(NodeId id);
  NodeCtx& ctx(NodeId id);
  sim::SimTime send_direct(Packet p);

  // ---- fault-plan queries (pure functions of simulated time) ----
  void count_drop(DropReason r, sim::SimTime t, NodeId track,
                  trace::Tracer* tracer);
  [[nodiscard]] bool edge_is_down(std::uint32_t e, sim::SimTime t) const {
    return e < edge_down_.size() && edge_down_[e].down_at(t);
  }
  [[nodiscard]] bool direct_is_down(NodeId from, NodeId to,
                                    sim::SimTime t) const;
  [[nodiscard]] bool partition_blocked(NodeId src, NodeId dst,
                                       sim::SimTime t) const;
  /// Effective loss/corruption rates at `t`: the link's own loss raised
  /// to any active burst's.
  void burst_rates(sim::SimTime t, double& loss, double& corrupt) const;
  /// The route of (from, to) in the fault epoch containing `t` — the
  /// base table outside fault epochs, a precomputed failover table
  /// inside one. Empty when the pair is unreachable in that epoch.
  [[nodiscard]] Route route_at(NodeId from, NodeId to, sim::SimTime t) const;
  /// Enqueues `p` on route hop `hop`, entering the port at `t_in`
  /// (switch hops add the store-and-forward latency first). Returns
  /// the port's busy-until after this packet serializes.
  sim::SimTime hop_transmit(Packet p, Route route, std::size_t hop,
                            sim::SimTime t_in);

  struct LinkSlot {
    std::uint64_t key = kEmptyKey;
    LinkState state;
  };

  sim::Simulator& sim_;
  sim::Rng& rng_;
  LinkParams defaults_;
  std::vector<NodeCtx> nodes_;  ///< indexed by NodeId
  std::vector<LinkSlot> links_;  ///< open addressing, power-of-two size
  std::size_t link_count_ = 0;
  TopologyConfig topo_cfg_;
  std::unique_ptr<Topology> topo_;
  std::vector<Port> ports_;  ///< indexed by Topology edge id
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> switch_hops_{0};
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(DropReason::kCount)>
      drops_by_reason_{};
  FaultPlan plan_;
  bool have_faults_ = false;
  std::vector<DownSpans> edge_down_;  ///< per topology edge id
  /// Direct pairs named by host<->host flaps, keyed on pack(from, to).
  std::vector<std::pair<std::uint64_t, DownSpans>> direct_down_;
  /// Fault epochs: route table i applies in [epoch_starts_[i],
  /// epoch_starts_[i+1]). An empty table means "use the base routes".
  /// Built once by set_fault_plan, immutable during the run — hop
  /// lambdas carry Route views into these tables.
  std::vector<sim::SimTime> epoch_starts_;
  std::vector<RouteTable> epoch_routes_;
  trace::Tracer* tracer_ = nullptr;
  sim::PartitionedEngine* engine_ = nullptr;
  std::uint64_t link_seed_ = 0;
  bool partitioned_ = false;
};

}  // namespace prdma::net
