#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/route.hpp"
#include "sim/time.hpp"

namespace prdma::net {

/// Timing/behaviour of one directed cable (host<->switch, switch<->
/// switch, or a direct host<->host link in the degenerate
/// point-to-point topology).
struct LinkParams {
  sim::SimTime propagation = 1000;  ///< one-way latency (1 µs IB class)
  double bandwidth_bytes_per_s = 5e9;  ///< 40 GbE
  /// Fraction of the link consumed by background traffic [0, 1).
  /// Models the paper's Fig. 14 "busy network": less residual
  /// bandwidth plus M/M/1-style queueing delay.
  double background_load = 0.0;
  /// Log-normal sigma applied to propagation+queueing (latency tail).
  double jitter_sigma = 0.03;
  /// Per-packet drop probability (lossless IB default: 0).
  double loss_probability = 0.0;
};

/// Preset fabric shapes selectable via --topology.
enum class TopologyPreset : std::uint8_t {
  /// Every host pair directly cabled — the paper's two-server testbed
  /// generalized; byte-identical to the historical flat fabric.
  kPointToPoint,
  /// One top-of-rack switch; every host hangs off it (incast at the
  /// ToR egress toward a popular server).
  kRack,
  /// Two-tier Clos: per-rack ToR switches fully meshed to a spine
  /// layer, ECMP over the spines.
  kLeafSpine,
};

[[nodiscard]] std::optional<TopologyPreset> preset_from_name(
    std::string_view name);
[[nodiscard]] std::string_view preset_name(TopologyPreset preset);

/// Declarative description of the fabric shape, carried by
/// core::ModelParams and filled from the --topology flag family.
/// Host<->ToR cables inherit the fabric's default LinkParams (so the
/// existing link knobs — background load, jitter sigma, bandwidth —
/// keep meaning the same thing under every preset); trunk cables
/// (ToR<->spine) scale them by the *_scale factors below.
struct TopologyConfig {
  TopologyPreset preset = TopologyPreset::kPointToPoint;
  /// leaf-spine: number of racks (ToR switches). Ignored when
  /// hosts_per_rack is set — the rack count then derives from it.
  std::uint32_t racks = 2;
  /// Hosts attached per ToR; 0 spreads the hosts evenly over `racks`.
  std::uint32_t hosts_per_rack = 0;
  /// leaf-spine: spine switches (ECMP width between any two racks).
  std::uint32_t spines = 2;
  /// Store-and-forward latency charged per switch traversal (ns).
  sim::SimTime switch_latency = 300;
  /// Trunk (ToR<->spine) bandwidth as a multiple of the host link —
  /// oversubscription control: hosts_per_rack / (spines * scale) : 1.
  double trunk_bw_scale = 4.0;
  /// Trunk propagation as a multiple of the host link (longer spine
  /// runs; < 1 shrinks the fabric-wide conservative lookahead).
  double trunk_prop_scale = 1.0;
  /// Priority-flow-control pause modeling at congested egress ports:
  /// once a port's backlog exceeds pfc_threshold bytes of occupancy,
  /// the excess wait is charged as an explicit pause (counted per
  /// port) instead of silently riding the queue.
  bool pfc = false;
  std::uint64_t pfc_threshold = 64 * 1024;

  /// True when packets traverse switches (rack / leaf-spine); the
  /// point-to-point preset keeps the flat direct-link fast path.
  [[nodiscard]] bool switched() const {
    return preset != TopologyPreset::kPointToPoint;
  }
};

/// The fabric graph: hosts, switches and the directed cables between
/// them, plus the precomputed shortest-path ECMP routes the packet
/// engine walks. Built once (single-threaded, before Cluster::run);
/// immutable afterwards, so every query is safe from any engine shard.
class Topology {
 public:
  struct Edge {
    Vertex from = 0;
    Vertex to = 0;
    LinkParams params;
  };

  explicit Topology(std::size_t hosts) : hosts_(hosts), adj_(hosts) {}

  /// Declares a switch; returns its index (vertex = host_count + s).
  std::uint32_t add_switch(std::string name);

  /// Declares a full-duplex cable between two vertices as a pair of
  /// directed edges with independent parameters (and egress queues).
  /// Returns the id of the a->b edge; b->a is the next id.
  std::uint32_t connect(Vertex a, Vertex b, const LinkParams& ab,
                        const LinkParams& ba);
  std::uint32_t connect(Vertex a, Vertex b, const LinkParams& both) {
    return connect(a, b, both, both);
  }

  /// Precomputes every host-pair route: BFS shortest-path distances
  /// per destination, then a hop-by-hop walk that picks among
  /// equal-cost next hops with ecmp_hash(src, dst, vertex) — flows
  /// stay path-pinned and the table is identical at any thread count.
  /// Also resolves each switch's owner host (see switch_owner).
  void compute_routes();

  [[nodiscard]] std::size_t host_count() const { return hosts_; }
  [[nodiscard]] std::size_t switch_count() const {
    return switch_names_.size();
  }
  [[nodiscard]] bool switched() const { return !switch_names_.empty(); }
  [[nodiscard]] std::size_t vertex_count() const {
    return hosts_ + switch_names_.size();
  }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const Edge& edge(std::uint32_t id) const { return edges_[id]; }
  [[nodiscard]] Vertex switch_vertex(std::uint32_t s) const {
    return static_cast<Vertex>(hosts_ + s);
  }
  [[nodiscard]] bool is_switch(Vertex v) const { return v >= hosts_; }
  [[nodiscard]] const std::string& switch_name(std::uint32_t s) const {
    return switch_names_[s];
  }

  /// The host whose partition/shard executes forwarding events of
  /// switch `s` under a partitioned engine: among the hosts at minimal
  /// hop distance from the switch, the (s mod count)-th smallest id —
  /// deterministic, and spreads spine switches over the racks instead
  /// of serializing the whole spine layer on one shard.
  [[nodiscard]] NodeId switch_owner(std::uint32_t s) const {
    return owners_[s];
  }

  [[nodiscard]] bool routes_computed() const { return !routes_.empty(); }
  /// The precomputed path from host `from` to host `to` (empty when
  /// from == to or the pair is disconnected).
  [[nodiscard]] Route route(NodeId from, NodeId to) const {
    return routes_.route(from, to);
  }
  [[nodiscard]] const RouteTable& routes() const { return routes_; }

  /// The full route table recomputed with the cables in
  /// `edge_down` (indexed by edge id, set pairwise — a cable is down in
  /// both directions) excluded: the deterministic ECMP failover table
  /// of a FaultPlan epoch. Same BFS + flow hash as compute_routes, so
  /// surviving-path choice is a pure function of the graph and mask;
  /// pairs with no surviving path get an empty route (the fabric turns
  /// those into accounted unreachable drops and the RC reliability
  /// layer keeps retrying until the fault heals).
  [[nodiscard]] RouteTable compute_routes_masked(
      const std::vector<bool>& edge_down) const;

  /// Minimum one-way propagation over every cable — the conservative
  /// lookahead of a partitioned run is half of this. SimTime max when
  /// the graph has no edges.
  [[nodiscard]] sim::SimTime min_propagation() const;
  /// Longest precomputed route, in ports (0 before compute_routes).
  [[nodiscard]] std::size_t max_route_hops() const;

 private:
  /// Hop distance from every vertex to `dst` by reverse BFS into
  /// `dist`, skipping edges marked in `edge_down` (nullptr = no mask).
  /// `queue` is scratch space, reused across calls.
  void distances_to(Vertex dst, const std::vector<bool>* edge_down,
                    std::vector<std::uint32_t>& dist,
                    std::vector<Vertex>& queue) const;
  [[nodiscard]] RouteTable build_routes(
      const std::vector<bool>* edge_down) const;

  std::size_t hosts_;
  std::vector<std::string> switch_names_;
  std::vector<NodeId> owners_;  ///< per switch, filled by compute_routes
  std::vector<Edge> edges_;
  std::vector<std::vector<std::uint32_t>> adj_;  ///< out-edge ids per vertex
  RouteTable routes_;
};

/// Materializes a preset for `hosts` nodes. `host_link` parameterizes
/// every host<->switch cable; trunks scale it per the config. The
/// point-to-point preset returns a switchless graph (the fabric keeps
/// its flat direct-link table, byte-identical to the historical path).
[[nodiscard]] Topology build_topology(const TopologyConfig& cfg,
                                      std::size_t hosts,
                                      const LinkParams& host_link);

/// How many racks the preset materializes for `hosts` hosts — the same
/// derivation build_topology uses (hosts_per_rack wins over racks,
/// clamped to [1, hosts]). Point-to-point has no switches, so every
/// host is its own "rack" (per-rack partitioning degenerates to
/// per-node); the single-ToR rack preset is one rack.
[[nodiscard]] std::uint32_t rack_count(const TopologyConfig& cfg,
                                       std::size_t hosts);

/// Per-host rack index, mirroring build_topology's id-order striping
/// exactly (host h -> min(h / per_rack, racks - 1) under leaf-spine).
/// This is the engine partition map for Partitioning::kPerRack; switch
/// forwarding events already run on Topology::switch_owner's shard, so
/// a spine lands in the partition of its deterministic owner host.
[[nodiscard]] std::vector<std::uint32_t> rack_partition_map(
    const TopologyConfig& cfg, std::size_t hosts);

}  // namespace prdma::net
