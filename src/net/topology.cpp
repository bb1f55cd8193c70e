#include "net/topology.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace prdma::net {

std::optional<TopologyPreset> preset_from_name(std::string_view name) {
  if (name == "point-to-point" || name == "p2p") {
    return TopologyPreset::kPointToPoint;
  }
  if (name == "rack") return TopologyPreset::kRack;
  if (name == "leaf-spine") return TopologyPreset::kLeafSpine;
  return std::nullopt;
}

std::string_view preset_name(TopologyPreset preset) {
  switch (preset) {
    case TopologyPreset::kPointToPoint: return "point-to-point";
    case TopologyPreset::kRack: return "rack";
    case TopologyPreset::kLeafSpine: return "leaf-spine";
  }
  return "?";
}

std::uint32_t Topology::add_switch(std::string name) {
  switch_names_.push_back(std::move(name));
  adj_.emplace_back();
  return static_cast<std::uint32_t>(switch_names_.size() - 1);
}

std::uint32_t Topology::connect(Vertex a, Vertex b, const LinkParams& ab,
                                const LinkParams& ba) {
  if (a >= vertex_count() || b >= vertex_count() || a == b) {
    throw std::invalid_argument("topology connect: bad vertex pair");
  }
  const auto id = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back(Edge{a, b, ab});
  adj_[a].push_back(id);
  edges_.push_back(Edge{b, a, ba});
  adj_[b].push_back(id + 1);
  return id;
}

namespace {
constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
}  // namespace

// Hop distance from every vertex to one destination, by reverse BFS.
// Cables are declared in full-duplex pairs, so vertex adjacency is
// symmetric and the forward adjacency list serves both directions
// (edge_down masks are likewise set pairwise).
void Topology::distances_to(Vertex dst, const std::vector<bool>* edge_down,
                            std::vector<std::uint32_t>& dist,
                            std::vector<Vertex>& queue) const {
  dist.assign(vertex_count(), kUnreached);
  dist[dst] = 0;
  queue.clear();
  queue.push_back(dst);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (const std::uint32_t e : adj_[v]) {
      if (edge_down != nullptr && (*edge_down)[e]) continue;
      const Vertex n = edges_[e].to;
      if (dist[n] == kUnreached) {
        dist[n] = dist[v] + 1;
        queue.push_back(n);
      }
    }
  }
}

RouteTable Topology::build_routes(const std::vector<bool>* edge_down) const {
  RouteTable t;
  t.hosts_ = hosts_;
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> queue;
  // A shortest path takes exactly dist[from] hops, so one BFS pass per
  // destination sizes the port array before any route is walked.
  std::uint64_t total = 0;
  for (Vertex to = 0; to < hosts_; ++to) {
    distances_to(to, edge_down, dist, queue);
    for (Vertex from = 0; from < hosts_; ++from) {
      if (from != to && dist[from] != kUnreached) total += dist[from];
    }
  }
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("topology: route table exceeds 2^32 ports");
  }
  t.offsets_.reserve(hosts_ * hosts_ + 1);
  t.offsets_.push_back(0);
  t.ports_.reserve(static_cast<std::size_t>(total));
  // Equal-cost next hops of the current vertex, reused at every hop.
  std::vector<std::uint32_t> next;
  for (Vertex to = 0; to < hosts_; ++to) {
    distances_to(to, edge_down, dist, queue);
    for (Vertex from = 0; from < hosts_; ++from) {
      if (from != to && dist[from] != kUnreached) {
        Vertex cur = from;
        while (cur != to) {
          // Equal-cost next hops, in edge-construction order; the flow
          // hash pins this (from,to) flow to one of them.
          next.clear();
          for (const std::uint32_t e : adj_[cur]) {
            if (edge_down != nullptr && (*edge_down)[e]) continue;
            if (dist[edges_[e].to] + 1 == dist[cur]) next.push_back(e);
          }
          const std::uint32_t e =
              next[ecmp_hash(from, to, cur) % next.size()];
          t.ports_.push_back(e);
          cur = edges_[e].to;
        }
      }
      t.offsets_.push_back(static_cast<std::uint32_t>(t.ports_.size()));
    }
  }
  return t;
}

void Topology::compute_routes() {
  // Switch owners: hosts at minimal hop distance, (s mod count)-th
  // smallest id. adj_ ids are construction-ordered, so the candidate
  // set — and therefore the owner — is a pure function of the graph.
  owners_.assign(switch_count(), 0);
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> queue;
  std::vector<NodeId> candidates;
  for (std::uint32_t s = 0; s < switch_count(); ++s) {
    distances_to(switch_vertex(s), nullptr, dist, queue);
    std::uint32_t best = kUnreached;
    candidates.clear();
    for (Vertex h = 0; h < hosts_; ++h) {
      if (dist[h] == kUnreached) continue;
      if (dist[h] < best) {
        best = dist[h];
        candidates.clear();
      }
      if (dist[h] == best) candidates.push_back(h);
    }
    if (candidates.empty()) {
      throw std::logic_error("topology: switch \"" + switch_names_[s] +
                             "\" is not reachable from any host");
    }
    owners_[s] = candidates[s % candidates.size()];
  }

  routes_ = build_routes(nullptr);
}

RouteTable Topology::compute_routes_masked(
    const std::vector<bool>& edge_down) const {
  if (edge_down.size() != edges_.size()) {
    throw std::invalid_argument("compute_routes_masked: mask size mismatch");
  }
  return build_routes(&edge_down);
}

sim::SimTime Topology::min_propagation() const {
  sim::SimTime m = std::numeric_limits<sim::SimTime>::max();
  for (const Edge& e : edges_) m = std::min(m, e.params.propagation);
  return m;
}

std::size_t Topology::max_route_hops() const { return routes_.max_hops(); }

Topology build_topology(const TopologyConfig& cfg, std::size_t hosts,
                        const LinkParams& host_link) {
  Topology topo(hosts);
  if (!cfg.switched() || hosts == 0) return topo;

  LinkParams trunk = host_link;
  trunk.bandwidth_bytes_per_s *= std::max(cfg.trunk_bw_scale, 0.01);
  trunk.propagation = std::max<sim::SimTime>(
      1, static_cast<sim::SimTime>(
             static_cast<double>(host_link.propagation) *
             std::max(cfg.trunk_prop_scale, 0.0)));

  if (cfg.preset == TopologyPreset::kRack) {
    const std::uint32_t tor = topo.add_switch("tor0");
    for (Vertex h = 0; h < hosts; ++h) {
      topo.connect(h, topo.switch_vertex(tor), host_link);
    }
    topo.compute_routes();
    return topo;
  }

  // leaf-spine: hosts striped over racks in id order, every ToR cabled
  // to every spine.
  std::uint32_t racks = cfg.hosts_per_rack > 0
                            ? static_cast<std::uint32_t>(
                                  (hosts + cfg.hosts_per_rack - 1) /
                                  cfg.hosts_per_rack)
                            : cfg.racks;
  racks = std::max(1u, std::min<std::uint32_t>(
                           racks, static_cast<std::uint32_t>(hosts)));
  const std::uint32_t per_rack =
      static_cast<std::uint32_t>((hosts + racks - 1) / racks);
  const std::uint32_t spines = std::max(1u, cfg.spines);

  std::vector<std::uint32_t> tors;
  tors.reserve(racks);
  for (std::uint32_t r = 0; r < racks; ++r) {
    tors.push_back(topo.add_switch("tor" + std::to_string(r)));
  }
  std::vector<std::uint32_t> spine_ids;
  spine_ids.reserve(spines);
  for (std::uint32_t s = 0; s < spines; ++s) {
    spine_ids.push_back(topo.add_switch("spine" + std::to_string(s)));
  }
  for (Vertex h = 0; h < hosts; ++h) {
    const std::uint32_t r = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(h) / per_rack, racks - 1);
    topo.connect(h, topo.switch_vertex(tors[r]), host_link);
  }
  for (const std::uint32_t t : tors) {
    for (const std::uint32_t s : spine_ids) {
      topo.connect(topo.switch_vertex(t), topo.switch_vertex(s), trunk);
    }
  }
  topo.compute_routes();
  return topo;
}

std::uint32_t rack_count(const TopologyConfig& cfg, std::size_t hosts) {
  if (hosts == 0) return 0;
  if (!cfg.switched()) return static_cast<std::uint32_t>(hosts);
  if (cfg.preset == TopologyPreset::kRack) return 1;
  std::uint32_t racks = cfg.hosts_per_rack > 0
                            ? static_cast<std::uint32_t>(
                                  (hosts + cfg.hosts_per_rack - 1) /
                                  cfg.hosts_per_rack)
                            : cfg.racks;
  return std::max(1u, std::min<std::uint32_t>(
                          racks, static_cast<std::uint32_t>(hosts)));
}

std::vector<std::uint32_t> rack_partition_map(const TopologyConfig& cfg,
                                              std::size_t hosts) {
  std::vector<std::uint32_t> map(hosts, 0);
  if (hosts == 0) return map;
  if (!cfg.switched()) {
    for (std::size_t h = 0; h < hosts; ++h) {
      map[h] = static_cast<std::uint32_t>(h);
    }
    return map;
  }
  if (cfg.preset == TopologyPreset::kRack) return map;
  const std::uint32_t racks = rack_count(cfg, hosts);
  const std::uint32_t per_rack =
      static_cast<std::uint32_t>((hosts + racks - 1) / racks);
  for (std::size_t h = 0; h < hosts; ++h) {
    map[h] = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(h / per_rack), racks - 1);
  }
  return map;
}

}  // namespace prdma::net
