#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace prdma::net {

using NodeId = std::uint32_t;

/// Topology-graph vertex. Hosts occupy [0, host_count); switch `s`
/// (construction order) is vertex host_count + s. A NodeId is therefore
/// always a valid Vertex, never the other way around.
using Vertex = std::uint32_t;

/// One precomputed unidirectional path through the topology: the
/// directed cables ("ports" — each has its own egress queue) a packet
/// crosses from the source host to the destination host, in hop order.
/// Empty for src == dst and for host pairs the graph does not connect
/// (the fabric then falls back to the flat point-to-point link).
/// A view into the RouteTable that owns the port ids; tables are built
/// before a run and never change during it, so a Route can be copied
/// into events freely.
struct Route {
  std::span<const std::uint32_t> ports;
};

/// Every host-pair route of one fault epoch in a single
/// destination-major CSR table: the route (from, to) is
/// ports[offsets[to * hosts + from], offsets[to * hosts + from + 1]).
/// Two flat arrays, sized by the hops the routes take rather than one
/// heap vector per pair. Built by Topology.
class RouteTable {
 public:
  /// False for a default-constructed table (no routes computed).
  [[nodiscard]] bool empty() const { return offsets_.empty(); }
  [[nodiscard]] std::size_t hosts() const { return hosts_; }
  [[nodiscard]] Route route(NodeId from, NodeId to) const {
    const std::size_t i = static_cast<std::size_t>(to) * hosts_ + from;
    return Route{std::span<const std::uint32_t>(ports_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i])};
  }
  /// Longest route, in ports.
  [[nodiscard]] std::size_t max_hops() const {
    std::size_t m = 0;
    for (std::size_t i = 1; i < offsets_.size(); ++i) {
      m = std::max<std::size_t>(m, offsets_[i] - offsets_[i - 1]);
    }
    return m;
  }
  /// Heap bytes held by the two arrays. Exposed for tests.
  [[nodiscard]] std::size_t heap_bytes() const {
    return (offsets_.capacity() + ports_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  friend class Topology;

  std::size_t hosts_ = 0;
  std::vector<std::uint32_t> offsets_;  ///< hosts * hosts + 1 entries
  std::vector<std::uint32_t> ports_;    ///< every route's edge ids
};

/// Deterministic ECMP flow hash: equal-cost next-hop selection is a
/// pure function of (flow src, flow dst, forwarding vertex), so a flow
/// is pinned to one path (no packet reordering across equal-cost
/// members) and the choice is stable across runs, platforms and engine
/// thread counts. splitmix64 finalizer — same mixer the fabric's link
/// table uses — so clustered ids spread over the equal-cost set.
[[nodiscard]] constexpr std::uint64_t ecmp_hash(NodeId src, NodeId dst,
                                                Vertex at) {
  std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) ^
                      (static_cast<std::uint64_t>(dst) << 20) ^ at;
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  key ^= key >> 31;
  return key;
}

}  // namespace prdma::net
