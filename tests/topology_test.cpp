// Topology-graph network API (src/net/topology.*, DESIGN.md §7.6):
// preset construction, deterministic shortest-path ECMP routing, the
// per-port congestion model (incast queueing, PFC pauses) — and the
// headline contracts: the point-to-point preset is byte-identical to
// the historical flat fabric, and a switched cell is byte-identical
// at --engine-threads 1, 2 and 8 (conservative lookahead included).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util/micro.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "rpcs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace prdma {
namespace {

using net::LinkParams;
using net::Topology;
using net::TopologyConfig;
using net::TopologyPreset;

/// A route's port ids, as a comparable vector.
std::vector<std::uint32_t> ports_of(const net::Route& r) {
  return {r.ports.begin(), r.ports.end()};
}

// ------------------------------------------------------ preset names

TEST(TopologyPreset_, NamesRoundTripAndAliasesParse) {
  EXPECT_EQ(net::preset_from_name("point-to-point"),
            TopologyPreset::kPointToPoint);
  EXPECT_EQ(net::preset_from_name("p2p"), TopologyPreset::kPointToPoint);
  EXPECT_EQ(net::preset_from_name("rack"), TopologyPreset::kRack);
  EXPECT_EQ(net::preset_from_name("leaf-spine"), TopologyPreset::kLeafSpine);
  EXPECT_FALSE(net::preset_from_name("torus").has_value());
  EXPECT_FALSE(net::preset_from_name("").has_value());
  for (const auto p : {TopologyPreset::kPointToPoint, TopologyPreset::kRack,
                       TopologyPreset::kLeafSpine}) {
    EXPECT_EQ(net::preset_from_name(net::preset_name(p)), p);
  }
}

// ---------------------------------------------------------- routing

TEST(TopologyGraph, RackRoutesEveryPairThroughTheSingleTor) {
  TopologyConfig cfg;
  cfg.preset = TopologyPreset::kRack;
  const Topology t = net::build_topology(cfg, 5, LinkParams{});
  ASSERT_TRUE(t.switched());
  EXPECT_EQ(t.switch_count(), 1u);
  EXPECT_TRUE(t.routes_computed());
  EXPECT_EQ(t.max_route_hops(), 2u);
  const net::Vertex tor = t.switch_vertex(0);
  for (net::NodeId from = 0; from < 5; ++from) {
    for (net::NodeId to = 0; to < 5; ++to) {
      const net::Route r = t.route(from, to);
      if (from == to) {
        EXPECT_TRUE(r.ports.empty());
        continue;
      }
      ASSERT_EQ(r.ports.size(), 2u) << from << "->" << to;
      EXPECT_EQ(t.edge(r.ports[0]).from, from);
      EXPECT_EQ(t.edge(r.ports[0]).to, tor);
      EXPECT_EQ(t.edge(r.ports[1]).from, tor);
      EXPECT_EQ(t.edge(r.ports[1]).to, to);
    }
  }
  // Host cables inherit the fabric defaults unchanged.
  EXPECT_EQ(t.min_propagation(), LinkParams{}.propagation);
}

TEST(TopologyGraph, LeafSpineRoutesAreDeterministicAndEcmpSpreads) {
  TopologyConfig cfg;
  cfg.preset = TopologyPreset::kLeafSpine;
  cfg.racks = 2;
  cfg.spines = 4;
  constexpr std::size_t kHosts = 8;
  const Topology a = net::build_topology(cfg, kHosts, LinkParams{});
  const Topology b = net::build_topology(cfg, kHosts, LinkParams{});
  ASSERT_EQ(a.switch_count(), 2u + 4u);  // 2 ToRs + 4 spines
  EXPECT_EQ(a.max_route_hops(), 4u);

  std::set<net::Vertex> spines_used;
  for (net::NodeId from = 0; from < kHosts; ++from) {
    for (net::NodeId to = 0; to < kHosts; ++to) {
      const net::Route ra = a.route(from, to);
      const net::Route rb = b.route(from, to);
      // Same graph, same seeds: the table is reproducible build to
      // build (ECMP choices are pure functions of (src, dst, vertex)).
      EXPECT_EQ(ports_of(ra), ports_of(rb)) << from << "->" << to;
      if (from == to) continue;
      const bool same_rack = (from / 4) == (to / 4);
      ASSERT_EQ(ra.ports.size(), same_rack ? 2u : 4u) << from << "->" << to;
      if (!same_rack) {
        const net::Vertex spine = a.edge(ra.ports[1]).to;
        EXPECT_TRUE(a.is_switch(spine));
        spines_used.insert(spine);
      }
    }
  }
  // 32 directed inter-rack flows hashed over 4 spines must not all
  // collapse onto one trunk.
  EXPECT_GE(spines_used.size(), 2u);

  // Forwarding ownership: every switch is anchored to a host at
  // minimal hop distance, deterministically.
  for (std::uint32_t s = 0; s < a.switch_count(); ++s) {
    EXPECT_EQ(a.switch_owner(s), b.switch_owner(s));
    EXPECT_LT(a.switch_owner(s), kHosts);
  }
}

// --------------------------------------- point-to-point byte parity

struct DriveLog {
  std::vector<std::pair<sim::SimTime, std::uint64_t>> arrivals;
  std::vector<sim::SimTime> accepted;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  sim::SimTime min_prop = 0;

  bool operator==(const DriveLog&) const = default;
};

/// Runs the same packet program against a fabric with (or without) the
/// point-to-point topology installed. Background load + jitter make
/// the run consume queueing and noise draws from the shared RNG, so
/// any divergence in draw order or arithmetic shows up as a different
/// arrival timestamp.
DriveLog drive_p2p(bool install_topology) {
  sim::Simulator s;
  sim::Rng rng(11);
  LinkParams def;
  def.background_load = 0.3;
  net::Fabric f(s, rng, def);
  if (install_topology) f.set_topology(TopologyConfig{}, 3);

  DriveLog log;
  for (net::NodeId n = 0; n < 3; ++n) {
    f.register_node(n, s, [&log, &s](net::Packet p) {
      log.arrivals.emplace_back(s.now(), p.wr_id);
    });
  }
  const auto send_at = [&s, &f, &log](sim::SimTime t, net::NodeId src,
                                      net::NodeId dst, std::uint64_t wr,
                                      std::uint64_t len) {
    s.schedule_at(t, [&f, &log, src, dst, wr, len] {
      net::Packet p;
      p.src = src;
      p.dst = dst;
      p.wr_id = wr;
      p.op = net::WireOp::kWrite;
      p.length = len;
      log.accepted.push_back(f.send(std::move(p)));
    });
  };
  send_at(0, 1, 0, 1, 8192);     // two senders racing for node 0
  send_at(0, 2, 0, 2, 4096);
  send_at(100, 1, 0, 3, 256);    // queues behind wr 1 on the same link
  send_at(5000, 0, 2, 4, 64 * 1024);
  send_at(5000, 0, 1, 5, 512);
  s.run();

  log.delivered = f.packets_delivered();
  log.bytes = f.bytes_carried();
  log.min_prop = f.min_propagation();
  return log;
}

TEST(FabricParity, PointToPointPresetIsByteIdenticalToTheFlatFabric) {
  const DriveLog flat = drive_p2p(false);
  const DriveLog preset = drive_p2p(true);
  EXPECT_EQ(flat, preset);
  ASSERT_EQ(flat.arrivals.size(), 5u);
  ASSERT_EQ(flat.accepted.size(), 5u);
}

TEST(FabricParity, PointToPointInstallsTheGraphButKeepsTheDirectPath) {
  sim::Simulator s;
  sim::Rng rng(1);
  net::Fabric f(s, rng, LinkParams{});
  f.set_topology(TopologyConfig{}, 4);
  ASSERT_NE(f.topology(), nullptr);
  EXPECT_FALSE(f.routed());
  EXPECT_EQ(f.port_count(), 0u);
  EXPECT_EQ(f.switch_hops(), 0u);
}

TEST(RackPartitionMap, MirrorsTheLeafSpineStriping) {
  TopologyConfig cfg;
  cfg.preset = TopologyPreset::kLeafSpine;
  cfg.hosts_per_rack = 4;
  EXPECT_EQ(net::rack_count(cfg, 10), 3u);  // ceil(10/4)
  const auto map = net::rack_partition_map(cfg, 10);
  ASSERT_EQ(map.size(), 10u);
  EXPECT_EQ(map, (std::vector<std::uint32_t>{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}));
  // The striping must match build_topology exactly: host h hangs off
  // tor{map[h]}.
  net::Topology topo = net::build_topology(cfg, 10, LinkParams{});
  for (net::Vertex h = 0; h < 10; ++h) {
    const net::Route r = topo.route(h, h == 0 ? 9 : 0);
    const net::Vertex first_switch = topo.edge(r.ports[0]).to;
    EXPECT_EQ(topo.switch_name(
                  static_cast<std::uint32_t>(first_switch - 10)),
              "tor" + std::to_string(map[h]));
  }
}

TEST(RackPartitionMap, DegeneratePresetsCoverPerNodeAndSingleRack) {
  TopologyConfig p2p;  // no switches: every host its own rack
  EXPECT_EQ(net::rack_count(p2p, 4), 4u);
  EXPECT_EQ(net::rack_partition_map(p2p, 4),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  TopologyConfig rack;
  rack.preset = TopologyPreset::kRack;
  EXPECT_EQ(net::rack_count(rack, 4), 1u);
  EXPECT_EQ(net::rack_partition_map(rack, 4),
            (std::vector<std::uint32_t>{0, 0, 0, 0}));
  TopologyConfig wide;  // more racks than hosts clamps to one per host
  wide.preset = TopologyPreset::kLeafSpine;
  wide.racks = 9;
  EXPECT_EQ(net::rack_count(wide, 3), 3u);
}

// ------------------------------------------------ congestion model

struct IncastStats {
  sim::SimTime peak_queue = 0;
  std::uint64_t switch_hops = 0;
  std::uint64_t pfc_pauses = 0;
};

/// `clients` hosts fire one 64 KB write at host 0 at t=0 through a
/// single ToR: the fan-in port (ToR -> host 0) serializes them and the
/// backlog is the incast signal.
IncastStats incast(std::uint32_t clients, bool pfc) {
  sim::Simulator s;
  sim::Rng rng(5);
  LinkParams def;
  def.jitter_sigma = 0.0;
  net::Fabric f(s, rng, def);
  TopologyConfig cfg;
  cfg.preset = TopologyPreset::kRack;
  cfg.pfc = pfc;
  cfg.pfc_threshold = 1024;
  f.set_topology(cfg, clients + 1);
  for (net::NodeId n = 0; n <= clients; ++n) {
    f.register_node(n, s, [](net::Packet) {});
  }
  for (net::NodeId c = 1; c <= clients; ++c) {
    s.schedule_at(0, [&f, c] {
      net::Packet p;
      p.src = c;
      p.dst = 0;
      p.op = net::WireOp::kWrite;
      p.length = 64 * 1024;
      (void)f.send(std::move(p));
    });
  }
  s.run();
  IncastStats out;
  out.peak_queue = f.max_port_queue_ns();
  out.switch_hops = f.switch_hops();
  out.pfc_pauses = f.pfc_pauses();
  EXPECT_EQ(f.packets_delivered(), clients);
  return out;
}

TEST(Congestion, IncastGrowsThePortQueueMonotonically) {
  const IncastStats one = incast(1, false);
  const IncastStats two = incast(2, false);
  const IncastStats eight = incast(8, false);
  EXPECT_EQ(one.peak_queue, 0u);   // a lone packet never waits
  EXPECT_GT(two.peak_queue, one.peak_queue);
  EXPECT_GT(eight.peak_queue, two.peak_queue);
  // Each packet traverses the ToR exactly once.
  EXPECT_EQ(one.switch_hops, 1u);
  EXPECT_EQ(eight.switch_hops, 8u);
  EXPECT_EQ(eight.pfc_pauses, 0u);  // pfc off: backlog rides the queue
}

TEST(Congestion, PfcSurfacesPausesPastTheBacklogThreshold) {
  EXPECT_EQ(incast(1, true).pfc_pauses, 0u);
  EXPECT_GT(incast(8, true).pfc_pauses, 0u);
}

// --------------------------------- switched cells x engine threads

bench::MicroConfig switched_cell(const TopologyConfig& topology,
                                 unsigned threads, double sigma = 0.0) {
  bench::MicroConfig mc;
  mc.objects = 512;
  mc.object_size = 4096;
  mc.ops = 600;
  mc.clients = 3;
  mc.jitter_sigma = sigma;
  mc.engine_threads = threads;
  mc.topology = topology;
  return mc;
}

/// Every model-visible field, plus the topology counters (engine_test
/// owns the same check for the point-to-point fabric).
void expect_model_identical(const bench::MicroResult& a,
                            const bench::MicroResult& b,
                            std::string_view what) {
  EXPECT_EQ(a.duration, b.duration) << what;
  EXPECT_EQ(a.ops_completed, b.ops_completed) << what;
  EXPECT_EQ(a.sim_events, b.sim_events) << what;
  EXPECT_EQ(a.latency.count(), b.latency.count()) << what;
  EXPECT_EQ(a.latency.sum(), b.latency.sum()) << what;
  EXPECT_EQ(a.latency.min(), b.latency.min()) << what;
  EXPECT_EQ(a.latency.max(), b.latency.max()) << what;
  EXPECT_EQ(a.durable_latency.sum(), b.durable_latency.sum()) << what;
  EXPECT_EQ(a.server.ops_processed, b.server.ops_processed) << what;
  EXPECT_EQ(a.server.critical_sw_ns, b.server.critical_sw_ns) << what;
  EXPECT_EQ(a.sender_sw_ns, b.sender_sw_ns) << what;
  EXPECT_EQ(a.receiver_sw_ns, b.receiver_sw_ns) << what;
  EXPECT_EQ(a.kops, b.kops) << what;
  EXPECT_EQ(a.net_switch_hops, b.net_switch_hops) << what;
  EXPECT_EQ(a.net_max_port_queue_ns, b.net_max_port_queue_ns) << what;
  EXPECT_EQ(a.net_pfc_pauses, b.net_pfc_pauses) << what;
  EXPECT_EQ(a.net_drops, b.net_drops) << what;
  EXPECT_EQ(a.rnic_retransmits, b.rnic_retransmits) << what;
}

TEST(SwitchedParity, LeafSpineCellsAreByteIdenticalAcrossThreadCounts) {
  TopologyConfig topo;
  topo.preset = TopologyPreset::kLeafSpine;
  topo.racks = 2;
  const auto r1 =
      bench::run_micro(rpcs::System::kWFlushRpc, switched_cell(topo, 1));
  const auto r2 =
      bench::run_micro(rpcs::System::kWFlushRpc, switched_cell(topo, 2));
  const auto r8 =
      bench::run_micro(rpcs::System::kWFlushRpc, switched_cell(topo, 8));
  ASSERT_GT(r1.ops_completed, 0u);
  EXPECT_GT(r1.net_switch_hops, 0u);
  expect_model_identical(r1, r2, "leaf-spine x2");
  expect_model_identical(r1, r8, "leaf-spine x8");
}

TEST(SwitchedParity, JitteredRackCellMatchesSerialExactly) {
  // Per-port RNG streams are seeded from the bind_engine seed and the
  // edge id (never the shared serial stream), and the jitter clamp is
  // unconditional on routed paths — so even a noisy switched cell is
  // reproducible across thread counts.
  TopologyConfig topo;
  topo.preset = TopologyPreset::kRack;
  const auto r1 = bench::run_micro(rpcs::System::kWFlushRpc,
                                   switched_cell(topo, 1, 0.03));
  const auto r2 = bench::run_micro(rpcs::System::kWFlushRpc,
                                   switched_cell(topo, 2, 0.03));
  ASSERT_GT(r1.ops_completed, 0u);
  expect_model_identical(r1, r2, "rack jittered x2");
}

// ------------------------------------- fault routing (DESIGN.md §7.8)

TEST(FaultRouting, MaskedRoutesSteerAroundDownedTrunks) {
  TopologyConfig cfg;
  cfg.preset = TopologyPreset::kLeafSpine;
  cfg.racks = 2;
  cfg.spines = 2;
  constexpr std::size_t kHosts = 8;
  const Topology t = net::build_topology(cfg, kHosts, LinkParams{});

  // An all-up mask reproduces the base table bit for bit.
  std::vector<bool> up(t.edge_count(), false);
  const auto base = t.compute_routes_masked(up);
  for (net::NodeId from = 0; from < kHosts; ++from) {
    for (net::NodeId to = 0; to < kHosts; ++to) {
      EXPECT_EQ(ports_of(base.route(from, to)), ports_of(t.route(from, to)));
    }
  }

  // Kill the trunk the 0 -> 4 inter-rack route rides (ToR -> spine,
  // hop index 1) in both directions: every surviving route must avoid
  // it, and cross-rack pairs must still be connected via the other
  // spine.
  const net::Route victim = t.route(0, 4);
  ASSERT_EQ(victim.ports.size(), 4u);
  const std::uint32_t dead = victim.ports[1];
  std::vector<bool> mask(t.edge_count(), false);
  mask[dead] = true;
  for (std::uint32_t e = 0; e < t.edge_count(); ++e) {
    if (t.edge(e).from == t.edge(dead).to && t.edge(e).to == t.edge(dead).from) {
      mask[e] = true;
    }
  }
  const auto rerouted = t.compute_routes_masked(mask);
  for (net::NodeId from = 0; from < kHosts; ++from) {
    for (net::NodeId to = 0; to < kHosts; ++to) {
      const net::Route r = rerouted.route(from, to);
      if (from == to) continue;
      ASSERT_FALSE(r.ports.empty()) << from << "->" << to;
      for (const std::uint32_t e : r.ports) {
        EXPECT_FALSE(mask[e]) << "route " << from << "->" << to
                              << " rides a downed edge";
      }
    }
  }
  // Deterministic: the same mask yields the same table.
  const auto again = t.compute_routes_masked(mask);
  for (net::NodeId from = 0; from < kHosts; ++from) {
    for (net::NodeId to = 0; to < kHosts; ++to) {
      EXPECT_EQ(ports_of(rerouted.route(from, to)),
                ports_of(again.route(from, to)));
    }
  }
}

TEST(FaultRouting, FullyMaskedDestinationBecomesUnreachable) {
  TopologyConfig cfg;
  cfg.preset = TopologyPreset::kRack;
  const Topology t = net::build_topology(cfg, 3, LinkParams{});
  // Down every cable touching host 2: no route may reach it, and the
  // empty route is the explicit unreachable marker (no silent fallback
  // onto the flat direct table).
  std::vector<bool> mask(t.edge_count(), false);
  for (std::uint32_t e = 0; e < t.edge_count(); ++e) {
    if (t.edge(e).from == 2 || t.edge(e).to == 2) mask[e] = true;
  }
  const auto routes = t.compute_routes_masked(mask);
  EXPECT_TRUE(routes.route(0, 2).ports.empty());
  EXPECT_TRUE(routes.route(1, 2).ports.empty());
  // The rest of the fabric still routes.
  EXPECT_FALSE(routes.route(0, 1).ports.empty());
}

// ------------------------------------- route table vs per-pair walk

/// The route of one pair, found the way the fabric first found routes:
/// a fresh reverse BFS to `to` over the unmasked cables, then a walk
/// that picks among equal-cost out-edges (edge-id order) by the flow
/// hash. Uses only the public graph API.
std::vector<std::uint32_t> reference_route(const Topology& t, net::NodeId from,
                                           net::NodeId to,
                                           const std::vector<bool>& down) {
  constexpr std::uint32_t kFar = UINT32_MAX;
  std::vector<std::uint32_t> dist(t.vertex_count(), kFar);
  std::vector<net::Vertex> frontier = {to};
  dist[to] = 0;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const net::Vertex v = frontier[i];
    for (std::uint32_t e = 0; e < t.edge_count(); ++e) {
      const auto& edge = t.edge(e);
      if (down[e] || edge.to != v || dist[edge.from] != kFar) continue;
      dist[edge.from] = dist[v] + 1;
      frontier.push_back(edge.from);
    }
  }
  std::vector<std::uint32_t> path;
  if (from == to || dist[from] == kFar) return path;
  net::Vertex cur = from;
  while (cur != to) {
    std::vector<std::uint32_t> next;
    for (std::uint32_t e = 0; e < t.edge_count(); ++e) {
      const auto& edge = t.edge(e);
      if (!down[e] && edge.from == cur && dist[edge.to] + 1 == dist[cur]) {
        next.push_back(e);
      }
    }
    const std::uint32_t e = next[net::ecmp_hash(from, to, cur) % next.size()];
    path.push_back(e);
    cur = t.edge(e).to;
  }
  return path;
}

void expect_table_matches_reference(const Topology& t,
                                    const net::RouteTable& table,
                                    const std::vector<bool>& down,
                                    const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(table.hosts(), t.host_count());
  for (net::NodeId from = 0; from < t.host_count(); ++from) {
    for (net::NodeId to = 0; to < t.host_count(); ++to) {
      ASSERT_EQ(ports_of(table.route(from, to)),
                reference_route(t, from, to, down))
          << from << "->" << to;
    }
  }
}

TEST(RouteTable, MatchesAPerPairWalkOnRackAndLeafSpine) {
  struct Shape {
    TopologyPreset preset;
    std::uint32_t hosts_per_rack;
    std::uint32_t spines;
    std::size_t hosts;
  };
  for (const Shape sh : {Shape{TopologyPreset::kRack, 0, 0, 9},
                         Shape{TopologyPreset::kLeafSpine, 4, 2, 12},
                         Shape{TopologyPreset::kLeafSpine, 5, 3, 23},
                         Shape{TopologyPreset::kLeafSpine, 16, 2, 40}}) {
    TopologyConfig cfg;
    cfg.preset = sh.preset;
    cfg.hosts_per_rack = sh.hosts_per_rack;
    cfg.spines = std::max(1u, sh.spines);
    const Topology t = net::build_topology(cfg, sh.hosts, LinkParams{});
    const std::string name = std::string(net::preset_name(sh.preset)) + "/" +
                             std::to_string(sh.hosts);
    const std::vector<bool> none(t.edge_count(), false);
    expect_table_matches_reference(t, t.routes(), none, name);
    // Random masks, downed pairwise like the fabric's fault epochs
    // (connect() gives the two directions of a cable ids 2k, 2k+1).
    sim::Rng rng(sh.hosts);
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<bool> down(t.edge_count(), false);
      for (std::uint32_t e = 0; e + 1 < t.edge_count(); e += 2) {
        if (rng.bernoulli(0.15)) down[e] = down[e + 1] = true;
      }
      expect_table_matches_reference(t, t.compute_routes_masked(down), down,
                                     name + " mask " + std::to_string(trial));
    }
  }
}

TEST(RouteTable, LeafSpine512FitsInSixMiB) {
  // rack512's fabric: 32 racks of 16 hosts behind 2 spines, 262 144
  // host pairs of 2 or 4 hops.
  TopologyConfig cfg;
  cfg.preset = TopologyPreset::kLeafSpine;
  cfg.hosts_per_rack = 16;
  cfg.spines = 2;
  const Topology t = net::build_topology(cfg, 512, LinkParams{});
  EXPECT_EQ(t.max_route_hops(), 4u);
  EXPECT_LE(t.routes().heap_bytes(), 6u << 20);
}

TEST(FaultInjection, SwitchCrashIsAccountedAndHeals) {
  // Single-ToR rack: while the switch is down every destination is
  // unreachable (accounted kUnreachable drops — never silent); after
  // it heals, traffic flows again.
  sim::Simulator s;
  sim::Rng rng(5);
  LinkParams def;
  def.jitter_sigma = 0.0;
  net::Fabric f(s, rng, def);
  TopologyConfig cfg;
  cfg.preset = TopologyPreset::kRack;
  f.set_topology(cfg, 3);
  net::FaultPlan plan;
  net::SwitchFault fault;
  fault.switch_index = 0;
  fault.down_at = 0;
  fault.up_at = 50'000;
  plan.switch_faults.push_back(fault);
  f.set_fault_plan(plan);

  std::uint64_t got = 0;
  for (net::NodeId n = 0; n < 3; ++n) {
    f.register_node(n, s, [&got](net::Packet) { ++got; });
  }
  const auto fire = [&s, &f](sim::SimTime t) {
    s.schedule_at(t, [&f] {
      net::Packet p;
      p.src = 1;
      p.dst = 0;
      p.op = net::WireOp::kWrite;
      p.length = 4096;
      (void)f.send(std::move(p));
    });
  };
  fire(1000);    // during the crash: unreachable
  fire(60'000);  // after heal: delivered
  s.run();
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(f.packets_dropped(net::DropReason::kUnreachable), 1u);
  EXPECT_EQ(f.packets_dropped(), 1u);
  EXPECT_EQ(f.packets_delivered(), 1u);
}

TEST(FaultParity, FaultedLeafSpineCellIsByteIdenticalAcrossThreadCounts) {
  // The full degraded stack at once — uniform loss, a flapping access
  // cable, a partition that heals — replayed at 1, 2 and 8 engine
  // threads. Fault state is a pure function of simulated time and
  // loss draws come from per-port RNG streams, so every drop and every
  // go-back-N replay must land identically.
  TopologyConfig topo;
  topo.preset = TopologyPreset::kLeafSpine;
  topo.racks = 2;
  const auto cell = [&topo](unsigned threads) {
    bench::MicroConfig mc = switched_cell(topo, threads);
    mc.loss_probability = 0.01;
    mc.retransmit_interval = 500 * sim::kMicrosecond;
    net::LinkFlap flap;
    flap.a = 1;             // client host 1…
    flap.b = 4;             // …to its ToR (switch vertex 0 of 4 hosts)
    flap.down_at = 200 * sim::kMicrosecond;
    flap.up_at = 400 * sim::kMicrosecond;
    mc.faults.link_flaps.push_back(flap);
    net::NetPartition part;
    part.island = {2};
    part.begin = 600 * sim::kMicrosecond;
    part.end = 800 * sim::kMicrosecond;
    mc.faults.partitions.push_back(part);
    return bench::run_micro(rpcs::System::kWFlushRpc, mc);
  };
  const auto r1 = cell(1);
  const auto r2 = cell(2);
  const auto r8 = cell(8);
  ASSERT_GT(r1.ops_completed, 0u);
  EXPECT_GT(r1.net_drops, 0u);
  EXPECT_GT(r1.rnic_retransmits, 0u);
  expect_model_identical(r1, r2, "faulted leaf-spine x2");
  expect_model_identical(r1, r8, "faulted leaf-spine x8");
}

TEST(SwitchedParity, ShortTrunksStayInsideTheConservativeLookahead) {
  // trunk_prop_scale < 1 shrinks the fabric-wide minimum propagation:
  // the engine's lookahead must follow it (min over topology ports,
  // not just direct links), or a spine hop lands below the horizon and
  // the violation guard throws.
  TopologyConfig topo;
  topo.preset = TopologyPreset::kLeafSpine;
  topo.racks = 2;
  topo.trunk_prop_scale = 0.25;
  const auto r1 =
      bench::run_micro(rpcs::System::kWFlushRpc, switched_cell(topo, 1));
  const auto r2 =
      bench::run_micro(rpcs::System::kWFlushRpc, switched_cell(topo, 2));
  ASSERT_GT(r1.ops_completed, 0u);
  expect_model_identical(r1, r2, "short trunks x2");
}

}  // namespace
}  // namespace prdma
