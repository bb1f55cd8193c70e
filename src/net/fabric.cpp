#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace prdma::net {

Fabric::NodeCtx& Fabric::ctx(NodeId id) {
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  return nodes_[id];
}

void Fabric::register_node(NodeId id, sim::Simulator& sim,
                           std::function<void(Packet)> deliver) {
  NodeCtx& c = ctx(id);
  c.sim = &sim;
  c.sink = std::move(deliver);
  if (c.tracer == nullptr) c.tracer = tracer_;
  c.partition = engine_ != nullptr ? engine_->partition_of_node(id) : 0;
  if (partitioned_) precreate_links(id);
}

void Fabric::unregister_node(NodeId id) { ctx(id).sink = nullptr; }

void Fabric::precreate_links(NodeId id) {
  // Worker threads of a multi-partition run probe links_ concurrently
  // (one directed link's state is only ever *mutated* by its source
  // partition, but the open-addressing probe walks shared slots), so
  // the table must be frozen before run(): materialize both directions
  // between `id` and every known node now, while still single-threaded.
  // Pairs the switch graph routes never reach the flat table (send()
  // prefers a non-empty route), so only unrouted pairs materialize —
  // a 512-host leaf-spine would otherwise eagerly build ~260 K dead
  // links, each with a private RNG stream.
  const std::size_t hosts = topo_ != nullptr ? topo_->host_count() : 0;
  for (std::size_t other = 0; other < nodes_.size(); ++other) {
    if (other == id) continue;
    const auto o = static_cast<NodeId>(other);
    if (routed() && id < hosts && other < hosts) {
      if (!topo_->route(id, o).ports.empty() &&
          !topo_->route(o, id).ports.empty()) {
        continue;
      }
    }
    state(id, o);
    state(o, id);
  }
}

void Fabric::bind_engine(sim::PartitionedEngine* engine, std::uint64_t seed) {
  engine_ = engine;
  link_seed_ = seed;
  partitioned_ = engine != nullptr && engine->partitions() > 1;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    nodes_[id].partition =
        partitioned_ ? engine_->partition_of_node(id) : 0;
  }
  if (partitioned_) {
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      precreate_links(static_cast<NodeId>(id));
    }
  }
}

void Fabric::set_topology(const TopologyConfig& cfg, std::size_t hosts) {
  topo_cfg_ = cfg;
  topo_ = std::make_unique<Topology>(build_topology(cfg, hosts, defaults_));
  ports_.clear();
  if (!topo_->switched()) return;  // point-to-point: flat table untouched
  ports_.reserve(topo_->edge_count());
  for (std::uint32_t e = 0; e < topo_->edge_count(); ++e) {
    const Topology::Edge& edge = topo_->edge(e);
    Port port;
    port.params = edge.params;
    port.from = edge.from;
    port.to = edge.to;
    port.owner = topo_->is_switch(edge.from)
                     ? topo_->switch_owner(
                           static_cast<std::uint32_t>(edge.from - hosts))
                     : static_cast<NodeId>(edge.from);
    port.partition =
        engine_ != nullptr ? engine_->partition_of_node(port.owner) : 0;
    port.sim = engine_ != nullptr ? &engine_->shard_of_node(port.owner) : &sim_;
    // Routed hops always draw from per-port streams (never the shared
    // setup RNG), seeded order-independently from (seed, edge id) —
    // edge ids are construction order, a pure function of the config —
    // so a switched run is byte-identical at any engine thread count.
    port.rng = std::make_unique<sim::Rng>(
        hash_key(link_seed_ ^ ((e + 0x51ed2701ULL) * 0x9e3779b97f4a7c15ULL)));
    ports_.push_back(std::move(port));
  }
}

void Fabric::set_fault_plan(FaultPlan plan) {
  plan.validate();
  plan_ = std::move(plan);
  have_faults_ = !plan_.empty();
  edge_down_.clear();
  direct_down_.clear();
  epoch_starts_.clear();
  epoch_routes_.clear();
  if (!have_faults_) return;

  // With no installed topology (bare fabric) every vertex names a
  // host, so all flaps act on the direct point-to-point table.
  const std::size_t hosts =
      topo_ != nullptr ? topo_->host_count() : ~std::size_t{0};

  // Host<->host flaps act on the direct point-to-point table.
  const auto add_direct = [&](NodeId a, NodeId b, sim::SimTime lo,
                              sim::SimTime hi) {
    for (const std::uint64_t key : {pack(a, b), pack(b, a)}) {
      auto it = std::find_if(direct_down_.begin(), direct_down_.end(),
                             [&](const auto& e) { return e.first == key; });
      if (it == direct_down_.end()) {
        direct_down_.emplace_back(key, DownSpans{});
        it = direct_down_.end() - 1;
      }
      it->second.spans.emplace_back(lo, hi);
    }
  };
  for (const LinkFlap& f : plan_.link_flaps) {
    if (f.a < hosts && f.b < hosts) {
      add_direct(static_cast<NodeId>(f.a), static_cast<NodeId>(f.b),
                 f.down_at, f.up_at);
    }
  }
  for (auto& [key, spans] : direct_down_) {
    std::sort(spans.spans.begin(), spans.spans.end());
  }

  if (topo_ == nullptr || !topo_->switched()) return;

  // Map flaps and switch crashes onto the cables they take down — both
  // directions of each full-duplex pair.
  edge_down_.resize(topo_->edge_count());
  const auto add_edge_span = [&](std::uint32_t e, sim::SimTime lo,
                                 sim::SimTime hi) {
    edge_down_[e].spans.emplace_back(lo, hi);
  };
  for (std::uint32_t e = 0; e < topo_->edge_count(); ++e) {
    const Topology::Edge& edge = topo_->edge(e);
    for (const LinkFlap& f : plan_.link_flaps) {
      if ((edge.from == f.a && edge.to == f.b) ||
          (edge.from == f.b && edge.to == f.a)) {
        add_edge_span(e, f.down_at, f.up_at);
      }
    }
    for (const SwitchFault& f : plan_.switch_faults) {
      const Vertex sw = topo_->switch_vertex(f.switch_index);
      if (edge.from == sw || edge.to == sw) {
        add_edge_span(e, f.down_at, f.up_at);
      }
    }
  }
  bool any_edge = false;
  for (DownSpans& d : edge_down_) {
    std::sort(d.spans.begin(), d.spans.end());
    any_edge = any_edge || !d.spans.empty();
  }
  if (!any_edge) {
    edge_down_.clear();
    return;
  }

  // Fault epochs: the cable up/down state is constant between
  // transition instants, so one failover route table per epoch covers
  // every send in it. Tables are precomputed here (single-threaded,
  // before the run) and only read afterwards.
  std::vector<sim::SimTime> cuts;
  for (const DownSpans& d : edge_down_) {
    for (const auto& [lo, hi] : d.spans) {
      cuts.push_back(lo);
      cuts.push_back(hi);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  epoch_starts_.push_back(0);
  for (const sim::SimTime t : cuts) {
    if (t > 0) epoch_starts_.push_back(t);
  }
  epoch_routes_.resize(epoch_starts_.size());
  for (std::size_t i = 0; i < epoch_starts_.size(); ++i) {
    std::vector<bool> mask(topo_->edge_count(), false);
    bool any = false;
    for (std::uint32_t e = 0; e < topo_->edge_count(); ++e) {
      if (edge_down_[e].down_at(epoch_starts_[i])) {
        mask[e] = true;
        any = true;
      }
    }
    if (any) epoch_routes_[i] = topo_->compute_routes_masked(mask);
  }
}

void Fabric::count_drop(DropReason r, sim::SimTime t, NodeId track,
                        trace::Tracer* tracer) {
  dropped_.fetch_add(1, std::memory_order_relaxed);
  drops_by_reason_[static_cast<std::size_t>(r)].fetch_add(
      1, std::memory_order_relaxed);
  if (tracer != nullptr) {
    tracer->counter(trace::Component::kNetDrop, t, 1,
                    static_cast<std::uint16_t>(track));
  }
}

bool Fabric::direct_is_down(NodeId from, NodeId to, sim::SimTime t) const {
  const std::uint64_t key = pack(from, to);
  for (const auto& [k, spans] : direct_down_) {
    if (k == key) return spans.down_at(t);
  }
  return false;
}

bool Fabric::partition_blocked(NodeId src, NodeId dst, sim::SimTime t) const {
  for (const NetPartition& p : plan_.partitions) {
    if (t < p.begin || t >= p.end) continue;
    const bool s = std::find(p.island.begin(), p.island.end(), src) !=
                   p.island.end();
    const bool d = std::find(p.island.begin(), p.island.end(), dst) !=
                   p.island.end();
    if (s != d) return true;
  }
  return false;
}

void Fabric::burst_rates(sim::SimTime t, double& loss, double& corrupt) const {
  for (const LossBurst& b : plan_.bursts) {
    if (t < b.begin || t >= b.end) continue;
    loss = std::max(loss, b.loss);
    corrupt = std::max(corrupt, b.corrupt);
  }
}

Route Fabric::route_at(NodeId from, NodeId to, sim::SimTime t) const {
  if (epoch_starts_.empty()) return topo_->route(from, to);
  std::size_t i =
      static_cast<std::size_t>(
          std::upper_bound(epoch_starts_.begin(), epoch_starts_.end(), t) -
          epoch_starts_.begin()) -
      1;
  const RouteTable& table = epoch_routes_[i];
  if (table.empty()) return topo_->route(from, to);
  return table.route(from, to);
}

void Fabric::grow_links() {
  std::vector<LinkSlot> old = std::move(links_);
  links_ = std::vector<LinkSlot>(std::max<std::size_t>(16, old.size() * 2));
  for (LinkSlot& slot : old) {
    if (slot.key == kEmptyKey) continue;
    std::size_t i = hash_key(slot.key) & (links_.size() - 1);
    while (links_[i].key != kEmptyKey) i = (i + 1) & (links_.size() - 1);
    links_[i] = std::move(slot);
  }
}

Fabric::LinkState& Fabric::state(NodeId from, NodeId to) {
  const std::uint64_t key = pack(from, to);
  if (!links_.empty()) {
    std::size_t i = hash_key(key) & (links_.size() - 1);
    while (links_[i].key != kEmptyKey) {
      if (links_[i].key == key) return links_[i].state;
      i = (i + 1) & (links_.size() - 1);
    }
  }
  // Miss: insert. On a multi-partition engine the table is frozen once
  // workers run (register_node pre-created every directed pair), so an
  // insert here from a worker thread is a bug — growing or writing the
  // shared slot vector would race other partitions' probes.
  if (partitioned_ && sim::current_engine_shard() != nullptr) {
    throw std::logic_error(
        "fabric link table insert during a partitioned run: packets may "
        "only flow between nodes registered before Cluster::run()");
  }
  if (links_.empty() || (link_count_ + 1) * 4 > links_.size() * 3) {
    grow_links();
  }
  std::size_t i = hash_key(key) & (links_.size() - 1);
  while (links_[i].key != kEmptyKey) i = (i + 1) & (links_.size() - 1);
  LinkSlot& slot = links_[i];
  slot.key = key;
  slot.state.params = defaults_;
  if (partitioned_) {
    // Order-independent per-link stream: a link's draws depend only on
    // (seed, from, to), never on which partition touched it first.
    slot.state.rng = std::make_unique<sim::Rng>(
        hash_key(link_seed_ ^ (key * 0x9e3779b97f4a7c15ULL)));
  }
  ++link_count_;
  return slot.state;
}

LinkParams& Fabric::direct_link(NodeId from, NodeId to) {
  return state(from, to).params;
}

sim::SimTime Fabric::min_cross_partition_propagation() const {
  constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::max();
  if (!partitioned_) return kNever;
  sim::SimTime m = kNever;

  const auto host_partition = [&](NodeId id) -> std::size_t {
    return id < nodes_.size() ? nodes_[id].partition
                              : engine_->partition_of_node(id);
  };

  // Routed ports: the conservative floor guarantees a hop's arrival
  // lands >= propagation/2 after the send executes (jitter clamp), so
  // a port bounds the lookahead only when the arrival can execute on a
  // different partition than the send.
  for (const Port& port : ports_) {
    bool crosses = false;
    if (!topo_->is_switch(port.to)) {
      crosses = host_partition(static_cast<NodeId>(port.to)) != port.partition;
    } else {
      for (const Port& next : ports_) {
        if (next.from == port.to && next.partition != port.partition) {
          crosses = true;
          break;
        }
      }
    }
    if (crosses) m = std::min(m, port.params.propagation);
  }

  // Direct links: only host pairs the routed graph does not cover can
  // reach the flat table (send() prefers a non-empty route), so the
  // precreated default-propagation entries between routed hosts are
  // unreachable and excluded.
  const std::size_t hosts = topo_ != nullptr ? topo_->host_count() : 0;
  for (const LinkSlot& slot : links_) {
    if (slot.key == kEmptyKey) continue;
    const auto from = static_cast<NodeId>(slot.key >> 32);
    const auto to = static_cast<NodeId>(slot.key & 0xffffffffu);
    if (routed() && from != to && from < hosts && to < hosts &&
        !topo_->route(from, to).ports.empty()) {
      continue;
    }
    if (from >= nodes_.size() || to >= nodes_.size() ||
        nodes_[from].partition != nodes_[to].partition) {
      m = std::min(m, slot.state.params.propagation);
    }
  }
  return m;
}

sim::SimTime Fabric::min_propagation() const {
  sim::SimTime m = defaults_.propagation;
  for (const LinkSlot& slot : links_) {
    if (slot.key != kEmptyKey) m = std::min(m, slot.state.params.propagation);
  }
  for (const Port& port : ports_) {
    m = std::min(m, port.params.propagation);
  }
  return m;
}

Fabric::PortStats Fabric::port_stats(std::size_t i) const {
  const Port& port = ports_[i];
  PortStats s;
  s.from = port.from;
  s.to = port.to;
  s.packets = port.packets;
  s.bytes = port.bytes;
  s.queue_ns_total = port.queue_ns_total;
  s.queue_ns_peak = port.queue_ns_peak;
  s.pfc_events = port.pfc_events;
  s.pfc_pause_ns = port.pfc_pause_ns;
  s.drops = port.drops;
  s.corrupt_drops = port.corrupt_drops;
  return s;
}

sim::SimTime Fabric::max_port_queue_ns() const {
  sim::SimTime m = 0;
  for (const Port& port : ports_) m = std::max(m, port.queue_ns_peak);
  return m;
}

std::uint64_t Fabric::pfc_pauses() const {
  std::uint64_t n = 0;
  for (const Port& port : ports_) n += port.pfc_events;
  return n;
}

sim::SimTime Fabric::pfc_pause_ns_total() const {
  sim::SimTime n = 0;
  for (const Port& port : ports_) n += port.pfc_pause_ns;
  return n;
}

sim::SimTime Fabric::send(Packet p) {
  if (routed() && p.src != p.dst && p.src < topo_->host_count() &&
      p.dst < topo_->host_count()) {
    const Route base = topo_->route(p.src, p.dst);
    if (!base.ports.empty()) {
      NodeCtx& src = ctx(p.src);
      sim::Simulator& ssim = src.sim != nullptr ? *src.sim : sim_;
      const sim::SimTime now = ssim.now();
      if (have_faults_) {
        // Fault checks happen before the packet touches any port: the
        // down/partition state is a pure function of simulated time, so
        // a rejected packet perturbs no egress occupancy or RNG stream.
        if (partition_blocked(p.src, p.dst, now)) {
          count_drop(DropReason::kPartition, now, p.src, src.tracer);
          return now;
        }
        const Route route = route_at(p.src, p.dst, now);
        if (route.ports.empty()) {
          // No surviving path this fault epoch. The destination stalls
          // rather than silently losing traffic: the drop is accounted
          // and the RC layer retries until a later epoch reconnects it
          // (never the flat direct table — that would teleport packets
          // around the fault).
          count_drop(DropReason::kUnreachable, now, p.src, src.tracer);
          return now;
        }
        return hop_transmit(std::move(p), route, 0, now);
      }
      return hop_transmit(std::move(p), base, 0, now);
    }
    // Host pair the graph leaves disconnected: fall through to the
    // direct point-to-point link, like the pre-topology fabric.
  }
  return send_direct(std::move(p));
}

sim::SimTime Fabric::hop_transmit(Packet p, Route route,
                                  std::size_t hop, sim::SimTime t_in) {
  Port& port = ports_[route.ports[hop]];
  // Store-and-forward: a switch charges its traversal latency before
  // the packet can contend for the egress queue.
  const sim::SimTime ready =
      hop == 0 ? t_in : t_in + topo_cfg_.switch_latency;
  if (have_faults_ && edge_is_down(route.ports[hop], ready)) {
    // Downed egress (flap or switch crash): rejected before occupying
    // the wire — no busy-until mutation, no RNG draw, no byte counted.
    // In-flight packets hit this mid-route when a cable dies under
    // them; fresh sends only reach a downed cable while their pinned
    // (stale) epoch route still crosses it.
    port.drops += 1;
    trace::Tracer* t =
        port.owner < nodes_.size() ? nodes_[port.owner].tracer : tracer_;
    count_drop(DropReason::kLinkDown, ready, port.owner, t);
    return port.busy_until;
  }
  if (hop > 0) switch_hops_.fetch_add(1, std::memory_order_relaxed);

  const LinkParams& lp = port.params;
  const std::uint64_t bytes = p.wire_bytes();
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  port.packets += 1;
  port.bytes += bytes;

  // Residual bandwidth after background traffic (same model as the
  // direct path, applied per cable).
  const double load = std::clamp(lp.background_load, 0.0, 0.95);
  const double residual_bw = lp.bandwidth_bytes_per_s * (1.0 - load);
  const sim::SimTime service = sim::transfer_time(bytes, residual_bw);

  // Egress-queue occupancy: the wait behind earlier packets out of
  // this port is where incast at fan-in ports becomes visible.
  const sim::SimTime tx_begin = std::max(ready, port.busy_until);
  const sim::SimTime queued = tx_begin - ready;
  port.busy_until = tx_begin + service;
  port.queue_ns_total += queued;
  port.queue_ns_peak = std::max(port.queue_ns_peak, queued);

  sim::Rng& rng = *port.rng;
  sim::SimTime queueing = 0;
  if (load > 0.0) {
    const double mean_wait =
        load / (1.0 - load) *
        static_cast<double>(std::max<sim::SimTime>(service, 200));
    queueing = static_cast<sim::SimTime>(rng.exponential(mean_wait));
  }
  double jitter = rng.lognormal_jitter(lp.jitter_sigma);
  // Routed paths always honor the conservative lookahead floor (half
  // the propagation), partitioned or not, so a switched run is
  // byte-identical at any engine thread count.
  if (jitter < 0.5) jitter = 0.5;

  // PFC pause (opt-in): backlog past the threshold pauses the
  // upstream sender. Modeled as an arrival-gated penalty at this port
  // — the excess wait is charged to the packet and counted — instead
  // of literal pause frames walking upstream, which would mutate
  // foreign ports' state across partitions mid-epoch.
  sim::SimTime pfc_hold = 0;
  if (topo_cfg_.pfc) {
    const sim::SimTime threshold_ns =
        sim::transfer_time(topo_cfg_.pfc_threshold, residual_bw);
    if (queued > threshold_ns) {
      pfc_hold = queued - threshold_ns;
      port.pfc_events += 1;
      port.pfc_pause_ns += pfc_hold;
    }
  }

  const auto flight = static_cast<sim::SimTime>(
                          static_cast<double>(lp.propagation + queueing) *
                          jitter) +
                      pfc_hold;
  const sim::SimTime arrival = port.busy_until + flight;

  trace::Tracer* tracer =
      port.owner < nodes_.size() ? nodes_[port.owner].tracer : tracer_;
  if (tracer != nullptr) {
    if (hop == 0) {
      tracer->span(trace::Component::kNetSerialize, p.seq, tx_begin,
                   port.busy_until, static_cast<std::uint16_t>(p.src));
    } else {
      tracer->span(trace::Component::kNetSwitchHop, p.seq, t_in,
                   port.busy_until, static_cast<std::uint16_t>(port.owner));
    }
    tracer->span(trace::Component::kNetFlight, p.seq, port.busy_until, arrival,
                 static_cast<std::uint16_t>(port.owner));
    if (queued > 0) {
      tracer->counter(trace::Component::kNetPortQueue, ready,
                      static_cast<std::uint64_t>(queued),
                      static_cast<std::uint16_t>(route.ports[hop]));
    }
  }

  double loss = lp.loss_probability;
  double corrupt = 0.0;
  if (have_faults_) burst_rates(ready, loss, corrupt);
  if (loss > 0.0 && rng.bernoulli(loss)) {
    port.drops += 1;
    count_drop(DropReason::kLoss, ready, port.owner, tracer);
    return port.busy_until;
  }
  if (corrupt > 0.0 && rng.bernoulli(corrupt)) {
    // A corrupted frame fails the link-layer CRC at the far end; to the
    // transport it is a loss, only the accounting differs.
    port.drops += 1;
    port.corrupt_drops += 1;
    count_drop(DropReason::kCorrupt, ready, port.owner, tracer);
    return port.busy_until;
  }

  const sim::SimTime accepted = port.busy_until;
  if (hop + 1 < route.ports.size()) {
    const Port& next = ports_[route.ports[hop + 1]];
    auto forward = [this, p = std::move(p), route, next_hop = hop + 1,
                    t = arrival]() mutable {
      hop_transmit(std::move(p), route, next_hop, t);
    };
    if (!partitioned_ || next.partition == port.partition) {
      next.sim->schedule_at(arrival, std::move(forward));
    } else {
      engine_->schedule_remote(port.partition, next.partition, arrival,
                               sim::InlineTask(std::move(forward)));
    }
    return accepted;
  }

  NodeCtx& dst = ctx(p.dst);
  auto deliver = [this, p = std::move(p), t = arrival]() mutable {
    const NodeCtx& d = nodes_[p.dst];
    if (!d.sink) {
      // Destination crashed/unregistered: same accounted path as every
      // other discard, attributed to the dead node.
      count_drop(DropReason::kDeadNode, t, p.dst, d.tracer);
      return;
    }
    delivered_.fetch_add(1, std::memory_order_relaxed);
    d.sink(std::move(p));
  };
  sim::Simulator& dsim = dst.sim != nullptr ? *dst.sim : sim_;
  if (!partitioned_ || dst.partition == port.partition) {
    dsim.schedule_at(arrival, std::move(deliver));
  } else {
    engine_->schedule_remote(port.partition, dst.partition, arrival,
                             sim::InlineTask(std::move(deliver)));
  }
  return accepted;
}

sim::SimTime Fabric::send_direct(Packet p) {
  NodeCtx& src = ctx(p.src);
  // Unregistered senders (raw-fabric tests) run on the fabric's own
  // simulator, matching the pre-partitioning behaviour.
  sim::Simulator& ssim = src.sim != nullptr ? *src.sim : sim_;
  if (have_faults_) {
    // Rejected before the link's busy-until or RNG stream is touched —
    // fault state is time-pure, so the surviving schedule is unchanged.
    const sim::SimTime now = ssim.now();
    if (partition_blocked(p.src, p.dst, now)) {
      count_drop(DropReason::kPartition, now, p.src, src.tracer);
      return now;
    }
    if (direct_is_down(p.src, p.dst, now)) {
      count_drop(DropReason::kLinkDown, now, p.src, src.tracer);
      return now;
    }
  }
  LinkState& lk = state(p.src, p.dst);
  const LinkParams& lp = lk.params;

  const std::uint64_t bytes = p.wire_bytes();
  bytes_.fetch_add(bytes, std::memory_order_relaxed);

  // Residual bandwidth after background traffic.
  const double load = std::clamp(lp.background_load, 0.0, 0.95);
  const double residual_bw = lp.bandwidth_bytes_per_s * (1.0 - load);
  const sim::SimTime service = sim::transfer_time(bytes, residual_bw);

  // Serialization: this packet queues behind earlier ones in the same
  // direction.
  const sim::SimTime tx_begin = std::max(ssim.now(), lk.busy_until);
  lk.busy_until = tx_begin + service;

  sim::Rng& rng = lk.rng != nullptr ? *lk.rng : rng_;

  // M/M/1-flavoured queueing behind background traffic: expected wait
  // of load/(1-load) service times, sampled exponentially.
  sim::SimTime queueing = 0;
  if (load > 0.0) {
    const double mean_wait =
        load / (1.0 - load) *
        static_cast<double>(std::max<sim::SimTime>(service, 200));
    queueing = static_cast<sim::SimTime>(rng.exponential(mean_wait));
  }

  double jitter = rng.lognormal_jitter(lp.jitter_sigma);
  // Conservative lookahead floor: a partitioned run promises every
  // arrival lands at least propagation/2 after the send, so the jitter
  // multiplier cannot shrink the flight below half the nominal delay
  // (an astronomically rare tail at the modelled sigmas).
  if (partitioned_ && jitter < 0.5) jitter = 0.5;
  const auto flight = static_cast<sim::SimTime>(
      static_cast<double>(lp.propagation + queueing) * jitter);
  const sim::SimTime arrival = tx_begin + service + flight;

  if (src.tracer != nullptr) {
    src.tracer->span(trace::Component::kNetSerialize, p.seq, tx_begin,
                     tx_begin + service, static_cast<std::uint16_t>(p.src));
    src.tracer->span(trace::Component::kNetFlight, p.seq, tx_begin + service,
                     arrival, static_cast<std::uint16_t>(p.src));
  }

  double loss = lp.loss_probability;
  double corrupt = 0.0;
  if (have_faults_) burst_rates(tx_begin, loss, corrupt);
  if (loss > 0.0 && rng.bernoulli(loss)) {
    count_drop(DropReason::kLoss, tx_begin, p.src, src.tracer);
    return lk.busy_until;
  }
  if (corrupt > 0.0 && rng.bernoulli(corrupt)) {
    count_drop(DropReason::kCorrupt, tx_begin, p.src, src.tracer);
    return lk.busy_until;
  }

  NodeCtx& dst = ctx(p.dst);
  auto deliver = [this, p = std::move(p), t = arrival]() mutable {
    const NodeCtx& d = nodes_[p.dst];
    if (!d.sink) {
      // Destination crashed/unregistered: accounted, never silent.
      count_drop(DropReason::kDeadNode, t, p.dst, d.tracer);
      return;
    }
    delivered_.fetch_add(1, std::memory_order_relaxed);
    d.sink(std::move(p));
  };
  if (!partitioned_ || dst.partition == src.partition) {
    ssim.schedule_at(arrival, std::move(deliver));
  } else {
    engine_->schedule_remote(src.partition, dst.partition, arrival,
                             sim::InlineTask(std::move(deliver)));
  }
  return lk.busy_until;
}

}  // namespace prdma::net
