#include "repl/replication.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/task.hpp"
#include "trace/tracer.hpp"

namespace prdma::repl {

using core::RpcOp;
using core::RpcRequest;
using core::RpcResult;
using sim::SimTime;
using sim::Task;

std::string_view protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kNone: return "none";
    case Protocol::kChain: return "chain";
    case Protocol::kMirror: return "mirror";
  }
  return "?";
}

std::optional<Protocol> protocol_from_name(std::string_view s) {
  if (s == "none") return Protocol::kNone;
  if (s == "chain") return Protocol::kChain;
  if (s == "mirror") return Protocol::kMirror;
  return std::nullopt;
}

// ===================================================================
// ReplicaSet
// ===================================================================

ReplicaSet::ReplicaSet(core::Cluster& cluster, core::FlushVariant v,
                       const ReplicationConfig& cfg,
                       const core::ModelParams& params)
    : cluster_(cluster), variant_(v), cfg_(cfg) {
  if (!cfg_.active()) {
    throw std::invalid_argument("ReplicaSet requires chain or mirror");
  }
  if (cfg_.replicas < 2) {
    throw std::invalid_argument("replication needs at least 2 replicas");
  }
  if (cfg_.replicas >= cluster_.size()) {
    throw std::invalid_argument(
        "cluster too small: need one node per replica plus the client(s)");
  }
  name_ = std::string(protocol_name(cfg_.protocol)) + "/" +
          std::string(core::variant_name(v));
  for (std::size_t r = 0; r < cfg_.replicas; ++r) {
    servers_.push_back(
        std::make_unique<core::DurableRpcServer>(cluster_, r, v, params));
    up_.push_back(std::make_unique<sim::Event>(cluster_.sim_of(r)));
    up_.back()->set();
    server_up_.push_back(true);
    node_alive_.push_back(true);
    down_epoch_.push_back(0);
    watermark_at_crash_.emplace_back();
  }
}

ReplicaSet::~ReplicaSet() = default;

void ReplicaSet::start() {
  for (auto& s : servers_) s->start();
  started_ = true;
}

std::unique_ptr<ReplicatedClient> ReplicaSet::connect_client(
    std::size_t app_idx) {
  assert(!started_ && "connect clients before start()");
  if (app_idx < cfg_.replicas) {
    throw std::invalid_argument("client node collides with a replica node");
  }
  auto client =
      std::unique_ptr<ReplicatedClient>(new ReplicatedClient(*this, app_idx));
  clients_.push_back(client.get());
  return client;
}

std::uint64_t ReplicaSet::watermark_at_crash(std::size_t r,
                                             std::size_t conn) const {
  const auto& marks = watermark_at_crash_.at(r);
  return conn < marks.size() ? marks[conn] : 0;
}

void ReplicaSet::add_crash_observer(std::function<void(std::size_t)> fn) {
  crash_observers_.push_back(std::move(fn));
}

void ReplicaSet::add_recovery_observer(std::function<void(std::size_t)> fn) {
  recovery_observers_.push_back(std::move(fn));
}

void ReplicaSet::crash_replica(std::size_t r, SimTime restart_delay) {
  assert(r < servers_.size());
  assert(restart_delay > 0 && "a crashed replica must come back");
  // Refuse before the software teardown below: a caller that catches
  // the error keeps a replica that is still up.
  if (node_alive_[r]) cluster_.node(r).check_crashable();
  const std::uint64_t my_epoch = ++down_epoch_[r];
  server_up_[r] = false;
  up_[r]->reset();
  servers_[r]->on_crash();
  if (node_alive_[r]) {
    cluster_.node(r).crash();  // in-flight DMA lands torn on r's PM
    node_alive_[r] = false;
  }
  for (ReplicatedClient* c : clients_) c->on_replica_crash(r);
  // Media snapshot after the hardware settled: exactly the entries r's
  // recovery will replay. Monotone across crashes, so a retry loop can
  // trust a snapshot taken at any earlier crash of r.
  auto& marks = watermark_at_crash_[r];
  if (marks.size() < clients_.size()) marks.resize(clients_.size(), 0);
  for (std::size_t conn = 0; conn < clients_.size(); ++conn) {
    marks[conn] = servers_[r]->durable_watermark(conn);
  }
  ++crashes_;
  for (auto& fn : crash_observers_) fn(r);
  cluster_.sim_of(r).schedule(restart_delay, [this, r, my_epoch] {
    sim::spawn(recover_replica(r, my_epoch));
  });
}

Task<> ReplicaSet::recover_replica(std::size_t r, std::uint64_t my_epoch) {
  if (down_epoch_[r] != my_epoch) co_return;  // superseded by a later crash
  cluster_.node(r).restart();
  node_alive_[r] = true;
  co_await servers_[r]->recover_and_restart();
  if (down_epoch_[r] != my_epoch) co_return;  // crashed again mid-replay
  server_up_[r] = true;
  // Reconnect hops BEFORE waking waiters: a woken retry must never see
  // an aborted endpoint while the replica claims to be up.
  for (ReplicatedClient* c : clients_) c->repair_hops();
  for (auto& fn : recovery_observers_) fn(r);
  up_[r]->set();
}

// ===================================================================
// ReplicatedClient
// ===================================================================

ReplicatedClient::ReplicatedClient(ReplicaSet& set, std::size_t app_idx)
    : set_(set),
      app_idx_(app_idx),
      conn_idx_(set.clients_.size()),
      txns_(set.cfg_.replicas) {
  name_ = std::string(set_.name()) + "-client";
  const std::size_t replicas = set_.cfg_.replicas;
  for (std::size_t r = 0; r < replicas; ++r) {
    // Chain forwards store-and-forward style: hop r>=1 is issued from
    // replica r-1's node. Mirror fans every hop out from the app node.
    const std::size_t host =
        (set_.cfg_.protocol == Protocol::kChain && r > 0) ? r - 1 : app_idx_;
    hops_.push_back(set_.servers_[r]->connect_client(host));
    hop_host_.push_back(host);
    hop_dirty_.push_back(false);
    assert(hops_.back()->conn_index() == conn_idx_);
  }
}

Task<RpcResult> ReplicatedClient::call(const RpcRequest& req) {
  // Not a coroutine: one frame fewer per op in flight.
  return req.op == RpcOp::kRead ? read_head(req) : write_txn(req);
}

void ReplicatedClient::abort_pending() {
  for (auto& h : hops_) h->abort_pending();
}

Task<RpcResult> ReplicatedClient::read_head(RpcRequest req) {
  for (;;) {
    RpcResult r = co_await hops_[0]->call(req);
    if (r.ok) co_return r;
    co_await wait_hop_usable(0);
    ++resends_;  // reads are idempotent: always re-issue
  }
}

Task<RpcResult> ReplicatedClient::write_txn(RpcRequest req) {
  auto& sim = set_.cluster_.sim_of(app_idx_);
  trace::Tracer& tracer = set_.cluster_.tracer_of(app_idx_);
  const std::size_t replicas = hops_.size();

  TxnRecord& rec = txns_.add();
  const std::uint64_t txn = rec.txn;
  rec.payload_len = req.len;

  RpcResult res;
  res.issued_at = sim.now();
  res.tag = txn;

  const bool mutant = set_.cfg_.ack_before_replica_persist;
  if (set_.cfg_.protocol == Protocol::kChain) {
    for (std::size_t h = 0; h < replicas; ++h) {
      const SimTime f0 = sim.now();
      const RpcResult hop = co_await hop_write(h, req);
      rec.seq_on[h] = hop.tag;
      if (h > 0) {
        tracer.span(trace::Component::kReplForward, txn, f0, sim.now(),
                    track_of(hop_host_[h]));
      }
      if (mutant && h == 0) {
        sim::spawn(chain_tail(req, txn));
        break;
      }
    }
    if (!mutant) {
      // Ack travels back from the tail as a small control message.
      const SimTime a0 = sim.now();
      co_await sim::delay(sim, set_.cluster_.params().link.propagation);
      tracer.span(trace::Component::kReplAck, txn, a0, sim.now(),
                  track_of(app_idx_));
    } else {
      tracer.span(trace::Component::kReplAck, txn, sim.now(), sim.now(),
                  track_of(app_idx_));
    }
  } else {  // kMirror
    if (mutant) {
      const RpcResult head = co_await hop_write(0, req);
      rec.seq_on[0] = head.tag;
      for (std::size_t h = 1; h < replicas; ++h) {
        sim::spawn(mirror_tail(h, req, txn));
      }
    } else {
      sim::WaitGroup wg(sim);
      wg.add(replicas);
      for (std::size_t h = 0; h < replicas; ++h) {
        sim::spawn(mirror_hop(h, req, txn, wg));
      }
      co_await wg.wait();
    }
    // Persist-ACKs already arrived at the app node; no extra wire hop.
    tracer.span(trace::Component::kReplAck, txn, sim.now(), sim.now(),
                track_of(app_idx_));
  }

  res.ok = true;
  res.durable_at = sim.now();
  res.completed_at = sim.now();
  rec.acked = true;
  rec.acked_at = sim.now();
  ++acked_;
  if (txn_ack_hook_) txn_ack_hook_(rec);
  co_return res;
}

Task<> ReplicatedClient::mirror_hop(std::size_t h, RpcRequest req,
                                    std::uint64_t txn, sim::WaitGroup& wg) {
  const SimTime f0 = set_.cluster_.sim_of(hop_host_[h]).now();
  const RpcResult r = co_await hop_write(h, req);
  txns_.at(txn).seq_on[h] = r.tag;
  if (h > 0) {
    set_.cluster_.tracer_of(hop_host_[h])
        .span(trace::Component::kReplForward, txn, f0,
              set_.cluster_.sim_of(hop_host_[h]).now(),
              track_of(hop_host_[h]));
  }
  wg.done();
}

Task<> ReplicatedClient::chain_tail(RpcRequest req, std::uint64_t txn) {
  for (std::size_t h = 1; h < hops_.size(); ++h) {
    const SimTime f0 = set_.cluster_.sim_of(hop_host_[h]).now();
    const RpcResult r = co_await hop_write(h, req);
    txns_.at(txn).seq_on[h] = r.tag;
    set_.cluster_.tracer_of(hop_host_[h])
        .span(trace::Component::kReplForward, txn, f0,
              set_.cluster_.sim_of(hop_host_[h]).now(),
              track_of(hop_host_[h]));
  }
}

Task<> ReplicatedClient::mirror_tail(std::size_t h, RpcRequest req,
                                     std::uint64_t txn) {
  const SimTime f0 = set_.cluster_.sim_of(hop_host_[h]).now();
  const RpcResult r = co_await hop_write(h, req);
  txns_.at(txn).seq_on[h] = r.tag;
  set_.cluster_.tracer_of(hop_host_[h])
      .span(trace::Component::kReplForward, txn, f0,
            set_.cluster_.sim_of(hop_host_[h]).now(),
            track_of(hop_host_[h]));
}

Task<RpcResult> ReplicatedClient::hop_write(std::size_t h, RpcRequest req) {
  for (;;) {
    RpcResult r = co_await hops_[h]->call(req);
    if (r.ok) co_return r;
    co_await wait_hop_usable(h);
    if (r.tag != 0 && r.tag <= set_.watermark_at_crash(h, conn_idx_)) {
      // On the replica's media before the lights went out: recovery
      // replayed it, nothing to re-send (§4.2).
      r.ok = true;
      r.durable_at = set_.cluster_.sim_of(hop_host_[h]).now();
      r.completed_at = r.durable_at;
      co_return r;
    }
    ++resends_;
  }
}

Task<> ReplicatedClient::wait_hop_usable(std::size_t h) {
  // Both endpoints of the hop must be alive: the target replica and —
  // for chain's forwarded hops — the replica node issuing it. Loop:
  // while we wait for one, the other may go down.
  for (;;) {
    if (!set_.is_up(h)) {
      (void)co_await set_.up_event(h).wait();
      continue;
    }
    const std::size_t host = hop_host_[h];
    if (host < set_.replica_count() && !set_.is_up(host)) {
      (void)co_await set_.up_event(host).wait();
      continue;
    }
    co_return;
  }
}

void ReplicatedClient::on_replica_crash(std::size_t r) {
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    if (h == r || hop_host_[h] == r) {
      hops_[h]->abort_pending();
      hop_dirty_[h] = true;
    }
  }
}

void ReplicatedClient::repair_hops() {
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    if (!hop_dirty_[h]) continue;
    if (!set_.is_up(h)) continue;  // target still down
    const std::size_t host = hop_host_[h];
    if (host < set_.replica_count() && !set_.is_up(host)) continue;
    set_.server(h).reconnect_client(*hops_[h]);
    hop_dirty_[h] = false;
  }
}

// ===================================================================

core::RpcDeployment make_replicated_deployment(
    core::Cluster& cluster, core::FlushVariant v, const ReplicationConfig& cfg,
    std::span<const std::size_t> client_nodes,
    const core::ModelParams& params) {
  core::RpcDeployment d;
  auto set = std::make_unique<ReplicaSet>(cluster, v, cfg, params);
  for (const std::size_t idx : client_nodes) {
    d.clients.push_back(set->connect_client(idx));
  }
  set->start();
  d.server = std::move(set);
  return d;
}

}  // namespace prdma::repl
