#include "rpcs/baseline.hpp"

#include <algorithm>
#include <cassert>

#include "core/wire.hpp"

namespace prdma::rpcs {

using core::LogEntryView;
using core::LogLayout;
using core::RpcOp;
using core::RpcRequest;
using core::RpcResult;
using sim::SimTime;
using sim::Task;

namespace {

constexpr std::uint32_t kRingSlots = 16;     ///< covers the pipelined fault harness
constexpr std::uint32_t kRecvSlots = 8;
constexpr SimTime kReadPollBackoff = 2000;   ///< RFP client re-read interval

}  // namespace

// ------------------------------------------------------------- configs

BaselineConfig farm_config() {
  BaselineConfig c;
  c.name = "FaRM";
  c.detect = BaselineConfig::Detect::kPoll;
  c.respond = BaselineConfig::Respond::kWrite;
  return c;
}

BaselineConfig l5_config() {
  BaselineConfig c;
  c.name = "L5";
  c.detect = BaselineConfig::Detect::kPoll;
  c.respond = BaselineConfig::Respond::kWrite;
  c.extra_posts = 1;  // data write + separate valid-flag write (Fig. 2e)
  return c;
}

BaselineConfig rfp_config() {
  BaselineConfig c;
  c.name = "RFP";
  c.detect = BaselineConfig::Detect::kPoll;
  c.respond = BaselineConfig::Respond::kClientRead;  // Fig. 2f
  return c;
}

BaselineConfig scalerpc_config(std::uint32_t process_per_warmup) {
  BaselineConfig c;
  c.name = "ScaleRPC";
  c.detect = BaselineConfig::Detect::kPoll;
  c.respond = BaselineConfig::Respond::kWrite;
  c.warmup_every = process_per_warmup;  // Fig. 2g
  return c;
}

BaselineConfig octopus_config() {
  BaselineConfig c;
  c.name = "Octopus";
  c.detect = BaselineConfig::Detect::kWriteImm;  // Fig. 2h
  c.respond = BaselineConfig::Respond::kWriteImm;
  return c;
}

BaselineConfig lite_config(sim::SimTime kernel_cost) {
  BaselineConfig c;
  c.name = "LITE";
  c.detect = BaselineConfig::Detect::kWriteImm;  // Fig. 2i (kernel-level)
  c.respond = BaselineConfig::Respond::kWriteImm;
  c.extra_client_cost = kernel_cost;
  c.extra_server_cost = kernel_cost;
  return c;
}

BaselineConfig herd_config() {
  BaselineConfig c;
  c.name = "Herd";
  c.req_transport = rnic::Transport::kUC;  // UC write request (Fig. 2c)
  c.detect = BaselineConfig::Detect::kPoll;
  c.respond = BaselineConfig::Respond::kUdSend;
  c.mtu_limited = true;
  return c;
}

BaselineConfig darpc_config() {
  BaselineConfig c;
  c.name = "DaRPC";
  c.detect = BaselineConfig::Detect::kRecv;  // RC send/recv (Fig. 2a)
  c.respond = BaselineConfig::Respond::kSend;
  return c;
}

BaselineConfig fasst_config() {
  BaselineConfig c;
  c.name = "FaSST";
  c.req_transport = rnic::Transport::kUD;  // UD datagram RPCs (Fig. 2d)
  c.detect = BaselineConfig::Detect::kRecv;
  c.respond = BaselineConfig::Respond::kSend;
  c.mtu_limited = true;
  return c;
}

BaselineConfig octopus_wflush_config() {
  BaselineConfig c = octopus_config();
  c.name = "Octopus+WFlush";
  c.wflush_after_write = true;
  return c;
}

// ================================================================ server

BaselineServer::BaselineServer(core::Cluster& cluster, std::size_t server_idx,
                               BaselineConfig config,
                               const core::ModelParams& params)
    : cluster_(cluster),
      server_(cluster.node(server_idx)),
      config_(config),
      params_(params),
      store_(std::make_unique<core::ObjectStore>(
          server_, params.object_count,
          std::max<std::uint64_t>(params.max_payload, 64))) {}

BaselineServer::~BaselineServer() = default;

std::unique_ptr<BaselineClient> BaselineServer::connect_client(
    std::size_t client_idx) {
  assert(!running_);
  core::Node& client_node = cluster_.node(client_idx);

  LogLayout layout;
  layout.slots = kRingSlots;
  layout.payload_capacity = params_.max_payload;
  layout.base = server_.dram_alloc().alloc(layout.total_bytes(), 256);

  auto conn =
      std::make_unique<Conn>(server_, client_node, conns_.size(), layout);
  conn->stage_addr = server_.dram_alloc().alloc(params_.max_payload + 64, 64);
  conn->result_base = server_.dram_alloc().alloc(params_.max_payload + 64, 64);
  conn->warmup_base = server_.dram_alloc().alloc(64, 64);
  // Response staging and the RFP result slot are one-slot rings.
  server_.mem().declare_slots(conn->stage_addr, params_.max_payload + 64, 1);
  server_.mem().declare_slots(conn->result_base, params_.max_payload + 64, 1);

  if (config_.detect == BaselineConfig::Detect::kRecv) {
    conn->alloc_msg_ring(kRecvSlots);
  }

  auto client = std::unique_ptr<BaselineClient>(
      new BaselineClient(*this, client_node, conn->idx));

  conns_.push_back(std::move(conn));
  Conn& c = *conns_.back();
  c.ep.renew_completer(server_.simulator());
  c.client_resp_base = client->resp_base_;
  c.client_warmup_ack = client->warmup_ack_addr_;
  c.client_staging = client->staging_base_;

  // Region registration: request ring + warm-up slot are client-
  // writable; the RFP result slot is client-readable; the client's
  // response ring, warm-up ack and (for ScaleRPC reads) staging are
  // accessible to the server.
  register_regions(c);
  const std::uint64_t image_cap =
      LogLayout{0, kRingSlots, params_.max_payload}.slot_bytes();
  client_node.rnic().register_mr(
      client->resp_base_, kRingSlots * (params_.max_payload + 16),
      static_cast<std::uint8_t>(rnic::Access::kRemoteWrite));
  client_node.rnic().register_mr(client->warmup_ack_addr_, 64,
                                 static_cast<std::uint8_t>(
                                     rnic::Access::kRemoteWrite));
  client_node.rnic().register_mr(client->staging_base_,
                                 kRingSlots * image_cap,
                                 static_cast<std::uint8_t>(
                                     rnic::Access::kRemoteRead));

  c.wire(client->ep_, config_.req_transport, ud_response());
  return client;
}

void BaselineServer::register_regions(const Conn& conn) {
  const LogLayout& lay = conn.log.layout();
  server_.rnic().register_mr(lay.base, lay.total_bytes(),
                             rnic::Access::kRemoteWrite |
                                 rnic::Access::kRemoteFlush);
  server_.rnic().register_mr(conn.warmup_base, 64,
                             static_cast<std::uint8_t>(
                                 rnic::Access::kRemoteWrite));
  server_.rnic().register_mr(conn.result_base, params_.max_payload + 64,
                             static_cast<std::uint8_t>(
                                 rnic::Access::kRemoteRead));
}

void BaselineServer::install_detection(Conn& conn) {
  switch (config_.detect) {
    case BaselineConfig::Detect::kPoll:
      // Watch the request ring: each committed entry wakes the poller.
      conn.watch_ring();
      sim::spawn(conn_loop_poll(conn));
      break;
    case BaselineConfig::Detect::kWriteImm:
      // Notification-only recv WQEs for write-imm.
      for (std::uint32_t i = 0; i < kRecvSlots; ++i) {
        server_.rnic().post_recv(conn.ep.qp(), 0, 0, i);
      }
      sim::spawn(conn_loop_wc(conn));
      break;
    case BaselineConfig::Detect::kRecv:
      conn.post_msg_recvs();
      sim::spawn(conn_loop_wc(conn));
      break;
  }
  if (config_.warmup_every > 0) {
    sim::spawn(warmup_loop(conn));
  }
}

void BaselineServer::start() {
  assert(!running_);
  running_ = true;
  for (auto& conn : conns_) {
    install_detection(*conn);
  }
}

void BaselineServer::on_crash() {
  running_ = false;
  ++epoch_;
  for (auto& conn : conns_) {
    if (conn->warmup_watch != 0) {
      server_.mem().remove_watch(conn->warmup_watch);
      conn->warmup_watch = 0;
    }
    if (conn->warmup_ch) conn->warmup_ch->reset();
    conn->reset_on_crash();
  }
}

sim::Task<> BaselineServer::recover_and_restart() {
  // Traditional server: nothing survives the crash — the request ring
  // was volatile DRAM and there is no redo log. Clients must re-send.
  assert(!running_ && server_.rnic().alive());
  running_ = true;
  for (auto& conn : conns_) conn->ep.renew_completer(server_.simulator());
  co_return;
}

void BaselineServer::reconnect_client(core::RpcClient& rpc_client) {
  auto& client = dynamic_cast<BaselineClient&>(rpc_client);
  Conn& conn = *conns_.at(client.conn_idx_);

  // The crash wiped the NIC's protection table and the old QPs.
  register_regions(conn);
  conn.wire(client.ep_, config_.req_transport, ud_response());
  // The volatile ring restarted empty: resynchronise the expected
  // sequence with whatever the client will send next.
  conn.next_seq = client.next_seq_;
  client.recvs_posted_ = false;
  client.aborted_ = false;
  install_detection(conn);
}

sim::Task<> BaselineServer::conn_loop_poll(Conn& conn) {
  auto& host = server_.host();
  const std::uint64_t epoch = epoch_;
  for (;;) {
    if (epoch != epoch_) break;  // zombie guard
    auto seq = co_await conn.arrivals.recv();
    if (!seq.has_value() || epoch != epoch_) break;
    const std::uint64_t sw0 = host.charged_ns();
    const sim::SimTime crit_t0 = server_.simulator().now();
    co_await host.charge_poll();
    co_await host.exec(host.params().handler_cost);
    if (epoch != epoch_) break;
    auto e = conn.log.peek(*seq);
    if (!e.has_value()) continue;
    co_await handle_and_respond(conn, *e);
    stats_.critical_sw_ns += host.charged_ns() - sw0;
    cluster_.tracer_of(server_.id())
        .span_charged(trace::Component::kReceiverSw, *seq, crit_t0,
                      host.charged_ns() - sw0,
                      static_cast<std::uint16_t>(server_.id()));
  }
}

sim::Task<> BaselineServer::conn_loop_wc(Conn& conn) {
  auto& host = server_.host();
  const std::uint64_t epoch = epoch_;
  for (;;) {
    if (epoch != epoch_) break;  // zombie guard
    auto wc = co_await conn.ep.rcq.channel().recv();
    if (!wc.has_value() || epoch != epoch_) break;
    if (wc->status != rnic::WcStatus::kSuccess) continue;
    const std::uint64_t sw0 = host.charged_ns();
    const sim::SimTime crit_t0 = server_.simulator().now();
    co_await host.charge_recv_handler();
    if (epoch != epoch_) break;

    std::optional<LogEntryView> e;
    if (config_.detect == BaselineConfig::Detect::kWriteImm) {
      // Immediate carries the seq; the data sits in the ring slot.
      server_.rnic().post_recv(conn.ep.qp(), 0, 0, 0);  // recycle notify WQE
      e = conn.log.peek(wc->imm);
    } else {
      e = core::decode_entry_at(server_.mem(), wc->local_addr,
                                conn.log.layout().payload_capacity);
      if (e.has_value()) {
        // Copy semantics: process from the message buffer; recycle the
        // slot only after handling (serial per connection).
        e->payload_addr = wc->local_addr + LogLayout::kEntryHeaderBytes;
      }
    }
    if (e.has_value()) {
      co_await handle_and_respond(conn, *e);
    }
    stats_.critical_sw_ns += host.charged_ns() - sw0;
    cluster_.tracer_of(server_.id())
        .span_charged(trace::Component::kReceiverSw, e ? e->seq : 0, crit_t0,
                      host.charged_ns() - sw0,
                      static_cast<std::uint16_t>(server_.id()));
    if (config_.detect == BaselineConfig::Detect::kRecv) {
      conn.recycle_msg_slot(wc->local_addr);
    }
  }
}

sim::Task<> BaselineServer::warmup_loop(Conn& conn) {
  // ScaleRPC warm-up phase (Fig. 2g): the client announces (seq, len);
  // the server fetches the request data from client memory with an
  // RDMA read, then acknowledges with a small write.
  auto& host = server_.host();
  Conn* c = &conn;
  conn.warmup_ch =
      std::make_unique<sim::Channel<std::uint64_t>>(server_.simulator());
  conn.warmup_watch = server_.mem().add_watch(conn.warmup_base, 24, [this, c] {
    const std::uint64_t wseq = core::load_u64(server_.mem(), c->warmup_base);
    if (wseq > c->warmup_seen) {
      c->warmup_seen = wseq;
      c->warmup_ch->send(wseq);
    }
  });
  for (;;) {
    auto wseq = co_await conn.warmup_ch->recv();
    if (!wseq.has_value()) break;
    co_await host.charge_poll();
    const std::uint64_t len = core::load_u64(server_.mem(), conn.warmup_base + 8);
    const auto wc = co_await conn.ep.session->read(conn.client_staging, len,
                                                   conn.stage_addr);
    (void)wc;
    core::store_u64(server_.mem(), conn.stage_addr, *wseq);
    co_await host.exec(host.params().post_cost);
    conn.ep.session->post_write_nowait(conn.stage_addr, 8,
                                       conn.client_warmup_ack);
  }
}

sim::Task<> BaselineServer::handle_and_respond(Conn& conn, LogEntryView e) {
  auto& host = server_.host();
  const std::uint64_t epoch = epoch_;
  if (config_.extra_server_cost > 0) {
    co_await host.exec(config_.extra_server_cost);
    if (epoch != epoch_) co_return;
  }
  if (params_.rpc_processing > 0) {
    co_await host.exec(params_.rpc_processing * e.batch);
    if (epoch != epoch_) co_return;
  }

  std::uint32_t resp_len = 0;
  if (e.op == RpcOp::kWrite) {
    // Durable apply BEFORE responding: this is how traditional RPCs
    // "naturally" guarantee remote persistence (§3) — and why their
    // completion is late.
    const std::uint32_t sub_len = e.payload_len / e.batch;
    for (std::uint32_t i = 0; i < e.batch; ++i) {
      co_await store_->apply_write(e.obj_id + i, e.payload_addr + i * sub_len,
                                   sub_len);
      if (epoch != epoch_) co_return;
    }
    stats_.bytes_applied += e.payload_len;
  } else {
    resp_len = e.req_len;
    co_await store_->read_into(e.obj_id, conn.stage_addr, resp_len);
    if (epoch != epoch_) co_return;
  }
  stats_.ops_processed += e.batch;

  // Response: [payload][commit seq] via the configured path.
  core::store_u64(server_.mem(), conn.stage_addr + resp_len, e.seq);
  switch (config_.respond) {
    case BaselineConfig::Respond::kWrite:
      co_await host.exec(host.params().post_cost);
      conn.ep.session->post_write_nowait(
          conn.stage_addr, resp_len + 8,
          conn.client_resp_base + e.resp_slot * (params_.max_payload + 16));
      break;
    case BaselineConfig::Respond::kClientRead: {
      // Leave the result in server memory; the client RDMA-reads it.
      server_.mem().cpu_write_payload(
          conn.result_base,
          server_.mem().read_payload(conn.stage_addr, resp_len + 8));
      break;
    }
    case BaselineConfig::Respond::kWriteImm:
      co_await host.exec(host.params().post_cost);
      conn.ep.session->post_write_nowait(
          conn.stage_addr, resp_len + 8,
          conn.client_resp_base + e.resp_slot * (params_.max_payload + 16),
          static_cast<std::uint32_t>(e.seq));
      break;
    case BaselineConfig::Respond::kUdSend:
      co_await host.exec(host.params().post_cost);
      conn.ep.ud_session->post_send_nowait(conn.stage_addr, resp_len + 8);
      break;
    case BaselineConfig::Respond::kSend:
      co_await host.exec(host.params().post_cost);
      conn.ep.session->post_send_nowait(conn.stage_addr, resp_len + 8);
      break;
  }
}

// ================================================================ client

BaselineClient::BaselineClient(BaselineServer& server, core::Node& node,
                               std::size_t idx)
    : server_(server),
      node_(node),
      conn_idx_(idx),
      ep_(node.simulator()) {
  const auto& p = server.params_;
  const std::uint64_t image_cap =
      LogLayout{0, kRingSlots, p.max_payload}.slot_bytes();
  staging_base_ = node_.dram_alloc().alloc(kRingSlots * image_cap, 256);
  resp_base_ =
      node_.dram_alloc().alloc(kRingSlots * (p.max_payload + 16), 256);
  warmup_ack_addr_ = node_.dram_alloc().alloc(64, 64);
  node_.mem().declare_slots(staging_base_, image_cap, kRingSlots);
  node_.mem().declare_slots(resp_base_, p.max_payload + 16, kRingSlots);

  // Recv buffers for send-based / write-imm response paths.
  // (Posted lazily in do_call for the QP that exists by then.)
}

std::string_view BaselineClient::name() const { return server_.config_.name; }

void BaselineClient::abort_pending() {
  aborted_ = true;
  // Response and warm-up-ack pollers, then verbs and recv waiters.
  ep_.abort(node_.mem(),
            {{resp_base_, kRingSlots * (server_.params_.max_payload + 16)},
             {warmup_ack_addr_, 8}});
}

sim::Task<RpcResult> BaselineClient::call(const RpcRequest& req) {
  // Not a coroutine: hands do_call's frame straight to the caller,
  // one frame fewer per op in flight.
  return do_call(req.op, req.obj_id, req.len, 1);
}

sim::Task<RpcResult> BaselineClient::call_batch(
    const std::vector<RpcRequest>& reqs) {
  if (reqs.empty()) co_return RpcResult{};
  co_return co_await do_call(reqs.front().op, reqs.front().obj_id,
                             reqs.front().len,
                             static_cast<std::uint32_t>(reqs.size()));
}

sim::Task<> BaselineClient::maybe_warmup(std::uint64_t image_len) {
  const auto& cfg = server_.config_;
  if (cfg.warmup_every == 0) co_return;
  if (ops_since_warmup_++ % cfg.warmup_every != 0) co_return;

  auto& conn = *server_.conns_[conn_idx_];
  const std::uint64_t wseq = ops_since_warmup_;  // monotonic
  core::store_u64(node_.mem(), warmup_ack_addr_, 0);
  // Announcement: [wseq][image_len][reserved] at the server slot.
  core::ByteWriter w(24);
  w.u64(wseq);
  w.u64(image_len);
  w.u64(0);
  const std::uint64_t scratch = warmup_ack_addr_ + 16;
  node_.mem().cpu_write(scratch, w.view());
  co_await node_.host().charge_post();
  ep_.session->post_write_nowait(scratch, 24, conn.warmup_base);
  co_await core::poll_until(node_, warmup_ack_addr_, 8, [this, wseq] {
    return aborted_ ||
           core::load_u64(node_.mem(), warmup_ack_addr_) == wseq;
  });
}

sim::Task<bool> BaselineClient::await_response(std::uint64_t seq,
                                               std::uint32_t resp_len) {
  const auto& cfg = server_.config_;
  auto& conn = *server_.conns_[conn_idx_];
  const std::uint64_t resp_slot_addr =
      resp_base_ +
      ((seq - 1) % kRingSlots) * (server_.params_.max_payload + 16);

  switch (cfg.respond) {
    case BaselineConfig::Respond::kWrite:
      co_await core::poll_until(
          node_, resp_slot_addr + resp_len, 8, [this, resp_slot_addr,
                                                resp_len, seq] {
            return aborted_ ||
                   core::load_u64(node_.mem(), resp_slot_addr + resp_len) ==
                       seq;
          });
      co_return !aborted_;
    case BaselineConfig::Respond::kClientRead: {
      // RFP: poll the server-side result slot with repeated RDMA reads.
      for (;;) {
        if (aborted_) co_return false;
        const auto wc = co_await ep_.session->read(
            conn.result_base, resp_len + 8, resp_slot_addr);
        if (!wc.has_value() || wc->status != rnic::WcStatus::kSuccess) {
          co_return false;
        }
        co_await node_.host().charge_poll();
        if (core::load_u64(node_.mem(), resp_slot_addr + resp_len) == seq) {
          co_return true;
        }
        co_await sim::delay(node_.simulator(), kReadPollBackoff);
      }
    }
    case BaselineConfig::Respond::kWriteImm: {
      for (;;) {
        auto wc = co_await ep_.rcq.channel().recv();
        if (!wc.has_value()) co_return false;
        node_.rnic().post_recv(ep_.qp(), 0, 0, 0);
        if (wc->has_imm && wc->imm == static_cast<std::uint32_t>(seq)) {
          co_await node_.host().charge_poll();
          co_return true;
        }
      }
    }
    case BaselineConfig::Respond::kUdSend:
    case BaselineConfig::Respond::kSend: {
      auto wc = co_await ep_.rcq.channel().recv();
      if (!wc.has_value()) co_return false;
      co_await node_.host().charge_recv_handler();
      // Serial client: the next recv on this connection IS the reply.
      const std::uint64_t slot_bytes =
          server_.params_.max_payload + 16;
      node_.rnic().post_recv(
          cfg.respond == BaselineConfig::Respond::kUdSend
              ? ep_.ud_session->qp()
              : ep_.qp(),
          wc->local_addr, slot_bytes, 0);
      co_return true;
    }
  }
  co_return false;
}

sim::Task<RpcResult> BaselineClient::do_call(RpcOp op, std::uint64_t obj_id,
                                             std::uint32_t len,
                                             std::uint32_t batch) {
  const auto& cfg = server_.config_;
  auto& conn = *server_.conns_[conn_idx_];
  auto& sim = node_.simulator();
  RpcResult res;
  res.issued_at = sim.now();

  // Lazily post recv buffers for response paths that need them.
  if (!recvs_posted_) {
    recvs_posted_ = true;
    const std::uint64_t slot_bytes = server_.params_.max_payload + 16;
    if (cfg.respond == BaselineConfig::Respond::kSend) {
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t buf = node_.dram_alloc().alloc(slot_bytes, 64);
        node_.rnic().post_recv(ep_.qp(), buf, slot_bytes, 0);
      }
    } else if (cfg.respond == BaselineConfig::Respond::kUdSend) {
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t buf = node_.dram_alloc().alloc(slot_bytes, 64);
        node_.rnic().post_recv(ep_.ud_session->qp(), buf, slot_bytes, 0);
      }
    } else if (cfg.respond == BaselineConfig::Respond::kWriteImm) {
      for (int i = 0; i < 4; ++i) {
        node_.rnic().post_recv(ep_.qp(), 0, 0, 0);
      }
    }
  }

  const std::uint32_t payload_len = op == RpcOp::kWrite ? len * batch : 0;
  const std::uint64_t image_len =
      LogLayout::kEntryHeaderBytes + payload_len + LogLayout::kCommitBytes;
  co_await maybe_warmup(image_len);

  if (cfg.extra_client_cost > 0) {
    co_await node_.host().exec(cfg.extra_client_cost);
  }
  co_await node_.host().charge_post();
  for (std::uint32_t i = 0; i < cfg.extra_posts; ++i) {
    co_await node_.host().charge_post();
  }

  if (aborted_) co_return res;
  const std::uint64_t seq = next_seq_++;
  res.tag = seq;
  const std::uint64_t resp_slot = (seq - 1) % kRingSlots;
  const std::uint32_t resp_len = op == RpcOp::kRead ? len : 0;
  const auto image = core::encode_log_entry_image(
      node_.mem(), seq, op, obj_id, payload_len, resp_slot, batch,
      op == RpcOp::kRead ? len : 0);
  const std::uint64_t image_cap =
      LogLayout{0, kRingSlots, server_.params_.max_payload}.slot_bytes();
  const std::uint64_t stage = staging_base_ + resp_slot * image_cap;
  node_.mem().cpu_write_payload(stage, image);

  // Clear the local response commit word before reuse.
  const std::uint64_t resp_slot_addr =
      resp_base_ + resp_slot * (server_.params_.max_payload + 16);
  core::store_u64(node_.mem(), resp_slot_addr + resp_len, 0);

  const LogLayout& lay = conn.log.layout();
  switch (cfg.detect) {
    case BaselineConfig::Detect::kPoll:
      ep_.session->post_write_nowait(stage, image.size(), lay.slot_addr(seq));
      if (cfg.extra_posts > 0) {
        // L5's separate valid-flag write (rewrites the commit word).
        ep_.session->post_write_nowait(stage + image.size() - 8, 8,
                                    lay.slot_addr(seq) + image.size() - 8);
      }
      break;
    case BaselineConfig::Detect::kWriteImm:
      ep_.session->post_write_nowait(stage, image.size(), lay.slot_addr(seq),
                                  static_cast<std::uint32_t>(seq));
      break;
    case BaselineConfig::Detect::kRecv:
      ep_.session->post_send_nowait(stage, image.size());
      break;
  }

  sim::SimTime durable_at = 0;
  if (cfg.wflush_after_write && op == RpcOp::kWrite &&
      cfg.detect != BaselineConfig::Detect::kRecv) {
    // §4.4.1: the WFlush ACK makes remote persistence visible before
    // the RPC response arrives.
    const auto fwc = co_await ep_.session->wflush(lay.slot_addr(seq),
                                               image.size());
    if (fwc.has_value() && fwc->status == rnic::WcStatus::kSuccess) {
      durable_at = sim.now();
    }
  }

  const bool ok = co_await await_response(seq, resp_len);
  if (!ok || aborted_) co_return res;
  res.completed_at = sim.now();
  res.durable_at = op == RpcOp::kWrite
                       ? (durable_at != 0 ? durable_at : res.completed_at)
                       : 0;
  res.ok = true;
  co_return res;
}

}  // namespace prdma::rpcs
