#include "core/durable_rpc.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/wire.hpp"

namespace prdma::core {

using sim::SimTime;
using sim::Task;

std::string_view variant_name(FlushVariant v) {
  switch (v) {
    case FlushVariant::kWFlush:
      return "WFlush-RPC";
    case FlushVariant::kSFlush:
      return "SFlush-RPC";
    case FlushVariant::kWRFlush:
      return "W-RFlush-RPC";
    case FlushVariant::kSRFlush:
      return "S-RFlush-RPC";
  }
  return "?";
}

namespace {

/// Awaitable wrapper over Rnic::persist_range (the RFlush building
/// block, §4.1.2). If the node crashes mid-flush the event never
/// fires; the caller's loop is already torn down by channel resets.
Task<> persist_range_task(rnic::Rnic& nic, std::uint64_t addr,
                          std::uint64_t len) {
  sim::Event ev(nic.simulator());
  nic.persist_range(addr, len, [&ev](SimTime) { ev.set(); });
  co_await ev.wait();
}

}  // namespace

// ===================================================================
// Server
// ===================================================================

DurableRpcServer::DurableRpcServer(Cluster& cluster, std::size_t server_idx,
                                   FlushVariant v, const ModelParams& params)
    : cluster_(cluster),
      server_(cluster.node(server_idx)),
      variant_(v),
      params_(params),
      window_(std::min(params.log_slots, params.flow_threshold)),
      store_(std::make_unique<ObjectStore>(server_, params.object_count,
                                           std::max<std::uint64_t>(
                                               params.max_payload, 64))),
      work_q_(std::make_unique<sim::Channel<WorkItem>>(server_.simulator())) {}

DurableRpcServer::~DurableRpcServer() = default;

std::unique_ptr<DurableRpcClient> DurableRpcServer::connect_client(
    std::size_t client_idx) {
  assert(!running_ && "connect all clients before start()");
  Node& client_node = cluster_.node(client_idx);

  LogLayout layout;
  layout.slots = params_.log_slots;
  layout.payload_capacity = params_.max_payload;
  layout.base = server_.pm_alloc().alloc(layout.total_bytes(), 256);

  auto conn =
      std::make_unique<Conn>(server_, client_node, conns_.size(), layout);
  conn->completed_oo.assign(layout.slots, false);

  // Server-side staging: [0,8) notify scratch; response staging ring
  // at +64, one slot per window entry.
  const std::uint64_t resp_stage_bytes =
      64 + static_cast<std::uint64_t>(window_) * (params_.max_payload + 16);
  conn->stage_addr = server_.dram_alloc().alloc(resp_stage_bytes, 64);
  server_.mem().declare_slots(conn->stage_addr + 64, params_.max_payload + 16,
                              window_);

  if (is_send_based(variant_)) conn->alloc_msg_ring(2 * window_);

  // Build the client object (allocates client-side regions).
  auto client = std::unique_ptr<DurableRpcClient>(
      new DurableRpcClient(*this, client_node, conn->idx));
  conn->notify_consumed_addr = client->notify_base_;
  conn->notify_persist_addr = client->notify_base_ + 8;
  conn->resp_base = client->resp_base_;

  conns_.push_back(std::move(conn));
  Conn& c = *conns_.back();
  c.ep.renew_completer(server_.simulator());

  // Region registration (ibv_reg_mr analogue): the client may write
  // and flush the redo-log ring; the server may write the client's
  // notify words and response ring.
  register_log(c);
  client_node.rnic().register_mr(client->notify_base_, 64,
                                 static_cast<std::uint8_t>(
                                     rnic::Access::kRemoteWrite));
  client_node.rnic().register_mr(
      client->resp_base_,
      static_cast<std::uint64_t>(client->window_size_) *
          client->resp_slot_bytes_,
      static_cast<std::uint8_t>(rnic::Access::kRemoteWrite));

  c.wire(client->ep_, rnic::Transport::kRC, /*ud_response=*/false);
  sim::spawn(client->credit_pump());
  return client;
}

void DurableRpcServer::register_log(const Conn& conn) {
  const LogLayout& lay = conn.log.layout();
  server_.rnic().register_mr(lay.base, lay.total_bytes(),
                             rnic::Access::kRemoteWrite |
                                 rnic::Access::kRemoteFlush);
}

void DurableRpcServer::start() {
  assert(!running_);
  running_ = true;
  for (auto& conn : conns_) {
    if (is_send_based(variant_)) {
      conn->post_msg_recvs();
      sim::spawn(conn_loop_send_based(*conn));
    } else {
      conn->watch_ring();
      configure_smartnic(*conn);
      sim::spawn(conn_loop_write_based(*conn));
    }
  }
  for (unsigned i = 0; i < params_.server_workers; ++i) {
    sim::spawn(worker_loop());
  }
}

void DurableRpcServer::configure_smartnic(Conn& conn) {
  if (variant_ != FlushVariant::kWRFlush || !params_.rnic.smartnic_rflush) {
    return;
  }
  // §4.5: the smartNIC's lookup table covers the redo-log ring; the NIC
  // persists incoming entries and notifies the sender itself — the CPU
  // persist path in conn_loop is bypassed. The table is NIC-volatile
  // and keyed by the QP, so every (re)connect installs it afresh.
  const LogLayout& lay = conn.log.layout();
  server_.rnic().configure_auto_persist(
      conn.ep.qp(), lay.base + LogLayout::kHeaderBytes,
      lay.total_bytes() - LogLayout::kHeaderBytes, conn.notify_persist_addr,
      conn.completed_floor);
}

void DurableRpcServer::enqueue_backlog(Conn& conn) {
  ++conn.backlog;
  ++backlog_;
  stats_.backlog_peak = std::max(stats_.backlog_peak, backlog_);
  if (backlog_ > params_.flow_threshold) ++stats_.throttle_events;
}

void DurableRpcServer::notify_word(Conn& conn, std::uint64_t client_addr,
                                   std::uint64_t value) {
  store_u64(server_.mem(), conn.stage_addr, value);
  conn.ep.session->post_write_nowait(conn.stage_addr, 8, client_addr);
}

sim::Task<> DurableRpcServer::persist_slot(Conn& conn, const LogEntryView& e) {
  const std::uint64_t slot = conn.log.layout().slot_addr(e.seq);
  co_await persist_range_task(server_.rnic(), slot, e.image_bytes());
}

sim::Task<> DurableRpcServer::conn_loop_write_based(Conn& conn) {
  auto& host = server_.host();
  const std::uint64_t epoch = epoch_;
  for (;;) {
    if (epoch != epoch_) break;  // zombie guard (see worker_loop)
    auto seq = co_await conn.arrivals.recv();
    if (!seq.has_value() || epoch != epoch_) break;  // crash/stop
    co_await host.charge_poll();
    if (epoch != epoch_) break;
    co_await host.exec(host.params().handler_cost);
    if (epoch != epoch_) break;
    auto e = conn.log.peek(*seq);
    if (!e.has_value()) continue;

    if (variant_ == FlushVariant::kWRFlush && e->op == RpcOp::kWrite &&
        !params_.rnic.smartnic_rflush) {
      // Receiver-initiated flush: persist the slot, then notify the
      // sender immediately — *before* processing (§4.1.2, Fig. 4c).
      // (In smartNIC mode the NIC already did both, §4.5.)
      const std::uint64_t sw0 = host.charged_ns();
      const sim::SimTime persist_t0 = server_.simulator().now();
      co_await persist_slot(conn, *e);
      co_await host.exec(host.params().post_cost);
      notify_word(conn, conn.notify_persist_addr, *seq);
      stats_.critical_sw_ns += host.charged_ns() - sw0;
      auto& tr = cluster_.tracer_of(server_.id());
      const sim::SimTime done = server_.simulator().now();
      tr.span(trace::Component::kOpPersist, *seq, persist_t0, done, trace_track());
      tr.span(trace::Component::kPersistAck, *seq, done, done, trace_track());
      tr.span_charged(trace::Component::kReceiverSw, *seq, persist_t0,
                      host.charged_ns() - sw0, trace_track());
    }

    if (e->op == RpcOp::kRead && conn.backlog == 0) {
      // Fast path: an idle log means FIFO order is trivially kept, so
      // the poller answers reads inline — no worker thread is spawned
      // (dispatch cost is a write/queued-read artifact).
      const std::uint64_t sw0 = host.charged_ns();
      const sim::SimTime fast_t0 = server_.simulator().now();
      co_await process_item(WorkItem{&conn, *e, false, /*fast=*/true});
      stats_.critical_sw_ns += host.charged_ns() - sw0;
      cluster_.tracer_of(server_.id())
          .span_charged(trace::Component::kReceiverSw, *seq, fast_t0,
                        host.charged_ns() - sw0, trace_track());
      continue;
    }
    enqueue_backlog(conn);
    work_q_->send(WorkItem{&conn, *e, false});
  }
}

sim::Task<> DurableRpcServer::conn_loop_send_based(Conn& conn) {
  auto& host = server_.host();
  const std::uint64_t epoch = epoch_;
  for (;;) {
    if (epoch != epoch_) break;  // zombie guard (see worker_loop)
    auto wc = co_await conn.ep.rcq.channel().recv();
    if (!wc.has_value() || epoch != epoch_) break;  // crash/stop
    if (wc->status != rnic::WcStatus::kSuccess) continue;
    co_await host.charge_recv_handler();
    if (epoch != epoch_) break;

    auto e = decode_entry_at(server_.mem(), wc->local_addr,
                             conn.log.layout().payload_capacity);
    // Recycle the message-buffer slot for future sends.
    conn.recycle_msg_slot(wc->local_addr);
    if (!e.has_value()) continue;
    conn.next_seq = e->seq + 1;

    const std::uint64_t sw0 = host.charged_ns();
    const sim::SimTime crit_t0 = server_.simulator().now();
    if (variant_ == FlushVariant::kSRFlush && e->op == RpcOp::kWrite) {
      // Receiver-initiated persist of a send: the CPU streams the
      // message image into the redo log with non-temporal stores
      // (straight into the ADR persist domain, no cache flush needed),
      // then notifies the sender before processing (§4.1.2).
      const std::uint64_t image = e->image_bytes();
      auto img = server_.mem().read_payload(wc->local_addr, image);
      const std::uint64_t slot = conn.log.layout().slot_addr(e->seq);
      const auto done = server_.mem().pm().write_complete_at(
          server_.simulator().now(), image);
      co_await host.exec(done - server_.simulator().now());
      if (epoch != epoch_) break;
      // ntstore: persist-domain direct
      server_.mem().poke_payload_pm(slot, img);
      co_await host.exec(host.params().post_cost);
      notify_word(conn, conn.notify_persist_addr, e->seq);
      auto& tr = cluster_.tracer_of(server_.id());
      const sim::SimTime ack_at = server_.simulator().now();
      tr.span(trace::Component::kOpPersist, e->seq, crit_t0, ack_at,
              trace_track());
      tr.span(trace::Component::kPersistAck, e->seq, ack_at, ack_at,
              trace_track());
    }
    // For SFlush the RNIC copies the message into the log slot on its
    // own schedule (client's SFlush, Fig. 5 step B). The worker
    // processes "from the message buffer": mirror the image into the
    // slot through the cache so the payload is readable immediately —
    // still volatile (dirty LLC lines), so crash fidelity holds until
    // the RNIC's DMA makes it durable.
    if (variant_ == FlushVariant::kSFlush) {
      server_.mem().cpu_write_payload(
          conn.log.layout().slot_addr(e->seq),
          server_.mem().read_payload(wc->local_addr, e->image_bytes()));
    }

    // Process from the log copy: the message slot may be recycled.
    e->payload_addr = conn.log.layout().payload_addr(e->seq);
    if (e->op == RpcOp::kRead && conn.backlog == 0) {
      co_await process_item(WorkItem{&conn, *e, false, /*fast=*/true});
      stats_.critical_sw_ns += host.charged_ns() - sw0;
      cluster_.tracer_of(server_.id())
          .span_charged(trace::Component::kReceiverSw, e->seq, crit_t0,
                        host.charged_ns() - sw0, trace_track());
      continue;
    }
    stats_.critical_sw_ns += host.charged_ns() - sw0;
    cluster_.tracer_of(server_.id())
        .span_charged(trace::Component::kReceiverSw, e->seq, crit_t0,
                      host.charged_ns() - sw0, trace_track());
    enqueue_backlog(conn);
    work_q_->send(WorkItem{&conn, *e, false});
  }
}

sim::Task<> DurableRpcServer::worker_loop() {
  const std::uint64_t epoch = epoch_;
  for (;;) {
    // Zombie guard: a worker resuming from pre-crash processing must
    // not re-enter the (reopened) queue and steal a new-epoch item.
    if (epoch != epoch_) break;
    auto item = co_await work_q_->recv();
    if (!item.has_value() || epoch != epoch_) break;
    co_await process_item(*item);
  }
}

sim::Task<> DurableRpcServer::process_item(WorkItem item) {
  Conn& conn = *item.conn;
  const LogEntryView& e = item.entry;
  auto& host = server_.host();
  const std::uint64_t epoch = epoch_;
  const sim::SimTime work_t0 = server_.simulator().now();

  if (params_.rpc_processing > 0) {
    if (!item.fast) {
      // §4.2: "a thread is created to handle the RPC requests" — the
      // hand-off cost matters when there is real processing to hand
      // off; fast-path reads are handled inline by the poller.
      co_await host.exec(host.params().dispatch_cost);
      if (epoch != epoch_) co_return;  // server crashed under us
    }
    co_await host.exec(params_.rpc_processing * e.batch);
    if (epoch != epoch_) co_return;
  }

  if (e.op == RpcOp::kWrite) {
    const std::uint32_t sub_len = e.payload_len / e.batch;
    for (std::uint32_t i = 0; i < e.batch; ++i) {
      co_await store_->apply_write(e.obj_id + i,
                                   e.payload_addr + i * sub_len, sub_len);
      if (epoch != epoch_) co_return;
    }
    stats_.bytes_applied += e.payload_len;
  } else {
    // Stage the object bytes and RDMA-write them (plus a trailing
    // commit word) into the client's response slot.
    const std::uint32_t rlen = e.req_len;
    const std::uint64_t stage =
        conn.stage_addr + 64 +
        (e.resp_slot % window_) * (params_.max_payload + 16);
    co_await store_->read_into(e.obj_id, stage, rlen);
    if (epoch != epoch_) co_return;
    store_u64(server_.mem(), stage + rlen, e.seq);
    co_await host.exec(host.params().post_cost);
    if (epoch != epoch_) co_return;
    const std::uint64_t resp_addr =
        conn.resp_base + e.resp_slot * (params_.max_payload + 16);
    conn.ep.session->post_write_nowait(stage, rlen + 8, resp_addr);
  }

  stats_.ops_processed += e.batch;
  if (!item.fast && conn.backlog > 0) {
    --conn.backlog;
    --backlog_;
  }
  if (item.recovered) {
    ++stats_.recoveries;
  }
  cluster_.tracer_of(server_.id())
      .span(trace::Component::kWorker, e.seq, work_t0,
            server_.simulator().now(), trace_track());
  co_await advance_consumed(conn, e.seq);
}

sim::Task<> DurableRpcServer::advance_consumed(Conn& conn, std::uint64_t seq) {
  std::vector<bool>& done = conn.completed_oo;
  if (seq <= conn.completed_floor) co_return;  // already below the floor
  if (seq - conn.completed_floor > done.size()) {
    // Past the window: re-place the pending flags in a larger ring.
    std::vector<bool> wider(std::bit_ceil(seq - conn.completed_floor), false);
    for (std::uint64_t s = conn.completed_floor + 1;
         s <= conn.completed_floor + done.size(); ++s) {
      wider[s % wider.size()] = done[s % done.size()];
    }
    done = std::move(wider);
  }
  done[seq % done.size()] = true;
  const std::uint64_t old_floor = conn.completed_floor;
  while (done[(conn.completed_floor + 1) % done.size()]) {
    ++conn.completed_floor;
    done[conn.completed_floor % done.size()] = false;
  }
  if (conn.completed_floor != old_floor) {
    co_await conn.log.mark_consumed(conn.completed_floor);
    co_await server_.host().exec(server_.host().params().post_cost);
    notify_word(conn, conn.notify_consumed_addr, conn.completed_floor);
  }
}

// ------------------------------------------------------------- failures

void DurableRpcServer::on_crash() {
  running_ = false;
  ++epoch_;
  for (auto& conn : conns_) {
    conn->reset_on_crash();
    conn->backlog = 0;
    std::fill(conn->completed_oo.begin(), conn->completed_oo.end(), false);
  }
  backlog_ = 0;
  work_q_->reset();
}

std::uint64_t DurableRpcServer::durable_watermark(std::size_t conn_idx) const {
  // Media view, not the coherent one: consumed() + recover() can count
  // entries whose bytes are still dirty in the LLC (SFlush's cache
  // mirror) or torn on media — durable only in appearance.
  return conns_.at(conn_idx)->log.durable_watermark();
}

sim::Task<> DurableRpcServer::recover_and_restart() {
  assert(!running_ && server_.rnic().alive());
  // A crash DURING recovery (replicated schedules do this) bumps
  // epoch_; this replay must then abandon instead of advancing the
  // consumed word while the node is powered off again.
  const std::uint64_t epoch = epoch_;
  // Replay committed-but-unconsumed entries, oldest first, without any
  // client involvement — the paper's headline recovery property.
  for (auto& conn : conns_) {
    conn->ep.renew_completer(server_.simulator());
    const auto entries = conn->log.recover();
    conn->completed_floor = conn->log.consumed();
    conn->next_seq = conn->completed_floor + entries.size() + 1;
    for (const auto& e : entries) {
      if (epoch != epoch_) co_return;
      if (replay_hook_) replay_hook_(conn->idx, e);
      co_await process_item(WorkItem{conn.get(), e, true});
    }
  }
  if (epoch != epoch_) co_return;
  running_ = true;
  for (auto& conn : conns_) {
    if (is_send_based(variant_)) {
      sim::spawn(conn_loop_send_based(*conn));
    } else {
      conn->watch_ring();
      sim::spawn(conn_loop_write_based(*conn));
    }
  }
  for (unsigned i = 0; i < params_.server_workers; ++i) {
    sim::spawn(worker_loop());
  }
}

void DurableRpcServer::reconnect_client(DurableRpcClient& client) {
  Conn& conn = *conns_.at(client.conn_idx_);

  // The crash wiped the NIC's protection table and the old QPs.
  register_log(conn);
  conn.wire(client.ep_, rnic::Transport::kRC, /*ud_response=*/false);
  if (is_send_based(variant_)) conn.post_msg_recvs();

  // Sequences the client sent but that never reached the log are gone;
  // treat them as consumed no-ops so the watermark stays contiguous.
  conn.next_seq = client.next_seq_;
  conn.completed_floor = client.next_seq_ - 1;
  std::fill(conn.completed_oo.begin(), conn.completed_oo.end(), false);
  store_u64(server_.mem(), conn.log.layout().consumed_addr(),
            conn.completed_floor);

  client.credits_released_ = conn.completed_floor;
  client.window_.reset(window_);
  client.aborted_ = false;
  configure_smartnic(conn);
}

// ===================================================================
// Client
// ===================================================================

DurableRpcClient::DurableRpcClient(DurableRpcServer& server, Node& node,
                                   std::size_t conn_idx)
    : server_(server),
      node_(node),
      conn_idx_(conn_idx),
      ep_(node.simulator()),
      window_(node.simulator(), server.window_) {
  window_size_ = server.window_;
  const auto& p = server.params_;
  staging_slot_bytes_ = LogLayout{0, p.log_slots, p.max_payload}.slot_bytes();
  resp_slot_bytes_ = p.max_payload + 16;
  staging_base_ =
      node_.dram_alloc().alloc(window_size_ * staging_slot_bytes_, 256);
  notify_base_ = node_.dram_alloc().alloc(64, 64);
  resp_base_ = node_.dram_alloc().alloc(window_size_ * resp_slot_bytes_, 256);
  node_.mem().declare_slots(staging_base_, staging_slot_bytes_, window_size_);
  node_.mem().declare_slots(resp_base_, resp_slot_bytes_, window_size_);
}

std::string_view DurableRpcClient::name() const {
  return variant_name(server_.variant_);
}

std::uint64_t DurableRpcClient::consumed_seen() const {
  return load_u64(node_.mem(), notify_base_);
}

void DurableRpcClient::abort_pending() {
  aborted_ = true;
  // Read/persist waiters poll the notify words and the response ring;
  // verbs waiters wait for flush ACKs that will never come.
  ep_.abort(node_.mem(), {{notify_base_, 16},
                          {resp_base_, window_size_ * resp_slot_bytes_}});
}

sim::Task<> DurableRpcClient::credit_pump() {
  for (;;) {
    co_await poll_until(node_, notify_base_, 8, [this] {
      return load_u64(node_.mem(), notify_base_) > credits_released_;
    });
    const std::uint64_t v = load_u64(node_.mem(), notify_base_);
    if (v > credits_released_) {
      window_.release(v - credits_released_);
      credits_released_ = v;
    }
  }
}

sim::Task<RpcResult> DurableRpcClient::call(const RpcRequest& req) {
  // Not a coroutine: hands transmit_entry's frame straight to the
  // caller, one frame fewer per op in flight.
  return transmit_entry(req.op, req.obj_id, req.len, 1);
}

sim::Task<RpcResult> DurableRpcClient::call_batch(
    const std::vector<RpcRequest>& reqs) {
  // §4.3: one large transfer + one trailing Flush for the whole batch.
  if (reqs.empty()) co_return RpcResult{};
  co_return co_await transmit_entry(reqs.front().op, reqs.front().obj_id,
                                    reqs.front().len,
                                    static_cast<std::uint32_t>(reqs.size()));
}

sim::Task<RpcResult> DurableRpcClient::transmit_entry(RpcOp op,
                                                      std::uint64_t obj_id,
                                                      std::uint32_t len,
                                                      std::uint32_t batch) {
  auto& sim = node_.simulator();
  auto& tracer = server_.cluster_.tracer_of(node_.id());
  const auto track = static_cast<std::uint16_t>(node_.id());
  RpcResult res;
  res.issued_at = sim.now();
  if (aborted_) co_return res;

  const SimTime stall_t0 = sim.now();
  co_await window_.acquire();
  if (aborted_) {
    window_.release();
    co_return res;
  }
  if (sim.now() > stall_t0) {
    // §4.4 flow control: the window was full and the sender stalled.
    tracer.span(trace::Component::kFlowStall, next_seq_, stall_t0, sim.now(),
                track);
  }
  const SimTime append_t0 = sim.now();
  co_await node_.host().charge_post();
  if (aborted_) {
    // The crash landed while this coroutine was suspended in the host
    // charge: posting now would park it in a completer that the abort
    // already drained — nothing would wake it until recovery replaces
    // the session under its feet.
    window_.release();
    co_return res;
  }

  // -- No suspension between sequence assignment and the posts: the
  //    wire order must equal the sequence order.
  const std::uint64_t seq = next_seq_++;
  res.tag = seq;
  const std::uint32_t payload_len = op == RpcOp::kWrite ? len * batch : 0;
  const std::uint64_t resp_slot = (seq - 1) % window_size_;
  const auto image = encode_log_entry_image(node_.mem(), seq, op, obj_id,
                                            payload_len, resp_slot, batch,
                                            op == RpcOp::kRead ? len : 0);
  const std::uint64_t stage = staging_addr(seq);
  const std::uint64_t resp_addr = resp_base_ + resp_slot * resp_slot_bytes_;
  const std::uint64_t resp_len = op == RpcOp::kRead ? len : 0;
  if (op == RpcOp::kRead) {
    // Clear the commit word of the response slot before reuse.
    store_u64(node_.mem(), resp_addr + resp_len, 0);
  }
  node_.mem().cpu_write_payload(stage, image);

  const LogLayout& lay = server_.conns_[conn_idx_]->log.layout();
  const std::uint64_t slot = lay.slot_addr(seq);
  const std::uint64_t image_len = image.size();

  // Staging + post of the redo-log entry (all branches post without
  // suspending, so [append_t0, now] covers the whole append section).
  tracer.span(trace::Component::kLogAppend, seq, append_t0, sim.now(), track);
  const SimTime persist_t0 = sim.now();

  bool durable_ok = false;
  if (op == RpcOp::kRead) {
    // Reads need no persistence (§5.5: Flush primitives are only
    // needed for writes); ship the request and await the response.
    if (is_send_based(server_.variant_)) {
      ep_.session->post_send_nowait(stage, image_len);
    } else {
      ep_.session->post_write_nowait(stage, image_len, slot);
    }
    durable_ok = true;
  } else switch (server_.variant_) {
    case FlushVariant::kWFlush: {
      ep_.session->post_write_nowait(stage, image_len, slot);
      const auto wc = co_await ep_.session->wflush(slot, image_len);
      durable_ok = wc.has_value() && wc->status == rnic::WcStatus::kSuccess;
      break;
    }
    case FlushVariant::kSFlush: {
      ep_.session->post_send_nowait(stage, image_len);
      const auto wc = co_await ep_.session->sflush(slot, image_len);
      durable_ok = wc.has_value() && wc->status == rnic::WcStatus::kSuccess;
      break;
    }
    case FlushVariant::kWRFlush:
    case FlushVariant::kSRFlush: {
      if (is_send_based(server_.variant_)) {
        ep_.session->post_send_nowait(stage, image_len);
      } else {
        ep_.session->post_write_nowait(stage, image_len, slot);
      }
      co_await poll_until(node_, notify_base_ + 8, 8, [this, seq] {
        return aborted_ ||
               load_u64(node_.mem(), notify_base_ + 8) >= seq;
      });
      durable_ok = !aborted_;
      break;
    }
  }

  if (!durable_ok || aborted_) co_return res;  // res.ok == false
  res.durable_at = sim.now();
  if (op == RpcOp::kWrite) {
    // Post end -> remote durability point (T_B, Fig. 4): the span the
    // Flush primitive is responsible for.
    tracer.span(trace::Component::kDataPersist, seq, persist_t0,
                res.durable_at, track);
    // Remote persistence is visible: the RPC is complete for the
    // sender even though the server processes it asynchronously.
    if (ack_hook_) ack_hook_(seq, payload_len);
    res.completed_at = sim.now();
    res.ok = true;
    co_return res;
  }

  // Reads wait for the response payload (FIFO behind logged entries).
  co_await poll_until(node_, resp_addr + resp_len, 8, [this, resp_addr,
                                                       resp_len, seq] {
    return aborted_ || load_u64(node_.mem(), resp_addr + resp_len) == seq;
  });
  if (aborted_) co_return res;
  res.completed_at = sim.now();
  res.durable_at = 0;
  res.ok = true;
  co_return res;
}

}  // namespace prdma::core
