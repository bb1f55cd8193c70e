#include "core/connection.hpp"

#include <vector>

namespace prdma::core {

void Endpoint::renew_completer(sim::Simulator& sim) {
  auto fresh = std::make_unique<rdma::Completer>(sim, scq);
  if (completer) fresh->advance_wr(completer->next_wr());
  completer = std::move(fresh);
}

void Endpoint::tear_down() {
  scq.reset();
  rcq.reset();
  if (completer) completer->fail_pending();
}

void Endpoint::abort(
    mem::NodeMemory& mem,
    std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> wake) {
  for (const auto& [addr, len] : wake) {
    const std::vector<std::byte> zeros(len, std::byte{0});
    mem.cpu_write(addr, zeros);
  }
  tear_down();
}

void Connection::wire(Endpoint& peer, rnic::Transport transport,
                      bool ud_response) {
  auto [client_qp, server_qp] =
      rdma::connect_pair(client.rnic(), transport, peer.scq, peer.rcq,
                         server.rnic(), transport, ep.scq, ep.rcq);
  ep.session = std::make_unique<rdma::QpSession>(server.rnic(), *server_qp,
                                                 *ep.completer);
  // Completions that arrived while no dispatcher was attached (ACKs
  // already on the wire when the crash hit) belong to the dead QP.
  peer.scq.reset();
  peer.renew_completer(client.simulator());
  peer.session = std::make_unique<rdma::QpSession>(client.rnic(), *client_qp,
                                                   *peer.completer);
  if (ud_response) {
    auto [client_ud, server_ud] = rdma::connect_pair(
        client.rnic(), rnic::Transport::kUD, peer.scq, peer.rcq,
        server.rnic(), rnic::Transport::kUD, ep.scq, ep.rcq);
    ep.ud_session = std::make_unique<rdma::QpSession>(
        server.rnic(), *server_ud, *ep.completer);
    peer.ud_session = std::make_unique<rdma::QpSession>(
        client.rnic(), *client_ud, *peer.completer);
  }
}

void Connection::alloc_msg_ring(std::uint32_t slots) {
  const std::uint64_t slot_bytes = log.layout().slot_bytes();
  msg_slots = slots;
  msg_base = server.dram_alloc().alloc(slots * slot_bytes, 256);
  server.mem().declare_slots(msg_base, slot_bytes, slots);
}

void Connection::post_msg_recvs() {
  const std::uint64_t slot_bytes = log.layout().slot_bytes();
  for (std::uint32_t i = 0; i < msg_slots; ++i) {
    server.rnic().post_recv(ep.qp(), msg_base + i * slot_bytes, slot_bytes,
                            /*wr_id=*/i);
  }
}

void Connection::recycle_msg_slot(std::uint64_t addr) {
  server.rnic().post_recv(ep.qp(), addr, log.layout().slot_bytes(), 0);
}

void Connection::watch_ring() {
  const LogLayout& lay = log.layout();
  watch = server.mem().add_watch(
      lay.base + LogLayout::kHeaderBytes,
      lay.total_bytes() - LogLayout::kHeaderBytes, [this] {
        while (log.peek(next_seq)) {
          arrivals.send(next_seq);
          ++next_seq;
        }
      });
}

void Connection::reset_on_crash() {
  if (watch != 0) {
    server.mem().remove_watch(watch);
    watch = 0;
  }
  arrivals.reset();
  ep.tear_down();
}

}  // namespace prdma::core
