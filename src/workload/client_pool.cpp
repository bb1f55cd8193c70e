#include "workload/client_pool.hpp"

#include <algorithm>
#include <cassert>

namespace prdma::workload {

using core::RpcOp;
using core::RpcRequest;

ClientPool::ClientPool(sim::Simulator& sim, core::RpcClient& client,
                       ClientPoolConfig cfg)
    : sim_(sim),
      client_(client),
      cfg_(cfg),
      rng_(cfg.seed),
      zipf_(std::max<std::uint64_t>(1, cfg.object_count), cfg.zipf_theta),
      ready_(sim, 0) {
  cfg_.clients = std::max<std::uint64_t>(1, cfg_.clients);
  cfg_.max_outstanding = std::max<std::uint32_t>(1, cfg_.max_outstanding);
  ring_.resize(static_cast<std::size_t>(cfg_.clients), 0);
  has_issued_.resize(static_cast<std::size_t>(cfg_.clients), false);
  if (cfg_.mean_think_ns != 0) {
    arrivals_.reserve(static_cast<std::size_t>(cfg_.clients));
  }
}

void ClientPool::start() {
  if (cfg_.total_ops == 0) {
    done_ = true;
    return;
  }
  for (std::uint32_t p = 0; p < cfg_.max_outstanding; ++p) {
    sim::spawn(puller());
  }
  // Every virtual client's first arrival goes through the same think
  // draw as its steady state, de-synchronizing the initial burst.
  for (std::uint64_t id = 0; id < cfg_.clients; ++id) {
    queue_next(static_cast<std::uint32_t>(id));
  }
}

void ClientPool::queue_next(std::uint32_t id) {
  if (cfg_.mean_think_ns == 0) {
    wake_client(id);
    return;
  }
  const auto think = static_cast<sim::SimTime>(
      rng_.exponential(static_cast<double>(cfg_.mean_think_ns)));
  arrivals_.push_back(Arrival{sim_.reserve(think), id, false});
  std::push_heap(arrivals_.begin(), arrivals_.end(), later);
  arm_head();
}

// Only the head has to be armed: every other pending key orders after
// it, so the simulator cannot reach one before the head's event pops.
// A new arrival that becomes the head is armed beside the old head,
// which stays armed (keys are never cancelled, so none is armed twice);
// the armed event that pops first is therefore always the heap's head.

void ClientPool::arm_head() {
  Arrival& head = arrivals_.front();
  if (head.armed) return;
  head.armed = true;
  sim_.schedule_keyed(head.key, [this, seq = head.key.seq] { arrive(seq); });
}

void ClientPool::arrive([[maybe_unused]] std::uint64_t seq) {
  assert(arrivals_.front().key.seq == seq);
  const std::uint32_t id = arrivals_.front().id;
  std::pop_heap(arrivals_.begin(), arrivals_.end(), later);
  arrivals_.pop_back();
  if (!arrivals_.empty()) arm_head();
  wake_client(id);
}

void ClientPool::wake_client(std::uint32_t id) {
  ring_[(ring_head_ + ring_size_) % ring_.size()] = id;
  ++ring_size_;
  ready_.release();
}

std::uint32_t ClientPool::ring_pop() {
  const std::uint32_t id = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) % ring_.size();
  --ring_size_;
  return id;
}

sim::Task<> ClientPool::puller() {
  for (;;) {
    co_await ready_.acquire();
    // The budget can drain while we waited (other pullers consumed
    // it, or the shutdown flush below woke us with an empty ring).
    if (issued_ >= cfg_.total_ops) co_return;
    const std::uint32_t id = ring_pop();
    ++issued_;
    if (!has_issued_[id]) {
      has_issued_[id] = true;
      ++stats_.active_clients;
    }

    RpcRequest req;
    req.obj_id = zipf_.next(rng_);
    req.op = rng_.bernoulli(cfg_.read_ratio) ? RpcOp::kRead : RpcOp::kWrite;
    req.len = cfg_.op_len;
    const core::RpcResult res = co_await client_.call(req);

    if (res.ok) {
      ++stats_.ops_completed;
      stats_.latency.record(res.latency());
      if (req.op == RpcOp::kWrite) {
        stats_.write_latency.record(res.latency());
        if (res.durable_at > res.issued_at) {
          stats_.durable_latency.record(res.durable_at - res.issued_at);
        }
      } else {
        stats_.read_latency.record(res.latency());
      }
    }

    ++attempts_done_;
    if (attempts_done_ == cfg_.total_ops) {
      finished_at_ = sim_.now();
      done_ = true;
      // Flush pullers parked on acquire so no coroutine frame
      // outlives the run suspended forever.
      ready_.release(cfg_.max_outstanding);
    } else if (issued_ < cfg_.total_ops) {
      queue_next(id);
    }
  }
}

}  // namespace prdma::workload
