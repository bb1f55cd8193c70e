#pragma once

#include <cstdint>
#include <vector>

#include "core/rpc.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "stats/histogram.hpp"

namespace prdma::workload {

/// Knobs of one host's aggregated closed-loop client population.
struct ClientPoolConfig {
  std::uint64_t clients = 1;          ///< K virtual closed-loop clients
  std::uint64_t total_ops = 0;        ///< pool-wide operation budget
  std::uint32_t max_outstanding = 8;  ///< concurrent RPCs in flight
  sim::SimTime mean_think_ns = 0;     ///< exponential think time (0 = none)
  double read_ratio = 0.0;
  std::uint32_t op_len = 64;          ///< request payload bytes
  std::uint64_t object_count = 1;
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
};

/// What the pool's completed operations recorded. Field-compatible
/// with bench_util's per-driver shard accounting so run_micro merges
/// pools and classic drivers identically.
struct ClientPoolStats {
  std::uint64_t ops_completed = 0;  ///< ok responses only
  std::uint64_t active_clients = 0; ///< distinct clients that issued an op
  stats::LatencyHistogram latency;
  stats::LatencyHistogram write_latency;
  stats::LatencyHistogram read_latency;
  stats::LatencyHistogram durable_latency;
};

/// K closed-loop clients on one host, aggregated into a single
/// event-driven process (DESIGN.md §7.7).
///
/// One coroutine per client stops scaling long before the paper's
/// rack sizes: 512 hosts x 1000 clients would be half a million
/// coroutine frames plus a private mt19937 (~2.5 KB) each. The pool
/// keeps the closed-loop *semantics* — a virtual client has at most
/// one request outstanding, thinks for an exponential interval after
/// every completion, then queues again — while the *mechanics* are
/// K entries in a preallocated ready ring drained by
/// `max_outstanding` puller coroutines, all drawing from one shared
/// RNG in event order. Per virtual client the steady-state footprint
/// is one ring slot, one bit of activity and, while it thinks, one
/// arrival-heap entry; issuing an op allocates nothing.
///
/// Determinism: the pool lives entirely on the owning host's
/// simulator shard, so ring pushes, RNG draws and semaphore wakeups
/// execute in event order — a pure function of config + seed,
/// byte-identical at every engine thread count.
///
/// Arrivals are state, not events: a pending think-end is a 24-byte
/// entry in the pool's private (time, seq) min-heap, keyed by
/// Simulator::reserve() where it used to be schedule()d. Only entries
/// that reach the heap's head are armed in the simulator (through
/// schedule_keyed, each key once), so the simulator holds about one
/// event per pool however many clients think, and every event pops
/// exactly where it did when each client owned one.
class ClientPool {
 public:
  /// `sim` must be the shard of the node `client` issues from.
  ClientPool(sim::Simulator& sim, core::RpcClient& client,
             ClientPoolConfig cfg);
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Spawns the pullers and queues every virtual client's first
  /// arrival. Call before the cluster runs.
  void start();

  [[nodiscard]] const ClientPoolStats& stats() const { return stats_; }
  /// True once the pool completed its whole op budget.
  [[nodiscard]] bool done() const { return done_; }
  /// Simulated time of the budget's last completion.
  [[nodiscard]] sim::SimTime finished_at() const { return finished_at_; }

 private:
  sim::Task<> puller();
  /// Client `id` finished thinking: ready-ring push + puller wakeup.
  void wake_client(std::uint32_t id);
  /// Queues client `id`'s next arrival after its think time.
  void queue_next(std::uint32_t id);
  [[nodiscard]] std::uint32_t ring_pop();
  /// Arms the arrival heap's head in the simulator unless it already is.
  void arm_head();
  /// The armed event of key `seq`, which is the heap's head: pops it
  /// and wakes its client.
  void arrive(std::uint64_t seq);

  /// One pending think-end. `armed` marks a key already handed to
  /// schedule_keyed (the arm-once rule).
  struct Arrival {
    sim::EventKey key;
    std::uint32_t id;
    bool armed;
  };
  /// std::*_heap comparator: the earliest key on top.
  static bool later(const Arrival& a, const Arrival& b) {
    return b.key.before(a.key);
  }

  sim::Simulator& sim_;
  core::RpcClient& client_;
  ClientPoolConfig cfg_;
  sim::Rng rng_;
  sim::ZipfianGenerator zipf_;
  sim::Semaphore ready_;            ///< counts queued ready clients
  std::vector<std::uint32_t> ring_; ///< ready client ids, FIFO
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::vector<Arrival> arrivals_;   ///< pending think-ends, min-heap
  std::vector<bool> has_issued_;    ///< per client: counted as active
  std::uint64_t issued_ = 0;        ///< ops handed to pullers
  std::uint64_t attempts_done_ = 0; ///< responses back (ok or not)
  ClientPoolStats stats_;
  sim::SimTime finished_at_ = 0;
  bool done_ = false;
};

}  // namespace prdma::workload
