#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"
#include "sim/thread_pool.hpp"
#include "sim/time.hpp"

namespace prdma::sim {

/// How a PartitionedEngine maps nodes to event-queue partitions.
struct EngineConfig {
  /// Maximum worker threads advancing the partitions (never more than
  /// the partition count). A multi-partition run starts on all of them
  /// and, at every power-of-two epoch, keeps only as many as its
  /// measured per-epoch load can use (DESIGN.md §7.5); the schedule is
  /// identical at any count. 1 keeps the engine on a single partition
  /// — bit-identical to a plain Simulator run.
  unsigned threads = 1;

  enum class Partitioning : std::uint8_t {
    /// threads <= 1 -> one partition (legacy-exact); otherwise one
    /// partition per node.
    kAuto,
    /// Force every node into partition 0 regardless of thread count.
    /// Used by workloads whose coroutines migrate between nodes (chain
    /// replication hosts hop clients on forwarder nodes), where
    /// conservative per-node partitioning cannot apply.
    kSingle,
    /// One partition per node even at threads == 1 (tests).
    kPerNode,
    /// Partition per topology rack via `partition_map` (node ->
    /// partition, dense ids): a ToR and its hosts share one shard, so
    /// the conservative lookahead derives from the *inter-rack* trunk
    /// latency instead of the shortest intra-rack cable — longer
    /// epochs, far fewer barriers. Applied at every thread count
    /// (including 1) so the layout — and therefore every merged-tie
    /// order — is identical across --engine-threads.
    kPerRack,
  };
  Partitioning partitioning = Partitioning::kAuto;

  /// Node -> partition for kPerRack (ignored otherwise). Must cover
  /// every node and use dense partition ids 0..P-1 (see
  /// net::rack_partition_map, which derives it from the topology).
  std::vector<std::size_t> partition_map;

  /// Adaptive epoch length (DESIGN.md §7.7): at every barrier the
  /// horizon of partition p extends to
  ///   H_p = min( min over active q != p of (e_q + L),  next + 2L )
  /// where e_q is q's earliest pending event and next = min e_q —
  /// instead of the static next + L. A pure function of the schedule,
  /// so runs stay byte-identical at any thread count; the 2L cap keeps
  /// every horizon sound across epochs (a lone active partition may
  /// otherwise race past replies routed through currently-idle
  /// partitions). Off -> every epoch is the static next + L window.
  bool adaptive_epochs = true;
};

/// Shard token of the worker thread currently executing simulation
/// events: the partition's Simulator*, or nullptr outside engine
/// phases (setup, teardown, plain serial runs). Layers that hand
/// resources between nodes (BufferPool recycling) use it to detect a
/// foreign-partition release.
[[nodiscard]] const void* current_engine_shard() noexcept;

namespace detail {
/// Sets the shard token and the thread's running shard (its frame
/// arena and root registry) together; nullptr clears both.
void set_current_engine_shard(Simulator* shard) noexcept;
}

/// Conservative-lookahead parallel discrete-event engine (DESIGN.md
/// §7.5): one Simulator shard per partition, advanced in epochs by a
/// worker pool. Every epoch executes events in [T, T+L) where T is the
/// global minimum pending timestamp and L the fabric lookahead (half
/// the minimum propagation over every cable — direct links *and*
/// topology ports, so multi-hop switched fabrics keep the bound from
/// their shortest trunk), then merges cross-partition
/// events at a barrier. Cross-partition schedules are routed through
/// per-(src,dst) outboxes and merged in (time arrival order is handled
/// by the destination heap; same-timestamp ties resolve in (src
/// partition, push index) order) — a pure function of the schedule, so
/// every multi-partition run is byte-identical at any thread count,
/// and noise-free runs (jitter sigma 0, no loss/load draws) over
/// direct-link fabrics are additionally byte-identical to the serial
/// engine. Noisy cells are deterministic but draw from per-link RNG
/// streams instead of the serial engine's shared stream, so their
/// serial output differs (DESIGN.md §7.5). Switched fabrics funnel
/// many nodes through shared ports, where merged-vs-local ties at one
/// timestamp order differently than the serial heap — run_micro pins
/// such cells to one fixed layout at every thread count instead
/// (per-rack when the topology has >= 2 racks, else per-node;
/// DESIGN.md §7.6/§7.7). Adaptive epochs (EngineConfig::
/// adaptive_epochs, DESIGN.md §7.7) lengthen each partition's phase-A
/// window beyond the static L whenever the other partitions' earliest
/// pending events allow it; merge order is canonicalized by
/// (timestamp, creation time, src, push index), so stats are identical
/// with the extension on or off.
///
/// With one partition the engine is exactly a Simulator: run() calls
/// shard(0).run() with no epoch machinery, no barriers and no atomics
/// on the hot path.
class PartitionedEngine {
 public:
  PartitionedEngine(std::size_t node_count, EngineConfig cfg);
  /// Destroys every shard's parked roots before any shard goes away: a
  /// root on one shard may own frames carved from another's arena.
  ~PartitionedEngine();
  PartitionedEngine(const PartitionedEngine&) = delete;
  PartitionedEngine& operator=(const PartitionedEngine&) = delete;

  [[nodiscard]] std::size_t partitions() const { return shards_.size(); }
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Node-to-partition mapping is the engine's only placement policy;
  /// entities without a node of their own map through a deterministic
  /// anchor node (fabric switches run on Topology::switch_owner's
  /// shard), so every event lands on the same shard at any thread
  /// count.
  [[nodiscard]] Simulator& shard(std::size_t p) { return *shards_[p]; }
  [[nodiscard]] Simulator& shard_of_node(std::size_t node) {
    return *shards_[part_of_[node]];
  }
  [[nodiscard]] std::size_t partition_of_node(std::size_t node) const {
    return part_of_[node];
  }

  /// Conservative lookahead window L in simulated ns. Derived from the
  /// fabric (half the minimum link propagation); must be >= 1 before a
  /// multi-partition run.
  void set_lookahead(SimTime l) { lookahead_ = l; }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  /// Per-partition epoch hook, run by the partition's worker at every
  /// epoch barrier (phase B) and once after the run drains. Used to
  /// hand back cross-partition resources (payload-pool remote frees).
  /// Hooks must NOT schedule events (schedule_remote/schedule_at):
  /// termination is decided from the shard heaps alone, so a
  /// hook-scheduled event could be dropped or merged behind the
  /// destination's clock; run() asserts all outboxes are empty at
  /// termination to catch this.
  void set_epoch_hook(std::size_t partition, std::function<void()> fn);

  /// Routes a cross-partition schedule_at: called from `src`'s worker
  /// during phase A, merged into `dst`'s shard at the next barrier.
  /// Throws std::logic_error when `t` is below the current epoch
  /// horizon — a lookahead violation would break conservative order.
  void schedule_remote(std::size_t src, std::size_t dst, SimTime t,
                       InlineTask fn);

  /// Destroys the detached roots still parked on every shard
  /// (Simulator::destroy_parked_roots). Returns how many.
  std::size_t destroy_parked_roots();

  /// Runs every shard to completion. Single partition: a plain
  /// Simulator::run(). Multiple partitions: the epoch loop, using
  /// `threads()` workers from an internal ThreadPool.
  void run();

  // ---- aggregate counters (sums over shards) ----

  [[nodiscard]] std::uint64_t events_executed() const;
  /// Events executed by the busiest partition.
  [[nodiscard]] std::uint64_t max_partition_events() const;
  [[nodiscard]] std::uint64_t pool_allocations() const;
  /// Max shard clock — an upper bound, not the last event time (idle
  /// shards fast-forward to each epoch horizon).
  [[nodiscard]] SimTime max_now() const;

  /// Epoch barriers completed by the last run (0 for a single
  /// partition). Deterministic: a pure function of the schedule,
  /// identical at any thread count.
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  /// Wall-clock ns the workers spent inside epoch barriers during the
  /// last run, summed over workers (parked workers are not in a
  /// barrier). Telemetry only — nondeterministic, never part of a
  /// model-identity comparison.
  [[nodiscard]] std::uint64_t barrier_wall_ns() const {
    return barrier_wall_ns_.load(std::memory_order_relaxed);
  }
  /// Workers the last run ended on, <= min(threads(), partitions()):
  /// the count its final rebalance chose (1 for a single partition). A
  /// pure function of the schedule and threads(), but it differs
  /// between thread counts, so it stays out of identity comparisons.
  [[nodiscard]] unsigned workers_used() const { return workers_used_; }
  /// Times a parked worker rejoined the active set during the last run.
  [[nodiscard]] std::uint64_t worker_rejoins() const { return rejoins_; }

 private:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  void run_partitioned();
  void merge_outboxes_into(std::size_t dst);
  /// Moves every staged item with t < horizons_[p] into p's heap in
  /// canonical order. Called by p's owner worker before phase A.
  void flush_staged_into(std::size_t p);

  unsigned threads_;
  bool adaptive_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::size_t> part_of_;  ///< node -> partition
  /// Outbox (src * P + dst): filled single-producer by src's worker in
  /// phase A, drained by dst's worker in phase B; the epoch barriers
  /// order every access. `created` is the source shard clock at push —
  /// part of the canonical merge key, so same-timestamp ties order the
  /// same way no matter how adaptive horizons batch the epochs.
  struct OutItem {
    SimTime t;
    SimTime created;
    InlineTask fn;
  };
  struct Outbox {
    std::vector<OutItem> items;
  };
  std::vector<Outbox> out_;
  /// Per-destination inbound staging calendar. Outboxes drain into it
  /// at every barrier; items enter the destination heap only once the
  /// epoch horizon reaches them (flush_staged_into, at the top of
  /// phase A), sorted by the canonical key (t, created, src, arrival
  /// seq). The destination heap breaks same-timestamp ties by
  /// insertion order, and deferring insertion until the horizon
  /// requires it guarantees every same-timestamp group is inserted
  /// together in canonical order — a pure function of the schedule,
  /// independent of how adaptive horizons batch the epochs (two equal
  /// ties can otherwise arrive at *different* barriers under one epoch
  /// structure and the same barrier under another).
  struct StagedItem {
    SimTime t;
    SimTime created;
    std::uint32_t src;
    std::uint64_t seq;
    InlineTask fn;
  };
  struct Staging {
    std::vector<StagedItem> items;
    std::uint64_t next_seq = 0;
    [[nodiscard]] SimTime min_time() const;
  };
  std::vector<Staging> staged_;
  std::vector<std::function<void()>> hooks_;
  SimTime lookahead_ = 0;
  /// Per-partition phase-A horizons for the current epoch; written by
  /// the epoch barrier's last arriver, read by every worker after the
  /// barrier releases (the barrier generation's release/acquire pair
  /// orders the accesses, like local_min; a parked worker that rejoins
  /// reads them after the roster's).
  std::vector<SimTime> horizons_;
  std::atomic<SimTime> horizon_{0};  ///< next + L: schedule_remote guard
  std::uint64_t epochs_ = 0;
  std::atomic<std::uint64_t> barrier_wall_ns_{0};
  unsigned workers_used_ = 0;
  std::uint64_t rejoins_ = 0;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace prdma::sim
