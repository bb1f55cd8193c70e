#include "sim/partitioned_engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace prdma::sim {

namespace {

thread_local const void* t_current_shard = nullptr;

/// Generation-counting spin barrier for the workers active in an
/// epoch. Waiters spin a short budget before yielding, so an
/// oversubscribed host (CI runners, TSan builds) makes progress
/// instead of burning whole quanta; they never sleep, because an epoch
/// is shorter than a futex sleep and wake-up (DESIGN.md §7.5). Workers
/// shed by the worker-count rule are not participants: they park
/// outside the barrier until a rebalance needs them again.
class SpinBarrier {
 public:
  explicit SpinBarrier(int total) : total_(total) {}

  /// Changes the participant count. Called only by the epoch barrier's
  /// last arriver, while no participant is inside this barrier.
  void set_total(int total) { total_ = total; }

  /// The last arriver runs `last_fn` before releasing the others.
  template <typename F>
  void arrive(F&& last_fn) {
    // Both reads precede this thread's arrival, so neither can see the
    // next episode's values. The generation is the one this thread was
    // last released from; a worker woken from a park first arrives at
    // the phase-A barrier, whose generation last moved before the
    // rebalance that woke it (see the roster in run_partitioned).
    const int total = total_;
    const std::uint32_t gen = gen_.load(std::memory_order_relaxed);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      count_.store(0, std::memory_order_relaxed);
      last_fn();
      gen_.store(gen + 1, std::memory_order_release);
    } else {
      int spins = 0;
      while (gen_.load(std::memory_order_acquire) == gen) {
        if (++spins > 128) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }

 private:
  std::atomic<int> count_{0};
  std::atomic<std::uint32_t> gen_{0};
  int total_;
};

/// A worker count t is "as fast" as all T workers when its estimated
/// critical path is at most this many percent longer (DESIGN.md §7.5):
/// wide enough to drop a worker that only adds barrier spin on a load
/// dominated by one partition, narrow enough that an even load — where
/// removing one of T workers lengthens the path by >= 1/(T-1), 14 % at
/// T = 8 — keeps every worker.
constexpr std::uint64_t kShedTolerancePct = 10;

/// Longest-processing-time packing: partitions in decreasing `weight`
/// (ties by index) each go to the bin with the least weight so far,
/// ties to the bin holding fewer partitions, then the lower index — so
/// equal weights (all zero before any load is known) deal round-robin
/// like p % bins. Writes bin_of[p].
void pack_lpt(const std::vector<std::uint64_t>& weight, std::size_t bins,
              std::uint32_t* bin_of) {
  const std::size_t P = weight.size();
  std::vector<std::size_t> order(P);
  for (std::size_t p = 0; p < P; ++p) order[p] = p;
  std::stable_sort(order.begin(), order.end(),
                   [&weight](std::size_t a, std::size_t b) {
                     return weight[a] > weight[b];
                   });
  std::vector<std::uint64_t> load(bins, 0);
  std::vector<std::size_t> count(bins, 0);
  for (const std::size_t p : order) {
    std::size_t best = 0;
    for (std::size_t b = 1; b < bins; ++b) {
      if (load[b] < load[best] ||
          (load[b] == load[best] && count[b] < count[best])) {
        best = b;
      }
    }
    bin_of[p] = static_cast<std::uint32_t>(best);
    load[best] += weight[p];
    ++count[best];
  }
}

}  // namespace

const void* current_engine_shard() noexcept { return t_current_shard; }

namespace detail {
void set_current_engine_shard(Simulator* shard) noexcept {
  t_current_shard = shard;
  t_running_frames = shard != nullptr ? &shard->frames() : nullptr;
}
}  // namespace detail

PartitionedEngine::PartitionedEngine(std::size_t node_count, EngineConfig cfg)
    : threads_(std::max(1u, cfg.threads)), adaptive_(cfg.adaptive_epochs) {
  const std::size_t nodes = std::max<std::size_t>(1, node_count);
  part_of_.resize(nodes);
  std::size_t partitions = 1;
  if (cfg.partitioning == EngineConfig::Partitioning::kPerRack) {
    if (cfg.partition_map.size() < nodes) {
      throw std::invalid_argument(
          "kPerRack requires a partition_map covering every node (" +
          std::to_string(cfg.partition_map.size()) + " entries for " +
          std::to_string(nodes) + " nodes)");
    }
    std::size_t max_part = 0;
    for (std::size_t n = 0; n < nodes; ++n) {
      part_of_[n] = cfg.partition_map[n];
      max_part = std::max(max_part, cfg.partition_map[n]);
    }
    partitions = max_part + 1;
    std::vector<char> seen(partitions, 0);
    for (std::size_t n = 0; n < nodes; ++n) seen[part_of_[n]] = 1;
    for (std::size_t p = 0; p < partitions; ++p) {
      if (!seen[p]) {
        throw std::invalid_argument(
            "kPerRack partition_map must use dense partition ids: id " +
            std::to_string(p) + " of " + std::to_string(partitions) +
            " is unused");
      }
    }
  } else {
    bool per_node = false;
    switch (cfg.partitioning) {
      case EngineConfig::Partitioning::kAuto:
        per_node = threads_ > 1;
        break;
      case EngineConfig::Partitioning::kSingle:
        per_node = false;
        break;
      case EngineConfig::Partitioning::kPerNode:
        per_node = true;
        break;
      case EngineConfig::Partitioning::kPerRack:
        break;  // handled above
    }
    partitions = per_node ? nodes : 1;
    for (std::size_t n = 0; n < nodes; ++n) part_of_[n] = per_node ? n : 0;
  }
  shards_.reserve(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  out_.resize(partitions * partitions);
  staged_.resize(partitions);
  hooks_.resize(partitions);
  horizons_.assign(partitions, 0);
}

PartitionedEngine::~PartitionedEngine() { destroy_parked_roots(); }

std::size_t PartitionedEngine::destroy_parked_roots() {
  // Runs outside any shard, so every frame freed here goes straight
  // back to its owner's free list.
  std::size_t destroyed = 0;
  for (auto& s : shards_) destroyed += s->destroy_parked_roots();
  return destroyed;
}

void PartitionedEngine::set_epoch_hook(std::size_t partition,
                                       std::function<void()> fn) {
  hooks_[partition] = std::move(fn);
}

void PartitionedEngine::schedule_remote(std::size_t src, std::size_t dst,
                                        SimTime t, InlineTask fn) {
  const SimTime h = horizon_.load(std::memory_order_relaxed);
  if (t < h) {
    throw std::logic_error(
        "lookahead violation: cross-partition event at t=" + std::to_string(t) +
        " is below the epoch horizon " + std::to_string(h) +
        " (link propagation shorter than the conservative lookahead?)");
  }
  out_[src * shards_.size() + dst].items.push_back(
      OutItem{t, shards_[src]->now(), std::move(fn)});
}

SimTime PartitionedEngine::Staging::min_time() const {
  SimTime m = kNever;
  for (const StagedItem& it : items) m = std::min(m, it.t);
  return m;
}

void PartitionedEngine::merge_outboxes_into(std::size_t dst) {
  const std::size_t P = shards_.size();
  Staging& st = staged_[dst];
  for (std::size_t src = 0; src < P; ++src) {
    Outbox& box = out_[src * P + dst];
    // Most (src, dst) edges carry nothing in a given epoch: skip them
    // without writing to the source-owned outbox.
    if (box.items.empty()) continue;
    for (OutItem& it : box.items) {
      st.items.push_back(StagedItem{it.t, it.created,
                                    static_cast<std::uint32_t>(src),
                                    st.next_seq++, std::move(it.fn)});
    }
    box.items.clear();
  }
}

void PartitionedEngine::flush_staged_into(std::size_t p) {
  Staging& st = staged_[p];
  if (st.items.empty()) return;
  const SimTime h = horizons_[p];
  // Keep not-yet-due items in front (their relative order is
  // irrelevant — every comparison uses the explicit canonical key).
  const auto mid =
      std::partition(st.items.begin(), st.items.end(),
                     [h](const StagedItem& it) { return it.t >= h; });
  if (mid == st.items.end()) return;
  // Equal (t, created, src) implies the same source epoch, so the
  // arrival seq is consistent across epoch structures; every earlier
  // key component is epoch-independent by construction.
  std::sort(mid, st.items.end(),
            [](const StagedItem& a, const StagedItem& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.created != b.created) return a.created < b.created;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (auto it = mid; it != st.items.end(); ++it) {
    shards_[p]->schedule_at(it->t, std::move(it->fn));
  }
  st.items.erase(mid, st.items.end());
}

void PartitionedEngine::run() {
  epochs_ = 0;
  barrier_wall_ns_.store(0, std::memory_order_relaxed);
  workers_used_ = 1;
  rejoins_ = 0;
  if (shards_.size() == 1) {
    shards_[0]->run();
    if (hooks_[0]) hooks_[0]();
    return;
  }
  run_partitioned();
  // Frames freed on a foreign worker in the last epoch are parked
  // until their owner drains them; no worker runs now.
  for (auto& s : shards_) s->frames().arena.drain_remote_frees();
}

void PartitionedEngine::run_partitioned() {
  const std::size_t P = shards_.size();
  if (lookahead_ < 1) {
    throw std::logic_error(
        "partitioned run requires a lookahead >= 1 ns (links with zero "
        "propagation delay cannot be partitioned conservatively)");
  }
  const auto T = static_cast<std::size_t>(std::min<unsigned>(
      threads_, static_cast<unsigned>(P)));
  if (!pool_ || pool_->size() < T) pool_ = std::make_unique<ThreadPool>(T);

  // Setup-phase sends (coroutines started eagerly before run) may have
  // parked cross-partition events already; stage them before computing
  // the first epoch so none lands behind a shard clock.
  for (std::size_t p = 0; p < P; ++p) merge_outboxes_into(p);

  const auto earliest_pending = [&](std::size_t p) {
    const SimTime heap_min =
        shards_[p]->pending() > 0 ? shards_[p]->next_event_time() : kNever;
    return std::min(heap_min, staged_[p].min_time());
  };

  std::vector<SimTime> local_min(P, kNever);
  for (std::size_t p = 0; p < P; ++p) local_min[p] = earliest_pending(p);

  // Horizons for the next epoch, from the per-partition earliest
  // pending times (DESIGN.md §7.7). Static mode: every partition stops
  // at next + L. Adaptive mode: partition p may run until the earliest
  // instant a cross-partition event could still reach it — one L past
  // the earliest *other* active partition — capped at next + 2L so the
  // bound stays sound across epochs (events routed through a partition
  // that is idle *this* epoch arrive at >= next + 2L, never earlier).
  const auto update_horizons = [&](SimTime next) {
    horizon_.store(next + lookahead_, std::memory_order_relaxed);
    if (!adaptive_) {
      for (std::size_t p = 0; p < P; ++p) horizons_[p] = next + lookahead_;
      return;
    }
    const SimTime cap = next + 2 * lookahead_;
    // Smallest and second-smallest pending times, so min over q != p
    // is O(1) per partition.
    SimTime m1 = kNever;
    SimTime m2 = kNever;
    std::size_t i1 = SIZE_MAX;
    for (std::size_t q = 0; q < P; ++q) {
      if (local_min[q] < m1) {
        m2 = m1;
        m1 = local_min[q];
        i1 = q;
      } else {
        m2 = std::min(m2, local_min[q]);
      }
    }
    for (std::size_t p = 0; p < P; ++p) {
      const SimTime others = p == i1 ? m2 : m1;
      horizons_[p] =
          others == kNever ? cap : std::min(others + lookahead_, cap);
    }
  };

  SimTime t0 = kNever;
  for (const SimTime m : local_min) t0 = std::min(t0, m);
  if (t0 == kNever) {
    for (std::size_t p = 0; p < P; ++p) {
      if (hooks_[p]) hooks_[p]();
    }
    return;
  }
  update_horizons(t0);

  // Worker fitting (DESIGN.md §7.5). Ownership and the worker count
  // change only at the barrier closing epoch 1, 2, 4, 8, ...; between
  // two such barriers the engine measures every partition's executed
  // events per epoch (a pure function of the schedule — no clocks) and,
  // for every candidate count t <= T, what the critical path would
  // have been under t workers' current LPT packing: the sum over the
  // window's epochs of the busiest bin. The rebalance keeps the fewest
  // workers whose path is within kShedTolerancePct of all T's, and
  // repacks every candidate from the closed window's loads. Ownership
  // only decides which thread runs a partition, never what it runs.
  std::vector<std::uint64_t> seen(P);
  for (std::size_t p = 0; p < P; ++p) seen[p] = shards_[p]->events_executed();
  std::vector<std::uint64_t> window_load(P, 0);
  std::vector<std::uint32_t> bin_of(T * P);  // candidate t -> [(t-1)*P, t*P)
  for (std::size_t t = 1; t <= T; ++t) {
    pack_lpt(window_load, t, &bin_of[(t - 1) * P]);
  }
  std::vector<std::uint64_t> critical(T, 0);
  std::vector<std::uint64_t> bins(T);
  std::vector<std::pair<std::size_t, std::uint64_t>> busy;  // epoch loads
  busy.reserve(P);
  std::vector<std::vector<std::size_t>> owned(T);
  const auto assign_owners = [&](std::size_t t) {
    for (auto& o : owned) o.clear();
    for (std::size_t p = 0; p < P; ++p) {
      owned[bin_of[(t - 1) * P + p]].push_back(p);
    }
  };
  assign_owners(T);
  workers_used_ = static_cast<unsigned>(T);

  SpinBarrier phase_a_done(static_cast<int>(T));
  SpinBarrier epoch_done(static_cast<int>(T));
  // Active worker count, or 0 once the run is over. Shed workers
  // (index >= roster) park on it; it changes only inside the epoch
  // barrier's last_fn, so a worker that reads a new value also sees
  // the owners, horizons and barrier generations published with it.
  std::atomic<unsigned> roster{static_cast<unsigned>(T)};
  std::atomic<bool> abort{false};
  std::mutex err_mu;
  std::exception_ptr err;
  std::size_t err_part = SIZE_MAX;

  const auto record_error = [&](std::size_t p) {
    std::lock_guard lock(err_mu);
    if (!err || p < err_part) {
      err = std::current_exception();
      err_part = p;
    }
    abort.store(true, std::memory_order_relaxed);
  };

  const auto account_and_rebalance = [&] {
    busy.clear();
    for (std::size_t p = 0; p < P; ++p) {
      const std::uint64_t d = shards_[p]->events_executed() - seen[p];
      if (d == 0) continue;
      seen[p] += d;
      window_load[p] += d;
      busy.emplace_back(p, d);
    }
    for (std::size_t t = 1; t <= T; ++t) {
      const std::uint32_t* b_of = &bin_of[(t - 1) * P];
      std::fill_n(bins.begin(), t, 0);
      for (const auto& [p, d] : busy) bins[b_of[p]] += d;
      critical[t - 1] += *std::max_element(bins.begin(), bins.begin() + t);
    }
    if ((epochs_ & (epochs_ - 1)) != 0) return;  // not a power of two
    std::size_t keep = T;
    for (std::size_t t = 1; t < T; ++t) {
      if (critical[t - 1] * 100 <= critical[T - 1] * (100 + kShedTolerancePct)) {
        keep = t;
        break;
      }
    }
    for (std::size_t t = 1; t <= T; ++t) {
      pack_lpt(window_load, t, &bin_of[(t - 1) * P]);
    }
    std::fill(window_load.begin(), window_load.end(), 0);
    std::fill(critical.begin(), critical.end(), 0);
    assign_owners(keep);
    phase_a_done.set_total(static_cast<int>(keep));
    epoch_done.set_total(static_cast<int>(keep));
    const bool grows = keep > workers_used_;
    if (grows) rejoins_ += keep - workers_used_;
    workers_used_ = static_cast<unsigned>(keep);
    roster.store(workers_used_, std::memory_order_release);
    if (grows) roster.notify_all();
  };

  const auto worker = [&](std::size_t w) {
    std::uint64_t barrier_ns = 0;
    const auto timed_arrive = [&barrier_ns](SpinBarrier& b, auto&& last_fn) {
      const auto start = std::chrono::steady_clock::now();
      b.arrive(last_fn);
      barrier_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    };
    for (;;) {
      const unsigned now_active = roster.load(std::memory_order_acquire);
      if (now_active == 0) break;
      if (w >= now_active) {
        // Shed: off the critical path, so sleeping costs nothing; wake
        // when a rebalance grows the roster or the run ends.
        roster.wait(now_active, std::memory_order_acquire);
        continue;
      }
      // Phase A: release due staged arrivals, then advance owned
      // partitions through [now, H_p).
      if (!abort.load(std::memory_order_relaxed)) {
        for (const std::size_t p : owned[w]) {
          detail::set_current_engine_shard(shards_[p].get());
          try {
            flush_staged_into(p);
            shards_[p]->run_until(horizons_[p] - 1);
          } catch (...) {
            record_error(p);
          }
          detail::set_current_engine_shard(nullptr);
        }
      }
      timed_arrive(phase_a_done, [] {});
      // Phase B: merge inbound events, run epoch hooks, report the
      // local minimum for the next epoch's horizons.
      for (const std::size_t p : owned[w]) {
        detail::set_current_engine_shard(shards_[p].get());
        try {
          shards_[p]->frames().arena.drain_remote_frees();
          merge_outboxes_into(p);
          if (hooks_[p]) hooks_[p]();
        } catch (...) {
          record_error(p);
        }
        local_min[p] = earliest_pending(p);
        detail::set_current_engine_shard(nullptr);
      }
      timed_arrive(epoch_done, [&] {
        ++epochs_;
        SimTime next = kNever;
        for (const SimTime m : local_min) next = std::min(next, m);
        if (next == kNever || abort.load(std::memory_order_relaxed)) {
          roster.store(0, std::memory_order_release);
          roster.notify_all();
          return;
        }
        update_horizons(next);
        if (T > 1) account_and_rebalance();
      });
    }
    barrier_wall_ns_.fetch_add(barrier_ns, std::memory_order_relaxed);
  };

  std::vector<std::future<void>> running;
  running.reserve(T);
  for (std::size_t w = 0; w < T; ++w) {
    running.push_back(pool_->submit([&worker, w] { worker(w); }));
  }
  for (auto& f : running) f.get();
  horizon_.store(0, std::memory_order_relaxed);
  if (err) std::rethrow_exception(err);
  // Termination only inspects shard heaps (local_min), so an epoch
  // hook that pushed into an outbox after its destination merged would
  // be silently dropped — hooks must not schedule events; fail loudly
  // if one did.
  for (const Outbox& box : out_) {
    if (!box.items.empty()) {
      throw std::logic_error(
          "partitioned run terminated with unmerged cross-partition "
          "events: epoch hooks must not call schedule_remote/schedule_at");
    }
  }
  // Staged items are part of every termination decision (local_min
  // counts them), so leftovers here mean the decision logic is broken.
  for (const Staging& st : staged_) {
    if (!st.items.empty()) {
      throw std::logic_error(
          "partitioned run terminated with staged cross-partition events");
    }
  }
}

std::uint64_t PartitionedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_executed();
  return total;
}

std::uint64_t PartitionedEngine::max_partition_events() const {
  std::uint64_t most = 0;
  for (const auto& s : shards_) most = std::max(most, s->events_executed());
  return most;
}

std::uint64_t PartitionedEngine::pool_allocations() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->pool_allocations();
  return total;
}

SimTime PartitionedEngine::max_now() const {
  SimTime t = 0;
  for (const auto& s : shards_) t = std::max(t, s->now());
  return t;
}

}  // namespace prdma::sim
