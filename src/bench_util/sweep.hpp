#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util/flags.hpp"
#include "sim/thread_pool.hpp"

namespace prdma::bench {

/// Runs independent sweep cells (whole run_micro calls, explorer
/// schedules, multi-seed replicas) on sim::ThreadPool workers and
/// merges the results in deterministic submission order.
///
/// The determinism contract (DESIGN.md §7.1): each cell must be a pure
/// function of its inputs — it builds its own Simulator/Cluster and
/// touches no shared mutable state. Under that contract the result
/// vector is byte-identical at any --jobs value; only wall-clock
/// changes. Parallelism never reaches inside a single simulation.
///
/// jobs == 1 runs cells inline on the calling thread with no pool at
/// all, so the serial path is exactly the pre-SweepRunner code path.
class SweepRunner {
 public:
  /// `jobs` as given by the --jobs flag; 0 means default_jobs()
  /// (hardware threads clamped to [2, 4]).
  explicit SweepRunner(std::size_t jobs = 1)
      : jobs_(jobs == 0 ? default_jobs() : jobs) {}

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Hardware concurrency clamped to [2, 4]: never degenerates to the
  /// serial path on a single-core host, never over-fans memory-bound
  /// cells.
  static std::size_t default_jobs();

  /// Runs fn(i) for every i in [0, n). Blocks until all cells finish.
  /// Parallel runs execute every cell even if one throws and then
  /// rethrow the exception from the lowest-index failing cell, so error
  /// propagation is scheduling-independent too.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// for_each with a per-cell cost hint (any monotone proxy for
  /// expected wall-clock). Parallel runs start cells in descending-hint
  /// order so one long cell submitted late cannot serialize the sweep
  /// tail; results/errors are still reported in index order, and the
  /// serial path ignores the hints entirely. hints.size() != n falls
  /// back to submission order.
  void for_each_hinted(std::size_t n, const std::vector<double>& hints,
                       const std::function<void(std::size_t)>& fn);

  /// Wall-clock seconds of each cell of the last for_each* call, in
  /// index order (steady_clock; diagnostic only, not deterministic).
  [[nodiscard]] const std::vector<double>& cell_seconds() const {
    return cell_seconds_;
  }

  /// Runs fn(i) for i in [0, n); returns {fn(0), fn(1), ..., fn(n-1)}.
  /// R must be default-constructible and movable.
  template <typename F,
            typename R = std::invoke_result_t<F&, std::size_t>>
  std::vector<R> map_n(std::size_t n, F fn) {
    std::vector<R> out(n);
    for_each(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Runs fn(item) over `items`; results come back in item order.
  template <typename Item, typename F,
            typename R = std::invoke_result_t<F&, const Item&>>
  std::vector<R> map(const std::vector<Item>& items, F fn) {
    return map_n(items.size(),
                 [&](std::size_t i) { return fn(items[i]); });
  }

 private:
  sim::ThreadPool& pool();

  std::size_t jobs_;
  std::unique_ptr<sim::ThreadPool> pool_;  // lazy: never built at jobs==1
  std::vector<double> cell_seconds_;
};

/// Shared --jobs flag convention for every bench binary: absent → 1
/// (serial, bit-identical to the historical behaviour), --jobs=0 →
/// SweepRunner::default_jobs() (hardware threads clamped to [2, 4]),
/// --jobs=N → N workers.
std::size_t jobs_from(const Flags& flags);

}  // namespace prdma::bench
