#include "bench_util/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <numeric>
#include <thread>

namespace prdma::bench {

std::size_t SweepRunner::default_jobs() {
  // Floor of 2: on a single-core host a defaulted "parallel" sweep
  // previously collapsed to jobs=1, so the jobs=1-vs-N determinism
  // gate in engine_perf compared a run against itself. Two timeshared
  // workers still exercise the pool scheduling + merge path. Cap of 4:
  // micro cells are memory-bound and wider pools stop helping.
  const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(hw, 2, 4);
}

sim::ThreadPool& SweepRunner::pool() {
  if (!pool_) pool_ = std::make_unique<sim::ThreadPool>(jobs_);
  return *pool_;
}

void SweepRunner::for_each(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  for_each_hinted(n, {}, fn);
}

void SweepRunner::for_each_hinted(std::size_t n,
                                  const std::vector<double>& hints,
                                  const std::function<void(std::size_t)>& fn) {
  cell_seconds_.assign(n, 0.0);
  if (n == 0) return;
  const auto timed = [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn(i);
    cell_seconds_[i] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  };
  if (jobs_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) timed(i);
    return;
  }
  // Longest-expected-first: submission order k maps to cell order[k].
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (hints.size() == n) {
    // Ties keep index order, as a stable sort would; std::sort needs no
    // temporary buffer, whose new/delete pairing ASan misreports when
    // the test binaries load another libstdc++ than the compiler's.
    std::sort(order.begin(), order.end(),
              [&hints](std::size_t a, std::size_t b) {
                if (hints[a] > hints[b]) return true;
                if (hints[b] > hints[a]) return false;
                return a < b;
              });
  }
  // Collect failures per original index so the rethrown exception is
  // the lowest-index one regardless of the hint permutation.
  std::vector<std::exception_ptr> errors(n);
  pool().parallel_for(n, [&](std::size_t k) {
    const std::size_t i = order[k];
    try {
      timed(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::size_t jobs_from(const Flags& flags) {
  return static_cast<std::size_t>(flags.u64("jobs", 1));
}

}  // namespace prdma::bench
