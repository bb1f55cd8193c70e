#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench_util/sweep.hpp"
#include "sim/time.hpp"

namespace prdma::check {

/// Evenly samples at most `cap` timestamps out of `points`, keeping both
/// ends (cap == 1 keeps the first point only).
std::vector<sim::SimTime> sample_boundaries(
    const std::vector<sim::SimTime>& points, std::uint32_t cap);

/// The crash-schedule search explore() and explore_repl() share; each
/// explorer supplies only its own candidate generation.
///
///  1. `run(dry, &trace)` — a traced, crash-free dry run harvests
///     protocol-phase boundary timestamps (sampled down to
///     `max_boundary_points`) and the clean run length;
///  2. `candidates(report)` lists every schedule to try, in serial order
///     (every RNG draw happens there, before any schedule runs);
///  3. the candidates run on SweepRunner workers (`run(s, nullptr)`) and
///     come back in submission order, so the failure scan — and with it
///     first_failure, the reproducer, the whole report — is
///     byte-identical at any `jobs` value;
///  4. the first failure is shrunk by bisection to the fewest driven ops
///     that still violate an invariant under the same crash instants,
///     and `format` renders it as the re-runnable reproducer.
template <typename Report, typename Schedule, typename Run,
          typename Candidates, typename Format>
Report search_schedules(const Schedule& dry, std::uint32_t max_boundary_points,
                        std::size_t jobs, Run run, Candidates candidates,
                        Format format) {
  Report rep;
  std::vector<sim::SimTime> trace;
  rep.clean_end = run(dry, &trace).end_time;
  rep.boundary_points = sample_boundaries(trace, max_boundary_points);

  const std::vector<Schedule> schedules = candidates(rep);
  bench::SweepRunner runner(jobs);
  auto results = runner.map(
      schedules, [&run](const Schedule& s) { return run(s, nullptr); });
  for (auto& r : results) {
    ++rep.schedules_run;
    if (r.failed()) {
      ++rep.schedules_failed;
      if (!rep.first_failure.has_value()) rep.first_failure = std::move(r);
    }
  }
  if (!rep.first_failure.has_value()) return rep;

  Schedule best = rep.first_failure->schedule;
  auto best_result = *rep.first_failure;
  std::uint64_t lo = 1;  // smallest op count not known to pass
  std::uint64_t ops = best.ops;
  while (ops > lo) {
    const std::uint64_t cand = lo + (ops - lo) / 2;
    Schedule t = best;
    t.ops = cand;
    auto r = run(t, nullptr);
    if (r.failed()) {
      ops = cand;
      best = t;
      best_result = std::move(r);
    } else {
      lo = cand + 1;
    }
  }
  rep.minimal = std::move(best_result);
  rep.reproducer = format(best);
  return rep;
}

}  // namespace prdma::check
