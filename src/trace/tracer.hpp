#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "trace/component.hpp"

namespace prdma::trace {

/// Tracing depth. kCounters keeps exact per-component totals with no
/// event ring (the default for every micro cell — it is what the
/// Fig. 20 breakdown consumes); kFull additionally records every span
/// and counter sample into the preallocated ring for Chrome/Perfetto
/// export.
enum class Mode : std::uint8_t {
  kOff,       ///< every record call is a branch-on-disabled no-op
  kCounters,  ///< totals only (zero per-event memory traffic beyond 2 adds)
  kFull,      ///< totals + ring-buffered events for --trace export
};

/// One recorded event. Spans are closed intervals [t0, t1] of simulated
/// time; counter samples store the sampled value in `value`.
struct TraceEvent {
  sim::SimTime t0 = 0;
  sim::SimTime t1 = 0;          ///< span end (== t0 for instants)
  std::uint64_t corr = 0;       ///< op/RPC correlation id (seq) or value
  ComponentId comp = 0;
  std::uint16_t track = 0;      ///< renders as Chrome "tid" (node id)
  std::uint8_t kind = 0;        ///< 0 = span, 1 = counter sample
};

/// Deterministic simulation-time tracer.
///
/// Contract (DESIGN.md §7.2):
///  * records carry *simulated* timestamps only — the tracer never
///    reads wall-clocks, never consumes simulation RNG and never
///    schedules events, so enabling it cannot change a run;
///  * all storage is preallocated in enable(); recording a span or
///    counter sample performs zero heap allocations (the engine_perf
///    zero-allocs gate holds with tracing off *and* on);
///  * state is per-Tracer (one per Cluster), so parallel sweep cells
///    share nothing and trace output is byte-identical at any --jobs.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Switches mode and (re)allocates storage. kFull preallocates a
  /// ring of `capacity` events; older events are overwritten once it
  /// wraps (newest-kept, see dropped()). Resets all recorded state.
  void enable(Mode mode, std::size_t capacity = kDefaultCapacity);

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] bool enabled() const { return mode_ != Mode::kOff; }

  // ---- recording (hot path; no-ops unless enabled) ----

  /// Records a span of component `c` covering [t0, t1] simulated ns.
  void span(Component c, std::uint64_t corr, sim::SimTime t0, sim::SimTime t1,
            std::uint16_t track = 0) {
    if (mode_ == Mode::kOff) return;
    record_span(to_id(c), corr, t0, t1, track);
  }

  /// Records a span whose *duration* is a charged software cost rather
  /// than a wall interval: [t0, t0 + charged_ns]. This is how the
  /// receiver critical-path sections mirror the historical charged-ns
  /// accounting exactly (waits excluded).
  void span_charged(Component c, std::uint64_t corr, sim::SimTime t0,
                    std::uint64_t charged_ns, std::uint16_t track = 0) {
    if (mode_ == Mode::kOff) return;
    record_span(to_id(c), corr, t0, t0 + charged_ns, track);
  }

  /// Records a gauge sample (e.g. RNIC SRAM bytes) at time t.
  void counter(Component c, sim::SimTime t, std::uint64_t value,
               std::uint16_t track = 0) {
    if (mode_ == Mode::kOff) return;
    record_counter(to_id(c), t, value, track);
  }

  // ---- aggregates (exact regardless of ring wrap) ----

  [[nodiscard]] std::uint64_t total_ns(Component c) const {
    return total_ns(to_id(c));
  }
  [[nodiscard]] std::uint64_t total_ns(ComponentId id) const {
    return totals_.at(id).total_ns;
  }
  [[nodiscard]] std::uint64_t samples(Component c) const {
    return samples(to_id(c));
  }
  [[nodiscard]] std::uint64_t samples(ComponentId id) const {
    return totals_.at(id).samples;
  }
  [[nodiscard]] std::uint64_t last_counter(Component c) const {
    return totals_[to_id(c)].last_value;
  }

  /// Folds another tracer's aggregate totals into this one (partition
  /// shard tracers merging into the cluster's main tracer after a
  /// parallel run), slot by slot. Counter last-values and ring events
  /// are not merged — kFull tracing is confined to single-partition
  /// runs.
  void merge_totals_from(const Tracer& other);

  // ---- ring access (kFull only) ----

  /// Events still held by the ring, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t events_recorded() const { return head_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return head_ > ring_.size() ? head_ - ring_.size() : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

 private:
  struct Slot {
    std::uint64_t total_ns = 0;
    std::uint64_t samples = 0;
    std::uint64_t last_value = 0;
  };

  void record_span(ComponentId id, std::uint64_t corr, sim::SimTime t0,
                   sim::SimTime t1, std::uint16_t track);
  void record_counter(ComponentId id, sim::SimTime t, std::uint64_t value,
                      std::uint16_t track);
  void push(const TraceEvent& ev);

  Mode mode_ = Mode::kOff;
  std::array<Slot, kPredefinedComponents> totals_{};  ///< by ComponentId
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;               ///< monotonic; ring index = head_ % cap
};

}  // namespace prdma::trace
