#pragma once

#include <array>
#include <cstdint>

#include "trace/component.hpp"

namespace prdma::stats {

/// Accumulates latency components across many operations — used to
/// regenerate the paper's Fig. 20 (sender software / network RTT /
/// receiver software breakdown).
///
/// One slot per predefined trace::Component, the same ids the tracer
/// records spans under, so the hot path never hashes strings.
class SpanBreakdown {
 public:
  using ComponentId = trace::ComponentId;

  void add(ComponentId id, std::uint64_t ns) { add_total(id, ns, 1); }
  void add(trace::Component c, std::uint64_t ns) { add(trace::to_id(c), ns); }

  /// Folds a pre-aggregated component total in (e.g. a Tracer slot).
  void add_total(ComponentId id, std::uint64_t total_ns,
                 std::uint64_t samples) {
    auto& slot = slots_.at(id);
    slot.total_ns += total_ns;
    slot.samples += samples;
  }

  // ---- queries ----

  /// Mean nanoseconds per *operation*, where ops is the divisor (an
  /// operation can contribute several spans of one component).
  [[nodiscard]] double mean_ns(ComponentId id, std::uint64_t ops) const {
    if (ops == 0) return 0.0;
    return static_cast<double>(slots_.at(id).total_ns) /
           static_cast<double>(ops);
  }
  [[nodiscard]] double mean_ns(trace::Component c, std::uint64_t ops) const {
    return mean_ns(trace::to_id(c), ops);
  }

  [[nodiscard]] std::uint64_t total_ns() const {
    std::uint64_t t = 0;
    for (const Slot& slot : slots_) t += slot.total_ns;
    return t;
  }

  [[nodiscard]] std::uint64_t samples(ComponentId id) const {
    return slots_.at(id).samples;
  }

  /// Records folded in across every component (spans + counter samples).
  [[nodiscard]] std::uint64_t total_samples() const {
    std::uint64_t n = 0;
    for (const Slot& slot : slots_) n += slot.samples;
    return n;
  }

  /// Fraction of the total contributed by `id`, in [0,1].
  [[nodiscard]] double share(ComponentId id) const {
    const std::uint64_t t = total_ns();
    if (t == 0) return 0.0;
    return static_cast<double>(slots_.at(id).total_ns) /
           static_cast<double>(t);
  }
  [[nodiscard]] double share(trace::Component c) const {
    return share(trace::to_id(c));
  }

  /// True once anything was folded into `id`.
  [[nodiscard]] bool populated(ComponentId id) const {
    const Slot& slot = slots_.at(id);
    return slot.total_ns != 0 || slot.samples != 0;
  }

  void merge(const SpanBreakdown& o) {
    for (ComponentId id = 0; id < trace::kPredefinedComponents; ++id) {
      add_total(id, o.slots_[id].total_ns, o.slots_[id].samples);
    }
  }

  void reset() { slots_ = {}; }

 private:
  struct Slot {
    std::uint64_t total_ns = 0;
    std::uint64_t samples = 0;
  };

  std::array<Slot, trace::kPredefinedComponents> slots_{};
};

}  // namespace prdma::stats
