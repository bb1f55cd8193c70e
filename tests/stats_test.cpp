// Tests for the statistics library: log-linear histogram quantiles,
// Welford summaries and latency breakdowns.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "stats/breakdown.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace prdma::stats {
namespace {

// ------------------------------------------------------------- Histogram

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.99), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.percentile(0.5), 31u);  // exact buckets below 64
}

TEST(Histogram, SingleValueAllQuantiles) {
  LatencyHistogram h;
  h.record(1000);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(q), 1000u) << q;
  }
  EXPECT_EQ(h.mean(), 1000.0);
}

TEST(Histogram, IndexRangeRoundTrip) {
  // Property: every value must fall inside its own bucket's range.
  std::mt19937_64 gen(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = gen() >> (gen() % 40);  // spread magnitudes
    const std::size_t idx = LatencyHistogram::index_for(v);
    const auto [lo, hi] = LatencyHistogram::bucket_range(idx);
    EXPECT_LE(lo, v);
    EXPECT_GE(hi, v);
    EXPECT_LE(static_cast<double>(hi - lo),
              std::max(1.0, static_cast<double>(v) / 32.0))
        << "bucket too wide for v=" << v;
  }
}

TEST(Histogram, QuantilesAreMonotonic) {
  LatencyHistogram h;
  std::mt19937_64 gen(11);
  std::lognormal_distribution<double> dist(8.0, 1.5);
  for (int i = 0; i < 100000; ++i) {
    h.record(static_cast<std::uint64_t>(dist(gen)));
  }
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const auto cur = h.percentile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Histogram, QuantileErrorBounded) {
  // Against a known uniform distribution the p50/p90/p99 must be within
  // the histogram's ~1.6% relative error plus sampling noise.
  LatencyHistogram h;
  std::mt19937_64 gen(3);
  std::uniform_int_distribution<std::uint64_t> dist(1, 1'000'000);
  std::vector<std::uint64_t> all;
  for (int i = 0; i < 200000; ++i) {
    const auto v = dist(gen);
    h.record(v);
    all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  for (double q : {0.50, 0.90, 0.99}) {
    const auto exact = all[static_cast<std::size_t>(q * (all.size() - 1))];
    const auto est = h.percentile(q);
    const double rel = std::abs(static_cast<double>(est) -
                                static_cast<double>(exact)) /
                       static_cast<double>(exact);
    EXPECT_LT(rel, 0.03) << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  std::mt19937_64 gen(5);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = gen() % 1000000;
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.mean(), both.mean());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.percentile(q), both.percentile(q));
  }
}

TEST(Histogram, ResetClearsEverything) {
  LatencyHistogram h;
  h.record(5);
  h.record(500000);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  h.record(10);
  EXPECT_EQ(h.percentile(0.5), 10u);
}

TEST(Histogram, PercentileClampedToObservedRange) {
  LatencyHistogram h;
  h.record(1'000'003);  // lands mid-bucket
  EXPECT_EQ(h.percentile(1.0), 1'000'003u);
  EXPECT_EQ(h.percentile(0.0), 1'000'003u);
}

// --------------------------------------------------------------- Summary

TEST(Summary, MatchesDirectComputation) {
  Summary s;
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (double x : xs) s.record(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_NEAR(s.variance(), 9.1666667, 1e-6);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
}

TEST(Summary, MergeMatchesCombined) {
  Summary a;
  Summary b;
  Summary both;
  std::mt19937_64 gen(9);
  std::normal_distribution<double> dist(100.0, 15.0);
  for (int i = 0; i < 2000; ++i) {
    const double x = dist(gen);
    (i % 3 == 0 ? a : b).record(x);
    both.record(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_NEAR(a.mean(), both.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), both.variance(), 1e-6);
}

TEST(Summary, MergeWithEmptySides) {
  Summary a;
  Summary b;
  b.record(4.0);
  a.merge(b);  // empty += nonempty
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.mean(), 4.0);
  Summary c;
  a.merge(c);  // nonempty += empty
  EXPECT_EQ(a.count(), 1u);
}

// ------------------------------------------------------------- Breakdown

using trace::Component;

TEST(Breakdown, SharesSumToOne) {
  SpanBreakdown bd;
  bd.add(Component::kSenderSw, 100);
  bd.add(Component::kRtt, 700);
  bd.add(Component::kReceiverSw, 200);
  EXPECT_DOUBLE_EQ(bd.share(Component::kSenderSw) + bd.share(Component::kRtt) +
                       bd.share(Component::kReceiverSw),
                   1.0);
  EXPECT_DOUBLE_EQ(bd.share(Component::kRtt), 0.7);
  EXPECT_DOUBLE_EQ(bd.share(Component::kWorker), 0.0);
  EXPECT_EQ(bd.total_ns(), 1000u);
}

TEST(Breakdown, MeanPerOperation) {
  SpanBreakdown bd;
  bd.add(Component::kRtt, 100);
  bd.add(Component::kRtt, 300);
  EXPECT_DOUBLE_EQ(bd.mean_ns(Component::kRtt, 2), 200.0);
  EXPECT_DOUBLE_EQ(bd.mean_ns(Component::kWorker, 2), 0.0);
  EXPECT_DOUBLE_EQ(bd.mean_ns(Component::kRtt, 0), 0.0);
}

TEST(Breakdown, MergeAccumulates) {
  SpanBreakdown a;
  SpanBreakdown b;
  a.add(Component::kRtt, 10);
  b.add(Component::kRtt, 20);
  b.add(Component::kSenderSw, 5);
  b.add_total(trace::to_id(Component::kWorker), 0, 0);
  a.merge(b);
  // Slot by slot: totals and sample counts add per component.
  EXPECT_EQ(a.total_ns(), 35u);
  EXPECT_DOUBLE_EQ(a.mean_ns(Component::kRtt, 1), 30.0);
  EXPECT_EQ(a.samples(trace::to_id(Component::kRtt)), 2u);
  EXPECT_DOUBLE_EQ(a.mean_ns(Component::kSenderSw, 1), 5.0);
  EXPECT_EQ(a.samples(trace::to_id(Component::kSenderSw)), 1u);
  EXPECT_EQ(a.total_samples(), 3u);
  std::vector<trace::ComponentId> populated;
  for (trace::ComponentId id = 0; id < trace::kPredefinedComponents; ++id) {
    if (a.populated(id)) populated.push_back(id);
  }
  EXPECT_EQ(populated, (std::vector<trace::ComponentId>{
                           trace::to_id(Component::kSenderSw),
                           trace::to_id(Component::kRtt)}));
  a.reset();
  EXPECT_EQ(a.total_ns(), 0u);
  EXPECT_FALSE(a.populated(trace::to_id(Component::kRtt)));
}

}  // namespace
}  // namespace prdma::stats
