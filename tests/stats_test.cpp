// Tests for the statistics library: log-linear histogram quantiles,
// Welford summaries and latency breakdowns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
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

// ----------------------------------------- Histogram vs dense reference

/// The histogram as it was before it kept occupied buckets sparse: one
/// dense counter per bucket up to the highest bucket seen. Every query
/// of LatencyHistogram must return exactly what this returns.
class DenseReference {
 public:
  void record(std::uint64_t value) {
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    const std::size_t idx = LatencyHistogram::index_for(value);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
  }
  void merge(const DenseReference& other) {
    if (other.buckets_.size() > buckets_.size()) {
      buckets_.resize(other.buckets_.size(), 0);
    }
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  void reset() { *this = DenseReference{}; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_) + 0.5);
    const std::uint64_t target = std::max<std::uint64_t>(1, rank);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= target) {
        const auto [lo, hi] = LatencyHistogram::bucket_range(i);
        return std::clamp(lo + (hi - lo) / 2, min_, max_);
      }
    }
    return max_;
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

/// A histogram and its reference, fed the same stream.
struct HistPair {
  LatencyHistogram h;
  DenseReference ref;
  void record(std::uint64_t v) {
    h.record(v);
    ref.record(v);
  }
  void merge(const HistPair& other) {
    h.merge(other.h);
    ref.merge(other.ref);
  }
};

/// Compares every query, at a fixed quantile grid and at every rank.
void expect_same(const HistPair& p, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(p.h.count(), p.ref.count());
  EXPECT_EQ(p.h.sum(), p.ref.sum());
  EXPECT_EQ(p.h.min(), p.ref.min());
  EXPECT_EQ(p.h.max(), p.ref.max());
  for (int i = 0; i <= 200; ++i) {
    const double q = i / 200.0;
    ASSERT_EQ(p.h.percentile(q), p.ref.percentile(q)) << "q=" << q;
  }
  const std::uint64_t n = p.h.count();
  for (std::uint64_t r = 1; r <= std::min<std::uint64_t>(n, 4096); ++r) {
    const double q = static_cast<double>(r) / static_cast<double>(n);
    ASSERT_EQ(p.h.percentile(q), p.ref.percentile(q)) << "rank " << r;
  }
}

/// Values from a log-uniform spread over [0, 2^bits): many buckets.
std::uint64_t wide_value(std::mt19937_64& gen, int bits) {
  const int b = static_cast<int>(gen() % static_cast<std::uint64_t>(bits));
  return b == 0 ? 0 : gen() >> (64 - b);
}

TEST(HistogramDifferential, RandomStreamsMatchTheDenseReference) {
  std::mt19937_64 gen(11);
  for (int trial = 0; trial < 60; ++trial) {
    HistPair p;
    // Stream lengths straddle the sparse threshold in occupied buckets.
    const int n = 1 + static_cast<int>(gen() % 400);
    const int bits = 1 + static_cast<int>(gen() % 63);
    for (int i = 0; i < n; ++i) {
      p.record(trial % 3 == 0 ? 8'000'000 + gen() % 2'000'000
                              : wide_value(gen, bits));
    }
    expect_same(p, "trial " + std::to_string(trial));
  }
}

TEST(HistogramDifferential, EdgeValuesMatchTheDenseReference) {
  const std::uint64_t top = 1ull << 63;
  const std::vector<std::uint64_t> edges = {
      0, 1, 62, 63, 64, 65, 127, 128, top - 1, top, top + 1,
      UINT64_MAX - 1, UINT64_MAX};
  HistPair p;
  for (const std::uint64_t v : edges) {
    p.record(v);
    expect_same(p, "after " + std::to_string(v));
  }
  // The same values in reverse order insert at the sparse array's head.
  HistPair rev;
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) rev.record(*it);
  expect_same(rev, "reverse");
  // Exactly kSparseMaxBuckets occupied buckets stays sparse; one more
  // bucket goes dense.
  HistPair fill;
  for (std::uint64_t v = 0; v < LatencyHistogram::kSparseMaxBuckets; ++v) {
    fill.record(v);
    fill.record(v);
  }
  EXPECT_FALSE(fill.h.dense());
  expect_same(fill, "full sparse");
  fill.record(top);
  EXPECT_TRUE(fill.h.dense());
  expect_same(fill, "first dense");
  fill.record(0);
  expect_same(fill, "dense repeat");
}

TEST(HistogramDifferential, MergeAcrossRepresentationsMatches) {
  // Histograms with few and with many occupied buckets: every
  // combination of sparse and dense on both sides, plus empty sides.
  const auto make = [](std::uint64_t seed, int distinct) {
    HistPair p;
    std::mt19937_64 gen(seed);
    for (int i = 0; i < distinct; ++i) {
      p.record(static_cast<std::uint64_t>(i) * 997 + gen() % 50);
      p.record(wide_value(gen, distinct > 64 ? 40 : 20));
    }
    return p;
  };
  const std::vector<int> sizes = {0, 1, 20, 40, 200};
  for (const int a : sizes) {
    for (const int b : sizes) {
      HistPair x = make(static_cast<std::uint64_t>(a * 31 + b), a);
      const HistPair y = make(static_cast<std::uint64_t>(b * 17 + a + 1), b);
      const bool x_dense = x.h.dense();
      x.merge(y);
      expect_same(x, "merge " + std::to_string(a) + "+" + std::to_string(b) +
                         (x_dense ? " (dense)" : " (sparse)"));
    }
  }
  // Self-merge doubles every bucket, in either representation.
  for (const int a : {20, 200}) {
    HistPair x = make(99, a);
    x.h.merge(x.h);
    x.ref.merge(x.ref);
    expect_same(x, "self merge " + std::to_string(a));
  }
}

TEST(HistogramDifferential, ResetThenRecordMatches) {
  for (const int distinct : {10, 300}) {
    HistPair p;
    std::mt19937_64 gen(static_cast<std::uint64_t>(distinct));
    for (int i = 0; i < distinct; ++i) p.record(wide_value(gen, 50));
    p.h.reset();
    p.ref.reset();
    EXPECT_FALSE(p.h.dense());
    expect_same(p, "reset");
    for (int i = 0; i < 30; ++i) p.record(wide_value(gen, 30));
    expect_same(p, "after reset " + std::to_string(distinct));
  }
}

TEST(Histogram, SixtyFourSamplesHoldAtMostOneKiB) {
  // rack512's pool histograms hold at most 64 samples each, spread
  // over a millisecond tail (bucket ~1 150: 9 KiB as a dense array).
  LatencyHistogram h;
  std::mt19937_64 gen(3);
  for (int i = 0; i < 64; ++i) h.record(1'000 + gen() % 8'000'000);
  EXPECT_FALSE(h.dense());
  EXPECT_LE(h.heap_bytes(), 1024u);
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
