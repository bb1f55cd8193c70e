#include "stats/histogram.hpp"

namespace prdma::stats {

namespace {

template <typename Buckets>
auto lower_bound_index(Buckets& b, std::size_t idx) {
  return std::lower_bound(
      b.begin(), b.end(), idx,
      [](const auto& e, std::size_t i) { return e.index < i; });
}

}  // namespace

void LatencyHistogram::make_dense(std::size_t size) {
  if (!sparse_.empty()) {
    size = std::max<std::size_t>(size, sparse_.back().index + 1);
  }
  dense_.assign(size, 0);
  for (const Bucket& b : sparse_) dense_[b.index] = b.count;
  sparse_ = {};
}

void LatencyHistogram::record(std::uint64_t value) {
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  const std::size_t idx = index_for(value);
  if (dense_.empty()) {
    // One allocation, sized to the threshold: doubling from one entry
    // would allocate seven times on the way to 64.
    if (sparse_.capacity() == 0) sparse_.reserve(kSparseMaxBuckets);
    const auto it = lower_bound_index(sparse_, idx);
    if (it != sparse_.end() && it->index == idx) {
      ++it->count;
      return;
    }
    if (sparse_.size() < kSparseMaxBuckets) {
      sparse_.insert(it, Bucket{1, static_cast<std::uint32_t>(idx)});
      return;
    }
    make_dense(idx + 1);
  }
  if (idx >= dense_.size()) dense_.resize(idx + 1, 0);
  ++dense_[idx];
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.dense()) {
    if (!dense()) make_dense(other.dense_.size());
    if (other.dense_.size() > dense_.size()) {
      dense_.resize(other.dense_.size(), 0);
    }
    for (std::size_t i = 0; i < other.dense_.size(); ++i) {
      dense_[i] += other.dense_[i];
    }
  } else if (dense()) {
    if (!other.sparse_.empty() &&
        other.sparse_.back().index >= dense_.size()) {
      dense_.resize(other.sparse_.back().index + 1, 0);
    }
    for (const Bucket& b : other.sparse_) dense_[b.index] += b.count;
  } else if (!other.sparse_.empty()) {
    // Both sparse: merge the two sorted arrays, then go dense if the
    // union outgrows the threshold.
    std::vector<Bucket> merged;
    merged.reserve(std::max(kSparseMaxBuckets,
                            sparse_.size() + other.sparse_.size()));
    auto a = sparse_.begin();
    auto b = other.sparse_.begin();
    while (a != sparse_.end() || b != other.sparse_.end()) {
      if (b == other.sparse_.end() ||
          (a != sparse_.end() && a->index < b->index)) {
        merged.push_back(*a++);
      } else if (a == sparse_.end() || b->index < a->index) {
        merged.push_back(*b++);
      } else {
        merged.push_back(Bucket{a->count + b->count, a->index});
        ++a;
        ++b;
      }
    }
    sparse_ = std::move(merged);
    if (sparse_.size() > kSparseMaxBuckets) make_dense(0);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::reset() {
  sparse_.clear();
  dense_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
}

std::uint64_t LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based, at least 1.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_) + 0.5);
  const std::uint64_t target = std::max<std::uint64_t>(1, rank);
  const auto value_of = [this](std::size_t idx) {
    const auto [lo, hi] = bucket_range(idx);
    const std::uint64_t mid = lo + (hi - lo) / 2;
    return std::clamp(mid, min_, max_);
  };
  std::uint64_t seen = 0;
  for (const Bucket& b : sparse_) {
    seen += b.count;
    if (seen >= target) return value_of(b.index);
  }
  for (std::size_t i = 0; i < dense_.size(); ++i) {
    seen += dense_[i];
    if (seen >= target) return value_of(i);
  }
  return max_;
}

}  // namespace prdma::stats
