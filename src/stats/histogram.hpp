#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace prdma::stats {

/// Log-linear latency histogram (HDR-histogram style).
///
/// Values below 2^kSubBits are recorded exactly; above that each power
/// of two is split into 2^kSubBits linear sub-buckets, bounding the
/// relative quantile error at 2^-kSubBits (~1.6%). Suitable for
/// nanosecond latencies spanning nine orders of magnitude.
///
/// Storage follows the samples, not the value range: occupied buckets
/// live in a sorted sparse array of (count, index) pairs, allocated
/// once at kSparseMaxBuckets entries on the first record. Only when a
/// record or merge would occupy more buckets than that does the
/// histogram switch to a dense array indexed by bucket (up to the
/// highest bucket seen). Every query returns the same value in either
/// representation.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSubCount = 1ull << kSubBits;  // 64
  /// Occupied buckets the sparse array holds before the histogram goes
  /// dense: 64 entries of 16 B (1 KiB), the size of a dense array that
  /// reaches only bucket 127, where a millisecond tail reaches ~1 150.
  static constexpr std::size_t kSparseMaxBuckets = 64;

  void record(std::uint64_t value);

  void merge(const LatencyHistogram& other);

  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }

  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Quantile in [0, 1]; e.g. percentile(0.99) is the p99 latency.
  /// Returns the representative (midpoint) value of the bucket holding
  /// the requested rank, clamped to the observed min/max.
  [[nodiscard]] std::uint64_t percentile(double q) const;

  [[nodiscard]] std::uint64_t p50() const { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p95() const { return percentile(0.95); }
  [[nodiscard]] std::uint64_t p99() const { return percentile(0.99); }

  /// True once the histogram has switched to the dense array. Exposed
  /// for tests.
  [[nodiscard]] bool dense() const { return !dense_.empty(); }
  /// Heap bytes held by the bucket storage. Exposed for tests.
  [[nodiscard]] std::size_t heap_bytes() const {
    return sparse_.capacity() * sizeof(Bucket) +
           dense_.capacity() * sizeof(std::uint64_t);
  }

  /// Maps a value to its bucket index. Exposed for tests.
  static std::size_t index_for(std::uint64_t v) {
    if (v < kSubCount) return static_cast<std::size_t>(v);
    const int msb = std::bit_width(v) - 1;  // >= kSubBits
    const int shift = msb - kSubBits;
    const std::uint64_t sub = v >> shift;  // in [kSubCount, 2*kSubCount)
    return static_cast<std::size_t>(shift) * kSubCount + sub;
  }

  /// Inclusive value range covered by bucket `idx`. Exposed for tests.
  static std::pair<std::uint64_t, std::uint64_t> bucket_range(std::size_t idx) {
    if (idx < kSubCount) return {idx, idx};
    const std::uint64_t shift = idx / kSubCount - 1;
    const std::uint64_t sub = idx - shift * kSubCount;  // in [kSubCount, 2k)
    const std::uint64_t lo = sub << shift;
    const std::uint64_t hi = lo + (1ull << shift) - 1;
    return {lo, hi};
  }

 private:
  struct Bucket {
    std::uint64_t count;
    std::uint32_t index;
  };

  /// Moves the sparse buckets into a dense array of at least `size`
  /// entries and releases the sparse array.
  void make_dense(std::size_t size);

  std::vector<Bucket> sparse_;  ///< sorted by index; empty once dense
  std::vector<std::uint64_t> dense_;  ///< per bucket; empty while sparse
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

}  // namespace prdma::stats
