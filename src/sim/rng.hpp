#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace prdma::sim {

/// Deterministic random source for one simulation.
///
/// A single Rng instance is threaded through every stochastic model in
/// a run (jitter, workload keys, failures); the seed is a benchmark
/// flag, so runs are fully reproducible. Never share an Rng between
/// host threads — parallel sweeps give each simulation its own.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Derives an independent child stream (e.g. one per client).
  [[nodiscard]] Rng fork() { return Rng(next_u64() ^ 0xD1B54A32D192ED03ull); }

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Exponential with the given mean (>0).
  double exponential(double mean) {
    assert(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Log-normal multiplicative jitter with median 1.0 and shape sigma;
  /// used to give software paths a realistic latency tail.
  double lognormal_jitter(double sigma) {
    if (sigma <= 0.0) return 1.0;
    return std::lognormal_distribution<double>(0.0, sigma)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Zipfian key-popularity generator (Gray et al., as used by YCSB).
///
/// Generates values in [0, n) where rank-0 items are the most popular.
/// theta=0.99 matches the paper's "zipfian distribution (99% skewness)".
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta) {
    assert(n > 0);
    zetan_ = zeta(n_, theta_);
    const double zeta2 = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
    half_pow_theta_ = std::pow(0.5, theta_);
  }

  std::uint64_t next(Rng& rng) const {
    const double u = rng.uniform01();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_theta_) return 1;
    const auto v = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return v >= n_ ? n_ - 1 : v;
  }

  [[nodiscard]] std::uint64_t range() const { return n_; }

 private:
  /// sum_{i=1..n} i^-theta. O(n), so it is memoised per (n, theta)
  /// for the whole process: every cell of a sweep builds a generator
  /// over the same key space. Safe to call from concurrent sweep jobs.
  static double zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double half_pow_theta_;  ///< 0.5^theta, the rank-1 threshold of next()
};

/// "Latest" distribution used by YCSB workload D: skews towards the
/// most recently inserted record.
class LatestGenerator {
 public:
  explicit LatestGenerator(std::uint64_t n, double theta = 0.99)
      : zipf_(n, theta), max_(n) {}

  /// Records that a new item was inserted (extends the key space).
  void grow() { ++max_; }

  std::uint64_t next(Rng& rng) const {
    // Rank-0 of the zipfian maps to the newest key.
    const std::uint64_t off = zipf_.next(rng) % max_;
    return max_ - 1 - off;
  }

  [[nodiscard]] std::uint64_t size() const { return max_; }

 private:
  ZipfianGenerator zipf_;
  std::uint64_t max_;
};

}  // namespace prdma::sim
