#include "sim/rng.hpp"

#include <bit>
#include <map>
#include <mutex>
#include <utility>

namespace prdma::sim {

double ZipfianGenerator::zeta(std::uint64_t n, double theta) {
  // Keyed on theta's bits: exact, and well-ordered even for NaN.
  const std::pair key{n, std::bit_cast<std::uint64_t>(theta)};
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, std::uint64_t>, double> memo;
  {
    const std::lock_guard lock(mu);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
  }
  // Summed outside the lock; a racing job computes the same value.
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  const std::lock_guard lock(mu);
  memo.emplace(key, sum);
  return sum;
}

}  // namespace prdma::sim
