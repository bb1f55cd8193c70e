#include "check/search.hpp"

#include <algorithm>

namespace prdma::check {

std::vector<sim::SimTime> sample_boundaries(
    const std::vector<sim::SimTime>& points, std::uint32_t cap) {
  if (points.size() <= cap) return points;
  if (cap == 1) return {points.front()};
  std::vector<sim::SimTime> out;
  out.reserve(cap);
  for (std::uint32_t i = 0; i < cap; ++i) {
    const std::size_t idx = (points.size() - 1) * i / (cap - 1);
    out.push_back(points[idx]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace prdma::check
