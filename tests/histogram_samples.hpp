// Test helper shared by the serve suites: the samples of a sim::Histogram,
// which the histogram itself never hands out, so two runs' samples can be
// compared one by one.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/stats.hpp"

namespace nova::sim {

/// Every sample of `hist` in ascending order, read as the nearest-rank
/// percentile of each rank. Each rank is read half a rank below its upper
/// edge, so rounding cannot tip the ceil into the next rank. Quadratic in
/// the sample count, which stays in the hundreds in the tests.
inline std::vector<double> sorted_samples(const Histogram& hist) {
  const auto n = static_cast<double>(hist.count());
  std::vector<double> samples;
  for (std::uint64_t rank = 1; rank <= hist.count(); ++rank) {
    samples.push_back(
        hist.percentile(100.0 * (static_cast<double>(rank) - 0.5) / n));
  }
  return samples;
}

}  // namespace nova::sim
