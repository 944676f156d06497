// Unit tests for the statistics registry and its histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/stats.hpp"

namespace nova::sim {
namespace {

TEST(Stats, CounterIdInterningIsIdempotent) {
  StatRegistry stats;
  const StatId a = stats.counter_id("serve.steps");
  const StatId b = stats.counter_id("serve.steps");
  EXPECT_EQ(a, b);
  const StatId other = stats.counter_id("serve.retries");
  EXPECT_FALSE(a == other);
  // Interleaved interning does not disturb earlier handles.
  EXPECT_EQ(stats.counter_id("serve.steps"), a);
}

TEST(Stats, CountersAccumulate) {
  StatRegistry stats;
  const StatId flits = stats.counter_id("flits");
  stats.bump(flits);
  stats.bump(flits, 4);
  EXPECT_EQ(stats.counter("flits"), 5u);
  EXPECT_EQ(stats.counter("missing"), 0u);
}

TEST(Stats, AccumulatorsTrackMeanAndSum) {
  StatRegistry stats;
  stats.accumulator("latency").add(2.0);
  stats.accumulator("latency").add(4.0);
  EXPECT_DOUBLE_EQ(stats.mean("latency"), 3.0);
  EXPECT_DOUBLE_EQ(stats.sum("latency"), 6.0);
  EXPECT_EQ(stats.sample_count("latency"), 2u);
}

TEST(Histogram, NearestRankPercentiles) {
  Histogram hist;
  for (int v = 1; v <= 100; ++v) hist.record(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(hist.percentile(95.0), 95.0);
  EXPECT_DOUBLE_EQ(hist.percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 100.0);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);
}

TEST(Histogram, RecordAfterQueryKeepsOrderCorrect) {
  Histogram hist;
  hist.record(5.0);
  hist.record(1.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 5.0);
  hist.record(9.0);  // appended after a selection reordered the samples
  hist.record(0.5);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 9.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.5);
}

/// Nearest-rank percentile through a full sort of a copy: the reference
/// Histogram::percentile's selection must agree with.
double sorted_percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

TEST(Histogram, PercentilesMatchASortedCopyOnSeededSamples) {
  // Seeded samples, most drawn from a few integers (ties) and the rest
  // uniform, recorded in rounds with every query in between: each round
  // asks for every p in a seeded rotation, after earlier selections have
  // reordered the samples, and must read what a sorted copy holds at the
  // nearest rank.
  const double ps[] = {0.0, 0.1, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0};
  constexpr std::size_t kPs = std::size(ps);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Histogram hist;
    std::vector<double> recorded;
    const std::uint64_t distinct = 1 + rng.next_below(40);
    const auto rounds = 1 + rng.next_below(5);
    for (std::uint64_t round = 0; round < rounds; ++round) {
      const auto n = 1 + rng.next_below(3000);
      for (std::uint64_t k = 0; k < n; ++k) {
        const double value =
            rng.next_below(4) == 0
                ? rng.uniform(-1e3, 1e3)
                : static_cast<double>(rng.next_below(distinct));
        hist.record(value);
        recorded.push_back(value);
      }
      const std::string label =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const auto offset = rng.next_below(kPs);
      for (std::size_t q = 0; q < kPs; ++q) {
        const double p = ps[(q + offset) % kPs];
        ASSERT_EQ(hist.percentile(p), sorted_percentile(recorded, p))
            << label << " p" << p;
      }
      ASSERT_EQ(hist.count(), recorded.size()) << label;
      ASSERT_EQ(hist.max(), *std::max_element(recorded.begin(),
                                              recorded.end()))
          << label;
    }
  }
}

TEST(Histogram, EmptyIsZero) {
  // The empty-histogram contract: both order statistics (max, percentile)
  // and the moments return 0.0, consistently.
  const Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
}

}  // namespace
}  // namespace nova::sim
