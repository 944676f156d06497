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
  const StatId a = stats.counter_id("noc.observations");
  const StatId b = stats.counter_id("noc.observations");
  EXPECT_EQ(a, b);
  const StatId other = stats.counter_id("noc.flits_injected");
  EXPECT_FALSE(a == other);
  // Interleaved interning does not disturb earlier handles.
  EXPECT_EQ(stats.counter_id("noc.observations"), a);
}

TEST(Stats, DenseAndStringFacesShareOneCounter) {
  StatRegistry stats;
  const StatId id = stats.counter_id("ops");
  stats.bump(id, 5);
  stats.bump("ops", 2);
  stats.bump(id);
  EXPECT_EQ(stats.counter("ops"), 8u);
  EXPECT_EQ(stats.counter(id), 8u);
  // A name first seen by the string face resolves to the same counter.
  stats.bump("late", 3);
  EXPECT_EQ(stats.counter(stats.counter_id("late")), 3u);
}

TEST(Stats, ToTableParityBetweenFaces) {
  StatRegistry by_string;
  by_string.bump("alpha", 3);
  by_string.bump("beta", 7);

  StatRegistry by_id;
  const StatId alpha = by_id.counter_id("alpha");
  const StatId beta = by_id.counter_id("beta");
  // Interned but never bumped: must not add a row.
  (void)by_id.counter_id("never_bumped");
  by_id.bump(alpha, 2);
  by_id.bump(alpha);
  by_id.bump(beta, 7);

  EXPECT_EQ(by_string.to_table().to_ascii(), by_id.to_table().to_ascii());
  EXPECT_EQ(by_id.to_table().to_ascii().find("never_bumped"),
            std::string::npos);
}

TEST(Stats, ClearZeroesCountersButKeepsIdsValid) {
  StatRegistry stats;
  const StatId id = stats.counter_id("x");
  stats.bump(id, 9);
  stats.clear();
  EXPECT_EQ(stats.counter(id), 0u);
  EXPECT_EQ(stats.counter("x"), 0u);
  stats.bump(id, 4);  // the handle survives the clear
  EXPECT_EQ(stats.counter("x"), 4u);
}

TEST(Stats, CountersAccumulate) {
  StatRegistry stats;
  stats.bump("flits");
  stats.bump("flits", 4);
  EXPECT_EQ(stats.counter("flits"), 5u);
  EXPECT_EQ(stats.counter("missing"), 0u);
}

TEST(Stats, AccumulatorsTrackMeanAndSum) {
  StatRegistry stats;
  stats.sample("latency", 2.0);
  stats.sample("latency", 4.0);
  EXPECT_DOUBLE_EQ(stats.mean("latency"), 3.0);
  EXPECT_DOUBLE_EQ(stats.sum("latency"), 6.0);
  EXPECT_EQ(stats.sample_count("latency"), 2u);
}

TEST(Stats, ClearResetsEverything) {
  StatRegistry stats;
  stats.bump("x");
  stats.sample("y", 1.0);
  stats.clear();
  EXPECT_EQ(stats.counter("x"), 0u);
  EXPECT_EQ(stats.sample_count("y"), 0u);
}

TEST(Stats, TableContainsAllEntries) {
  StatRegistry stats;
  stats.bump("alpha", 3);
  stats.sample("beta", 1.5);
  stats.histogram("gamma").record(2.0);
  const auto table = stats.to_table();
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("beta"), std::string::npos);
  EXPECT_NE(ascii.find("gamma (p99)"), std::string::npos);
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
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
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
      ASSERT_EQ(hist.min(), *std::min_element(recorded.begin(),
                                              recorded.end()))
          << label;
      ASSERT_EQ(hist.max(), *std::max_element(recorded.begin(),
                                              recorded.end()))
          << label;
    }
  }
}

TEST(Histogram, EmptyIsZero) {
  // The empty-histogram contract: all three order statistics (min, max,
  // percentile) and the moments return 0.0, consistently.
  const Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
}

TEST(Histogram, ClearRestoresEmptyContract) {
  Histogram hist;
  hist.record(4.0);
  hist.record(-2.0);
  hist.clear();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 0.0);
}

TEST(Histogram, RegistryClearDropsHistograms) {
  StatRegistry stats;
  stats.histogram("lat").record(3.0);
  EXPECT_NE(stats.find_histogram("lat"), nullptr);
  stats.clear();
  EXPECT_EQ(stats.find_histogram("lat"), nullptr);
}

}  // namespace
}  // namespace nova::sim
