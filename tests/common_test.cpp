// Unit tests for the common substrate: fixed-point arithmetic (pinned
// against int64 reference formulas), RNG determinism, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace nova {
namespace {

TEST(FixedPoint, RoundTripsValuesWithinResolution) {
  for (double v = -30.0; v <= 30.0; v += 0.37) {
    const auto q = Word16::from_double(v);
    EXPECT_NEAR(q.to_double(), v, Word16::resolution() / 2.0 + 1e-12);
  }
}

TEST(FixedPoint, SaturatesInsteadOfWrapping) {
  const auto big = Word16::from_double(1.0e9);
  EXPECT_DOUBLE_EQ(big.to_double(), Word16::max_value());
  const auto small = Word16::from_double(-1.0e9);
  EXPECT_DOUBLE_EQ(small.to_double(), Word16::min_value());
  // Adding at the rail stays at the rail.
  EXPECT_DOUBLE_EQ((big + big).to_double(), Word16::max_value());
}

TEST(FixedPoint, MacMatchesDoubleWithinQuantization) {
  const auto a = Word16::from_double(0.731);
  const auto x = Word16::from_double(-2.5);
  const auto b = Word16::from_double(1.125);
  const double expect = a.to_double() * x.to_double() + b.to_double();
  EXPECT_NEAR(Word16::mac(a, x, b).to_double(), expect, Word16::resolution());
}

TEST(FixedPoint, MultiplicationRoundsToNearest) {
  const auto half = Word16::from_double(0.5);
  const auto quarter = Word16::from_double(0.25);
  EXPECT_DOUBLE_EQ((half * quarter).to_double(), 0.125);
}

TEST(FixedPoint, NegationIsExactInsideRange) {
  const auto v = Word16::from_double(3.75);
  EXPECT_DOUBLE_EQ((-v).to_double(), -3.75);
}

// Reference Q6.10 quantizer and MAC, computed in int64 exactly as the link
// datapath is specified: round half away from zero, then saturate.
std::int64_t reference_from_double(double v) {
  const double scaled = v * 1024.0;
  const double rounded = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(rounded), -32768,
                                  32767);
}

std::int64_t reference_mac(std::int64_t a, std::int64_t x, std::int64_t b) {
  const std::int64_t sum = a * x + b * 1024;
  const std::int64_t shifted =
      sum >= 0 ? (sum + 512) >> 10 : -((-sum + 512) >> 10);
  return std::clamp<std::int64_t>(shifted, -32768, 32767);
}

TEST(FixedPoint, FromDoubleMatchesInt64Reference) {
  std::vector<double> probes = {0.0,    -0.0,   1e9,     -1e9,   32.0,
                                -32.0,  31.9995, -31.9995, 31.99951171875,
                                -32.00048828125};
  // Exact ties on the 2^-10 grid, both signs, across the whole range.
  for (int k = -32800; k <= 32800; k += 7) {
    probes.push_back((k + 0.5) / 1024.0);
    probes.push_back(k / 1024.0);
  }
  Rng rng(2024);
  for (int i = 0; i < 100000; ++i) probes.push_back(rng.uniform(-40.0, 40.0));
  for (const double v : probes) {
    ASSERT_EQ(Word16::from_double(v).raw(), reference_from_double(v))
        << "v=" << v;
  }
  EXPECT_EQ(Word16::from_double((2.0 + 0.5) / 1024.0).raw(), 3);
  EXPECT_EQ(Word16::from_double(-(2.0 + 0.5) / 1024.0).raw(), -3);
}

TEST(FixedPoint, MacMatchesInt64Reference) {
  const auto check = [](std::int64_t a, std::int64_t x, std::int64_t b) {
    const Word16 got = Word16::mac(Word16::from_raw(a), Word16::from_raw(x),
                                   Word16::from_raw(b));
    return got.raw() == reference_mac(a, x, b);
  };
  // Every triple of int16 extremes and rounding-sensitive values.
  const std::int64_t edges[] = {-32768, -32767, -16384, -1025, -1024, -513,
                                -512,   -511,   -1,     0,      1,     511,
                                512,    513,    1023,   1024,   16383, 32766,
                                32767};
  for (const auto a : edges) {
    for (const auto x : edges) {
      for (const auto b : edges) {
        ASSERT_TRUE(check(a, x, b)) << a << " * " << x << " + " << b;
      }
    }
  }
  Rng rng(0x3ac);
  for (int i = 0; i < 1000000; ++i) {
    const auto a = static_cast<std::int64_t>(rng.next_below(65536)) - 32768;
    const auto x = static_cast<std::int64_t>(rng.next_below(65536)) - 32768;
    const auto b = static_cast<std::int64_t>(rng.next_below(65536)) - 32768;
    ASSERT_TRUE(check(a, x, b)) << a << " * " << x << " + " << b;
  }
}

TEST(Rng, IsDeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalHasRoughlyUnitMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Table, RendersAlignedAsciiWithHeader) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("demo"), std::string::npos);
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("22"), std::string::npos);
}

TEST(Table, CsvHasOneLinePerRowPlusHeader) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  const std::string csv = t.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(Table, NumFormatsWithRequestedPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace nova
