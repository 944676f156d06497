// Tests for the approximation substrate: exact functions, PWL tables,
// fitters (uniform / adaptive / MLP), fixed-point evaluation, and the
// NN-LUT-style softmax/GeLU vector operators.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "approx/fit.hpp"
#include "approx/functions.hpp"
#include "approx/interp.hpp"
#include "approx/mlp_fitter.hpp"
#include "approx/softmax.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"

namespace nova::approx {
namespace {

TEST(Functions, ExactValuesMatchClosedForms) {
  EXPECT_NEAR(eval_exact(NonLinearFn::kExp, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kTanh, 100.0), 1.0, 1e-9);
  EXPECT_NEAR(eval_exact(NonLinearFn::kGelu, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kGelu, 10.0), 10.0, 1e-6);
  EXPECT_NEAR(eval_exact(NonLinearFn::kReciprocal, 4.0), 0.25, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kRsqrt, 4.0), 0.5, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kSilu, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kSoftplus, 0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kErf, 0.0), 0.0, 1e-12);
}

TEST(Functions, DomainsAreNonEmptyAndOrdered) {
  for (const auto fn :
       {NonLinearFn::kExp, NonLinearFn::kReciprocal, NonLinearFn::kGelu,
        NonLinearFn::kTanh, NonLinearFn::kSigmoid, NonLinearFn::kErf,
        NonLinearFn::kSilu, NonLinearFn::kSoftplus, NonLinearFn::kRsqrt}) {
    const Domain d = default_domain(fn);
    EXPECT_LT(d.lo, d.hi) << to_string(fn);
  }
}

TEST(PwlTable, LookupAddressPartitionsTheDomain) {
  const PwlTable table = fit_uniform(NonLinearFn::kTanh, 8);
  const Domain d = table.domain();
  int prev = -1;
  for (int k = 0; k <= 200; ++k) {
    const double x = d.lo + d.width() * k / 200.0;
    const int addr = table.lookup_address(x);
    EXPECT_GE(addr, 0);
    EXPECT_LT(addr, table.breakpoints());
    EXPECT_GE(addr, prev);  // addresses are monotone in x
    prev = addr;
  }
}

TEST(PwlTable, AddressesSaturateOutsideDomain) {
  const PwlTable table = fit_uniform(NonLinearFn::kSigmoid, 16);
  EXPECT_EQ(table.lookup_address(-1e9), 0);
  EXPECT_EQ(table.lookup_address(1e9), 15);
}

TEST(PwlTable, QuantizedLookupMatchesDoubleDomainLookup) {
  // The Word16 overload (pre-scaled integer boundaries, no fixed-point ->
  // double round trip) must agree with the double path on every one of the
  // 65,536 link words, for uniform and adaptive boundaries and for a table
  // whose boundaries lie beyond the Word16 range on both sides.
  std::vector<PwlTable> tables;
  for (const auto fn :
       {NonLinearFn::kGelu, NonLinearFn::kExp, NonLinearFn::kTanh,
        NonLinearFn::kRsqrt}) {
    for (const int breakpoints : {8, 16, 32, 64}) {
      tables.push_back(fit_uniform(fn, breakpoints));
      tables.push_back(fit_adaptive(fn, breakpoints));
    }
  }
  tables.emplace_back(NonLinearFn::kGelu, Domain{-64.0, 64.0},
                      std::vector<double>{-1e12, -40.0, -0.5, 0.0, 0.25,
                                          40.0, 1e12},
                      std::vector<double>(8, 0.5), std::vector<double>(8, 0.0));
  for (const PwlTable& table : tables) {
    int mismatches = 0;
    for (std::int32_t raw = -32768; raw <= 32767; ++raw) {
      const Word16 xq = Word16::from_raw(raw);
      if (table.lookup_address(xq) != table.lookup_address(xq.to_double()) &&
          mismatches++ == 0) {
        ADD_FAILURE() << table.label() << " bp=" << table.breakpoints()
                      << " first mismatch at raw " << raw;
      }
    }
    EXPECT_EQ(mismatches, 0) << table.label() << " bp="
                             << table.breakpoints();
  }
}

TEST(PwlTable, EvalIsContinuousEnoughAtBoundaries) {
  // Least-squares pieces are discontinuous at boundaries, but for smooth
  // functions with 16 segments the jump must be small.
  const PwlTable table = fit_uniform(NonLinearFn::kGelu, 16);
  for (const double b : table.boundaries()) {
    const double left = table.eval(b - 1e-9);
    const double right = table.eval(b + 1e-9);
    EXPECT_NEAR(left, right, 0.08);
  }
}

struct FitCase {
  NonLinearFn fn;
  int breakpoints;
  double tolerance;  // max-abs-error bound for the MLP fit
};

class MlpFitQuality : public ::testing::TestWithParam<FitCase> {};

TEST_P(MlpFitQuality, MaxErrorWithinTolerance) {
  const auto [fn, breakpoints, tolerance] = GetParam();
  const PwlTable table = fit_mlp(fn, breakpoints);
  EXPECT_EQ(table.breakpoints(), breakpoints);
  EXPECT_LT(table.max_abs_error(), tolerance) << to_string(fn);
}

INSTANTIATE_TEST_SUITE_P(
    PaperFunctions, MlpFitQuality,
    ::testing::Values(FitCase{NonLinearFn::kExp, 16, 0.03},
                      FitCase{NonLinearFn::kGelu, 16, 0.03},
                      FitCase{NonLinearFn::kTanh, 16, 0.03},
                      FitCase{NonLinearFn::kSigmoid, 16, 0.02},
                      FitCase{NonLinearFn::kReciprocal, 16, 0.03},
                      FitCase{NonLinearFn::kErf, 16, 0.03},
                      FitCase{NonLinearFn::kSilu, 16, 0.05},
                      FitCase{NonLinearFn::kExp, 8, 0.08},
                      FitCase{NonLinearFn::kGelu, 8, 0.08}));

class FitterComparison : public ::testing::TestWithParam<NonLinearFn> {};

TEST_P(FitterComparison, AdaptiveBeatsOrMatchesUniform) {
  const NonLinearFn fn = GetParam();
  const double uniform_err = fit_uniform(fn, 16).max_abs_error();
  const double adaptive_err = fit_adaptive(fn, 16).max_abs_error();
  EXPECT_LE(adaptive_err, uniform_err * 1.10) << to_string(fn);
}

TEST_P(FitterComparison, MoreBreakpointsNeverHurt) {
  const NonLinearFn fn = GetParam();
  const double err8 = fit_uniform(fn, 8).max_abs_error();
  const double err32 = fit_uniform(fn, 32).max_abs_error();
  EXPECT_LE(err32, err8);
}

INSTANTIATE_TEST_SUITE_P(AcrossFunctions, FitterComparison,
                         ::testing::Values(NonLinearFn::kExp,
                                           NonLinearFn::kGelu,
                                           NonLinearFn::kTanh,
                                           NonLinearFn::kSigmoid,
                                           NonLinearFn::kErf));

TEST(MlpFitter, TrainingIsDeterministicForFixedSeed) {
  const PwlTable a = fit_mlp(NonLinearFn::kTanh, 8);
  const PwlTable b = fit_mlp(NonLinearFn::kTanh, 8);
  ASSERT_EQ(a.breakpoints(), b.breakpoints());
  for (int i = 0; i < a.breakpoints(); ++i) {
    EXPECT_DOUBLE_EQ(a.slopes()[static_cast<std::size_t>(i)],
                     b.slopes()[static_cast<std::size_t>(i)]);
  }
}

// Bit-level pins of the trained tables. Service cycles do not depend on
// table values, so no serve fingerprint would notice a changed bit here:
// these pins and the dense-reference suite below are the trainer's guard.

/// 64-bit FNV-1a over the bit patterns of a table's boundaries, slopes and
/// biases, in that order.
std::uint64_t table_hash(const PwlTable& table) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto* values :
       {&table.boundaries(), &table.slopes(), &table.biases()}) {
    for (const double value : *values) {
      const auto word = std::bit_cast<std::uint64_t>(value);
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xffU;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

struct MlpPin {
  NonLinearFn fn;
  int breakpoints;
  std::uint64_t pinned;
};

void PrintTo(const MlpPin& pin, std::ostream* os) {
  *os << to_string(pin.fn) << pin.breakpoints;
}

std::string mlp_pin_name(const ::testing::TestParamInfo<MlpPin>& info) {
  return std::string(to_string(info.param.fn)) +
         std::to_string(info.param.breakpoints);
}

class MlpGolden : public ::testing::TestWithParam<MlpPin> {};

TEST_P(MlpGolden, DefaultOptionsTableMatchesPinnedBits) {
  // fit_mlp with default options, hashed bit for bit. A change meant only
  // to make training faster must leave every pin as is; reassociating one
  // gradient product (g*v*x as g*(v*x)) already moves most of them.
  const MlpPin& pin = GetParam();
  const std::uint64_t hash = table_hash(fit_mlp(pin.fn, pin.breakpoints));
  EXPECT_EQ(hash, pin.pinned) << "table hash 0x" << std::hex << hash;
}

TEST_P(MlpGolden, PerUnitKernelTableMatchesPinnedBits) {
  // The same pins through the portable kernel, which fit_mlp runs only on
  // CPUs without AVX2, so that every host checks both kernels.
  const MlpPin& pin = GetParam();
  const PwlTable table = detail::fit_mlp(
      detail::MlpKernel::kPerUnit,
      [fn = pin.fn](double x) { return eval_exact(fn, x); },
      to_string(pin.fn), pin.breakpoints, default_domain(pin.fn));
  const std::uint64_t hash = table_hash(table);
  EXPECT_EQ(hash, pin.pinned) << "table hash 0x" << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, MlpGolden,
    ::testing::Values(
        MlpPin{NonLinearFn::kExp, 16, 0xb65fa8b657369581ULL},
        MlpPin{NonLinearFn::kReciprocal, 16, 0x748b9084e62d69d3ULL},
        MlpPin{NonLinearFn::kGelu, 16, 0xf8901abcd7f1cba5ULL},
        MlpPin{NonLinearFn::kTanh, 16, 0x73ae69ad8b5970bbULL},
        MlpPin{NonLinearFn::kSigmoid, 16, 0xaa63498913da5487ULL},
        MlpPin{NonLinearFn::kErf, 16, 0xbf3287f6f80164bcULL},
        MlpPin{NonLinearFn::kSilu, 16, 0x69da4d4ff1046079ULL},
        MlpPin{NonLinearFn::kSoftplus, 16, 0xb8424384d2df0d44ULL},
        MlpPin{NonLinearFn::kRsqrt, 16, 0x92ee45b79384504aULL},
        MlpPin{NonLinearFn::kExp, 4, 0xd4a3266e4ab23ee4ULL},
        MlpPin{NonLinearFn::kExp, 8, 0xb3e4f97b1978e842ULL},
        MlpPin{NonLinearFn::kExp, 32, 0x1298e800d2a27f8eULL},
        MlpPin{NonLinearFn::kExp, 64, 0x8db2900a2671ec43ULL},
        MlpPin{NonLinearFn::kGelu, 4, 0xc3c0fd1b37995479ULL},
        MlpPin{NonLinearFn::kGelu, 8, 0x3515efaf5165313dULL},
        MlpPin{NonLinearFn::kGelu, 32, 0xb8d7b0022376c1caULL},
        MlpPin{NonLinearFn::kGelu, 64, 0x73501f2d5c7b9f8eULL},
        MlpPin{NonLinearFn::kReciprocal, 4, 0xd9b9400668b8baf7ULL},
        MlpPin{NonLinearFn::kReciprocal, 8, 0x654c5cd05b51812fULL},
        MlpPin{NonLinearFn::kReciprocal, 32, 0xced801d7acc12db2ULL},
        MlpPin{NonLinearFn::kReciprocal, 64, 0xd3b6419b70cb9399ULL},
        // Hidden widths 1, 2, 4, 5, 8, 16 and 32 (breakpoints - 1): a lone
        // unit, and below, at and one past whole blocks of four units.
        MlpPin{NonLinearFn::kSigmoid, 2, 0x50babe0fe88e2905ULL},
        MlpPin{NonLinearFn::kSigmoid, 3, 0xd947d82c61c814c0ULL},
        MlpPin{NonLinearFn::kSigmoid, 5, 0xa9f66937aeca697dULL},
        MlpPin{NonLinearFn::kSigmoid, 6, 0xafda14ac3ac0609bULL},
        MlpPin{NonLinearFn::kSigmoid, 9, 0xf10308eda710be0aULL},
        MlpPin{NonLinearFn::kSigmoid, 17, 0x910afb9ac90b52deULL},
        MlpPin{NonLinearFn::kSigmoid, 33, 0xc4735aba579eed86ULL},
        MlpPin{NonLinearFn::kTanh, 2, 0x6d59336175a254d6ULL},
        MlpPin{NonLinearFn::kTanh, 3, 0xc36c08ce6242072bULL},
        MlpPin{NonLinearFn::kTanh, 5, 0xfd6438b6a81af5bbULL},
        MlpPin{NonLinearFn::kTanh, 6, 0x39d971a627a050a1ULL},
        MlpPin{NonLinearFn::kTanh, 9, 0x33a9f097df55643bULL},
        MlpPin{NonLinearFn::kTanh, 17, 0xa80ab1db5772f937ULL},
        MlpPin{NonLinearFn::kTanh, 33, 0x42620a22c2e9afe6ULL}),
    mlp_pin_name);

// The dense reference trainer: every sample, and inside that every unit
// behind a data-dependent branch. Kept verbatim (plus a count of
// unit-iterations with w <= 0) so the suite below can demand that
// fit_mlp's per-unit runs of active samples give the same bits.
namespace dense {

struct Mlp {
  std::vector<double> w, c, v;
  double gamma = 0.0;
  double beta = 0.0;

  [[nodiscard]] double forward(double x) const {
    double y = gamma * x + beta;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double h = w[i] * x + c[i];
      if (h > 0.0) y += v[i] * h;
    }
    return y;
  }
};

struct Adam {
  std::vector<double> m, s;
  double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  int t = 0;

  explicit Adam(std::size_t n) : m(n, 0.0), s(n, 0.0) {}

  void step(std::vector<double>& param, const std::vector<double>& grad,
            double lr) {
    ++t;
    const double bc1 = 1.0 - std::pow(beta1, t);
    const double bc2 = 1.0 - std::pow(beta2, t);
    for (std::size_t i = 0; i < param.size(); ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
      s[i] = beta2 * s[i] + (1.0 - beta2) * grad[i] * grad[i];
      param[i] -= lr * (m[i] / bc1) / (std::sqrt(s[i] / bc2) + eps);
    }
  }
};

struct Pieces {
  std::vector<double> bounds, slopes, biases;
};

Pieces extract_pieces(const Mlp& net, Domain domain, int breakpoints) {
  const int hidden = breakpoints - 1;
  std::vector<double> kinks;
  kinks.reserve(net.w.size());
  for (std::size_t i = 0; i < net.w.size(); ++i) {
    if (std::abs(net.w[i]) < 1e-12) continue;
    const double kink = -net.c[i] / net.w[i];
    if (kink > domain.lo && kink < domain.hi) kinks.push_back(kink);
  }
  std::sort(kinks.begin(), kinks.end());
  Pieces out;
  for (const double kink : kinks) {
    if (out.bounds.empty() ||
        kink - out.bounds.back() > 1e-7 * domain.width()) {
      out.bounds.push_back(kink);
    }
  }
  int fill = 1;
  while (static_cast<int>(out.bounds.size()) < hidden) {
    const double candidate =
        domain.lo + domain.width() * fill / (hidden + 1.0);
    ++fill;
    const bool clashes =
        std::any_of(out.bounds.begin(), out.bounds.end(), [&](double b) {
          return std::abs(b - candidate) < 1e-6 * domain.width();
        });
    if (!clashes) out.bounds.push_back(candidate);
    NOVA_ASSERT(fill < 8 * breakpoints);
  }
  std::sort(out.bounds.begin(), out.bounds.end());

  out.slopes.reserve(out.bounds.size() + 1);
  out.biases.reserve(out.bounds.size() + 1);
  double lo = domain.lo;
  for (std::size_t i = 0; i <= out.bounds.size(); ++i) {
    const double hi = i < out.bounds.size() ? out.bounds[i] : domain.hi;
    const double mid = 0.5 * (lo + hi);
    double slope = net.gamma;
    for (std::size_t j = 0; j < net.w.size(); ++j) {
      if (net.w[j] * mid + net.c[j] > 0.0) slope += net.v[j] * net.w[j];
    }
    out.slopes.push_back(slope);
    out.biases.push_back(net.forward(mid) - slope * mid);
    lo = hi;
  }
  return out;
}

double pieces_max_error(const Pieces& pieces, const ScalarFn& exact,
                        Domain domain, int samples) {
  double worst = 0.0;
  for (int k = 0; k < samples; ++k) {
    const double x =
        domain.lo + domain.width() * k / static_cast<double>(samples - 1);
    const auto it =
        std::upper_bound(pieces.bounds.begin(), pieces.bounds.end(), x);
    const auto seg = static_cast<std::size_t>(it - pieces.bounds.begin());
    const double y = pieces.slopes[seg] * x + pieces.biases[seg];
    worst = std::max(worst, std::abs(y - exact(x)));
  }
  return worst;
}

/// `nonpositive` counts the (iteration, unit) pairs trained with w <= 0:
/// the units whose active samples form a prefix or nothing.
Pieces train(const ScalarFn& exact, const PwlTable& seed, int breakpoints,
             Domain domain, const MlpFitOptions& options,
             std::int64_t& nonpositive) {
  const int hidden = breakpoints - 1;

  std::vector<double> xs(static_cast<std::size_t>(options.samples));
  std::vector<double> ys(xs.size());
  for (std::size_t k = 0; k < xs.size(); ++k) {
    xs[k] = domain.lo +
            domain.width() * static_cast<double>(k) / (xs.size() - 1);
    ys[k] = exact(xs[k]);
  }

  const std::vector<double>& knots = seed.boundaries();
  std::vector<double> node_x;
  node_x.push_back(domain.lo);
  node_x.insert(node_x.end(), knots.begin(), knots.end());
  node_x.push_back(domain.hi);
  std::vector<double> chord(node_x.size() - 1);
  for (std::size_t j = 0; j + 1 < node_x.size(); ++j) {
    chord[j] =
        (exact(node_x[j + 1]) - exact(node_x[j])) / (node_x[j + 1] - node_x[j]);
  }
  Rng rng(options.seed);
  Mlp net;
  net.w.assign(static_cast<std::size_t>(hidden), 1.0);
  net.c.resize(static_cast<std::size_t>(hidden));
  net.v.resize(static_cast<std::size_t>(hidden));
  for (int i = 0; i < hidden; ++i) {
    net.c[static_cast<std::size_t>(i)] = -knots[static_cast<std::size_t>(i)];
    net.v[static_cast<std::size_t>(i)] =
        chord[static_cast<std::size_t>(i) + 1] -
        chord[static_cast<std::size_t>(i)];
  }
  net.gamma = chord.front();
  net.beta = exact(domain.lo) - net.gamma * domain.lo;

  Adam opt_w(net.w.size()), opt_c(net.c.size()), opt_v(net.v.size());
  Adam opt_scalars(2);
  std::vector<double> gw(net.w.size()), gc(net.c.size()), gv(net.v.size());
  std::vector<double> scalars(2), gscalars(2);

  Mlp best = net;
  double best_err = pieces_max_error(extract_pieces(net, domain, breakpoints),
                                     exact, domain, options.samples);

  for (int it = 0; it < options.iterations; ++it) {
    std::fill(gw.begin(), gw.end(), 0.0);
    std::fill(gc.begin(), gc.end(), 0.0);
    std::fill(gv.begin(), gv.end(), 0.0);
    double ggamma = 0.0, gbeta = 0.0;
    nonpositive += std::count_if(net.w.begin(), net.w.end(),
                                 [](double w) { return w <= 0.0; });

    for (std::size_t k = 0; k < xs.size(); ++k) {
      const double x = xs[k];
      const double err = net.forward(x) - ys[k];
      const double g = 2.0 * err / static_cast<double>(xs.size());
      gbeta += g;
      ggamma += g * x;
      for (std::size_t i = 0; i < net.w.size(); ++i) {
        const double pre = net.w[i] * x + net.c[i];
        if (pre > 0.0) {
          gv[i] += g * pre;
          gw[i] += g * net.v[i] * x;
          gc[i] += g * net.v[i];
        }
      }
    }

    opt_w.step(net.w, gw, options.learning_rate);
    opt_c.step(net.c, gc, options.learning_rate);
    opt_v.step(net.v, gv, options.learning_rate);
    scalars[0] = net.gamma;
    scalars[1] = net.beta;
    gscalars[0] = ggamma;
    gscalars[1] = gbeta;
    opt_scalars.step(scalars, gscalars, options.learning_rate);
    net.gamma = scalars[0];
    net.beta = scalars[1];

    if (options.reproject_every > 0 &&
        (it + 1) % options.reproject_every == 0) {
      for (std::size_t i = 0; i < net.w.size(); ++i) {
        if (std::abs(net.w[i]) < 1e-6) {
          net.w[i] = 1.0;
          net.c[i] = -rng.uniform(domain.lo, domain.hi);
          continue;
        }
        const double kink = -net.c[i] / net.w[i];
        if (kink < domain.lo || kink > domain.hi) {
          const double fresh = rng.uniform(domain.lo, domain.hi);
          net.c[i] = -net.w[i] * fresh;
        }
      }
      const double err =
          pieces_max_error(extract_pieces(net, domain, breakpoints), exact,
                           domain, options.samples);
      if (err < best_err) {
        best_err = err;
        best = net;
      }
    }
  }
  const double final_err =
      pieces_max_error(extract_pieces(net, domain, breakpoints), exact,
                       domain, options.samples);
  if (final_err < best_err) best = net;

  return extract_pieces(best, domain, breakpoints);
}

}  // namespace dense

/// Index of the first value whose bit pattern differs, or -1.
int first_bit_mismatch(const std::vector<double>& got,
                       const std::vector<double>& want) {
  if (got.size() != want.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(MlpFitter, MatchesDenseReferenceBitForBit) {
  // Seeded option sets over custom functions with a kink, a jump, no
  // curvature at all and several periods, random domains, 2..41
  // breakpoints, 8..600 samples, learning rates 1e-4..2 (large ones drive
  // units to w <= 0) and every reprojection cadence class. Each table must
  // equal the dense reference bit for bit.
  const std::vector<std::pair<std::string, ScalarFn>> functions = {
      {"abs", [](double x) { return std::abs(x); }},
      {"step", [](double x) { return x < 0.3 ? -1.0 : 2.0; }},
      {"const", [](double) { return 0.75; }},
      {"sin3x", [](double x) { return std::sin(3.0 * x); }},
  };
  constexpr int kReprojectEvery[] = {0, 1, 7, 50, 200};
  Rng rng(0x5eed);
  std::int64_t nonpositive = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const auto& [label, fn] = functions[static_cast<std::size_t>(trial) %
                                        functions.size()];
    const double lo = rng.uniform(-6.0, 2.0);
    const Domain domain{lo, lo + rng.uniform(0.25, 8.0)};
    const int breakpoints = 2 + static_cast<int>(rng.next_below(40));
    MlpFitOptions options;
    options.samples = 8 + static_cast<int>(rng.next_below(593));
    options.iterations = 1 + static_cast<int>(rng.next_below(400));
    options.learning_rate = 1e-4 * std::pow(2e4, rng.next_double());
    options.reproject_every = kReprojectEvery[rng.next_below(5)];
    options.seed = rng.next_u64();

    const PwlTable seed = fit_adaptive(fn, label, breakpoints, domain);
    const dense::Pieces want =
        dense::train(fn, seed, breakpoints, domain, options, nonpositive);
    const auto context = [&](const char* trainer) {
      return std::string(trainer) + ", trial " + std::to_string(trial) +
             " (" + label + ", bp=" + std::to_string(breakpoints) +
             ", samples=" + std::to_string(options.samples) +
             ", iterations=" + std::to_string(options.iterations) +
             ", lr=" + std::to_string(options.learning_rate) +
             ", reproject_every=" + std::to_string(options.reproject_every) +
             ")";
    };
    // fit_mlp's own kernel, then the portable one on every host.
    for (const auto& [trainer, got] :
         {std::pair{"fit_mlp",
                    fit_mlp(fn, label, breakpoints, domain, options)},
          std::pair{"per-unit kernel",
                    detail::fit_mlp(detail::MlpKernel::kPerUnit, fn, label,
                                    breakpoints, domain, options)}}) {
      ASSERT_EQ(first_bit_mismatch(got.boundaries(), want.bounds), -1)
          << context(trainer);
      ASSERT_EQ(first_bit_mismatch(got.slopes(), want.slopes), -1)
          << context(trainer);
      ASSERT_EQ(first_bit_mismatch(got.biases(), want.biases), -1)
          << context(trainer);
    }
  }
  // The suite must reach units whose active samples are a prefix or empty,
  // not only the suffix ranges every unit starts with (w = 1).
  EXPECT_GT(nonpositive, 0);
}

TEST(MlpKernels, BlockedSumsMatchPerUnitSums) {
  // Seeded random nets, 1-70 units over 8-600 samples. Suffix runs (w > 0)
  // and prefix runs (w < 0) are cut at either edge, next to one or
  // anywhere, so full, empty and one-sample runs occur; w = 0 and NaN w
  // get full or empty runs. Gradients are signed and span eight decades.
  // The blocked kernel must write the per-unit kernel's bits for every
  // unit, on unit counts below, at and past whole blocks of four.
  if (!detail::blocked_kernel_available()) {
    GTEST_SKIP() << "no AVX2 kernel in this build or on this CPU";
  }
  Rng rng(0xb10c);
  int full = 0, empty = 0, single = 0, prefix = 0, zero_w = 0, nan_w = 0;
  int padded = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t units = 1 + rng.next_below(70);
    const std::size_t n = 8 + rng.next_below(593);
    const double lo = rng.uniform(-6.0, 2.0);
    const double width = rng.uniform(0.25, 8.0);
    std::vector<double> xs(n), gs(n);
    for (std::size_t k = 0; k < n; ++k) {
      xs[k] = lo + width * static_cast<double>(k) / static_cast<double>(n - 1);
      gs[k] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-6.0, 2.0));
    }
    std::vector<double> w(units), c(units), v(units);
    std::vector<std::size_t> first(units), last(units);
    std::size_t active_units = 0;
    for (std::size_t i = 0; i < units; ++i) {
      const std::size_t cuts[] = {0, 1, n - 1, n, rng.next_below(n + 1)};
      const std::size_t cut = cuts[rng.next_below(5)];
      c[i] = rng.uniform(-3.0, 3.0);
      v[i] = rng.uniform(-2.0, 2.0);
      switch (rng.next_below(4)) {
        case 0:
          w[i] = rng.uniform(0.01, 4.0);
          first[i] = cut;
          last[i] = n;
          break;
        case 1:
          w[i] = -rng.uniform(0.01, 4.0);
          first[i] = 0;
          last[i] = cut;
          ++prefix;
          break;
        case 2:
          w[i] = 0.0;
          first[i] = 0;
          last[i] = rng.next_below(2) == 0 ? n : 0;
          ++zero_w;
          break;
        default:
          w[i] = std::numeric_limits<double>::quiet_NaN();
          first[i] = 0;
          last[i] = rng.next_below(2) == 0 ? n : 0;
          ++nan_w;
          break;
      }
      const std::size_t run = last[i] - first[i];
      full += run == n ? 1 : 0;
      empty += run == 0 ? 1 : 0;
      single += run == 1 ? 1 : 0;
      active_units += run > 0 ? 1 : 0;
    }
    padded += active_units % 4 != 0 ? 1 : 0;

    // Stale values in the outputs: every unit must be written.
    std::vector<double> want_v(units, 7.0), want_w(units, 7.0),
        want_c(units, 7.0);
    std::vector<double> got_v(units, -7.0), got_w(units, -7.0),
        got_c(units, -7.0);
    detail::unit_gradients(
        detail::MlpKernel::kPerUnit,
        {xs, gs, w, c, v, first, last, want_v, want_w, want_c});
    detail::unit_gradients(
        detail::MlpKernel::kBlockedAvx2,
        {xs, gs, w, c, v, first, last, got_v, got_w, got_c});
    const std::size_t bytes = units * sizeof(double);
    ASSERT_EQ(std::memcmp(got_v.data(), want_v.data(), bytes), 0)
        << "gv, trial " << trial;
    ASSERT_EQ(std::memcmp(got_w.data(), want_w.data(), bytes), 0)
        << "gw, trial " << trial;
    ASSERT_EQ(std::memcmp(got_c.data(), want_c.data(), bytes), 0)
        << "gc, trial " << trial;
  }
  EXPECT_GT(full, 0);
  EXPECT_GT(empty, 0);
  EXPECT_GT(single, 0);
  EXPECT_GT(prefix, 0);
  EXPECT_GT(zero_w, 0);
  EXPECT_GT(nan_w, 0);
  EXPECT_GT(padded, 0);
}

TEST(PwlLibrary, MemoizesTables) {
  auto& lib = PwlLibrary::instance();
  const PwlTable& first = lib.get(NonLinearFn::kSigmoid, 16);
  const PwlTable& second = lib.get(NonLinearFn::kSigmoid, 16);
  EXPECT_EQ(&first, &second);
}

TEST(FixedEval, TracksDoubleEvalWithinQuantization) {
  const PwlTable table = fit_mlp(NonLinearFn::kGelu, 16);
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-8.0, 8.0);
    // Quantization of x, slope, and bias each contribute ~1 LSB (2^-10).
    EXPECT_NEAR(table.eval_fixed(x), table.eval(x), 0.02);
  }
}

TEST(Softmax, ExactSumsToOne) {
  std::vector<float> in{0.5f, -1.0f, 2.0f, 0.0f};
  std::vector<float> out(in.size());
  softmax_exact(in, out);
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Softmax, PwlCloseToExactForTypicalLogits) {
  const double worst = softmax_worst_error(/*n=*/64, /*breakpoints=*/16,
                                           /*trials=*/50);
  EXPECT_LT(worst, 0.02);
}

TEST(Softmax, PwlSumStaysNearOne) {
  Rng rng(17);
  std::vector<float> in(128), out(128);
  for (auto& v : in) v = static_cast<float>(rng.normal(0.0, 2.0));
  softmax_pwl(in, out, 16);
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 0.05);
}

TEST(Softmax, LongSequencesExerciseRangeReduction) {
  // Sum of 1024 exp values far exceeds the reciprocal domain; the halving
  // range reduction must keep the result sane.
  Rng rng(23);
  std::vector<float> in(1024), out(1024);
  for (auto& v : in) v = static_cast<float>(rng.normal(0.0, 1.0));
  softmax_pwl(in, out, 16);
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 0.08);
  for (const auto v : out) EXPECT_GE(v, -1e-3f);
}

TEST(Softmax, ArgmaxPreservedOnSeparatedLogits) {
  // The property Table I rests on: when one logit clearly dominates, the
  // approximate softmax must agree on the winner.
  Rng rng(29);
  auto& lib = PwlLibrary::instance();
  const PwlTable& exp_t = lib.get(NonLinearFn::kExp, 16);
  const PwlTable& rec_t = lib.get(NonLinearFn::kReciprocal, 16);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> in(10), exact(10), approx(10);
    for (auto& v : in) v = static_cast<float>(rng.normal(0.0, 1.0));
    const std::size_t winner = rng.next_below(10);
    in[winner] += 2.0f;  // separation margin
    softmax_exact(in, exact);
    softmax_pwl(in, approx, exp_t, rec_t);
    const auto exact_arg =
        std::max_element(exact.begin(), exact.end()) - exact.begin();
    const auto approx_arg =
        std::max_element(approx.begin(), approx.end()) - approx.begin();
    EXPECT_EQ(exact_arg, approx_arg);
  }
}

TEST(Gelu, PwlCloseToExact) {
  Rng rng(31);
  std::vector<float> in(256), exact(256), approx(256);
  for (auto& v : in) v = static_cast<float>(rng.normal(0.0, 2.0));
  gelu_exact(in, exact);
  gelu_pwl(in, approx, 16);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(approx[i], exact[i], 0.05);
  }
}

TEST(Softmax, OpCountFormula) {
  EXPECT_EQ(softmax_approx_ops(128), 257u);  // n exp + 1 recip + n mul
}

TEST(Functions, FromStringRoundTripsEveryFunction) {
  ASSERT_FALSE(all_functions().empty());
  for (const auto fn : all_functions()) {
    const auto parsed = from_string(to_string(fn));
    ASSERT_TRUE(parsed.has_value()) << to_string(fn);
    EXPECT_EQ(*parsed, fn);
  }
  EXPECT_FALSE(from_string("no-such-fn").has_value());
  EXPECT_FALSE(from_string("").has_value());
  EXPECT_FALSE(from_string("GELU").has_value());  // names are lower-case
}

TEST(InterpCurve, ReproducesAnchorsExactlyAndChordsBetween) {
  const auto curve =
      InterpCurve::fit({1.0, 10.0, 100.0}, {5.0, 50.0, 70.0});
  // Nodal evaluation is bit-exact -- the surrogate's anchored-exactly
  // guarantee rests on this, not on "close enough".
  EXPECT_DOUBLE_EQ(curve.eval(1.0), 5.0);
  EXPECT_DOUBLE_EQ(curve.eval(10.0), 50.0);
  EXPECT_DOUBLE_EQ(curve.eval(100.0), 70.0);
  // Chord interpolation between anchors.
  EXPECT_DOUBLE_EQ(curve.eval(5.5), 27.5);
  EXPECT_DOUBLE_EQ(curve.eval(55.0), 60.0);
  EXPECT_EQ(curve.anchors(), 3);
}

TEST(InterpCurve, ClampsOutsideTheMeasuredRange) {
  const auto curve = InterpCurve::fit({8.0, 64.0}, {3.0, 11.0});
  EXPECT_DOUBLE_EQ(curve.eval(1.0), 3.0);
  EXPECT_DOUBLE_EQ(curve.eval(1e9), 11.0);
}

TEST(InterpCurve, FitKeepsNonMonotoneAnchors) {
  // A small downward wobble in measured ys survives the fit: calibration
  // rates carry no monotonicity contract.
  const auto curve = InterpCurve::fit({1.0, 2.0, 3.0}, {10.0, 9.5, 12.0});
  EXPECT_DOUBLE_EQ(curve.eval(2.0), 9.5);
  EXPECT_DOUBLE_EQ(curve.eval(1.5), 9.75);
}

TEST(InterpCurve, SingleAnchorYieldsAConstantCurve) {
  const auto curve = InterpCurve::fit({42.0}, {7.0});
  EXPECT_DOUBLE_EQ(curve.eval(0.0), 7.0);
  EXPECT_DOUBLE_EQ(curve.eval(42.0), 7.0);
  EXPECT_DOUBLE_EQ(curve.eval(1e6), 7.0);
}

TEST(InterpCurveDeathTest, RejectsUnsortedOrMismatchedAnchors) {
  EXPECT_DEATH((void)InterpCurve::fit({2.0, 1.0}, {0.0, 1.0}),
               "precondition");
  EXPECT_DEATH((void)InterpCurve::fit({1.0, 1.0}, {0.0, 1.0}),
               "precondition");
  EXPECT_DEATH((void)InterpCurve::fit({1.0}, {0.0, 1.0}), "precondition");
  EXPECT_DEATH((void)InterpCurve::fit({}, {}), "precondition");
}

}  // namespace
}  // namespace nova::approx
