#include "approx/mlp_fitter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "approx/fit.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"

// The blocked kernels need functions compiled for AVX2 and for AVX-512F
// next to portable code, and a run-time CPU check: x86-64 GCC and Clang
// builds have all three.
#if defined(__x86_64__) && defined(__GNUC__)
#define NOVA_MLP_SIMD 1
#include <immintrin.h>
#else
#define NOVA_MLP_SIMD 0
#endif

#if defined(__GNUC__)
#define NOVA_MLP_INLINE [[gnu::always_inline]] inline
#else
#define NOVA_MLP_INLINE inline
#endif

namespace nova::approx {

using detail::MlpKernel;
using detail::UnitGradients;

namespace {

/// 1-D two-layer ReLU MLP with a linear passthrough:
///   f(x) = gamma * x + beta + sum_i v[i] * relu(w[i] x + c[i]).
/// Any continuous PWL function is exactly representable (gamma carries the
/// leftmost slope, each hidden unit a slope change at kink -c/w), so the
/// network can be initialized *at* a good fit and training only refines it.
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

constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

/// Adam state for one parameter vector.
struct Adam {
  std::vector<double> m, s;

  explicit Adam(std::size_t n) : m(n, 0.0), s(n, 0.0) {}

  /// One step t >= 1, given the bias corrections bc1 = 1 - kBeta1^t and
  /// bc2 = 1 - kBeta2^t that every parameter vector shares at step t.
  NOVA_MLP_INLINE void step(std::span<double> param,
                            std::span<const double> grad, double lr,
                            double bc1, double bc2) {
    for (std::size_t i = 0; i < param.size(); ++i) {
      m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * grad[i];
      s[i] = kBeta2 * s[i] + (1.0 - kBeta2) * grad[i] * grad[i];
      param[i] -= lr * (m[i] / bc1) / (std::sqrt(s[i] / bc2) + kEps);
    }
  }
};

/// Raw table data before wrapping in a PwlTable.
struct Pieces {
  std::vector<double> bounds, slopes, biases;
};

/// Converts the (exact PWL) network into piece form over `domain` with
/// exactly `breakpoints` segments, padding with uniform boundaries if
/// training merged kinks.
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

/// Max |table - exact| over the training samples (xs, ys = exact(xs)).
double pieces_max_error(const Pieces& pieces, const std::vector<double>& xs,
                        const std::vector<double>& ys) {
  double worst = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    const double x = xs[k];
    const auto it =
        std::upper_bound(pieces.bounds.begin(), pieces.bounds.end(), x);
    const auto seg = static_cast<std::size_t>(it - pieces.bounds.begin());
    const double y = pieces.slopes[seg] * x + pieces.biases[seg];
    worst = std::max(worst, std::abs(y - ys[k]));
  }
  return worst;
}

/// The portable gradient kernel: each unit's three sums over its run, one
/// unit after another.
struct PerUnitGradients {
  void operator()(const UnitGradients& s) const {
    for (std::size_t i = 0; i < s.w.size(); ++i) {
      const double w = s.w[i], c = s.c[i], v = s.v[i];
      double sv = 0.0, sw = 0.0, sc = 0.0;
      for (std::size_t k = s.first[i]; k < s.last[i]; ++k) {
        sv += s.gs[k] * (w * s.xs[k] + c);
        sw += (s.gs[k] * v) * s.xs[k];
        sc += s.gs[k] * v;
      }
      s.gv[i] = sv;
      s.gw[i] = sw;
      s.gc[i] = sc;
    }
  }
};

/// The per-unit kernel as the training loop runs it: the hidden units
/// through PerUnitGradients, then the constant lane (the last unit) as two
/// serial loss sums, g for beta and g*x for gamma. The lane's three sums
/// would be one chain more, and its gv repeats its gc. Same bits: g*1 == g,
/// and both sums run in ascending k from +0.0.
struct PerUnitTrainingGradients {
  void operator()(const UnitGradients& s) const {
    const std::size_t units = s.w.size() - 1;
    PerUnitGradients{}(UnitGradients{
        s.xs, s.gs, s.w.first(units), s.c.first(units), s.v.first(units),
        s.first.first(units), s.last.first(units), s.gv.first(units),
        s.gw.first(units), s.gc.first(units)});
    double beta = 0.0, gamma = 0.0;
    for (std::size_t k = 0; k < s.xs.size(); ++k) {
      beta += s.gs[k];
      gamma += s.gs[k] * s.xs[k];
    }
    s.gw[units] = gamma;
    s.gc[units] = beta;
  }
};

#if NOVA_MLP_SIMD
/// One block's lanes as plain arrays: its units' coefficients in, their
/// three sums out. Padding lanes keep w = c = v = 0.
template <std::size_t kWidth>
struct LaneBlock {
  std::array<double, kWidth> w{}, c{}, v{};
  std::array<double, kWidth> sv{}, sw{}, sc{};
};

/// Four lanes per 256-bit AVX2 vector.
struct Avx2Lanes {
  static constexpr std::size_t kWidth = 4;
  struct Regs {
    __m256d w, c, v;
    __m256d sv, sw, sc;
  };

  [[gnu::target("avx2")]] static void load(Regs& r, const LaneBlock<4>& b) {
    r.w = _mm256_loadu_pd(b.w.data());
    r.c = _mm256_loadu_pd(b.c.data());
    r.v = _mm256_loadu_pd(b.v.data());
    r.sv = r.sw = r.sc = _mm256_setzero_pd();
  }

  /// Adds one sample's terms to every lane, with the per-unit loop's
  /// products.
  [[gnu::target("avx2")]] static void add(Regs& r, double xk, double gk) {
    const __m256d x = _mm256_set1_pd(xk);
    const __m256d g = _mm256_set1_pd(gk);
    const __m256d gv = _mm256_mul_pd(g, r.v);
    r.sv = _mm256_add_pd(
        r.sv, _mm256_mul_pd(g, _mm256_add_pd(_mm256_mul_pd(r.w, x), r.c)));
    r.sw = _mm256_add_pd(r.sw, _mm256_mul_pd(gv, x));
    r.sc = _mm256_add_pd(r.sc, gv);
  }

  /// Sets lane j's three sums to +0.0.
  [[gnu::target("avx2")]] static void restart(Regs& r, unsigned j) {
    const __m256d lane = lane_mask(j);
    r.sv = _mm256_andnot_pd(lane, r.sv);
    r.sw = _mm256_andnot_pd(lane, r.sw);
    r.sc = _mm256_andnot_pd(lane, r.sc);
  }

  /// Stores lane j's three sums into the block.
  [[gnu::target("avx2")]] static void capture(const Regs& r, unsigned j,
                                              LaneBlock<4>& b) {
    const __m256i lane = _mm256_castpd_si256(lane_mask(j));
    _mm256_maskstore_pd(b.sv.data(), lane, r.sv);
    _mm256_maskstore_pd(b.sw.data(), lane, r.sw);
    _mm256_maskstore_pd(b.sc.data(), lane, r.sc);
  }

 private:
  /// All ones in lane j, zero elsewhere.
  [[gnu::target("avx2")]] static __m256d lane_mask(unsigned j) {
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_set1_epi64x(j), _mm256_set_epi64x(3, 2, 1, 0)));
  }
};

/// Eight lanes per 512-bit AVX-512F vector.
struct Avx512Lanes {
  static constexpr std::size_t kWidth = 8;
  struct Regs {
    __m512d w, c, v;
    __m512d sv, sw, sc;
  };

  [[gnu::target("avx512f")]] static void load(Regs& r,
                                              const LaneBlock<8>& b) {
    r.w = _mm512_loadu_pd(b.w.data());
    r.c = _mm512_loadu_pd(b.c.data());
    r.v = _mm512_loadu_pd(b.v.data());
    r.sv = r.sw = r.sc = _mm512_setzero_pd();
  }

  /// Adds one sample's terms to every lane, with the per-unit loop's
  /// products.
  [[gnu::target("avx512f")]] static void add(Regs& r, double xk,
                                             double gk) {
    const __m512d x = _mm512_set1_pd(xk);
    const __m512d g = _mm512_set1_pd(gk);
    const __m512d gv = _mm512_mul_pd(g, r.v);
    r.sv = _mm512_add_pd(
        r.sv, _mm512_mul_pd(g, _mm512_add_pd(_mm512_mul_pd(r.w, x), r.c)));
    r.sw = _mm512_add_pd(r.sw, _mm512_mul_pd(gv, x));
    r.sc = _mm512_add_pd(r.sc, gv);
  }

  /// Sets lane j's three sums to +0.0.
  [[gnu::target("avx512f")]] static void restart(Regs& r, unsigned j) {
    const auto others = static_cast<__mmask8>(~(1U << j));
    r.sv = _mm512_maskz_mov_pd(others, r.sv);
    r.sw = _mm512_maskz_mov_pd(others, r.sw);
    r.sc = _mm512_maskz_mov_pd(others, r.sc);
  }

  /// Stores lane j's three sums into the block.
  [[gnu::target("avx512f")]] static void capture(const Regs& r, unsigned j,
                                                 LaneBlock<8>& b) {
    const auto lane = static_cast<__mmask8>(1U << j);
    _mm512_mask_storeu_pd(b.sv.data(), lane, r.sv);
    _mm512_mask_storeu_pd(b.sw.data(), lane, r.sw);
    _mm512_mask_storeu_pd(b.sc.data(), lane, r.sc);
  }
};

/// The blocked kernel, one template built at each lane width. Units with a
/// non-empty run are ordered by (first, last) and taken kWidth at a time,
/// the last block padded with empty lanes. A block walks the union of its
/// runs in ascending k and adds every lane's terms on every sample, with
/// no mask; a lane's sums restart from +0.0 where its run starts and are
/// stored where it ends, and samples where no lane is active are skipped.
/// Each stored sum thus adds exactly its own unit's terms in the per-unit
/// loop's order, from +0.0, so the sums are bit-identical, inf and NaN
/// included; whatever a lane adds outside its run is overwritten or never
/// read. The lane types' functions carry their own target and are not
/// always_inline: GCC rejects an always_inline callee whose target its
/// caller lacks, and this template has none until it is inlined into a
/// target entry below, where they inline too. The build keeps
/// -ffp-contract=off: an avx512f target (or avx2 with fma) would let the
/// compiler contract w*x + c into one rounding.
template <typename Lanes>
class BlockedGradients {
 public:
  static constexpr std::size_t kWidth = Lanes::kWidth;

  NOVA_MLP_INLINE void operator()(const UnitGradients& s) {
    order_.clear();
    for (std::size_t i = 0; i < s.w.size(); ++i) {
      if (s.first[i] < s.last[i]) {
        order_.push_back(i);
      } else {
        s.gv[i] = 0.0;
        s.gw[i] = 0.0;
        s.gc[i] = 0.0;
      }
    }
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return s.first[a] != s.first[b] ? s.first[a] < s.first[b]
                                      : s.last[a] < s.last[b];
    });
    for (std::size_t b = 0; b < order_.size(); b += kWidth) {
      const std::size_t lanes = std::min(kWidth, order_.size() - b);
      LaneBlock<kWidth> block;
      // Each event packs (sample, starts, lane) as sample * 16 + starts * 8
      // + lane, so that sorting puts the events in sample order.
      events_.clear();
      for (std::size_t j = 0; j < lanes; ++j) {
        const std::size_t i = order_[b + j];
        block.w[j] = s.w[i];
        block.c[j] = s.c[i];
        block.v[j] = s.v[i];
        events_.push_back(s.first[i] * 16 + 8 + j);
        events_.push_back(s.last[i] * 16 + j);
      }
      std::sort(events_.begin(), events_.end());

      typename Lanes::Regs regs;
      Lanes::load(regs, block);
      std::size_t at = 0, live = 0;
      for (const std::size_t event : events_) {
        const std::size_t sample = event / 16;
        const auto lane = static_cast<unsigned>(event % 8);
        if (live > 0) {
          for (std::size_t k = at; k < sample; ++k) {
            Lanes::add(regs, s.xs[k], s.gs[k]);
          }
        }
        at = sample;
        if (event % 16 >= 8) {
          Lanes::restart(regs, lane);
          ++live;
        } else {
          Lanes::capture(regs, lane, block);
          --live;
        }
      }
      for (std::size_t j = 0; j < lanes; ++j) {
        const std::size_t i = order_[b + j];
        s.gv[i] = block.sv[j];
        s.gw[i] = block.sw[j];
        s.gc[i] = block.sc[j];
      }
    }
  }

 private:
  std::vector<std::size_t> order_, events_;
};
#endif

/// The partition point of `pred` over the ascending samples xs: the p in
/// [0, n] with pred true on xs[0, p) and false on xs[p, n). Walks from
/// `from`, any index in [0, n], right while pred holds and then left while
/// it fails, so it relies on the monotone predicate std::partition_point
/// relies on. A kink moves a few samples per iteration, so starting at the
/// last iteration's boundary takes a step or two, not a binary search.
template <typename Pred>
NOVA_MLP_INLINE std::size_t walk_partition(const std::vector<double>& xs,
                                           std::size_t from, Pred pred) {
  std::size_t p = from;
  while (p < xs.size() && pred(xs[p])) ++p;
  while (p > 0 && !pred(xs[p - 1])) --p;
  return p;
}

/// The training loop, inlined into one plain build and one per lane width,
/// which differ only in `gradients`, the kernel of the hidden-unit sums.
template <typename Gradients>
NOVA_MLP_INLINE Pieces train_loop(const ScalarFn& exact, const PwlTable& seed,
                                  int breakpoints, Domain domain,
                                  const MlpFitOptions& options,
                                  Gradients& gradients) {
  NOVA_EXPECTS(breakpoints >= 2);
  NOVA_EXPECTS(options.samples >= 8);
  const int hidden = breakpoints - 1;  // kinks = segments - 1

  // Training set: dense uniform samples of the exact function.
  std::vector<double> xs(static_cast<std::size_t>(options.samples));
  std::vector<double> ys(xs.size());
  for (std::size_t k = 0; k < xs.size(); ++k) {
    xs[k] = domain.lo +
            domain.width() * static_cast<double>(k) / (xs.size() - 1);
    ys[k] = exact(xs[k]);
  }

  // Initialize as the continuous interpolant through the curvature-equalized
  // knots: gamma/beta carry the first chord, each hidden unit the slope
  // change at its knot. The network starts as an already-good fit and
  // gradient descent refines knot positions and slopes jointly.
  const std::vector<double>& knots = seed.boundaries();
  NOVA_ASSERT(static_cast<int>(knots.size()) == hidden);
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

  const std::size_t units = net.w.size();
  Adam opt_w(units), opt_c(units), opt_v(units);
  Adam opt_scalars(2);
  std::vector<double> scalars(2), gscalars(2);
  // Per-sample network outputs and loss gradients, refilled every
  // iteration.
  const std::size_t n = xs.size();
  std::vector<double> ys_net(n), gs(n);
  // The gradient kernel's units: the hidden units, whose coefficients are
  // copied in every iteration next to their active samples
  // [first[i], last[i]), then the constant lane, w = 0, c = 1 and v = 1 on
  // every sample. That lane's gc sums g*1 and its gw (g*1)*x, in ascending
  // k from +0.0, so they are the beta and gamma gradients a serial loop
  // over the samples would add, bit for bit (the per-unit path runs that
  // loop, PerUnitTrainingGradients). It is not a parameter: Adam,
  // reprojection and extract_pieces never see it.
  std::vector<double> lane_w(units + 1, 0.0), lane_c(units + 1, 1.0),
      lane_v(units + 1, 1.0);
  std::vector<std::size_t> first(units + 1, 0), last(units + 1, n);
  std::vector<double> gv(units + 1), gw(units + 1), gc(units + 1);
  const std::span<const double> unit_gv(gv.data(), units),
      unit_gw(gw.data(), units), unit_gc(gc.data(), units);
  // 2*err/n: for n = 2^j, multiplying 2*err by the exact reciprocal 2^-j
  // rounds the same real number once, so it gives the division's bits.
  const double dn = static_cast<double>(n);
  const bool pow2_samples = std::has_single_bit(n);
  const double inv_n = 1.0 / dn;

  // Views of vectors that keep their size through training.
  const UnitGradients sums{xs, gs, lane_w, lane_c, lane_v, first, last,
                           gv, gw, gc};

  Mlp best = net;
  double best_err =
      pieces_max_error(extract_pieces(net, domain, breakpoints), xs, ys);

  for (int it = 0; it < options.iterations; ++it) {
    // Full-batch MSE gradient, unit by unit. xs ascends and fl(w*x + c) is
    // monotone in x for fixed (w, c), so a unit is active on one run of
    // samples: a suffix when w > 0, a prefix when w < 0, all or none
    // otherwise (w == 0 or NaN). The run is found with the activation
    // predicate itself, never from the rounded kink -c/w, and every sum
    // keeps the order a per-sample loop adds it in (each output over its
    // units in ascending i, each gradient over its unit's samples in
    // ascending k), so the tables are bit-identical to that loop's, which
    // tests/approx_test.cpp keeps as the reference.
    for (std::size_t i = 0; i < units; ++i) {
      const double w = net.w[i];
      const double c = net.c[i];
      const auto active = [w, c](double x) { return w * x + c > 0.0; };
      if (w > 0.0) {
        first[i] = walk_partition(xs, first[i],
                                  [&](double x) { return !active(x); });
        last[i] = n;
      } else if (w < 0.0) {
        first[i] = 0;
        last[i] = walk_partition(xs, last[i], active);
      } else {
        first[i] = 0;
        last[i] = active(xs.front()) ? n : 0;
      }
    }
    std::copy(net.w.begin(), net.w.end(), lane_w.begin());
    std::copy(net.c.begin(), net.c.end(), lane_c.begin());
    std::copy(net.v.begin(), net.v.end(), lane_v.begin());

    for (std::size_t k = 0; k < n; ++k) {
      ys_net[k] = net.gamma * xs[k] + net.beta;
    }
    for (std::size_t i = 0; i < units; ++i) {
      const double w = net.w[i], c = net.c[i], v = net.v[i];
      for (std::size_t k = first[i]; k < last[i]; ++k) {
        ys_net[k] += v * (w * xs[k] + c);
      }
    }

    if (pow2_samples) {
      for (std::size_t k = 0; k < n; ++k) {
        gs[k] = 2.0 * (ys_net[k] - ys[k]) * inv_n;
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        gs[k] = 2.0 * (ys_net[k] - ys[k]) / dn;
      }
    }
    gradients(sums);

    const int t = it + 1;
    const double bc1 = 1.0 - std::pow(kBeta1, t);
    const double bc2 = 1.0 - std::pow(kBeta2, t);
    opt_w.step(net.w, unit_gw, options.learning_rate, bc1, bc2);
    opt_c.step(net.c, unit_gc, options.learning_rate, bc1, bc2);
    opt_v.step(net.v, unit_gv, options.learning_rate, bc1, bc2);
    scalars[0] = net.gamma;
    scalars[1] = net.beta;
    gscalars[0] = gw[units];  // sum of g*x: the gamma gradient
    gscalars[1] = gc[units];  // sum of g: the beta gradient
    opt_scalars.step(scalars, gscalars, options.learning_rate, bc1, bc2);
    net.gamma = scalars[0];
    net.beta = scalars[1];

    // Periodically: clamp wandering kinks back inside the domain and keep
    // the best max-error snapshot (MSE descent can trade max error up).
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
          pieces_max_error(extract_pieces(net, domain, breakpoints), xs, ys);
      if (err < best_err) {
        best_err = err;
        best = net;
      }
    }
  }
  const double final_err =
      pieces_max_error(extract_pieces(net, domain, breakpoints), xs, ys);
  if (final_err < best_err) best = net;

  return extract_pieces(best, domain, breakpoints);
}

#if NOVA_MLP_SIMD
// One entry per lane width, each compiled for its target with the kernel
// and the whole training loop inlined.
[[gnu::target("avx2")]] Pieces train_avx2(const ScalarFn& exact,
                                          const PwlTable& seed,
                                          int breakpoints, Domain domain,
                                          const MlpFitOptions& options) {
  BlockedGradients<Avx2Lanes> gradients;
  return train_loop(exact, seed, breakpoints, domain, options, gradients);
}

[[gnu::target("avx512f")]] Pieces train_avx512(const ScalarFn& exact,
                                               const PwlTable& seed,
                                               int breakpoints, Domain domain,
                                               const MlpFitOptions& options) {
  BlockedGradients<Avx512Lanes> gradients;
  return train_loop(exact, seed, breakpoints, domain, options, gradients);
}

[[gnu::target("avx2")]] void sums_avx2(const UnitGradients& sums) {
  BlockedGradients<Avx2Lanes>{}(sums);
}

[[gnu::target("avx512f")]] void sums_avx512(const UnitGradients& sums) {
  BlockedGradients<Avx512Lanes>{}(sums);
}
#endif

/// The widest kernel this build and CPU run.
MlpKernel fastest_kernel() {
  for (const MlpKernel kernel :
       {MlpKernel::kBlockedAvx512, MlpKernel::kBlockedAvx2}) {
    if (detail::kernel_available(kernel)) return kernel;
  }
  return MlpKernel::kPerUnit;
}

Pieces train_mlp_pieces(MlpKernel kernel, const ScalarFn& exact,
                        const PwlTable& seed, int breakpoints, Domain domain,
                        const MlpFitOptions& options) {
  NOVA_EXPECTS(detail::kernel_available(kernel));
#if NOVA_MLP_SIMD
  if (kernel == MlpKernel::kBlockedAvx512) {
    return train_avx512(exact, seed, breakpoints, domain, options);
  }
  if (kernel == MlpKernel::kBlockedAvx2) {
    return train_avx2(exact, seed, breakpoints, domain, options);
  }
#endif
  PerUnitTrainingGradients gradients;
  return train_loop(exact, seed, breakpoints, domain, options, gradients);
}

}  // namespace

namespace detail {

bool kernel_available(MlpKernel kernel) {
#if NOVA_MLP_SIMD
  // Asked once each, under the thread-safe initialization of a static.
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  static const bool avx512 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  if (kernel == MlpKernel::kBlockedAvx2) return avx2;
  if (kernel == MlpKernel::kBlockedAvx512) return avx512;
#endif
  return kernel == MlpKernel::kPerUnit;
}

PwlTable fit_mlp(MlpKernel kernel, const ScalarFn& fn, std::string label,
                 int breakpoints, Domain domain, const MlpFitOptions& options) {
  NOVA_EXPECTS(fn != nullptr);
  const PwlTable seed = fit_adaptive(fn, label, breakpoints, domain);
  Pieces pieces =
      train_mlp_pieces(kernel, fn, seed, breakpoints, domain, options);
  return PwlTable(fn, std::move(label), domain, std::move(pieces.bounds),
                  std::move(pieces.slopes), std::move(pieces.biases));
}

void unit_gradients(MlpKernel kernel, const UnitGradients& sums) {
  NOVA_EXPECTS(kernel_available(kernel));
#if NOVA_MLP_SIMD
  if (kernel == MlpKernel::kBlockedAvx512) return sums_avx512(sums);
  if (kernel == MlpKernel::kBlockedAvx2) return sums_avx2(sums);
#endif
  PerUnitGradients{}(sums);
}

}  // namespace detail

PwlTable fit_mlp(NonLinearFn fn, int breakpoints, Domain domain,
                 const MlpFitOptions& options) {
  const ScalarFn exact = [fn](double x) { return eval_exact(fn, x); };
  const PwlTable seed = fit_adaptive(fn, breakpoints, domain);
  Pieces pieces = train_mlp_pieces(fastest_kernel(), exact, seed, breakpoints,
                                   domain, options);
  return PwlTable(fn, domain, std::move(pieces.bounds),
                  std::move(pieces.slopes), std::move(pieces.biases));
}

PwlTable fit_mlp(NonLinearFn fn, int breakpoints) {
  return fit_mlp(fn, breakpoints, default_domain(fn));
}

PwlTable fit_mlp(const ScalarFn& fn, std::string label, int breakpoints,
                 Domain domain, const MlpFitOptions& options) {
  return detail::fit_mlp(fastest_kernel(), fn, std::move(label), breakpoints,
                         domain, options);
}

const PwlTable& PwlLibrary::get(NonLinearFn fn, int breakpoints) {
  const Key key{fn, breakpoints};
  // std::map references are stable across inserts, so handing the table
  // out by reference after unlocking is safe.
  const std::scoped_lock lock(mutex_);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    it = tables_.emplace(key, fit_mlp(fn, breakpoints)).first;
  }
  return it->second;
}

PwlLibrary& PwlLibrary::instance() {
  static PwlLibrary library;
  return library;
}

}  // namespace nova::approx
