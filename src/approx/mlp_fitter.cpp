#include "approx/mlp_fitter.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "approx/fit.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"

// The blocked kernel needs a function compiled for AVX2 next to portable
// code and a run-time CPU check: x86-64 GCC and Clang builds have both.
#if defined(__x86_64__) && defined(__GNUC__)
#define NOVA_MLP_AVX2 1
#include <immintrin.h>
#else
#define NOVA_MLP_AVX2 0
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
  NOVA_MLP_INLINE void step(std::vector<double>& param,
                            const std::vector<double>& grad, double lr,
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

#if NOVA_MLP_AVX2
/// Four units' coefficients and running sums, one unit per lane.
struct Block {
  __m256d w, c, v;
  __m256i first, last;
  __m256d sv, sw, sc;
};

/// Adds the terms of samples [from, to) to every lane of `block`, with the
/// per-unit loop's products. kMasked replaces the terms of a lane whose run
/// does not hold the sample by +0.0.
template <bool kMasked>
[[gnu::target("avx2")]] NOVA_MLP_INLINE void accumulate(
    Block& block, const UnitGradients& s, std::size_t from, std::size_t to) {
  for (std::size_t k = from; k < to; ++k) {
    const __m256d x = _mm256_set1_pd(s.xs[k]);
    const __m256d g = _mm256_set1_pd(s.gs[k]);
    const __m256d gv = _mm256_mul_pd(g, block.v);
    __m256d tv = _mm256_mul_pd(
        g, _mm256_add_pd(_mm256_mul_pd(block.w, x), block.c));
    __m256d tw = _mm256_mul_pd(gv, x);
    __m256d tc = gv;
    if constexpr (kMasked) {
      const __m256i kv = _mm256_set1_epi64x(static_cast<long long>(k));
      const __m256d active = _mm256_castsi256_pd(
          _mm256_andnot_si256(_mm256_cmpgt_epi64(block.first, kv),
                              _mm256_cmpgt_epi64(block.last, kv)));
      tv = _mm256_and_pd(active, tv);
      tw = _mm256_and_pd(active, tw);
      tc = _mm256_and_pd(active, tc);
    }
    block.sv = _mm256_add_pd(block.sv, tv);
    block.sw = _mm256_add_pd(block.sw, tw);
    block.sc = _mm256_add_pd(block.sc, tc);
  }
}

/// The blocked kernel. Units with a non-empty run are ordered by
/// (first, last) and taken four at a time, the last block padded with
/// empty lanes (w = c = v = 0, run [0, 0)). A block walks the union of its
/// runs in ascending k: the samples every lane is active on unmasked, the
/// head and tail around them masked. Each lane thus adds exactly its own
/// unit's terms in the per-unit loop's order, so the sums are
/// bit-identical: a lane starts at +0.0, a round-to-nearest sum from +0.0
/// never becomes -0.0, and adding a masked +0.0 leaves any sum as it is,
/// inf and NaN included. Target "avx2" alone: with FMA enabled the
/// compiler may contract w*x + c into one rounding.
class BlockedGradients {
 public:
  [[gnu::target("avx2")]] void operator()(const UnitGradients& s) {
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
    for (std::size_t b = 0; b < order_.size(); b += 4) {
      const std::size_t lanes = std::min<std::size_t>(4, order_.size() - b);
      std::array<double, 4> w{}, c{}, v{};
      std::array<long long, 4> first{}, last{};
      std::size_t lo = s.first[order_[b]], hi = s.last[order_[b]];
      std::size_t shared_lo = lo, shared_hi = hi;
      for (std::size_t j = 0; j < lanes; ++j) {
        const std::size_t i = order_[b + j];
        w[j] = s.w[i];
        c[j] = s.c[i];
        v[j] = s.v[i];
        first[j] = static_cast<long long>(s.first[i]);
        last[j] = static_cast<long long>(s.last[i]);
        lo = std::min(lo, s.first[i]);
        hi = std::max(hi, s.last[i]);
        shared_lo = std::max(shared_lo, s.first[i]);
        shared_hi = std::min(shared_hi, s.last[i]);
      }
      // Disjoint runs share no samples: the whole union runs masked.
      if (shared_lo >= shared_hi) shared_lo = shared_hi = hi;

      Block block{_mm256_set_pd(w[3], w[2], w[1], w[0]),
                  _mm256_set_pd(c[3], c[2], c[1], c[0]),
                  _mm256_set_pd(v[3], v[2], v[1], v[0]),
                  _mm256_set_epi64x(first[3], first[2], first[1], first[0]),
                  _mm256_set_epi64x(last[3], last[2], last[1], last[0]),
                  _mm256_setzero_pd(),
                  _mm256_setzero_pd(),
                  _mm256_setzero_pd()};
      accumulate<true>(block, s, lo, shared_lo);
      accumulate<false>(block, s, shared_lo, shared_hi);
      accumulate<true>(block, s, shared_hi, hi);

      std::array<double, 4> sv{}, sw{}, sc{};
      _mm256_storeu_pd(sv.data(), block.sv);
      _mm256_storeu_pd(sw.data(), block.sw);
      _mm256_storeu_pd(sc.data(), block.sc);
      for (std::size_t j = 0; j < lanes; ++j) {
        const std::size_t i = order_[b + j];
        s.gv[i] = sv[j];
        s.gw[i] = sw[j];
        s.gc[i] = sc[j];
      }
    }
  }

 private:
  std::vector<std::size_t> order_;
};

bool cpu_has_avx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
}
#endif

/// The training loop, inlined into one plain and one AVX2 build, which
/// differ only in `gradients`, the kernel of the hidden-unit sums.
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

  Adam opt_w(net.w.size()), opt_c(net.c.size()), opt_v(net.v.size());
  Adam opt_scalars(2);
  std::vector<double> gw(net.w.size()), gc(net.c.size()), gv(net.v.size());
  std::vector<double> scalars(2), gscalars(2);
  // Per-sample network outputs and loss gradients, and each unit's active
  // samples [first[i], last[i]), all refilled every iteration.
  const std::size_t n = xs.size();
  std::vector<double> ys_net(n), gs(n);
  std::vector<std::size_t> first(net.w.size()), last(net.w.size());

  // Views of vectors that keep their size through training.
  const UnitGradients sums{xs, gs, net.w, net.c, net.v, first, last,
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
    for (std::size_t i = 0; i < net.w.size(); ++i) {
      const double w = net.w[i];
      const double c = net.c[i];
      const auto active = [w, c](double x) { return w * x + c > 0.0; };
      if (w > 0.0) {
        first[i] = static_cast<std::size_t>(
            std::partition_point(xs.begin(), xs.end(),
                                 [&](double x) { return !active(x); }) -
            xs.begin());
        last[i] = n;
      } else if (w < 0.0) {
        first[i] = 0;
        last[i] = static_cast<std::size_t>(
            std::partition_point(xs.begin(), xs.end(), active) - xs.begin());
      } else {
        first[i] = 0;
        last[i] = active(xs.front()) ? n : 0;
      }
    }

    for (std::size_t k = 0; k < n; ++k) {
      ys_net[k] = net.gamma * xs[k] + net.beta;
    }
    for (std::size_t i = 0; i < net.w.size(); ++i) {
      const double w = net.w[i], c = net.c[i], v = net.v[i];
      for (std::size_t k = first[i]; k < last[i]; ++k) {
        ys_net[k] += v * (w * xs[k] + c);
      }
    }

    double ggamma = 0.0, gbeta = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double err = ys_net[k] - ys[k];
      gs[k] = 2.0 * err / static_cast<double>(n);
      gbeta += gs[k];
      ggamma += gs[k] * xs[k];
    }
    gradients(sums);

    const int t = it + 1;
    const double bc1 = 1.0 - std::pow(kBeta1, t);
    const double bc2 = 1.0 - std::pow(kBeta2, t);
    opt_w.step(net.w, gw, options.learning_rate, bc1, bc2);
    opt_c.step(net.c, gc, options.learning_rate, bc1, bc2);
    opt_v.step(net.v, gv, options.learning_rate, bc1, bc2);
    scalars[0] = net.gamma;
    scalars[1] = net.beta;
    gscalars[0] = ggamma;
    gscalars[1] = gbeta;
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

#if NOVA_MLP_AVX2
[[gnu::target("avx2")]] Pieces train_blocked(const ScalarFn& exact,
                                             const PwlTable& seed,
                                             int breakpoints, Domain domain,
                                             const MlpFitOptions& options) {
  BlockedGradients gradients;
  return train_loop(exact, seed, breakpoints, domain, options, gradients);
}
#endif

MlpKernel fastest_kernel() {
  return detail::blocked_kernel_available() ? MlpKernel::kBlockedAvx2
                                            : MlpKernel::kPerUnit;
}

Pieces train_mlp_pieces(MlpKernel kernel, const ScalarFn& exact,
                        const PwlTable& seed, int breakpoints, Domain domain,
                        const MlpFitOptions& options) {
#if NOVA_MLP_AVX2
  if (kernel == MlpKernel::kBlockedAvx2) {
    NOVA_EXPECTS(cpu_has_avx2());
    return train_blocked(exact, seed, breakpoints, domain, options);
  }
#endif
  NOVA_EXPECTS(kernel == MlpKernel::kPerUnit);
  PerUnitGradients gradients;
  return train_loop(exact, seed, breakpoints, domain, options, gradients);
}

}  // namespace

namespace detail {

bool blocked_kernel_available() {
#if NOVA_MLP_AVX2
  return cpu_has_avx2();
#else
  return false;
#endif
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
#if NOVA_MLP_AVX2
  if (kernel == MlpKernel::kBlockedAvx2) {
    NOVA_EXPECTS(cpu_has_avx2());
    BlockedGradients{}(sums);
    return;
  }
#endif
  NOVA_EXPECTS(kernel == MlpKernel::kPerUnit);
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
