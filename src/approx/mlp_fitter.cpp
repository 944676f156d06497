#include "approx/mlp_fitter.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "approx/fit.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"

namespace nova::approx {

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

/// Adam state for one parameter vector.
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

Pieces train_mlp_pieces(const ScalarFn& exact, const PwlTable& seed,
                        int breakpoints, Domain domain,
                        const MlpFitOptions& options) {
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

  Mlp best = net;
  double best_err = pieces_max_error(extract_pieces(net, domain, breakpoints),
                                     exact, domain, options.samples);

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
    for (std::size_t i = 0; i < net.w.size(); ++i) {
      const double w = net.w[i], c = net.c[i], v = net.v[i];
      double sv = 0.0, sw = 0.0, sc = 0.0;
      for (std::size_t k = first[i]; k < last[i]; ++k) {
        sv += gs[k] * (w * xs[k] + c);
        sw += (gs[k] * v) * xs[k];
        sc += gs[k] * v;
      }
      gv[i] = sv;
      gw[i] = sw;
      gc[i] = sc;
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

}  // namespace

PwlTable fit_mlp(NonLinearFn fn, int breakpoints, Domain domain,
                 const MlpFitOptions& options) {
  const ScalarFn exact = [fn](double x) { return eval_exact(fn, x); };
  const PwlTable seed = fit_adaptive(fn, breakpoints, domain);
  Pieces pieces = train_mlp_pieces(exact, seed, breakpoints, domain, options);
  return PwlTable(fn, domain, std::move(pieces.bounds),
                  std::move(pieces.slopes), std::move(pieces.biases));
}

PwlTable fit_mlp(NonLinearFn fn, int breakpoints) {
  return fit_mlp(fn, breakpoints, default_domain(fn));
}

PwlTable fit_mlp(const ScalarFn& fn, std::string label, int breakpoints,
                 Domain domain, const MlpFitOptions& options) {
  NOVA_EXPECTS(fn != nullptr);
  const PwlTable seed = fit_adaptive(fn, label, breakpoints, domain);
  Pieces pieces = train_mlp_pieces(fn, seed, breakpoints, domain, options);
  return PwlTable(fn, std::move(label), domain, std::move(pieces.bounds),
                  std::move(pieces.slopes), std::move(pieces.biases));
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
