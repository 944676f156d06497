#include "approx/softmax.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace nova::approx {

void softmax_exact(std::span<const float> in, std::span<float> out) {
  NOVA_EXPECTS(in.size() == out.size());
  NOVA_EXPECTS(!in.empty());
  const float mx = *std::max_element(in.begin(), in.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double e = std::exp(static_cast<double>(in[i]) - mx);
    out[i] = static_cast<float>(e);
    sum += e;
  }
  const double inv = 1.0 / sum;
  for (auto& v : out) v = static_cast<float>(v * inv);
}

void softmax_pwl(std::span<const float> in, std::span<float> out,
                 const PwlTable& exp_table, const PwlTable& recip_table) {
  NOVA_EXPECTS(in.size() == out.size());
  NOVA_EXPECTS(!in.empty());
  const float mx = *std::max_element(in.begin(), in.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    // Shifted logits are <= 0. The comparator bank saturates the *address*
    // for inputs left of the table domain, but the MAC still evaluates
    // a*x + b at the true x: the first segment's near-zero slope
    // extrapolates to ~0 (or negative, clamped like hardware would clamp an
    // exp output) instead of inflating the denominator.
    const double shifted = static_cast<double>(in[i]) - mx;
    const double e = std::max(0.0, exp_table.eval_fixed(shifted));
    out[i] = static_cast<float>(e);
    sum += e;
  }
  // Range-reduce the denominator into the reciprocal table's domain:
  // 1/(s * 2^k) = (1/s) * 2^-k, and the 2^-k rescale is a shift.
  int shifts = 0;
  double reduced = sum;
  while (reduced > recip_table.domain().hi) {
    reduced *= 0.5;
    ++shifts;
  }
  reduced = std::max(reduced, recip_table.domain().lo);
  const double inv = recip_table.eval_fixed(reduced) * std::ldexp(1.0, -shifts);
  for (auto& v : out) v = static_cast<float>(v * inv);
}

void softmax_pwl(std::span<const float> in, std::span<float> out,
                 int breakpoints) {
  auto& lib = PwlLibrary::instance();
  softmax_pwl(in, out, lib.get(NonLinearFn::kExp, breakpoints),
              lib.get(NonLinearFn::kReciprocal, breakpoints));
}

void gelu_exact(std::span<const float> in, std::span<float> out) {
  NOVA_EXPECTS(in.size() == out.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<float>(
        eval_exact(NonLinearFn::kGelu, static_cast<double>(in[i])));
  }
}

void gelu_pwl(std::span<const float> in, std::span<float> out,
              const PwlTable& gelu_table) {
  NOVA_EXPECTS(in.size() == out.size());
  // No input clamping: the edge segments extrapolate exactly as the MAC
  // does in hardware, and for GeLU the asymptotes (y ~ 0 and y ~ x) make
  // that extrapolation correct.
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<float>(
        gelu_table.eval_fixed(static_cast<double>(in[i])));
  }
}

void gelu_pwl(std::span<const float> in, std::span<float> out,
              int breakpoints) {
  gelu_pwl(in, out,
           PwlLibrary::instance().get(NonLinearFn::kGelu, breakpoints));
}

double softmax_worst_error(int n, int breakpoints, int trials, double scale,
                           std::uint64_t seed) {
  NOVA_EXPECTS(n >= 1);
  NOVA_EXPECTS(trials >= 1);
  Rng rng(seed);
  std::vector<float> logits(static_cast<std::size_t>(n));
  std::vector<float> exact(logits.size()), approx(logits.size());
  auto& lib = PwlLibrary::instance();
  const PwlTable& exp_table = lib.get(NonLinearFn::kExp, breakpoints);
  const PwlTable& recip_table =
      lib.get(NonLinearFn::kReciprocal, breakpoints);
  double worst = 0.0;
  for (int t = 0; t < trials; ++t) {
    for (auto& v : logits) v = static_cast<float>(rng.normal(0.0, scale));
    softmax_exact(logits, exact);
    softmax_pwl(logits, approx, exp_table, recip_table);
    for (std::size_t i = 0; i < logits.size(); ++i) {
      worst = std::max(worst,
                       std::abs(static_cast<double>(exact[i]) - approx[i]));
    }
  }
  return worst;
}

}  // namespace nova::approx
