#include "approx/pwl.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace nova::approx {

PwlTable::PwlTable(NonLinearFn fn, Domain domain,
                   std::vector<double> boundaries, std::vector<double> slopes,
                   std::vector<double> biases)
    : fn_(fn),
      exact_([fn](double x) { return eval_exact(fn, x); }),
      label_(to_string(fn)),
      domain_(domain),
      boundaries_(std::move(boundaries)),
      slopes_(std::move(slopes)),
      biases_(std::move(biases)) {
  NOVA_EXPECTS(!slopes_.empty());
  NOVA_EXPECTS(slopes_.size() == biases_.size());
  NOVA_EXPECTS(boundaries_.size() + 1 == slopes_.size());
  NOVA_EXPECTS(std::is_sorted(boundaries_.begin(), boundaries_.end()));
  init_quant_boundaries();
}

PwlTable::PwlTable(ScalarFn exact, std::string label, Domain domain,
                   std::vector<double> boundaries, std::vector<double> slopes,
                   std::vector<double> biases)
    : fn_(NonLinearFn::kGelu),  // unused when a custom exact fn is present
      exact_(std::move(exact)),
      label_(std::move(label)),
      domain_(domain),
      boundaries_(std::move(boundaries)),
      slopes_(std::move(slopes)),
      biases_(std::move(biases)) {
  NOVA_EXPECTS(exact_ != nullptr);
  NOVA_EXPECTS(!slopes_.empty());
  NOVA_EXPECTS(slopes_.size() == biases_.size());
  NOVA_EXPECTS(boundaries_.size() + 1 == slopes_.size());
  NOVA_EXPECTS(std::is_sorted(boundaries_.begin(), boundaries_.end()));
  init_quant_boundaries();
}

void PwlTable::init_quant_boundaries() {
  // b <= raw/2^frac (the double-domain comparison on a quantized input) is
  // equivalent to ceil(b * 2^frac) <= raw for integer raw: multiplying by a
  // power of two only rescales the exponent, so the product and its ceil are
  // exact. Clamping to int32 preserves the verdict for boundaries outside
  // the Word16 range (always-below / never-below every representable word).
  // The padding to 2^k - 1 entries lets the search halve a power-of-two
  // window with no bounds test: a pad entry is never <= any word.
  quant_boundaries_.reserve(std::bit_ceil(slopes_.size()) - 1);
  const double scale = static_cast<double>(1LL << Word16::kFracBits);
  for (const double b : boundaries_) {
    const double scaled = std::ceil(b * scale);
    const double clamped =
        std::min(std::max(scaled, -2147483648.0), 2147483647.0);
    quant_boundaries_.push_back(static_cast<std::int32_t>(clamped));
  }
  quant_boundaries_.resize(std::bit_ceil(slopes_.size()) - 1,
                           std::numeric_limits<std::int32_t>::max());
}

int PwlTable::lookup_address(double x) const {
  // First boundary strictly greater than x gives the segment index; inputs
  // beyond the last boundary land in the final segment (saturating, as the
  // comparator bank does).
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), x);
  return static_cast<int>(it - boundaries_.begin());
}

double PwlTable::eval(double x) const {
  const int i = lookup_address(x);
  return slopes_[static_cast<std::size_t>(i)] * x +
         biases_[static_cast<std::size_t>(i)];
}

PwlTable::QuantPair PwlTable::quantized_pair(int i) const {
  NOVA_EXPECTS(i >= 0 && i < breakpoints());
  return QuantPair{Word16::from_double(slopes_[static_cast<std::size_t>(i)]),
                   Word16::from_double(biases_[static_cast<std::size_t>(i)])};
}

double PwlTable::eval_fixed(double x) const {
  const Word16 xq = Word16::from_double(x);
  const int i = lookup_address(xq);
  const QuantPair pair = quantized_pair(i);
  return Word16::mac(pair.slope, xq, pair.bias).to_double();
}

double PwlTable::max_abs_error(int samples) const {
  NOVA_EXPECTS(samples >= 2);
  double worst = 0.0;
  for (int k = 0; k < samples; ++k) {
    const double x =
        domain_.lo + domain_.width() * k / static_cast<double>(samples - 1);
    worst = std::max(worst, std::abs(eval(x) - exact_(x)));
  }
  return worst;
}

double PwlTable::mean_abs_error(int samples) const {
  NOVA_EXPECTS(samples >= 2);
  double total = 0.0;
  for (int k = 0; k < samples; ++k) {
    const double x =
        domain_.lo + domain_.width() * k / static_cast<double>(samples - 1);
    total += std::abs(eval(x) - exact_(x));
  }
  return total / samples;
}

}  // namespace nova::approx
