#include "approx/interp.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace nova::approx {

InterpCurve InterpCurve::fit(std::vector<double> xs, std::vector<double> ys) {
  NOVA_EXPECTS(!xs.empty());
  NOVA_EXPECTS(xs.size() == ys.size());
  for (std::size_t i = 1; i < xs.size(); ++i) {
    NOVA_EXPECTS(xs[i] > xs[i - 1]);
  }
  InterpCurve curve;
  curve.xs_ = std::move(xs);
  curve.ys_ = std::move(ys);
  return curve;
}

double InterpCurve::eval(double x) const {
  NOVA_EXPECTS(!xs_.empty());
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  // First anchor strictly right of x; its predecessor starts the segment.
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const auto hi = static_cast<std::size_t>(it - xs_.begin());
  const auto lo = hi - 1;
  const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] + t * (ys_[hi] - ys_[lo]);
}

}  // namespace nova::approx
