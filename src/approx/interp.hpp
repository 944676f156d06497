// Piecewise-linear interpolation through sampled anchor points.
//
// This is the PwlTable idiom applied to *measured* data instead of an
// analytic function: a handful of (x, y) anchors -- e.g. cycle-accurate
// calibration runs at log-spaced sequence lengths -- define a PWL curve,
// and every other x is read off by chord interpolation between its
// bracketing anchors. Evaluation at an anchor x returns the anchor y
// exactly, so a surrogate built on InterpCurve is *exact* wherever it was
// measured and interpolated only in between.
#pragma once

#include <vector>

namespace nova::approx {

/// A piecewise-linear curve through anchor points.
class InterpCurve {
 public:
  InterpCurve() = default;

  /// Fits the PWL through (xs[i], ys[i]) exactly as measured. `xs` must be
  /// strictly increasing and non-empty; `ys` carry no monotonicity contract
  /// (e.g. measured calibration rates). Anchors are reproduced bit-exactly
  /// by eval. A single anchor yields a constant curve.
  [[nodiscard]] static InterpCurve fit(std::vector<double> xs,
                                       std::vector<double> ys);

  /// Chord interpolation at x; clamped to the end anchors outside
  /// [xs.front(), xs.back()] (extrapolating past the measured range would
  /// fabricate data).
  [[nodiscard]] double eval(double x) const;

  [[nodiscard]] int anchors() const { return static_cast<int>(xs_.size()); }
  [[nodiscard]] const std::vector<double>& xs() const { return xs_; }
  [[nodiscard]] const std::vector<double>& ys() const { return ys_; }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace nova::approx
