// Vector-level non-linear operators with exact and PWL-approximated paths.
//
// Softmax is computed the NN-LUT / NOVA way: max-shift, PWL exp on each
// element, accumulate, then one PWL reciprocal of the sum and a multiply per
// element -- every non-linear step is a (lookup, MAC) pair the vector unit
// executes. GeLU is a single direct PWL evaluation per element.
#pragma once

#include <span>
#include <vector>

#include "approx/mlp_fitter.hpp"

namespace nova::approx {

/// Exact reference softmax (numerically stable).
void softmax_exact(std::span<const float> in, std::span<float> out);

/// PWL softmax using trained exp and reciprocal tables.
/// Sums larger than the reciprocal table's domain are range-reduced by
/// halving (exactly representable in the fixed-point datapath).
void softmax_pwl(std::span<const float> in, std::span<float> out,
                 const PwlTable& exp_table, const PwlTable& recip_table);

/// Convenience: PWL softmax with library tables at `breakpoints`.
void softmax_pwl(std::span<const float> in, std::span<float> out,
                 int breakpoints);

/// Elementwise exact GeLU.
void gelu_exact(std::span<const float> in, std::span<float> out);

/// Elementwise PWL GeLU.
void gelu_pwl(std::span<const float> in, std::span<float> out,
              const PwlTable& gelu_table);
void gelu_pwl(std::span<const float> in, std::span<float> out,
              int breakpoints);

/// Worst-case absolute elementwise deviation between exact and PWL softmax
/// over `trials` random logit vectors of length `n` drawn from N(0, scale).
/// Used by tests and the accuracy study to bound the approximation error.
[[nodiscard]] double softmax_worst_error(int n, int breakpoints, int trials,
                                         double scale = 3.0,
                                         std::uint64_t seed = 11);

}  // namespace nova::approx
