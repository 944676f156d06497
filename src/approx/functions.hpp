// The non-linear activation functions attention layers are dense in
// (Section I of the paper), with exact reference implementations and the
// input domains over which the approximators are fit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace nova::approx {

/// Non-linear operations supported by the approximation pipeline. These are
/// the functions NN-LUT/NOVA target: softmax is decomposed into kExp and
/// kReciprocal (exp of shifted logits, then multiplication by the
/// reciprocal of their sum). One byte, so a request record carries it
/// without padding.
enum class NonLinearFn : std::uint8_t {
  kExp,         ///< e^x on (-inf, 0] as used by max-shifted softmax
  kReciprocal,  ///< 1/x on [1, n] for the softmax denominator
  kGelu,        ///< 0.5 x (1 + erf(x / sqrt 2))
  kTanh,
  kSigmoid,
  kErf,
  kSilu,        ///< x * sigmoid(x) (a.k.a. swish)
  kSoftplus,    ///< ln(1 + e^x)
  kRsqrt,       ///< 1/sqrt(x) on (0, n], used by layernorm
};

[[nodiscard]] const char* to_string(NonLinearFn fn);

/// Every supported function, in declaration order. from_string and the
/// CLI's --list both iterate this table, so the printed catalog can never
/// drift from what actually resolves.
[[nodiscard]] const std::vector<NonLinearFn>& all_functions();

/// Inverse of to_string: resolves a function name ("gelu", "exp", ...).
/// Returns nullopt when `name` names no known function.
[[nodiscard]] std::optional<NonLinearFn> from_string(const std::string& name);

/// Exact (double-precision) evaluation of the function.
[[nodiscard]] double eval_exact(NonLinearFn fn, double x);

/// The input interval over which hardware approximators for this function
/// are fit. Chosen to cover the value ranges observed in BERT-family
/// activations (and softmax internals at sequence lengths up to 4096).
struct Domain {
  double lo = -8.0;
  double hi = 8.0;
  [[nodiscard]] double width() const { return hi - lo; }
};

[[nodiscard]] Domain default_domain(NonLinearFn fn);

}  // namespace nova::approx
