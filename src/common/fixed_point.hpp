// Saturating signed fixed-point arithmetic used by the NOVA datapath model.
//
// The paper's NOVA link carries 16-bit words (8 slope/bias pairs per 257-bit
// flit); the comparators and MACs operate on the same 16-bit representation.
// `Fixed<I, F>` models a signed fixed-point number with I integer bits
// (including sign) and F fractional bits, stored in the smallest integer that
// fits. Arithmetic saturates instead of wrapping, matching the RTL datapath
// convention for activation approximators (overflow clamps to the
// representable extreme rather than aliasing).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/assert.hpp"

namespace nova {

namespace detail {

template <int Bits>
using storage_t = std::conditional_t<
    (Bits <= 8), std::int8_t,
    std::conditional_t<(Bits <= 16), std::int16_t,
                       std::conditional_t<(Bits <= 32), std::int32_t,
                                          std::int64_t>>>;

}  // namespace detail

/// Signed saturating fixed-point value with `IntBits` integer bits (sign
/// included) and `FracBits` fractional bits.
template <int IntBits, int FracBits>
class Fixed {
  static_assert(IntBits >= 1, "need at least a sign bit");
  static_assert(FracBits >= 0, "fractional bits must be non-negative");
  static_assert(IntBits + FracBits <= 32, "storage capped at 32 bits");

 public:
  static constexpr int kTotalBits = IntBits + FracBits;
  static constexpr int kFracBits = FracBits;
  using storage_type = detail::storage_t<kTotalBits>;

  constexpr Fixed() = default;

  /// Quantizes a real value (round half away from zero, saturate on
  /// overflow): adds 0.5 carrying the sign of the scaled value, then
  /// truncates. The sign is copied by a bit mask rather than a comparison,
  /// so quantizing random-signed data costs no mispredicted branch; -0.0
  /// gets -0.5 and truncates to 0 as +0.0 does.
  static constexpr Fixed from_double(double v) {
    const double scaled = v * static_cast<double>(1LL << FracBits);
    constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
    const double half =
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(0.5) |
                              (std::bit_cast<std::uint64_t>(scaled) & kSignBit));
    return Fixed(saturate(static_cast<std::int64_t>(scaled + half)));
  }

  /// Reinterprets a raw two's-complement bit pattern (must be in range).
  static constexpr Fixed from_raw(std::int64_t raw) {
    NOVA_EXPECTS(raw >= raw_min() && raw <= raw_max());
    return Fixed(static_cast<storage_type>(raw));
  }

  [[nodiscard]] constexpr double to_double() const {
    return static_cast<double>(raw_) / static_cast<double>(1LL << FracBits);
  }
  [[nodiscard]] constexpr storage_type raw() const { return raw_; }

  [[nodiscard]] static constexpr double max_value() {
    return static_cast<double>(raw_max()) / (1LL << FracBits);
  }
  [[nodiscard]] static constexpr double min_value() {
    return static_cast<double>(raw_min()) / (1LL << FracBits);
  }
  /// Smallest representable increment.
  [[nodiscard]] static constexpr double resolution() {
    return 1.0 / static_cast<double>(1LL << FracBits);
  }

  constexpr Fixed operator+(Fixed rhs) const {
    return Fixed(saturate(static_cast<std::int64_t>(raw_) + rhs.raw_));
  }
  constexpr Fixed operator-(Fixed rhs) const {
    return Fixed(saturate(static_cast<std::int64_t>(raw_) - rhs.raw_));
  }
  constexpr Fixed operator-() const {
    return Fixed(saturate(-static_cast<std::int64_t>(raw_)));
  }
  /// Full-precision multiply followed by a single rounding shift, as a
  /// hardware MAC would perform it.
  constexpr Fixed operator*(Fixed rhs) const {
    const std::int64_t prod = static_cast<std::int64_t>(raw_) * rhs.raw_;
    const std::int64_t half = FracBits > 0 ? (1LL << (FracBits - 1)) : 0;
    const std::int64_t shifted =
        prod >= 0 ? (prod + half) >> FracBits : -((-prod + half) >> FracBits);
    return Fixed(saturate(shifted));
  }

  /// Fused multiply-add `a*x + b`: the exact operation performed by the NOVA
  /// router MAC on (slope, input, bias). One rounding at the end. Computed
  /// in 32 bits when a full-range product plus the shifted bias and the
  /// rounding half cannot leave int32 (Word16: below 2^30 + 2^25 + 2^10),
  /// which lets a loop of MACs vectorize; wider formats use 64 bits.
  [[nodiscard]] static constexpr Fixed mac(Fixed a, Fixed x, Fixed b) {
    using Acc = std::conditional_t<kMacFitsInt32, std::int32_t, std::int64_t>;
    const Acc prod = static_cast<Acc>(a.raw_) * static_cast<Acc>(x.raw_);
    const Acc bias = static_cast<Acc>(b.raw_) << FracBits;
    const Acc sum = prod + bias;
    const Acc half = FracBits > 0 ? Acc{1} << (FracBits - 1) : Acc{0};
    const Acc shifted =
        sum >= 0 ? (sum + half) >> FracBits : -((-sum + half) >> FracBits);
    return Fixed(saturate(shifted));
  }

  constexpr auto operator<=>(const Fixed&) const = default;

 private:
  static constexpr std::int64_t raw_max() {
    return (1LL << (kTotalBits - 1)) - 1;
  }
  static constexpr std::int64_t raw_min() {
    return -(1LL << (kTotalBits - 1));
  }
  template <typename Wide>
  static constexpr storage_type saturate(Wide v) {
    return static_cast<storage_type>(std::clamp(
        v, static_cast<Wide>(raw_min()), static_cast<Wide>(raw_max())));
  }

  /// Whether an upper bound on |a*x + (b << FracBits)| plus the rounding
  /// half, over all raw operands, fits int32. Evaluated in unsigned
  /// arithmetic so no format can overflow the bound itself.
  static constexpr bool kMacFitsInt32 =
      (1ULL << (2 * kTotalBits - 2)) + (1ULL << (kTotalBits - 1 + FracBits)) +
          (1ULL << FracBits) <=
      0x7fffffffULL;

  constexpr explicit Fixed(storage_type raw) : raw_(raw) {}

  storage_type raw_ = 0;
};

/// The 16-bit word format carried on the 257-bit NOVA link: Q6.10 covers the
/// activation ranges of softmax/GeLU inputs seen in BERT-family models while
/// leaving 10 bits of fraction for slope precision.
using Word16 = Fixed<6, 10>;

}  // namespace nova
