// NN-LUT-style breakpoint learning (paper Section IV): a 2-layer MLP with
// ReLU hidden units is trained at compile time to regress the non-linear
// function; since a 1-D ReLU MLP *is* a piecewise-linear function, the
// trained network is converted exactly into a PwlTable. The number of hidden
// nodes sets the number of breakpoints ("the number of nodes in the hidden
// layer represent the number of breakpoints").
//
// Full-batch training spends most of its time summing each hidden unit's
// gradients over the samples where the unit is active. On x86-64 GCC and
// Clang builds whose CPU has AVX2, fit_mlp sums four units per 256-bit
// vector; elsewhere it sums one unit at a time. Each vector lane adds only
// its own unit's terms, in the same order the per-unit loop does, so both
// kernels train the same tables bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>

#include "approx/pwl.hpp"

namespace nova::approx {

/// Training hyper-parameters for the compile-time fit.
struct MlpFitOptions {
  int iterations = 4000;
  int samples = 512;          ///< training points over the fit domain
  double learning_rate = 2e-3;
  std::uint64_t seed = 7;
  /// Keep hidden-unit kinks ordered and inside the domain by re-projecting
  /// every `reproject_every` steps (stabilizes training; 0 disables).
  int reproject_every = 200;
};

/// Trains the MLP and converts it to a PWL table with exactly `breakpoints`
/// segments (hidden width = breakpoints - 1 kinks).
[[nodiscard]] PwlTable fit_mlp(NonLinearFn fn, int breakpoints, Domain domain,
                               const MlpFitOptions& options = {});
[[nodiscard]] PwlTable fit_mlp(NonLinearFn fn, int breakpoints);
/// Same for a user-defined function: maps any custom activation onto the
/// NOVA/NN-LUT hardware.
[[nodiscard]] PwlTable fit_mlp(const ScalarFn& fn, std::string label,
                               int breakpoints, Domain domain,
                               const MlpFitOptions& options = {});

namespace detail {

/// The two gradient kernels of the trainer. fit_mlp runs kBlockedAvx2 when
/// blocked_kernel_available() and kPerUnit otherwise; both train the same
/// tables bit for bit. Declared here so tests can run both on one host.
enum class MlpKernel { kPerUnit, kBlockedAvx2 };

/// True when this build compiled kBlockedAvx2 (x86-64 GCC or Clang) and
/// the CPU supports AVX2.
[[nodiscard]] bool blocked_kernel_available();

/// fit_mlp's custom-function overload, trained through `kernel`.
/// kBlockedAvx2 requires blocked_kernel_available().
[[nodiscard]] PwlTable fit_mlp(MlpKernel kernel, const ScalarFn& fn,
                               std::string label, int breakpoints,
                               Domain domain,
                               const MlpFitOptions& options = {});

/// One training iteration's hidden-unit gradient sums. Unit i is active on
/// samples [first[i], last[i]); over those, in ascending k, with g = gs[k]
/// and x = xs[k], gv[i] sums g*(w[i]*x + c[i]), gw[i] sums (g*v[i])*x and
/// gc[i] sums g*v[i], each starting from +0.0.
struct UnitGradients {
  std::span<const double> xs, gs;
  std::span<const double> w, c, v;
  std::span<const std::size_t> first, last;
  std::span<double> gv, gw, gc;
};

/// Fills gv, gw and gc through `kernel`; kBlockedAvx2 requires
/// blocked_kernel_available().
void unit_gradients(MlpKernel kernel, const UnitGradients& sums);

}  // namespace detail

/// A trained PWL provider with memoization: tables are expensive to train
/// and reused across benches/examples/the mapper. get() is thread-safe
/// (the serving layer's worker pool shares the process-wide instance);
/// returned references stay valid for the library's lifetime.
class PwlLibrary {
 public:
  /// Returns the MLP-fit table for (fn, breakpoints), training on first
  /// use. Training is serialized under the library mutex; hot paths should
  /// pre-warm the tables they need before fanning out.
  const PwlTable& get(NonLinearFn fn, int breakpoints);

  /// Process-wide shared library instance.
  static PwlLibrary& instance();

 private:
  struct Key {
    NonLinearFn fn;
    int breakpoints;
    bool operator<(const Key& o) const {
      if (fn != o.fn) return fn < o.fn;
      return breakpoints < o.breakpoints;
    }
  };
  std::mutex mutex_;
  std::map<Key, PwlTable> tables_;
};

}  // namespace nova::approx
