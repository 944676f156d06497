// SCALE-Sim-like analytic cycle model of a systolic array (Samajdar et al.,
// ISPASS 2020), used to obtain runtimes for the paper's energy evaluation
// (Section V.F runs SCALE-Sim under the TPU-like configurations).
//
// The analytic mode computes the fold count (how many array-sized tiles the
// GEMM decomposes into) and the fill + stream + drain cycles per fold, for
// the weight-stationary dataflow of the TPU MXU, which every host uses.
#pragma once

#include <cstdint>

#include "workload/bert.hpp"

namespace nova::accel {

struct SystolicConfig {
  int rows = 128;
  int cols = 128;
};

/// Number of array-sized tiles ("folds") the GEMM decomposes into: tiles of
/// the stationary k x n weight operand.
[[nodiscard]] std::int64_t gemm_folds(const SystolicConfig& config,
                                      std::int64_t m, std::int64_t k,
                                      std::int64_t n);

/// Fill + stream + drain cycles of one fold.
[[nodiscard]] std::int64_t fold_cycles(const SystolicConfig& config,
                                       std::int64_t m, std::int64_t k,
                                       std::int64_t n);

/// Cycles for one (m x k) * (k x n) GEMM (a single shape execution; the
/// caller multiplies by GemmShape::count).
///
/// The k x n operand is pinned as rows x cols tiles; each of
/// ceil(k/rows) * ceil(n/cols) folds loads weights (rows cycles), streams m
/// activation rows, and drains (rows + cols - 2 skew cycles).
[[nodiscard]] std::uint64_t gemm_cycles(const SystolicConfig& config,
                                        std::int64_t m, std::int64_t k,
                                        std::int64_t n);

/// Total cycles for a whole model workload on one array.
[[nodiscard]] std::uint64_t workload_cycles(
    const SystolicConfig& config, const workload::ModelWorkload& workload);

}  // namespace nova::accel
