#include "accel/systolic.hpp"

#include "common/assert.hpp"

namespace nova::accel {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

const char* to_string(Dataflow dataflow) {
  switch (dataflow) {
    case Dataflow::kWeightStationary: return "weight-stationary";
    case Dataflow::kOutputStationary: return "output-stationary";
  }
  return "?";
}

std::int64_t gemm_folds(const SystolicConfig& config, std::int64_t m,
                        std::int64_t k, std::int64_t n) {
  NOVA_EXPECTS(m > 0 && k > 0 && n > 0);
  NOVA_EXPECTS(config.rows > 0 && config.cols > 0);
  switch (config.dataflow) {
    case Dataflow::kWeightStationary:
      // Tiles of the stationary k x n weight operand.
      return ceil_div(k, config.rows) * ceil_div(n, config.cols);
    case Dataflow::kOutputStationary:
      // Tiles of the stationary m x n output.
      return ceil_div(m, config.rows) * ceil_div(n, config.cols);
  }
  NOVA_ASSERT(false);
  return 0;
}

std::int64_t fold_cycles(const SystolicConfig& config, std::int64_t m,
                         std::int64_t k, std::int64_t n) {
  NOVA_EXPECTS(m > 0 && k > 0 && n > 0);
  const std::int64_t rows = config.rows, cols = config.cols;
  switch (config.dataflow) {
    case Dataflow::kWeightStationary:
      // Load weights down the columns (rows cycles), stream the m
      // activation rows, then drain the skewed wavefront.
      return rows + m + (rows + cols - 2);
    case Dataflow::kOutputStationary:
      // Accumulate over k with fill/drain skew, then shift out the
      // rows x cols outputs.
      return k + (rows + cols - 2) + rows;
  }
  NOVA_ASSERT(false);
  return 0;
}

std::uint64_t gemm_cycles(const SystolicConfig& config, std::int64_t m,
                          std::int64_t k, std::int64_t n) {
  return static_cast<std::uint64_t>(gemm_folds(config, m, k, n) *
                                    fold_cycles(config, m, k, n));
}

std::uint64_t workload_cycles(const SystolicConfig& config,
                              const workload::ModelWorkload& workload) {
  std::uint64_t total = 0;
  for (const auto& g : workload.gemms) {
    total += gemm_cycles(config, g.m, g.k, g.n) *
             static_cast<std::uint64_t>(g.count);
  }
  return total;
}

}  // namespace nova::accel
