#include "accel/systolic.hpp"

#include "common/assert.hpp"

namespace nova::accel {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

std::int64_t gemm_folds(const SystolicConfig& config, std::int64_t m,
                        std::int64_t k, std::int64_t n) {
  NOVA_EXPECTS(m > 0 && k > 0 && n > 0);
  NOVA_EXPECTS(config.rows > 0 && config.cols > 0);
  return ceil_div(k, config.rows) * ceil_div(n, config.cols);
}

std::int64_t fold_cycles(const SystolicConfig& config, std::int64_t m,
                         std::int64_t k, std::int64_t n) {
  NOVA_EXPECTS(m > 0 && k > 0 && n > 0);
  const std::int64_t rows = config.rows, cols = config.cols;
  // Load weights down the columns (rows cycles), stream the m activation
  // rows, then drain the skewed wavefront.
  return rows + m + (rows + cols - 2);
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
