// Failure-injection tests for the contract layer: every public API rejects
// malformed configurations/inputs by aborting with a diagnostic rather
// than silently producing garbage (Core Guidelines I.5/I.6 via
// NOVA_EXPECTS). These are death tests; each documents the exact
// precondition a caller must uphold.
#include <gtest/gtest.h>

#include "accel/systolic.hpp"
#include "approx/fit.hpp"
#include "common/fixed_point.hpp"
#include "core/mapper.hpp"
#include "core/vector_unit.hpp"
#include "hwmodel/components.hpp"
#include "lut/lut_unit.hpp"
#include "nn/tensor.hpp"
#include "workload/bert.hpp"

namespace nova {
namespace {

TEST(Contracts, FixedPointRejectsOutOfRangeRaw) {
  EXPECT_DEATH(Word16::from_raw(1LL << 40), "precondition");
}

TEST(Contracts, PwlTableRejectsMismatchedShapes) {
  // 2 boundaries with 2 slopes: boundaries must be exactly slopes-1.
  EXPECT_DEATH(approx::PwlTable(approx::NonLinearFn::kTanh,
                                approx::Domain{-1.0, 1.0}, {0.0, 0.5},
                                {1.0, 1.0}, {0.0, 0.0}),
               "precondition");
}

TEST(Contracts, PwlTableRejectsUnsortedBoundaries) {
  EXPECT_DEATH(approx::PwlTable(approx::NonLinearFn::kTanh,
                                approx::Domain{-1.0, 1.0}, {0.5, -0.5},
                                {1.0, 1.0, 1.0}, {0.0, 0.0, 0.0}),
               "precondition");
}

TEST(Contracts, FittersRejectNonPositiveBreakpoints) {
  EXPECT_DEATH(approx::fit_uniform(approx::NonLinearFn::kGelu, 0),
               "precondition");
}

TEST(Contracts, ReciprocalRejectsZero) {
  EXPECT_DEATH((void)approx::eval_exact(approx::NonLinearFn::kReciprocal, 0.0),
               "precondition");
  EXPECT_DEATH((void)approx::eval_exact(approx::NonLinearFn::kRsqrt, -1.0),
               "precondition");
}

TEST(Contracts, MapperRejectsBadPairsPerFlit) {
  const auto table = approx::fit_uniform(approx::NonLinearFn::kTanh, 8);
  EXPECT_DEATH(core::make_schedule(table, 0), "precondition");
}

TEST(Contracts, VectorUnitRejectsBadConfig) {
  core::NovaConfig cfg;
  cfg.routers = 0;
  EXPECT_DEATH(core::NovaVectorUnit{cfg}, "precondition");
  core::NovaConfig cfg2;
  cfg2.accel_freq_mhz = -1.0;
  EXPECT_DEATH(core::NovaVectorUnit{cfg2}, "precondition");
}

TEST(Contracts, VectorUnitRejectsWrongStreamCount) {
  core::NovaConfig cfg;
  cfg.routers = 4;
  core::NovaVectorUnit unit(cfg);
  const auto table = approx::fit_uniform(approx::NonLinearFn::kTanh, 8);
  const std::vector<std::vector<double>> three_streams(3);
  EXPECT_DEATH(unit.approximate(table, three_streams), "precondition");
}

TEST(Contracts, LutUnitRejectsWrongStreamCount) {
  lut::LutConfig cfg;
  cfg.units = 2;
  lut::LutVectorUnit unit(cfg);
  const auto table = approx::fit_uniform(approx::NonLinearFn::kTanh, 8);
  const std::vector<std::vector<double>> one_stream(1);
  EXPECT_DEATH(unit.approximate(table, one_stream), "precondition");
}

TEST(Contracts, SystolicRejectsDegenerateGemm) {
  const accel::SystolicConfig cfg{8, 8};
  EXPECT_DEATH((void)accel::gemm_cycles(cfg, 0, 8, 8), "precondition");
}

TEST(Contracts, WorkloadRejectsIndivisibleHeads) {
  workload::BertConfig cfg = workload::bert_tiny(64);
  cfg.heads = 3;  // 128 % 3 != 0
  EXPECT_DEATH(workload::model_workload(cfg), "precondition");
}

TEST(Contracts, TensorRejectsShapeMismatch) {
  EXPECT_DEATH(nn::Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), "precondition");
  nn::Tensor a({2, 3});
  nn::Tensor b({4, 2});
  EXPECT_DEATH(nn::matmul(a, b), "precondition");
}

TEST(Contracts, TensorAtChecksBounds) {
  nn::Tensor a({2, 2});
  EXPECT_DEATH((void)a.at(2, 0), "precondition");
}

TEST(Contracts, SramModelsRejectNonPositiveSizes) {
  const auto& t = hw::tech22();
  EXPECT_DEATH((void)hw::sram_bank_area_um2(t, 0, 1), "precondition");
  EXPECT_DEATH((void)hw::sram_read_energy_pj(t, 4, 0), "precondition");
}

}  // namespace
}  // namespace nova
