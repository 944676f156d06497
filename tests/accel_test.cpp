// Tests for the accelerator substrates: the SCALE-Sim-like systolic cycle
// model (validated against hand-computed fold arithmetic) and the
// end-to-end inference energy evaluation behind Fig 8.
#include <gtest/gtest.h>

#include "accel/accelerator.hpp"
#include "accel/systolic.hpp"

namespace nova::accel {
namespace {

TEST(Systolic, WeightStationarySingleFoldHandCount) {
  // 8x8 array, GEMM m=4, k=8, n=8: one fold, cycles = 8 + 4 + (8+8-2) = 26.
  const SystolicConfig cfg{8, 8};
  EXPECT_EQ(gemm_cycles(cfg, 4, 8, 8), 26u);
}

TEST(Systolic, WeightStationaryFoldCount) {
  const SystolicConfig cfg{128, 128};
  // k=256 -> 2 row-folds; n=384 -> 3 col-folds.
  EXPECT_EQ(gemm_folds(cfg, 64, 256, 384), 6);
}

TEST(Systolic, CyclesMonotoneInEveryDimension) {
  const SystolicConfig cfg{64, 64};
  EXPECT_LE(gemm_cycles(cfg, 64, 64, 64), gemm_cycles(cfg, 128, 64, 64));
  EXPECT_LE(gemm_cycles(cfg, 64, 64, 64), gemm_cycles(cfg, 64, 128, 64));
  EXPECT_LE(gemm_cycles(cfg, 64, 64, 64), gemm_cycles(cfg, 64, 64, 128));
}

TEST(Accelerator, HostCatalogRoundTripsThroughResolver) {
  ASSERT_EQ(host_catalog().size(), 4u);
  for (const auto& entry : host_catalog()) {
    const auto kind = host_by_name(entry.name);
    ASSERT_TRUE(kind.has_value()) << entry.name;
    EXPECT_EQ(*kind, entry.kind);
    EXPECT_FALSE(make_accelerator(*kind).name.empty());
  }
  EXPECT_FALSE(host_by_name("cpu").has_value());
  EXPECT_FALSE(host_by_name("").has_value());
}

TEST(Accelerator, PaperConfigsInstantiate) {
  const auto tpu4 = make_accelerator(hw::AcceleratorKind::kTpuV4);
  EXPECT_EQ(tpu4.matrix_units, 8);
  EXPECT_EQ(tpu4.systolic.rows, 128);
  const auto react = make_accelerator(hw::AcceleratorKind::kReact);
  EXPECT_EQ(react.matrix_units, 10);
  EXPECT_DOUBLE_EQ(react.freq_mhz, 240.0);
}

TEST(Accelerator, MoreMatrixUnitsNeverSlower) {
  const auto v3 = make_accelerator(hw::AcceleratorKind::kTpuV3);
  const auto v4 = make_accelerator(hw::AcceleratorKind::kTpuV4);
  const auto wl = workload::model_workload(workload::roberta_base(1024));
  EXPECT_LE(inference_cycles(v4, wl), inference_cycles(v3, wl));
}

TEST(Accelerator, NovaApproxEnergyBelowLutBaselines) {
  // Fig 8's core comparison on the TPU-v4 configuration.
  const auto accel = make_accelerator(hw::AcceleratorKind::kTpuV4);
  const auto wl = workload::model_workload(workload::bert_mini(1024));
  const auto nova = evaluate_inference(
      accel, wl, ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
  const auto pn = evaluate_inference(
      accel, wl, ApproximatorChoice{hw::UnitKind::kPerNeuronLut, 16});
  const auto pc = evaluate_inference(
      accel, wl, ApproximatorChoice{hw::UnitKind::kPerCoreLut, 16});
  EXPECT_LT(nova.approx_energy_mj, pn.approx_energy_mj);
  EXPECT_LT(nova.approx_energy_mj, pc.approx_energy_mj);
  // Runtime identical across approximators (same throughput/latency).
  EXPECT_DOUBLE_EQ(nova.runtime_ms, pn.runtime_ms);
}

TEST(Accelerator, NovaOverheadIsSmallFractionOfInferenceEnergy) {
  // Section V.F: "energy overhead of only 0.5%" for NOVA on TPU-v4.
  const auto accel = make_accelerator(hw::AcceleratorKind::kTpuV4);
  for (const auto& cfg : workload::paper_benchmarks(1024)) {
    const auto wl = workload::model_workload(cfg);
    const auto nova = evaluate_inference(
        accel, wl, ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
    EXPECT_LT(nova.overhead_fraction(), 0.05) << cfg.name;
  }
}

TEST(Accelerator, ApproxOpsMatchWorkloadProfile) {
  const auto accel = make_accelerator(hw::AcceleratorKind::kTpuV3);
  const auto wl = workload::model_workload(workload::bert_tiny(128));
  const auto result = evaluate_inference(
      accel, wl, ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
  EXPECT_EQ(result.approx_ops,
            static_cast<std::uint64_t>(wl.nonlinear.total_approx_ops()));
}

TEST(Accelerator, ComputeDominatesApproxCycles) {
  // The vector units keep up with the fabric: non-linear work never becomes
  // the runtime bottleneck in the paper's configurations.
  for (const auto kind :
       {hw::AcceleratorKind::kTpuV3, hw::AcceleratorKind::kTpuV4}) {
    const auto accel = make_accelerator(kind);
    for (const auto& cfg : workload::paper_benchmarks(1024)) {
      const auto wl = workload::model_workload(cfg);
      const auto result = evaluate_inference(
          accel, wl, ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
      EXPECT_GE(result.compute_cycles, result.approx_cycles) << cfg.name;
    }
  }
}

}  // namespace
}  // namespace nova::accel
