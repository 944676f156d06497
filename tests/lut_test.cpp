// Tests for the LUT-based baseline vector units, including the differential
// property the paper relies on: LUT baselines and NOVA are functionally
// identical (same outputs, same latency) and differ only in where the
// slope/bias pairs come from (SRAM vs wires) -- i.e. in energy.
#include <gtest/gtest.h>

#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "core/overlay.hpp"
#include "core/vector_unit.hpp"
#include "lut/lut_unit.hpp"

namespace nova::lut {
namespace {

using approx::NonLinearFn;
using approx::PwlTable;

const PwlTable& exp16() {
  static const PwlTable table = approx::fit_mlp(NonLinearFn::kExp, 16);
  return table;
}

LutConfig small_lut(LutOrganization organization) {
  LutConfig cfg;
  cfg.organization = organization;
  cfg.units = 4;
  cfg.neurons_per_unit = 8;
  return cfg;
}

std::vector<std::vector<double>> random_inputs(int units, int per_unit,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> inputs(static_cast<std::size_t>(units));
  for (auto& stream : inputs) {
    for (int i = 0; i < per_unit; ++i) stream.push_back(rng.uniform(-8.0, 0.0));
  }
  return inputs;
}

TEST(LutUnit, OutputsMatchFunctionalEvaluation) {
  LutVectorUnit unit(small_lut(LutOrganization::kPerNeuron));
  const auto inputs = random_inputs(4, 21, 3);
  const auto result = unit.approximate(exp16(), inputs);
  for (std::size_t u = 0; u < inputs.size(); ++u) {
    ASSERT_EQ(result.outputs[u].size(), inputs[u].size());
    for (std::size_t i = 0; i < inputs[u].size(); ++i) {
      EXPECT_DOUBLE_EQ(result.outputs[u][i],
                       exp16().eval_fixed(inputs[u][i]));
    }
  }
}

TEST(LutUnit, TwoCycleLatencyAndWavePlusOneThroughput) {
  LutVectorUnit unit(small_lut(LutOrganization::kPerNeuron));
  const auto inputs = random_inputs(4, 8 * 5, 5);  // 5 full waves
  const auto result = unit.approximate(exp16(), inputs);
  EXPECT_EQ(result.wave_latency_cycles, 2);
  EXPECT_EQ(result.accel_cycles, 6u);
}

TEST(LutUnit, IdenticalOutputsAndLatencyToNova) {
  // The paper's premise: both organizations compute the same NN-LUT
  // function at the same speed; only area/power differ.
  const auto inputs = random_inputs(4, 30, 7);

  LutVectorUnit lut(small_lut(LutOrganization::kPerCore));
  const auto lut_result = lut.approximate(exp16(), inputs);

  core::NovaConfig nova_cfg;
  nova_cfg.routers = 4;
  nova_cfg.neurons_per_router = 8;
  core::NovaVectorUnit nova(nova_cfg);
  const auto nova_result = nova.approximate(exp16(), inputs);

  ASSERT_EQ(lut_result.outputs.size(), nova_result.outputs.size());
  for (std::size_t u = 0; u < inputs.size(); ++u) {
    for (std::size_t i = 0; i < inputs[u].size(); ++i) {
      EXPECT_DOUBLE_EQ(lut_result.outputs[u][i], nova_result.outputs[u][i]);
    }
  }
  EXPECT_EQ(lut_result.wave_latency_cycles, nova_result.wave_latency_cycles);
  EXPECT_EQ(lut_result.accel_cycles, nova_result.accel_cycles);
}

TEST(LutUnit, BankReadPerElement) {
  LutVectorUnit unit(small_lut(LutOrganization::kPerNeuron));
  const auto inputs = random_inputs(4, 10, 9);
  const auto result = unit.approximate(exp16(), inputs);
  EXPECT_EQ(result.bank_reads, 40u);
  EXPECT_EQ(result.mac_ops, 40u);
}

TEST(LutEnergy, PerCoreReadsCostMoreThanPerNeuron) {
  // Port sharing makes each shared-bank access more expensive -- the root
  // of the per-core LUT's higher power in Table III.
  const auto inputs = random_inputs(4, 64, 11);
  LutVectorUnit pn(small_lut(LutOrganization::kPerNeuron));
  LutConfig pc_cfg = small_lut(LutOrganization::kPerCore);
  pc_cfg.bank_ports = 8;
  LutVectorUnit pc(pc_cfg);
  const auto pn_result = pn.approximate(exp16(), inputs);
  const auto pc_result = pc.approximate(exp16(), inputs);
  const auto pn_energy =
      estimate_energy(hw::tech22(), pn.config(), 16, pn_result);
  const auto pc_energy =
      estimate_energy(hw::tech22(), pc.config(), 16, pc_result);
  EXPECT_GT(pc_energy.sram_pj, pn_energy.sram_pj);
  EXPECT_DOUBLE_EQ(pc_energy.mac_pj, pn_energy.mac_pj);
}

TEST(LutEnergy, LutSpendsMoreThanNovaPerElement) {
  // The headline mechanism: SRAM fetch energy per element exceeds NOVA's
  // amortized broadcast share at realistic neuron counts.
  const auto inputs = random_inputs(4, 128, 13);

  LutConfig lut_cfg;
  lut_cfg.organization = LutOrganization::kPerNeuron;
  lut_cfg.units = 4;
  lut_cfg.neurons_per_unit = 128;
  LutVectorUnit lut(lut_cfg);
  const auto lut_result = lut.approximate(exp16(), inputs);
  const auto lut_energy =
      estimate_energy(hw::tech22(), lut_cfg, 16, lut_result);

  core::NovaConfig nova_cfg;
  nova_cfg.routers = 4;
  nova_cfg.neurons_per_router = 128;
  core::NovaVectorUnit nova(nova_cfg);
  const auto nova_result = nova.approximate(exp16(), inputs);
  const auto nova_energy =
      core::estimate_energy(hw::tech22(), nova_cfg, 16, nova_result);

  EXPECT_GT(lut_energy.total_pj(), nova_energy.total_pj());
}

TEST(LutUnit, EmptyBatchIsZeroCycles) {
  LutVectorUnit unit(small_lut(LutOrganization::kPerNeuron));
  const std::vector<std::vector<double>> inputs(4);
  const auto result = unit.approximate(exp16(), inputs);
  EXPECT_EQ(result.accel_cycles, 0u);
}

}  // namespace
}  // namespace nova::lut
