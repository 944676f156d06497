// Tests for the hardware cost models: component monotonicity properties,
// the timing analysis behind the paper's scalability claim, and regression
// against every published synthesis anchor (Table III / Table IV).
#include <gtest/gtest.h>

#include <cmath>

#include "hwmodel/calibration.hpp"
#include "hwmodel/components.hpp"
#include "hwmodel/timing.hpp"
#include "hwmodel/vector_unit_cost.hpp"

namespace nova::hw {
namespace {

TEST(Components, SramAreaGrowsWithBytesAndPorts) {
  const auto& t = tech22();
  EXPECT_LT(sram_bank_area_um2(t, 64, 1), sram_bank_area_um2(t, 128, 1));
  EXPECT_LT(sram_bank_area_um2(t, 64, 1), sram_bank_area_um2(t, 64, 2));
}

TEST(Components, SramReadEnergyGrowsWithPorts) {
  const auto& t = tech22();
  EXPECT_LT(sram_read_energy_pj(t, 4, 1), sram_read_energy_pj(t, 4, 8));
}

TEST(Components, WireEnergyScalesLinearlyWithLength) {
  const auto& t = tech22();
  const double e1 = wire_energy_pj(t, 257, 1.0);
  const double e3 = wire_energy_pj(t, 257, 3.0);
  EXPECT_NEAR(e3, 3.0 * e1, 1e-12);
}

TEST(Timing, PaperScalabilityTenRoutersAt1500MHz) {
  // Section V.A: "a maximum of 10 routers with clockless repeaters placed
  // 1 mm apart can be traversed at 1.5 GHz clock".
  const auto& t = tech22();
  EXPECT_EQ(max_hops_per_cycle(t, 1500.0, 1.0), 10);
}

TEST(Timing, AllPaperConfigsAreSingleCycleTraversable) {
  // The broadcast must complete within one *accelerator* (lookup) cycle;
  // the 2x NoC clock governs flit launch rate while the repeated line is
  // wave-pipelined SMART-style, which is how the paper can claim both a 2x
  // NoC clock on the TPU (2.8 GHz) and single-cycle traversal judged at
  // <= 1.5 GHz.
  const auto& t = tech22();
  for (const auto accel :
       {AcceleratorKind::kReact, AcceleratorKind::kTpuV3,
        AcceleratorKind::kTpuV4, AcceleratorKind::kJetsonNvdla}) {
    const auto cfg = paper_unit_config(accel, UnitKind::kNovaNoc);
    const LineNocLayout layout{cfg.units, cfg.spacing_mm};
    EXPECT_EQ(broadcast_latency_cycles(t, cfg.accel_freq_mhz, layout), 1)
        << to_string(accel);
  }
}

TEST(Timing, BeyondTenRoutersNeedsMultipleCycles) {
  const auto& t = tech22();
  const LineNocLayout layout{16, 1.0};
  EXPECT_GT(broadcast_latency_cycles(t, 1500.0, layout), 1);
}

TEST(Timing, MaxSingleCycleFreqDecreasesWithRouters) {
  const auto& t = tech22();
  const double f10 = max_single_cycle_freq_mhz(t, LineNocLayout{10, 1.0});
  const double f20 = max_single_cycle_freq_mhz(t, LineNocLayout{20, 1.0});
  EXPECT_GT(f10, f20);
  EXPECT_GE(f10, 1500.0);  // the paper's 10-router point must be feasible
}

TEST(VectorUnitCost, NovaLinkIs257BitsAndNocClockDoubles) {
  VectorUnitConfig cfg;  // defaults: 16 breakpoints, 8 pairs, 16-bit words
  EXPECT_EQ(cfg.link_bits(), 257);
  EXPECT_EQ(cfg.noc_clock_multiplier(), 2);
}

TEST(VectorUnitCost, NovaBeatsBothLutBaselinesOnAreaAndPowerEverywhere) {
  // The paper's headline structural claim, checked with the *uncalibrated*
  // model on every accelerator: the ordering must be a property of the
  // component structure, not of calibration.
  const auto& t = tech22();
  for (const auto accel : {AcceleratorKind::kReact, AcceleratorKind::kTpuV3,
                           AcceleratorKind::kTpuV4}) {
    const auto nova =
        estimate_cost(t, paper_unit_config(accel, UnitKind::kNovaNoc));
    const auto pn =
        estimate_cost(t, paper_unit_config(accel, UnitKind::kPerNeuronLut));
    const auto pc =
        estimate_cost(t, paper_unit_config(accel, UnitKind::kPerCoreLut));
    EXPECT_LT(nova.area_um2, pn.area_um2) << to_string(accel);
    EXPECT_LT(nova.area_um2, pc.area_um2) << to_string(accel);
    EXPECT_LT(nova.power_mw, pn.power_mw) << to_string(accel);
    EXPECT_LT(nova.power_mw, pc.power_mw) << to_string(accel);
  }
}

TEST(VectorUnitCost, PerCoreLutSavesAreaButBurnsPowerVsPerNeuron) {
  // Section V.B: per-core LUT reduces storage redundancy (area) but its
  // port sharing costs power at the high-frequency TPU configuration.
  const auto& t = tech22();
  const auto pn = estimate_cost(
      t, paper_unit_config(AcceleratorKind::kTpuV3, UnitKind::kPerNeuronLut));
  const auto pc = estimate_cost(
      t, paper_unit_config(AcceleratorKind::kTpuV3, UnitKind::kPerCoreLut));
  EXPECT_LT(pc.area_um2, pn.area_um2);
  EXPECT_GT(pc.power_mw, pn.power_mw);
}

TEST(VectorUnitCost, TpuV4IsExactlyTwiceTpuV3) {
  const auto& t = tech22();
  for (const auto kind : {UnitKind::kNovaNoc, UnitKind::kPerNeuronLut}) {
    const auto v3 = estimate_cost(t, paper_unit_config(AcceleratorKind::kTpuV3, kind));
    const auto v4 = estimate_cost(t, paper_unit_config(AcceleratorKind::kTpuV4, kind));
    EXPECT_NEAR(v4.area_um2 / v3.area_um2, 2.0, 0.05);
  }
}

TEST(VectorUnitCost, NovaAreaGrowsSublinearlyPerNeuron) {
  // Fig 6's shape: per-neuron cost falls as the router fixed cost amortizes.
  const auto& t = tech22();
  VectorUnitConfig small;
  small.neurons_per_unit = 16;
  VectorUnitConfig large;
  large.neurons_per_unit = 256;
  const double per_small =
      estimate_cost(t, small).area_um2 / small.total_neurons();
  const double per_large =
      estimate_cost(t, large).area_um2 / large.total_neurons();
  EXPECT_GT(per_small, per_large);
}

struct AnchorCase {
  AcceleratorKind accel;
  UnitKind kind;
};

class CalibrationAccuracy : public ::testing::TestWithParam<AnchorCase> {};

TEST_P(CalibrationAccuracy, StructuralModelWithinToleranceOfPaper) {
  // The structural (uncalibrated) model must land near every published
  // anchor. Area is a clean synthesis output: 25% band. Power depends on
  // unpublished switching activity: 50% band, with two documented outliers
  // (README, "Substitutions and calibration"): NVDLA-NOVA (paper's tiny
  // 1.294 mW implies a far lower duty cycle than the synthesis default) and
  // REACT-NOVA.
  const auto [accel, kind] = GetParam();
  const auto anchor = paper_anchor(accel, kind);
  ASSERT_TRUE(anchor.has_value());
  const auto cost = estimate_cost(tech22(), paper_unit_config(accel, kind));
  EXPECT_NEAR(cost.area_mm2() / anchor->area_mm2, 1.0, 0.25)
      << to_string(accel) << " / " << to_string(kind) << " area";
  const bool power_outlier =
      (accel == AcceleratorKind::kJetsonNvdla && kind == UnitKind::kNovaNoc) ||
      (accel == AcceleratorKind::kReact && kind == UnitKind::kNovaNoc);
  if (!power_outlier) {
    EXPECT_NEAR(cost.power_mw / anchor->power_mw, 1.0, 0.50)
        << to_string(accel) << " / " << to_string(kind) << " power";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperAnchors, CalibrationAccuracy,
    ::testing::ValuesIn([] {
      std::vector<AnchorCase> cases;
      for (const auto& [accel, kind] : table3_rows()) {
        cases.push_back(AnchorCase{accel, kind});
      }
      return cases;
    }()));

TEST(Calibration, CalibratedCostReproducesAnchorsExactly) {
  for (const auto& [accel, kind] : table3_rows()) {
    const auto anchor = paper_anchor(accel, kind);
    ASSERT_TRUE(anchor.has_value());
    const auto cost = calibrated_cost(tech22(), accel, kind);
    EXPECT_NEAR(cost.area_mm2(), anchor->area_mm2, 1e-9);
    EXPECT_NEAR(cost.power_mw, anchor->power_mw, 1e-9);
  }
}

TEST(Calibration, FactorsAreIdentityWhereNoAnchorExists) {
  const auto f = calibration(tech22(), AcceleratorKind::kJetsonNvdla,
                             UnitKind::kPerCoreLut);
  EXPECT_DOUBLE_EQ(f.area, 1.0);
  EXPECT_DOUBLE_EQ(f.power, 1.0);
}

TEST(Table4, NovaSliceMatchesPaper) {
  // Table IV: NOVA 898.75 um^2, 0.046 mW at 22 nm.
  EXPECT_NEAR(nova_slice_area_um2(tech22()), 898.75, 0.05 * 898.75);
  EXPECT_NEAR(nova_slice_power_mw(tech22()), 0.046, 0.05 * 0.046);
}

TEST(Table4, NovaIsSmallerAndLowerPowerThanRelatedWork) {
  const auto related = related_approximators();
  ASSERT_EQ(related.size(), 2u);
  for (const auto& rw : related) {
    // Compare at 22 nm: scale NACU's 28 nm numbers down.
    const double area22 = scale_area(rw.area_um2, rw.tech_nm, 22.0);
    const double power22 = scale_power(rw.power_mw, rw.tech_nm, 22.0);
    EXPECT_LT(nova_slice_area_um2(tech22()), area22) << rw.name;
    EXPECT_LT(nova_slice_power_mw(tech22()), power22) << rw.name;
  }
}

TEST(TechScaling, AreaScalesQuadraticallyPowerLinearly) {
  EXPECT_NEAR(scale_area(100.0, 28.0, 22.0), 100.0 * (22.0 / 28.0) * (22.0 / 28.0), 1e-9);
  EXPECT_NEAR(scale_power(10.0, 28.0, 22.0), 10.0 * 22.0 / 28.0, 1e-9);
}

}  // namespace
}  // namespace nova::hw
