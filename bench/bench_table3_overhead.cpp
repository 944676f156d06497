// Reproduces Table III: "Hardware overhead of NOVA versus different
// LUT-based approximators (on top of existing accelerators)" plus the
// Section V.C-E ratio claims. Prints the paper's synthesis anchors, the
// structural model, the calibrated result, and the calibration factors
// (the audit trail the README's "Substitutions and calibration" describes).
#include <cstdio>

#include "common/table.hpp"
#include "hwmodel/calibration.hpp"

int main() {
  using namespace nova;
  using namespace nova::hw;

  std::puts("Table III reproduction: vector-unit area/power atop each "
            "accelerator (22 nm, 0.8 V)\n");

  Table table("Table III: overhead vs paper");
  table.set_header({"accelerator", "unit", "paper mm^2", "model mm^2",
                    "ratio", "paper mW", "model mW", "ratio", "cal.area",
                    "cal.power"});
  for (const auto& [accel, kind] : table3_rows()) {
    const auto anchor = paper_anchor(accel, kind);
    const auto structural = estimate_cost(tech22(), paper_unit_config(accel, kind));
    const auto factors = calibration(tech22(), accel, kind);
    table.add_row({to_string(accel), to_string(kind),
                   Table::num(anchor->area_mm2, 4),
                   Table::num(structural.area_mm2(), 4),
                   Table::num(structural.area_mm2() / anchor->area_mm2, 2),
                   Table::num(anchor->power_mw, 2),
                   Table::num(structural.power_mw, 2),
                   Table::num(structural.power_mw / anchor->power_mw, 2),
                   Table::num(factors.area, 3), Table::num(factors.power, 3)});
  }
  table.print();

  std::puts("\nSection V.C-E headline ratios (model, paper in parens):");
  auto ratio = [](AcceleratorKind accel, UnitKind a, UnitKind b,
                  bool power) {
    const auto ca = estimate_cost(tech22(), paper_unit_config(accel, a));
    const auto cb = estimate_cost(tech22(), paper_unit_config(accel, b));
    return power ? ca.power_mw / cb.power_mw : ca.area_um2 / cb.area_um2;
  };
  std::printf(
      "  REACT  area: pn-LUT/NOVA %.2fx (3.34x), pc-LUT/NOVA %.2fx (1.78x)\n",
      ratio(AcceleratorKind::kReact, UnitKind::kPerNeuronLut,
            UnitKind::kNovaNoc, false),
      ratio(AcceleratorKind::kReact, UnitKind::kPerCoreLut,
            UnitKind::kNovaNoc, false));
  std::printf(
      "  REACT  power: mean LUT/NOVA %.2fx (2.5x)\n",
      0.5 * (ratio(AcceleratorKind::kReact, UnitKind::kPerNeuronLut,
                   UnitKind::kNovaNoc, true) +
             ratio(AcceleratorKind::kReact, UnitKind::kPerCoreLut,
                   UnitKind::kNovaNoc, true)));
  std::printf(
      "  TPUv4  area: pn-LUT/NOVA %.2fx (>3x), pc-LUT/NOVA %.2fx (>2.4x)\n",
      ratio(AcceleratorKind::kTpuV4, UnitKind::kPerNeuronLut,
            UnitKind::kNovaNoc, false),
      ratio(AcceleratorKind::kTpuV4, UnitKind::kPerCoreLut,
            UnitKind::kNovaNoc, false));
  std::printf(
      "  TPUv4  power: pn-LUT/NOVA %.2fx, pc-LUT/NOVA %.2fx (>9.4x avg "
      "claimed over both)\n",
      ratio(AcceleratorKind::kTpuV4, UnitKind::kPerNeuronLut,
            UnitKind::kNovaNoc, true),
      ratio(AcceleratorKind::kTpuV4, UnitKind::kPerCoreLut,
            UnitKind::kNovaNoc, true));
  std::printf(
      "  NVDLA  area: SDP/NOVA %.2fx (4.99x)\n",
      ratio(AcceleratorKind::kJetsonNvdla, UnitKind::kNvdlaSdp,
            UnitKind::kNovaNoc, false));
  // The NVDLA power ratio is quoted against the paper's calibrated anchors
  // (the structural model cannot know the paper's NVDLA duty cycle; see
  // the README's "Substitutions and calibration").
  const auto sdp = calibrated_cost(tech22(), AcceleratorKind::kJetsonNvdla,
                                   UnitKind::kNvdlaSdp);
  const auto nvdla_nova = calibrated_cost(
      tech22(), AcceleratorKind::kJetsonNvdla, UnitKind::kNovaNoc);
  std::printf("  NVDLA  power (calibrated): SDP/NOVA %.1fx (37.8x)\n",
              sdp.power_mw / nvdla_nova.power_mw);

  std::puts("\nAverages over the LUT rows (paper abstract: NOVA 3.23x "
            "area- and 16.56x power-efficient on average):");
  double area_sum = 0.0, power_sum = 0.0;
  int n = 0;
  for (const auto accel : {AcceleratorKind::kReact, AcceleratorKind::kTpuV3,
                           AcceleratorKind::kTpuV4}) {
    for (const auto kind :
         {UnitKind::kPerNeuronLut, UnitKind::kPerCoreLut}) {
      const auto lut = calibrated_cost(tech22(), accel, kind);
      const auto nova = calibrated_cost(tech22(), accel, UnitKind::kNovaNoc);
      area_sum += lut.area_um2 / nova.area_um2;
      power_sum += lut.power_mw / nova.power_mw;
      ++n;
    }
  }
  // Include the NVDLA SDP row.
  area_sum += sdp.area_um2 / nvdla_nova.area_um2;
  power_sum += sdp.power_mw / nvdla_nova.power_mw;
  ++n;
  std::printf("  mean area ratio %.2fx, mean power ratio %.2fx\n",
              area_sum / n, power_sum / n);
  return 0;
}
