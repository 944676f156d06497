// Integrating NOVA with third-party accelerators (paper Section III.B):
// instantiates the overlay for each of the four Table II hosts, validates
// the mapping, and prints the area/power story against that host's
// LUT-based alternative -- the decision table an integrator would want.
#include <cstdio>

#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/overlay.hpp"
#include "lut/lut_unit.hpp"

int main() {
  using namespace nova;

  std::puts("NOVA overlay integration walkthrough\n");
  const auto& gelu =
      approx::PwlLibrary::instance().get(approx::NonLinearFn::kGelu, 16);

  Table summary("Integration summary");
  summary.set_header({"host", "routers x neurons", "NoC MHz",
                      "single-cycle", "NOVA mm^2", "LUT alt mm^2",
                      "NOVA mW", "LUT alt mW"});

  for (const auto host :
       {hw::AcceleratorKind::kReact, hw::AcceleratorKind::kTpuV3,
        hw::AcceleratorKind::kTpuV4, hw::AcceleratorKind::kJetsonNvdla}) {
    const auto overlay = core::make_overlay(host);
    core::NovaVectorUnit unit(overlay.nova);
    const auto check = unit.mapping_check(gelu);

    // The LUT alternative on this host: NVDLA ships an SDP; the others
    // would add a per-neuron NN-LUT bank.
    const auto lut_kind = host == hw::AcceleratorKind::kJetsonNvdla
                              ? hw::UnitKind::kNvdlaSdp
                              : hw::UnitKind::kPerNeuronLut;
    const auto nova_cost = hw::calibrated_cost(hw::tech22(), host,
                                               hw::UnitKind::kNovaNoc);
    const auto lut_cost = hw::calibrated_cost(hw::tech22(), host, lut_kind);

    summary.add_row(
        {hw::to_string(host),
         std::to_string(overlay.nova.routers) + "x" +
             std::to_string(overlay.nova.neurons_per_router),
         Table::num(check.noc_freq_mhz, 0),
         check.single_cycle_lookup ? "yes" : "no",
         Table::num(nova_cost.area_mm2(), 4),
         Table::num(lut_cost.area_mm2(), 4),
         Table::num(nova_cost.power_mw, 2),
         Table::num(lut_cost.power_mw, 2)});
  }
  summary.print();

  std::puts("\nAttachment details:");
  for (const auto host :
       {hw::AcceleratorKind::kReact, hw::AcceleratorKind::kTpuV4,
        hw::AcceleratorKind::kJetsonNvdla}) {
    const auto overlay = core::make_overlay(host);
    std::printf("\n[%s]\n  %s\n", hw::to_string(host),
                overlay.attachment.c_str());
  }

  // Functional sanity on one host: NOVA and the host's LUT alternative must
  // return identical results for the same table.
  const auto overlay = core::make_overlay(hw::AcceleratorKind::kTpuV3);
  core::NovaVectorUnit nova_unit(overlay.nova);
  lut::LutConfig lut_cfg;
  lut_cfg.units = overlay.nova.routers;
  lut_cfg.neurons_per_unit = overlay.nova.neurons_per_router;
  lut::LutVectorUnit lut_unit(lut_cfg);

  Rng rng(3);
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(overlay.nova.routers));
  for (auto& stream : inputs) {
    for (int i = 0; i < 256; ++i) stream.push_back(rng.uniform(-8.0, 8.0));
  }
  const auto nova_out = nova_unit.approximate(gelu, inputs);
  const auto lut_out = lut_unit.approximate(gelu, inputs);
  bool identical = true;
  for (std::size_t u = 0; u < inputs.size() && identical; ++u) {
    for (std::size_t i = 0; i < inputs[u].size(); ++i) {
      if (nova_out.outputs[u][i] != lut_out.outputs[u][i]) {
        identical = false;
        break;
      }
    }
  }
  std::printf("\nFunctional equivalence NOVA vs LUT on %llu elements: %s\n",
              static_cast<unsigned long long>(nova_out.mac_ops),
              identical ? "bit-identical" : "MISMATCH");
  return identical ? 0 : 1;
}
