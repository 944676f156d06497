#include "core/overlay.hpp"

#include "common/assert.hpp"
#include "hwmodel/components.hpp"

namespace nova::core {

OverlayDescription make_overlay(hw::AcceleratorKind host) {
  OverlayDescription overlay;
  overlay.host = host;
  overlay.cost_config = hw::paper_unit_config(host, hw::UnitKind::kNovaNoc);

  overlay.nova.routers = overlay.cost_config.units;
  overlay.nova.neurons_per_router = overlay.cost_config.neurons_per_unit;
  overlay.nova.pairs_per_flit = overlay.cost_config.pairs_per_flit;
  overlay.nova.accel_freq_mhz = overlay.cost_config.accel_freq_mhz;
  overlay.nova.spacing_mm = overlay.cost_config.spacing_mm;

  switch (host) {
    case hw::AcceleratorKind::kReact:
      overlay.attachment =
          "Connected to the REACT weighted-sum (WS) NoC: each WS router is "
          "widened to a 6x2 input crossbar; one output bypasses NOVA, the "
          "other feeds the comparators whose lookup addresses enter the "
          "NOVA router; approximated values return through the 2x6 output "
          "crossbar (paper Fig 5a).";
      break;
    case hw::AcceleratorKind::kTpuV3:
    case hw::AcceleratorKind::kTpuV4:
      overlay.attachment =
          "Connected to each MXU's 128x128 systolic array: MXU column "
          "outputs feed the comparators; lookup addresses enter the NOVA "
          "router, and the selected slope/bias pairs drive the MACs that "
          "return the approximated activations (paper Fig 5b).";
      break;
    case hw::AcceleratorKind::kJetsonNvdla:
      overlay.attachment =
          "Connected to each NVDLA convolution core in place of the "
          "LUT-based SDP: core outputs feed the comparators; the NOVA "
          "router supplies slope/bias for the per-lane MACs (paper Fig 5c).";
      break;
  }
  return overlay;
}

EnergyReport estimate_energy(const hw::TechParams& tech,
                             const NovaConfig& config, int breakpoints,
                             const ApproxResult& result) {
  NOVA_EXPECTS(breakpoints >= 1);
  EnergyReport report;
  const int link_bits = 32 * config.pairs_per_flit + 1;

  report.comparator_pj = static_cast<double>(result.comparator_ops) *
                         hw::comparator_bank_energy_pj(tech, breakpoints);
  report.select_pj = static_cast<double>(result.pair_captures) *
                     hw::select_energy_pj(tech);
  report.mac_pj =
      static_cast<double>(result.mac_ops) * hw::mac_energy_pj(tech);
  report.wire_pj = static_cast<double>(result.noc.segment_traversals) *
                   hw::wire_energy_pj(tech, link_bits, config.spacing_mm);
  report.register_pj = static_cast<double>(result.noc.register_latches) *
                       hw::register_energy_pj(tech, link_bits);
  return report;
}

}  // namespace nova::core
