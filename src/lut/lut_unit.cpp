#include "lut/lut_unit.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/fixed_point.hpp"
#include "hwmodel/components.hpp"

namespace nova::lut {

LutVectorUnit::LutVectorUnit(const LutConfig& config) : config_(config) {
  NOVA_EXPECTS(config.units >= 1);
  NOVA_EXPECTS(config.neurons_per_unit >= 1);
  NOVA_EXPECTS(config.bank_ports >= 1);
  NOVA_EXPECTS(config.time_mux >= 1);
}

LutResult LutVectorUnit::approximate(
    const approx::PwlTable& table,
    const std::vector<std::vector<double>>& inputs) const {
  NOVA_EXPECTS(static_cast<int>(inputs.size()) == config_.units);
  LutResult result;
  result.outputs.resize(inputs.size());

  // The pipeline processes one wave of up to neurons_per_unit elements per
  // unit per cycle: cycle k fetches (comparator -> bank read), cycle k+1
  // MACs while wave k+1 fetches. Total cycles = waves + 1 drain cycle.
  std::uint64_t waves = 0;
  std::uint64_t elements = 0;
  for (std::size_t u = 0; u < inputs.size(); ++u) {
    const auto& stream = inputs[u];
    result.outputs[u].reserve(stream.size());
    const std::size_t per_wave =
        static_cast<std::size_t>(config_.neurons_per_unit);
    const std::uint64_t unit_waves =
        (stream.size() + per_wave - 1) / per_wave;
    waves = std::max(waves, unit_waves);
    for (const double x : stream) {
      const Word16 xq = Word16::from_double(x);
      const int addr = table.lookup_address(xq);
      const auto pair = table.quantized_pair(addr);
      result.outputs[u].push_back(
          Word16::mac(pair.slope, xq, pair.bias).to_double());
    }
    elements += stream.size();
  }
  result.comparator_ops = elements;
  result.bank_reads = elements;
  result.mac_ops = elements;
  result.accel_cycles = waves == 0 ? 0 : waves + 1;
  result.wave_latency_cycles = 2;
  return result;
}

LutEnergyReport estimate_energy(const hw::TechParams& tech,
                                const LutConfig& config, int breakpoints,
                                const LutResult& result) {
  NOVA_EXPECTS(breakpoints >= 1);
  LutEnergyReport report;
  const int pair_bytes = 4;  // 16-bit slope + 16-bit bias
  const int ports = config.organization == LutOrganization::kPerNeuron
                        ? 1
                        : config.bank_ports;
  report.sram_pj = static_cast<double>(result.bank_reads) *
                   hw::sram_read_energy_pj(tech, pair_bytes, ports);
  report.comparator_pj = static_cast<double>(result.comparator_ops) *
                         hw::comparator_bank_energy_pj(tech, breakpoints);
  report.mac_pj =
      static_cast<double>(result.mac_ops) * hw::mac_energy_pj(tech);
  return report;
}

}  // namespace nova::lut
