// LUT-based baseline vector units (paper Sections II and V.B): the NN-LUT
// pipeline realized as either per-neuron single-ported banks or a shared
// multi-ported per-core bank. Functionally identical to NOVA -- same
// comparators, same quantized slope/bias pairs, same MAC, same 2-cycle
// latency -- but the pairs come from SRAM reads instead of the broadcast
// NoC, which is exactly the cost difference the paper measures.
#pragma once

#include <cstdint>
#include <vector>

#include "approx/pwl.hpp"
#include "hwmodel/vector_unit_cost.hpp"

namespace nova::lut {

/// Storage organization of the baseline.
enum class LutOrganization {
  kPerNeuron,  ///< one 64 B single-ported bank per neuron
  kPerCore,    ///< one shared multi-ported bank per core
};

struct LutConfig {
  LutOrganization organization = LutOrganization::kPerNeuron;
  int units = 4;              ///< cores
  int neurons_per_unit = 128;
  double accel_freq_mhz = 1400.0;
  /// Physical read ports on the shared bank (per-core organization).
  int bank_ports = 8;
  /// Neurons sharing one port by multi-pumping (per-core organization).
  int time_mux = 1;
};

/// Result of a batch with cycle/operation accounting, mirroring
/// core::ApproxResult so benches can compare units symmetrically.
struct LutResult {
  std::vector<std::vector<double>> outputs;
  std::uint64_t accel_cycles = 0;
  int wave_latency_cycles = 2;  ///< fetch + MAC (paper Section II)
  /// Operation counts: one comparator lookup, one bank read and one MAC
  /// per element.
  std::uint64_t comparator_ops = 0;
  std::uint64_t bank_reads = 0;
  std::uint64_t mac_ops = 0;
};

/// Cycle-level functional model of the LUT-based vector unit.
class LutVectorUnit {
 public:
  explicit LutVectorUnit(const LutConfig& config);

  /// Approximates `table` over per-unit input streams; each unit serves up
  /// to neurons_per_unit elements per cycle (fully pipelined, 2-cycle
  /// latency), identical throughput to NOVA as the paper states.
  [[nodiscard]] LutResult approximate(
      const approx::PwlTable& table,
      const std::vector<std::vector<double>>& inputs) const;

  [[nodiscard]] const LutConfig& config() const { return config_; }

 private:
  LutConfig config_;
};

/// Energy of one simulated batch from its operation counts: SRAM reads at
/// the organization's port cost plus comparator/MAC energy.
struct LutEnergyReport {
  double sram_pj = 0.0;
  double comparator_pj = 0.0;
  double mac_pj = 0.0;

  [[nodiscard]] double total_pj() const {
    return sram_pj + comparator_pj + mac_pj;
  }
};

[[nodiscard]] LutEnergyReport estimate_energy(const hw::TechParams& tech,
                                              const LutConfig& config,
                                              int breakpoints,
                                              const LutResult& result);

}  // namespace nova::lut
