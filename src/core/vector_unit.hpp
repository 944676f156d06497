// NovaVectorUnit: the paper's contribution as a cycle-accurate simulator
// with a clean public API.
//
// Microarchitecture modeled per router (paper Fig 3):
//   * comparator bank per neuron producing a lookup address from the PE
//     output (quantized compare against the PWL boundaries),
//   * tag-match logic snooping the 257-bit line NoC: tag = address mod m,
//     slot ("remaining bits") = address div m selects one of the 8 pairs,
//   * capture register for the selected (slope, bias),
//   * MAC computing y = slope * x + bias in saturating Q6.10.
//
// Pipeline (paper Section II walkthrough; same 2-cycle latency as NN-LUT):
//   accel cycle k  : comparators of wave k fire; mapper injects the flit
//                    train (m flits, one per NoC cycle); routers capture.
//   accel cycle k+1: MACs of wave k produce results; wave k+1 looks up.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mapper.hpp"
#include "noc/line_noc.hpp"
#include "sim/cycle.hpp"

namespace nova::core {

/// Deployment parameters of a NOVA overlay.
struct NovaConfig {
  int routers = 4;
  int neurons_per_router = 128;
  int pairs_per_flit = 8;
  double accel_freq_mhz = 1400.0;
  double spacing_mm = 1.0;
  /// SMART bypass depth override; <= 0 derives it from the timing model at
  /// the accelerator clock.
  int max_hops_per_cycle = 0;
};

/// One batch result with its cycle-level accounting.
struct ApproxResult {
  /// Outputs parallel to the inputs: [router][element].
  std::vector<std::vector<double>> outputs;
  /// Total accelerator cycles from first lookup to last MAC.
  sim::Cycle accel_cycles = 0;
  /// Total NoC cycles simulated.
  sim::Cycle noc_cycles = 0;
  /// Latency of a single wave (accelerator cycles, lookup through MAC).
  int wave_latency_cycles = 0;
  /// Operation counts for energy accounting: one comparator lookup, one
  /// pair capture and one MAC per element, and the waves issued.
  std::uint64_t comparator_ops = 0;
  std::uint64_t pair_captures = 0;
  std::uint64_t mac_ops = 0;
  std::uint64_t waves = 0;
  /// What the line NoC did carrying the flit trains.
  noc::LineCounts noc;
};

/// Cycle-accurate NOVA vector unit.
class NovaVectorUnit {
 public:
  explicit NovaVectorUnit(const NovaConfig& config);

  /// Approximates `table`'s function over per-router input streams.
  /// inputs[r] holds the elements produced by the PEs attached to router r;
  /// streams may have different lengths. Each accelerator cycle every
  /// router consumes up to neurons_per_router elements (one wave).
  ///
  /// Reentrant: each call owns its state in a core::SimSession, so
  /// independent approximate() calls (even on the same unit/table) may run
  /// concurrently on a thread pool.
  [[nodiscard]] ApproxResult approximate(
      const approx::PwlTable& table,
      const std::vector<std::vector<double>>& inputs) const;

  /// The mapper's physical validation for this deployment.
  [[nodiscard]] MappingCheck mapping_check(
      const approx::PwlTable& table) const;

  [[nodiscard]] const NovaConfig& config() const { return config_; }

 private:
  NovaConfig config_;
};

}  // namespace nova::core
