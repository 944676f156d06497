// End-to-end accelerator models for the paper's four hosts (Table II),
// combining the compute-fabric cycle model with a vector-unit attachment to
// estimate per-inference runtime and the approximator's energy/overhead --
// the machinery behind Fig 8.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "accel/systolic.hpp"
#include "hwmodel/calibration.hpp"

namespace nova::accel {

/// A host accelerator: compute fabric + clock + baseline die power.
struct AcceleratorModel {
  hw::AcceleratorKind kind = hw::AcceleratorKind::kTpuV4;
  std::string name;
  /// Parallel matrix units (MXUs for TPU, PE clusters for REACT, conv cores
  /// for NVDLA); GEMM folds distribute across them.
  int matrix_units = 1;
  SystolicConfig systolic;
  double freq_mhz = 1400.0;
  /// Estimated base die power (compute + SRAM, without the approximator) at
  /// full activity. Used only to express the approximator's energy as a
  /// fraction of total inference energy; documented estimate, printed by
  /// the benches.
  double base_power_w = 30.0;
};

/// The paper's configuration for each host (Table II).
[[nodiscard]] AcceleratorModel make_accelerator(hw::AcceleratorKind kind);

/// One row of the host catalog: the CLI resolver name and the kind it
/// resolves to. host_by_name and nova_sim --list both read this table, so
/// the printed catalog can never drift from what actually resolves.
struct HostEntry {
  const char* name;
  hw::AcceleratorKind kind;
};

/// The resolvable hosts (Table II order).
[[nodiscard]] const std::vector<HostEntry>& host_catalog();

/// Resolves a host by CLI name ("react", "tpuv3", "tpuv4", "nvdla").
[[nodiscard]] std::optional<hw::AcceleratorKind> host_by_name(
    const std::string& name);

/// Per-inference runtime of a workload on the accelerator: GEMMs distribute
/// across matrix units (tile-level parallelism, ceil-balanced).
[[nodiscard]] std::uint64_t inference_cycles(
    const AcceleratorModel& accel, const workload::ModelWorkload& workload);

/// Which vector unit serves the non-linear operations.
struct ApproximatorChoice {
  hw::UnitKind kind = hw::UnitKind::kNovaNoc;
  int breakpoints = 16;
};

/// Energy estimate for one inference with a given approximator attachment.
struct InferenceEnergy {
  std::uint64_t compute_cycles = 0;  ///< GEMM cycles on the fabric
  std::uint64_t approx_ops = 0;      ///< non-linear element operations
  std::uint64_t approx_cycles = 0;   ///< cycles the vector unit is busy
  double runtime_ms = 0.0;
  double base_energy_mj = 0.0;       ///< fabric energy over the runtime
  double approx_energy_mj = 0.0;     ///< vector-unit energy (marginal)
  /// Approximator energy as a fraction of total inference energy.
  [[nodiscard]] double overhead_fraction() const {
    const double total = base_energy_mj + approx_energy_mj;
    return total > 0.0 ? approx_energy_mj / total : 0.0;
  }
};

/// Evaluates one (workload, accelerator, approximator) combination using
/// the calibrated hardware cost model: approximator energy = marginal
/// energy-per-op x ops (active) plus its leakage over the runtime. The
/// cycle totals are closed_form_cycles below; a serial PipelineExecutor
/// timeline over the workload's operator graph reaches the same totals
/// (pipeline_test pins the two equal).
[[nodiscard]] InferenceEnergy evaluate_inference(
    const AcceleratorModel& accel, const workload::ModelWorkload& workload,
    const ApproximatorChoice& choice);

/// Runtime/energy roll-up from already-known cycle totals (the tail of
/// evaluate_inference, shared with pipeline::evaluate_pipeline, which
/// prices its serial timeline's totals).
[[nodiscard]] InferenceEnergy inference_energy_from_cycles(
    const AcceleratorModel& accel, std::uint64_t compute_cycles,
    std::uint64_t approx_ops, std::uint64_t approx_cycles,
    const ApproximatorChoice& choice);

/// The ORIGINAL closed-form cycle model, kept free of any executor code on
/// purpose: per-shape fabric folds (inference_cycles) plus
/// ceil(ops / paper throughput) + 1 pipeline fill. This is the independent
/// reference the pipeline reconciliation checks (nova_sim --pipeline,
/// bench_pipeline, pipeline_test) compare executor timelines against -- an
/// executor bug cannot cancel out of both sides of that comparison.
struct ClosedFormCycles {
  std::uint64_t compute_cycles = 0;
  std::uint64_t approx_cycles = 0;
  [[nodiscard]] std::uint64_t total() const {
    return compute_cycles + approx_cycles;
  }
};
[[nodiscard]] ClosedFormCycles closed_form_cycles(
    const AcceleratorModel& accel, const workload::ModelWorkload& workload,
    const ApproximatorChoice& choice);

/// Non-linear element operations one autoregressive decode step costs: per
/// layer, `heads` softmax rows of kv_len logits (2*kv_len + 1 element ops
/// each), ffn_stacks * ffn GELU activations for the single query token,
/// and two layernorm rsqrt rows.
[[nodiscard]] std::uint64_t closed_form_decode_ops(
    const workload::BertConfig& config, std::int64_t kv_len);

/// Closed-form cycle reference for one decode step (single query token vs
/// a kv_len-entry KV cache), spelled out directly from the BertConfig with
/// the per-shape fold arithmetic -- it never touches pipeline:: code, so
/// it is an independent oracle for BOTH pipeline::build_decode_graph's
/// shape expansion and the executor's walk of it (a bug in either cannot
/// cancel out of the reconciliation checks in nova_sim --decode,
/// bench_decode, and pipeline_test).
[[nodiscard]] ClosedFormCycles closed_form_decode_cycles(
    const AcceleratorModel& accel, const workload::BertConfig& config,
    std::int64_t kv_len, const ApproximatorChoice& choice);

}  // namespace nova::accel
