#include "accel/accelerator.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "hwmodel/components.hpp"

namespace nova::accel {

AcceleratorModel make_accelerator(hw::AcceleratorKind kind) {
  AcceleratorModel accel;
  accel.kind = kind;
  accel.name = hw::to_string(kind);
  switch (kind) {
    case hw::AcceleratorKind::kReact:
      // 10 coarse-grained PE clusters of 256 MACs each (16x16), WS-mapped,
      // 240 MHz edge clock. Base power: wearable-class budget.
      accel.matrix_units = 10;
      accel.systolic = SystolicConfig{16, 16};
      accel.freq_mhz = 240.0;
      accel.base_power_w = 0.8;
      break;
    case hw::AcceleratorKind::kTpuV3:
      // 4 MXUs of 128x128 (Table II); datacenter-class inference die.
      accel.matrix_units = 4;
      accel.systolic = SystolicConfig{128, 128};
      accel.freq_mhz = 1400.0;
      accel.base_power_w = 30.0;
      break;
    case hw::AcceleratorKind::kTpuV4:
      // 8 MXUs: twice the v3 fabric.
      accel.matrix_units = 8;
      accel.systolic = SystolicConfig{128, 128};
      accel.freq_mhz = 1400.0;
      accel.base_power_w = 60.0;
      break;
    case hw::AcceleratorKind::kJetsonNvdla:
      // Two NVDLA cores, each modeled as a 16x64 MAC array with 16 output
      // lanes (matching the 16 neurons per NOVA router in Table II).
      accel.matrix_units = 2;
      accel.systolic = SystolicConfig{64, 16};
      accel.freq_mhz = 1400.0;
      accel.base_power_w = 2.0;
      break;
  }
  return accel;
}

const std::vector<HostEntry>& host_catalog() {
  static const std::vector<HostEntry> catalog = {
      {"react", hw::AcceleratorKind::kReact},
      {"tpuv3", hw::AcceleratorKind::kTpuV3},
      {"tpuv4", hw::AcceleratorKind::kTpuV4},
      {"nvdla", hw::AcceleratorKind::kJetsonNvdla},
  };
  return catalog;
}

std::optional<hw::AcceleratorKind> host_by_name(const std::string& name) {
  for (const auto& entry : host_catalog()) {
    if (name == entry.name) return entry.kind;
  }
  return std::nullopt;
}

std::uint64_t inference_cycles(const AcceleratorModel& accel,
                               const workload::ModelWorkload& workload) {
  NOVA_EXPECTS(accel.matrix_units >= 1);
  std::uint64_t total = 0;
  for (const auto& g : workload.gemms) {
    // Folds of all `count` instances distribute across the matrix units.
    const std::int64_t folds =
        gemm_folds(accel.systolic, g.m, g.k, g.n) * g.count;
    const std::int64_t per_unit =
        (folds + accel.matrix_units - 1) / accel.matrix_units;
    total += static_cast<std::uint64_t>(
        per_unit * fold_cycles(accel.systolic, g.m, g.k, g.n));
  }
  return total;
}

InferenceEnergy inference_energy_from_cycles(const AcceleratorModel& accel,
                                             std::uint64_t compute_cycles,
                                             std::uint64_t approx_ops,
                                             std::uint64_t approx_cycles,
                                             const ApproximatorChoice& choice) {
  InferenceEnergy result;
  result.compute_cycles = compute_cycles;
  result.approx_ops = approx_ops;
  result.approx_cycles = approx_cycles;

  // Non-linear work overlaps the GEMM pipeline; runtime is the slower of
  // the two streams.
  const std::uint64_t runtime_cycles =
      std::max(result.compute_cycles, result.approx_cycles);
  const double runtime_s = static_cast<double>(runtime_cycles) /
                           (accel.freq_mhz * 1.0e6);
  result.runtime_ms = runtime_s * 1.0e3;

  result.base_energy_mj = accel.base_power_w * runtime_s * 1.0e3;

  // Approximator energy: calibrated marginal energy per element operation
  // plus its leakage integrated over the runtime.
  const auto cost = hw::calibrated_cost(hw::tech22(), accel.kind, choice.kind);
  const double active_mj = static_cast<double>(result.approx_ops) *
                           cost.energy_per_approx_pj * 1.0e-9;
  const double leakage_mj =
      hw::leakage_mw(hw::tech22(), cost.area_um2) * runtime_s;
  result.approx_energy_mj = active_mj + leakage_mj;
  return result;
}

InferenceEnergy evaluate_inference(const AcceleratorModel& accel,
                                   const workload::ModelWorkload& workload,
                                   const ApproximatorChoice& choice) {
  const ClosedFormCycles cycles = closed_form_cycles(accel, workload, choice);
  return inference_energy_from_cycles(
      accel, cycles.compute_cycles,
      static_cast<std::uint64_t>(workload.nonlinear.total_approx_ops()),
      cycles.approx_cycles, choice);
}

std::uint64_t closed_form_decode_ops(const workload::BertConfig& config,
                                     std::int64_t kv_len) {
  NOVA_EXPECTS(kv_len >= 1);
  const std::int64_t per_layer =
      static_cast<std::int64_t>(config.heads) * (2 * kv_len + 1) +
      static_cast<std::int64_t>(config.ffn_stacks) * config.ffn + 2;
  return static_cast<std::uint64_t>(per_layer * config.layers);
}

ClosedFormCycles closed_form_decode_cycles(const AcceleratorModel& accel,
                                           const workload::BertConfig& config,
                                           std::int64_t kv_len,
                                           const ApproximatorChoice& choice) {
  NOVA_EXPECTS(accel.matrix_units >= 1);
  NOVA_EXPECTS(kv_len >= 1);
  NOVA_EXPECTS(config.heads >= 1 && config.hidden % config.heads == 0);

  // The decode-step GEMM shapes, spelled out here rather than derived from
  // the operator graph: one query token projects through QKV / proj / FFN
  // at m=1 while the score and context GEMMs stretch with the cache.
  struct Shape {
    std::int64_t m, k, n, count;
  };
  const std::int64_t h = config.hidden;
  const std::int64_t head_dim = h / config.heads;
  std::vector<Shape> shapes;
  if (config.bottleneck > 0) {
    shapes.push_back({1, config.bottleneck, h, 1});
  }
  shapes.push_back({1, h, h, 3});                          // qkv
  shapes.push_back({1, head_dim, kv_len, config.heads});   // QK^T
  shapes.push_back({1, kv_len, head_dim, config.heads});   // AV
  shapes.push_back({1, h, h, 1});                          // proj
  shapes.push_back({1, h, config.ffn, config.ffn_stacks});  // ffn-up
  shapes.push_back({1, config.ffn, h, config.ffn_stacks});  // ffn-down
  if (config.bottleneck > 0) {
    shapes.push_back({1, h, config.bottleneck, 1});
  }

  ClosedFormCycles result;
  for (const auto& shape : shapes) {
    const std::int64_t folds =
        gemm_folds(accel.systolic, shape.m, shape.k, shape.n) * shape.count *
        config.layers;
    const std::int64_t per_unit =
        (folds + accel.matrix_units - 1) / accel.matrix_units;
    result.compute_cycles += static_cast<std::uint64_t>(
        per_unit * fold_cycles(accel.systolic, shape.m, shape.k, shape.n));
  }

  const std::uint64_t ops = closed_form_decode_ops(config, kv_len);
  const auto throughput = static_cast<std::uint64_t>(
      hw::paper_unit_config(accel.kind, choice.kind).total_neurons());
  result.approx_cycles =
      ops == 0 ? 0 : (ops + throughput - 1) / throughput + 1;
  return result;
}

ClosedFormCycles closed_form_cycles(const AcceleratorModel& accel,
                                    const workload::ModelWorkload& workload,
                                    const ApproximatorChoice& choice) {
  ClosedFormCycles result;
  result.compute_cycles = inference_cycles(accel, workload);
  const auto ops =
      static_cast<std::uint64_t>(workload.nonlinear.total_approx_ops());
  const auto throughput = static_cast<std::uint64_t>(
      hw::paper_unit_config(accel.kind, choice.kind).total_neurons());
  result.approx_cycles =
      ops == 0 ? 0 : (ops + throughput - 1) / throughput + 1;
  return result;
}

}  // namespace nova::accel
