#include "pipeline/executor.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/verifier.hpp"
#include "common/assert.hpp"
#include "hwmodel/components.hpp"

namespace nova::pipeline {

const char* to_string(Resource resource) {
  switch (resource) {
    case Resource::kFabric: return "fabric";
    case Resource::kVector: return "vector";
    case Resource::kFused: return "fused";
  }
  return "?";
}

namespace {

/// ceil(elements / rate) in accelerator cycles. Integer-valued rates (the
/// paper deployments) take the exact integer path so reconciliation with
/// the legacy closed form is bit-exact; measured fractional rates (serving)
/// go through double ceil.
sim::Cycle cycles_to_stream(std::int64_t elements, double rate) {
  if (elements <= 0) return 0;
  const auto rate_int = static_cast<std::int64_t>(rate);
  if (static_cast<double>(rate_int) == rate && rate_int >= 1) {
    return static_cast<sim::Cycle>((elements + rate_int - 1) / rate_int);
  }
  return static_cast<sim::Cycle>(
      std::ceil(static_cast<double>(elements) / rate));
}

}  // namespace

PipelineExecutor::PipelineExecutor(const accel::AcceleratorModel& accel,
                                   const ExecutorConfig& config)
    : accel_(accel), config_(config) {
  NOVA_EXPECTS(accel.matrix_units >= 1);
  NOVA_EXPECTS(accel.freq_mhz > 0.0);
  if (config_.vector_elems_per_cycle > 0.0) {
    vector_rate_ = config_.vector_elems_per_cycle;
  } else {
    vector_rate_ = static_cast<double>(
        hw::paper_unit_config(accel_.kind, config_.choice.kind)
            .total_neurons());
  }
  NOVA_EXPECTS(vector_rate_ > 0.0);
}

PipelineTimeline PipelineExecutor::execute(const OpGraph& graph) const {
  // Walk-safety guard (dangling/forward edges, phase coherence) in every
  // build type; the full verifier suite -- shape dataflow + conservation,
  // quadratic-ish in nodes -- only in debug builds, since execute() sits
  // on the serving layer's pricing hot path.
  analysis::expect_structurally_valid(graph);
#ifndef NDEBUG
  analysis::expect_valid(graph);
#endif

  PipelineTimeline timeline;
  timeline.layers = graph.layer_repeat;
  timeline.entries.resize(graph.nodes.size());

  const auto cost =
      hw::calibrated_cost(hw::tech22(), accel_.kind, config_.choice.kind);
  const std::int64_t layers = graph.layer_repeat;
  const std::int64_t units = accel_.matrix_units;

  // One GEMM shape's whole-inference fabric cycles (the fold arithmetic of
  // accel::inference_cycles): folds ceil-balanced across matrix units.
  const auto gemm_cycles = [this, units](std::int64_t m, std::int64_t k,
                                         std::int64_t n,
                                         std::int64_t count) -> sim::Cycle {
    const std::int64_t folds =
        accel::gemm_folds(accel_.systolic, m, k, n) * count;
    const std::int64_t per_unit = (folds + units - 1) / units;
    return static_cast<sim::Cycle>(
        per_unit * accel::fold_cycles(accel_.systolic, m, k, n));
  };
  const auto fabric_energy_mj = [this](sim::Cycle cycles) {
    const double seconds =
        static_cast<double>(cycles) / (accel_.freq_mhz * 1.0e6);
    return accel_.base_power_w * seconds * 1.0e3;
  };

  // --- Durations. GEMM nodes use the whole-inference fold arithmetic of
  // accel::inference_cycles (1:1 with the flat shapes). Vector nodes share
  // the approximator pipeline, so their durations telescope over the
  // cumulative element count: partial waves at node boundaries are not
  // double-charged, and the sum equals the closed-form total. Fused nodes
  // price BOTH sides -- their constituent GEMM shapes' folds plus their
  // vector op's slice of the same telescoped account -- so the fabric and
  // vector busy totals are conserved exactly under any fusion rewrite; the
  // node's duration is max(shares), which is where fusion wins span.
  std::int64_t vector_cum = 0;
  sim::Cycle vector_prev_cycles = 0;
  bool fill_charged = false;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const auto& node = graph.nodes[i];
    auto& entry = timeline.entries[i];
    entry.node = static_cast<int>(i);
    if (node.is_gemm()) {
      entry.resource = Resource::kFabric;
      const std::int64_t folds =
          accel::gemm_folds(accel_.systolic, node.m, node.k, node.n) *
          node.repeat * layers;
      const std::int64_t per_unit = (folds + units - 1) / units;
      entry.cycles = static_cast<sim::Cycle>(
          per_unit * accel::fold_cycles(accel_.systolic, node.m, node.k,
                                        node.n));
      entry.tiles = std::max<std::int64_t>(1, per_unit);
      entry.macs = node.macs_per_layer() * layers;
      entry.fabric_share = entry.cycles;
      timeline.fabric_cycles += entry.cycles;
      entry.energy_mj = fabric_energy_mj(entry.cycles);
    } else if (node.is_fused()) {
      entry.resource = Resource::kFused;
      sim::Cycle fabric = gemm_cycles(node.m, node.k, node.n,
                                      node.repeat * layers);
      if (node.kind == OpKind::kFusedAttention) {
        // The context (AV) GEMM is the score GEMM's (m, n, k) permutation.
        fabric += gemm_cycles(node.m, node.n, node.k, node.repeat * layers);
      }
      const std::int64_t ops = node.approx_ops_per_layer() * layers;
      vector_cum += ops;
      const sim::Cycle boundary = cycles_to_stream(vector_cum, vector_rate_);
      sim::Cycle vector = boundary - vector_prev_cycles;
      vector_prev_cycles = boundary;
      if (!fill_charged && ops > 0) {
        vector += config_.vector_fill_cycles;
        fill_charged = true;
      }
      entry.fabric_share = fabric;
      entry.vector_share = vector;
      entry.cycles = std::max(fabric, vector);
      entry.tiles = 1;
      entry.macs = node.macs_per_layer() * layers;
      entry.approx_ops = ops;
      timeline.fabric_cycles += fabric;
      timeline.vector_cycles += vector;
      timeline.approx_ops += static_cast<std::uint64_t>(ops);
      entry.energy_mj = fabric_energy_mj(fabric) +
                        static_cast<double>(ops) *
                            cost.energy_per_approx_pj * 1.0e-9;
    } else {
      entry.resource = Resource::kVector;
      const std::int64_t ops = node.approx_ops_per_layer() * layers;
      entry.approx_ops = ops;
      vector_cum += ops;
      const sim::Cycle boundary = cycles_to_stream(vector_cum, vector_rate_);
      entry.cycles = boundary - vector_prev_cycles;
      vector_prev_cycles = boundary;
      if (!fill_charged && ops > 0) {
        entry.cycles += config_.vector_fill_cycles;
        fill_charged = true;
      }
      entry.tiles = std::max<sim::Cycle>(1, entry.cycles);
      entry.vector_share = entry.cycles;
      timeline.vector_cycles += entry.cycles;
      timeline.approx_ops += static_cast<std::uint64_t>(ops);
      entry.energy_mj = static_cast<double>(ops) *
                        cost.energy_per_approx_pj * 1.0e-9;
    }
  }
  timeline.serial_cycles = timeline.fabric_cycles + timeline.vector_cycles;

  // --- ASAP schedule with per-resource serialization. Overlap makes
  // cross-resource edges streaming: the consumer starts after the
  // producer's first tile and finishes no earlier than one consumer-chunk
  // after the producer's last. Fused nodes hold BOTH resources: they wait
  // for both to drain, advance both when done, and none of their edges
  // stream (the fused kernel's internal overlap is already priced into its
  // max(shares) duration).
  sim::Cycle free_at[2] = {0, 0};
  for (auto& entry : timeline.entries) {
    const auto& node = graph.nodes[static_cast<std::size_t>(entry.node)];
    const bool fused_node = entry.resource == Resource::kFused;
    sim::Cycle ready = 0;
    for (const int dep : node.deps) {
      const auto& producer = timeline.entries[static_cast<std::size_t>(dep)];
      if (config_.overlap && !fused_node &&
          producer.resource != Resource::kFused &&
          producer.resource != entry.resource && producer.cycles > 0) {
        const sim::Cycle first_tile =
            (producer.cycles + static_cast<sim::Cycle>(producer.tiles) - 1) /
            static_cast<sim::Cycle>(producer.tiles);
        ready = std::max(ready, producer.start + first_tile);
      } else {
        ready = std::max(ready, producer.finish);
      }
    }
    if (fused_node) {
      entry.start = std::max({free_at[0], free_at[1], ready});
    } else {
      entry.start =
          std::max(free_at[static_cast<std::size_t>(entry.resource)], ready);
    }
    entry.finish = entry.start + entry.cycles;
    if (config_.overlap && !fused_node && entry.cycles > 0) {
      for (const int dep : node.deps) {
        const auto& producer =
            timeline.entries[static_cast<std::size_t>(dep)];
        if (producer.resource == entry.resource ||
            producer.resource == Resource::kFused || producer.cycles == 0) {
          continue;
        }
        const sim::Cycle chunk =
            (entry.cycles + static_cast<sim::Cycle>(producer.tiles) - 1) /
            static_cast<sim::Cycle>(producer.tiles);
        entry.finish = std::max(entry.finish, producer.finish + chunk);
      }
    }
    if (fused_node) {
      free_at[0] = entry.finish;
      free_at[1] = entry.finish;
    } else {
      free_at[static_cast<std::size_t>(entry.resource)] = entry.finish;
    }
    timeline.span_cycles = std::max(timeline.span_cycles, entry.finish);
  }
  return timeline;
}

PipelineEvaluation evaluate_pipeline(const accel::AcceleratorModel& accel,
                                     const OpGraph& graph,
                                     const accel::ApproximatorChoice& choice) {
  PipelineEvaluation eval;
  ExecutorConfig config;
  config.choice = choice;
  config.overlap = false;
  eval.serial = PipelineExecutor(accel, config).execute(graph);
  config.overlap = true;
  eval.overlapped = PipelineExecutor(accel, config).execute(graph);
  // The flat view rolls up the serial timeline we just computed, whose
  // totals equal the closed form accel::evaluate_inference prices.
  eval.flat = accel::inference_energy_from_cycles(
      accel, eval.serial.fabric_cycles, eval.serial.approx_ops,
      eval.serial.vector_cycles, choice);
  eval.overlapped_runtime_ms =
      static_cast<double>(eval.overlapped.span_cycles) /
      (accel.freq_mhz * 1.0e6) * 1.0e3;
  // serial_cycles of the overlapped timeline equals the serial run's span
  // (both are the fabric + vector busy totals), so the timeline's own
  // ratio is exactly serial span / overlapped span.
  eval.overlap_win = eval.overlapped.overlap_win();
  return eval;
}

}  // namespace nova::pipeline
