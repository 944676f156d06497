// PipelineExecutor: walks an attention-layer OpGraph against a host
// accelerator model plus a NOVA-style vector-unit attachment and produces a
// cycle/energy timeline with per-node attribution.
//
// Two resources execute the graph:
//   * kFabric -- the host's matrix units; GEMM nodes run here, priced with
//     the same fold arithmetic as accel::inference_cycles (whole-inference
//     fold totals ceil-balanced across matrix units).
//   * kVector -- the attached approximator; softmax / GELU / layernorm
//     nodes stream through it at `vector_elems_per_cycle` elements per
//     accelerator cycle. The vector unit is one continuous pipeline, so
//     partial waves at node boundaries are shared: node durations use a
//     telescoped cumulative-element account (sum of node cycles ==
//     ceil(total_ops / throughput), plus the pipeline fill charged once) --
//     exactly the closed-form total the legacy model reports.
//
// Scheduling is ASAP in topological order with per-resource serialization.
// With `overlap` disabled every dependency is a barrier, so the makespan is
// the serial sum and reconciles exactly with accel::inference_cycles +
// the legacy non-linear cycle total (regression-tested). With `overlap`
// enabled, a cross-resource edge is *streaming*, double-buffered at the
// producer's tile granularity: the consumer starts once the producer's
// first tile is out (softmax of tile i runs while QK^T of tile i+1
// streams), and finishes no earlier than one consumer-chunk after the
// producer's last tile.
#pragma once

#include <cstdint>
#include <vector>

#include "accel/accelerator.hpp"
#include "pipeline/op_graph.hpp"
#include "sim/cycle.hpp"

namespace nova::pipeline {

/// Which execution resource a timeline entry occupied. Fused nodes
/// (pipeline/fusion.hpp rewrites) hold BOTH resources for their duration:
/// their busy cycles still split into fabric/vector shares for the
/// conservation totals, but the node runs as one block whose duration is
/// max(fabric share, vector share) -- the fused kernel streams its vector
/// epilogue against its own GEMM tiles instead of round-tripping through
/// the cross-resource seam.
enum class Resource { kFabric, kVector, kFused };

[[nodiscard]] const char* to_string(Resource resource);

/// One node's slice of the inference timeline. Volumes and cycles span the
/// whole inference (all `layer_repeat` layers); divide by the timeline's
/// `layers` for the per-layer Gantt view.
struct TimelineEntry {
  int node = -1;  ///< index into the executed graph's nodes
  Resource resource = Resource::kFabric;
  sim::Cycle start = 0;
  sim::Cycle finish = 0;  ///< may exceed start + cycles when drain-bound
  sim::Cycle cycles = 0;  ///< busy duration attributed to the node
  /// Sequential tiles the node streams in (GEMM: fold batches per matrix
  /// unit; vector ops: element waves). Granularity of overlap. Fused nodes
  /// are monolithic (tiles == 1): their internal streaming is already
  /// priced into the max(shares) duration, so their edges never stream.
  std::int64_t tiles = 1;
  std::int64_t macs = 0;
  std::int64_t approx_ops = 0;
  /// Busy-cycle attribution for fused nodes: how much of the node's work
  /// belongs to each resource (fabric_share + vector_share >= cycles, with
  /// equality only when one share is zero). Pure nodes leave the foreign
  /// share at 0 and their own share == cycles.
  sim::Cycle fabric_share = 0;
  sim::Cycle vector_share = 0;
  /// Active energy attribution: fabric share for GEMMs, marginal
  /// approximator energy for vector nodes (leakage is runtime-dependent and
  /// reported at the timeline level by evaluate_pipeline).
  double energy_mj = 0.0;
};

/// The executed timeline plus its reconciliation totals.
struct PipelineTimeline {
  std::vector<TimelineEntry> entries;  ///< parallel to graph.nodes
  int layers = 1;
  /// Sum of GEMM-node cycles (plus fused nodes' fabric shares); equals
  /// accel::inference_cycles by construction (same per-shape fold
  /// arithmetic, node <-> shape 1:1 -- a fused node contributes its
  /// constituent GEMM shapes' folds). Fusion rewrites conserve this total.
  sim::Cycle fabric_cycles = 0;
  /// Sum of vector-node cycles (plus fused nodes' vector shares) including
  /// the one-time pipeline fill; equals the legacy closed-form approximator
  /// cycle total. Fusion rewrites conserve this total too.
  sim::Cycle vector_cycles = 0;
  /// Busy total: fabric_cycles + vector_cycles. Equals the no-overlap span
  /// for unfused graphs; a fused node's duration is max(shares) < sum, so
  /// fused serial spans drop below this (that gap IS the fusion win).
  sim::Cycle serial_cycles = 0;
  /// Scheduled makespan (== serial_cycles when overlap is disabled).
  sim::Cycle span_cycles = 0;
  std::uint64_t approx_ops = 0;

  /// Cycles saved by compute/non-linear overlap, as serial/span (>= 1).
  [[nodiscard]] double overlap_win() const {
    return span_cycles > 0 ? static_cast<double>(serial_cycles) /
                                 static_cast<double>(span_cycles)
                           : 1.0;
  }
};

/// Executor knobs beyond the host model itself.
struct ExecutorConfig {
  accel::ApproximatorChoice choice;
  /// Stream cross-resource edges (double-buffered tiles). Disabled, the
  /// timeline reproduces the legacy serial closed form exactly.
  bool overlap = true;
  /// Vector-unit throughput in elements per accelerator cycle. <= 0 uses
  /// the paper deployment's peak (paper_unit_config total_neurons) -- the
  /// legacy model's assumption. The serving layer passes the steady-state
  /// rate measured by its cycle-accurate SimSession run instead.
  double vector_elems_per_cycle = 0.0;
  /// Pipeline-fill cycles charged to the first busy vector node (legacy
  /// closed form: 1). The serving layer passes the measured wave fill.
  sim::Cycle vector_fill_cycles = 1;
};

/// Walks OpGraphs against one (host accelerator, approximator) pair.
class PipelineExecutor {
 public:
  PipelineExecutor(const accel::AcceleratorModel& accel,
                   const ExecutorConfig& config);

  [[nodiscard]] PipelineTimeline execute(const OpGraph& graph) const;

 private:
  accel::AcceleratorModel accel_;
  ExecutorConfig config_;
  /// Resolved elements/cycle; integer-valued when defaulted from the paper
  /// config, so reconciliation-mode ceil math stays in exact integers.
  double vector_rate_ = 1.0;
};

/// One workload evaluated both ways, with the legacy-equivalent flat
/// numbers derived from the serial timeline. `flat` equals the closed-form
/// accel::evaluate_inference result bit for bit (pipeline_test pins it), so
/// Fig 8-style tables stay reproducible while `overlapped` carries the
/// dependency-aware schedule.
struct PipelineEvaluation {
  PipelineTimeline serial;
  PipelineTimeline overlapped;
  accel::InferenceEnergy flat;
  double overlapped_runtime_ms = 0.0;
  /// serial span / overlapped span.
  double overlap_win = 1.0;
};

[[nodiscard]] PipelineEvaluation evaluate_pipeline(
    const accel::AcceleratorModel& accel, const OpGraph& graph,
    const accel::ApproximatorChoice& choice);

}  // namespace nova::pipeline
