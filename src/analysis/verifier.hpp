// The OpGraph static verifier: a pass-manager-style pipeline of checks over
// the attention-pipeline IR, reporting structured diagnostics
// (analysis/diagnostics.hpp) instead of the old pipeline::validate
// bool+reason pair.
//
// Four graph passes run in order (each registered in pass_catalog()):
//
//   * structure    -- DAG/topology sanity: deps in range and strictly
//                     back-pointing (the encoding a cycle would need),
//                     no dangling or duplicate edges, no unreachable
//                     nodes, resource-class field hygiene, and strictly
//                     positive per-kind volumes (subsuming the old
//                     pipeline::validate reject-list).
//   * phase        -- prefill/decode coherence: kv_len legality for the
//                     graph's phase tag.
//   * shape        -- shape dataflow: for config expansions
//                     (GraphOrigin::kConfigExpansion) every node's tensor
//                     shape is re-derived edge-by-edge from the embedded
//                     BertConfig + phase + kv_len and cross-checked against
//                     the declared GEMM dims, softmax row counts, and
//                     GELU/layernorm volumes.
//   * conservation -- closed-form volume lints: per-kind totals (MACs,
//                     approx ops, softmax rows, GELU elements, layernorm
//                     rows) must reconcile against totals derived straight
//                     from the config -- for decode graphs, literally
//                     accel::closed_form_decode_ops. Unlike the shape pass
//                     this survives volume-preserving rewrites (fusion),
//                     so it is the invariant future rewrite passes are
//                     verified against.
//
// The shape/conservation formulas are spelled out here independently --
// they never call the graph builders -- so a builder bug cannot cancel out
// of both sides of a check (same independence discipline as
// accel::closed_form_decode_cycles).
//
// reconcile_cycles additionally walks a serial PipelineExecutor timeline
// over the graph and reconciles its fabric/vector/span totals against the
// executor-free closed forms for a concrete host -- the cross-layer lint
// nova_lint runs per (host, graph) so a builder OR executor regression is
// caught before any bench or serve path prices a request from the graph.
#pragma once

#include <vector>

#include "accel/accelerator.hpp"
#include "analysis/diagnostics.hpp"
#include "pipeline/op_graph.hpp"

namespace nova::analysis {

/// One registered verifier pass, for `nova_lint --list` and the README.
struct PassInfo {
  const char* name;
  const char* summary;
};

/// The pass pipeline run_passes executes, in order (plus the host-specific
/// reconcile_cycles lint, listed last).
[[nodiscard]] const std::vector<PassInfo>& pass_catalog();

/// Runs every graph pass (structure, phase, shape, conservation) and
/// returns the combined report. The shape/conservation passes self-skip on
/// adapted graphs (GraphOrigin::kAdapted), which carry no config ground
/// truth to re-derive from.
[[nodiscard]] DiagnosticReport run_passes(const pipeline::OpGraph& graph);

/// Structure + phase passes only: the O(nodes + edges) subset that makes a
/// graph safe to *walk* (no dangling/forward edges, coherent phase tag).
/// This is the always-on guard at the executor entry; the full suite runs
/// there too in debug builds.
[[nodiscard]] DiagnosticReport run_structural_passes(
    const pipeline::OpGraph& graph);

/// The cross-layer cycle lint: executes the graph serially (overlap off)
/// on `accel` and reconciles fabric/vector/span cycle totals against the
/// executor-free closed-form reference (closed_form_cycles for prefill /
/// adapted graphs, closed_form_decode_cycles for decode graphs). Runs
/// run_passes first and returns those findings unreconciled if the graph
/// is already broken (a corrupt graph must not reach the executor).
[[nodiscard]] DiagnosticReport reconcile_cycles(
    const pipeline::OpGraph& graph, const accel::AcceleratorModel& accel,
    const accel::ApproximatorChoice& choice);

/// Contract-check forms of the above: print every finding to stderr and
/// abort (NOVA_EXPECTS) if the report carries errors. expect_valid runs
/// the full suite -- builders call it on every graph they return;
/// expect_structurally_valid is the cheap walk-safety guard for hot
/// entry points (PipelineExecutor::execute, BatchScheduler pricing).
void expect_valid(const pipeline::OpGraph& graph);
void expect_structurally_valid(const pipeline::OpGraph& graph);

}  // namespace nova::analysis
