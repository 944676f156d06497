// The attention-pipeline operator graph: ONE intermediate representation of
// an encoder layer from which every other view of the workload is derived.
//
// The repo used to model an attention layer three disconnected ways -- flat
// GEMM/non-linear shape lists (workload/bert), closed-form fabric cycle
// counts (accel/accelerator), and an isolated cycle-accurate softmax
// (core/softmax_engine). `OpGraph` unifies them: one encoder layer becomes a
// small DAG of GEMM / softmax / GELU / layernorm-scale nodes with explicit
// data dependencies, replicated `layer_repeat` times per inference. The
// legacy flat views (`workload::model_workload`) are now thin flattenings of
// this graph, and the `PipelineExecutor` (executor.hpp) walks it to produce
// overlap-aware, per-node cycle/energy timelines.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/bert.hpp"

namespace nova::pipeline {

/// Which inference phase a graph models. Prefill runs the full sequence
/// through every operator (the PR 4 graph); decode is one autoregressive
/// step -- a single query token attending over a kv_len-entry KV cache, so
/// the QKV/proj/FFN GEMMs shrink to m=1 while the score/context GEMMs and
/// the softmax rows grow with the cache length instead of seq_len. One
/// byte, so a request record carries it without padding.
enum class Phase : std::uint8_t { kPrefill, kDecode };

[[nodiscard]] const char* to_string(Phase phase);

/// Inverse of to_string(Phase): resolves "prefill" / "decode". Returns
/// nullopt for anything else (trace parsing and CLI flags funnel through
/// this, so the accepted spellings can never drift).
[[nodiscard]] std::optional<Phase> phase_from_string(const std::string& name);

/// Operator kinds an encoder layer is built from. kGemm executes on the
/// host compute fabric; kSoftmax / kGelu / kLayerNormScale stream through
/// the NOVA vector unit (softmax decomposes into exp + reciprocal + scale
/// element ops, layernorm contributes one rsqrt lookup per row -- the same
/// accounting as workload::NonLinearProfile).
///
/// The three kFused* kinds are produced only by the rewrite passes in
/// pipeline/fusion.hpp, never by the builders. A fused node occupies BOTH
/// resources and carries the union of its constituents' volume fields:
///   * kFusedAttention -- flash-attention-style QK^T + softmax + AV block.
///     (m, k, n, repeat) is the SCORE GEMM shape (q, head_dim, attend_len)
///     x heads; the context (AV) GEMM is its permutation (m, n, k), so one
///     triple determines both and MACs double. rows/row_len carry the
///     softmax volume (rows == repeat * m, row_len == n -- machine-checked
///     by structure.fused-shape).
///   * kFusedGemmGelu -- GEMM with its GELU epilogue folded in
///     (elements == m * n * repeat).
///   * kFusedGemmLayerNorm -- GEMM with the residual layernorm folded in
///     (rows == m).
enum class OpKind {
  kGemm,
  kSoftmax,
  kGelu,
  kLayerNormScale,
  kFusedAttention,
  kFusedGemmGelu,
  kFusedGemmLayerNorm,
};

[[nodiscard]] const char* to_string(OpKind kind);

/// How a graph came to be, which decides how much the static verifier
/// (analysis::run_passes) can re-derive about it. Config expansions carry a
/// BertConfig that fully determines every node's shape, so the shape
/// dataflow and conservation passes re-check all of them; adapted graphs
/// (built node by node, as the tests do) have no such ground truth and get
/// structural/phase checking only.
enum class GraphOrigin { kAdapted, kConfigExpansion };

/// One operator of the encoder-layer graph. Volumes are per encoder layer;
/// the graph's `layer_repeat` scales them to a full inference.
struct OpNode {
  OpKind kind = OpKind::kGemm;
  std::string label;
  /// GEMM shape (m x k) * (k x n); `repeat` executions per layer (e.g. one
  /// per head for the score/context GEMMs, 3 for the fused QKV projection).
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::int64_t repeat = 1;
  /// Softmax: `rows` independent rows of `row_len` logits per layer.
  std::int64_t rows = 0;
  std::int64_t row_len = 0;
  /// GELU: activation elements per layer. LayerNormScale: `rows` carries
  /// the per-layer rsqrt lookup count instead.
  std::int64_t elements = 0;
  /// Data dependencies: indices of producer nodes in OpGraph::nodes. Nodes
  /// are stored in topological order, so every dep index is smaller than
  /// the node's own index.
  std::vector<int> deps;

  [[nodiscard]] bool is_gemm() const { return kind == OpKind::kGemm; }

  /// Fused nodes carry both fabric and vector volume and occupy both
  /// executor resources for their duration.
  [[nodiscard]] bool is_fused() const {
    return kind == OpKind::kFusedAttention ||
           kind == OpKind::kFusedGemmGelu ||
           kind == OpKind::kFusedGemmLayerNorm;
  }

  /// MACs this node executes on the fabric, per encoder layer. A fused
  /// attention block runs both the score GEMM (m x k x n) and the context
  /// GEMM (m x n x k) -- same MAC count each -- so its total doubles.
  [[nodiscard]] std::int64_t macs_per_layer() const {
    switch (kind) {
      case OpKind::kGemm: return m * k * n * repeat;
      case OpKind::kSoftmax:
      case OpKind::kGelu:
      case OpKind::kLayerNormScale: return 0;
      case OpKind::kFusedAttention: return 2 * m * k * n * repeat;
      case OpKind::kFusedGemmGelu:
      case OpKind::kFusedGemmLayerNorm: return m * k * n * repeat;
    }
    return 0;
  }

  /// Vector-unit element operations (one lookup + one MAC each) per layer:
  /// a softmax over n elements costs 2n+1 (n exp, 1 reciprocal, n scale) --
  /// identical to workload::NonLinearProfile::total_approx_ops. Fused nodes
  /// contribute exactly their constituent vector op's volume.
  [[nodiscard]] std::int64_t approx_ops_per_layer() const {
    switch (kind) {
      case OpKind::kGemm: return 0;
      case OpKind::kSoftmax: return rows * (2 * row_len + 1);
      case OpKind::kGelu: return elements;
      case OpKind::kLayerNormScale: return rows;
      case OpKind::kFusedAttention: return rows * (2 * row_len + 1);
      case OpKind::kFusedGemmGelu: return elements;
      case OpKind::kFusedGemmLayerNorm: return rows;
    }
    return 0;
  }

  /// Memberwise equality: rewrite tests compare whole graphs (deep copy is
  /// plain value semantics) and pass idempotence is "fused once == twice".
  [[nodiscard]] bool operator==(const OpNode&) const = default;
};

/// The operator graph of one encoder layer, plus the config it was expanded
/// from and the number of identical layers per inference.
struct OpGraph {
  workload::BertConfig config;
  std::vector<OpNode> nodes;  ///< topologically ordered
  int layer_repeat = 1;
  /// Phase tag: decode graphs carry the KV-cache length their volumes were
  /// expanded at (kv_len >= 1); prefill graphs keep kv_len == 0.
  Phase phase = Phase::kPrefill;
  std::int64_t kv_len = 0;
  /// Provenance tag deciding verifier depth (see GraphOrigin).
  GraphOrigin origin = GraphOrigin::kAdapted;

  [[nodiscard]] std::int64_t total_macs() const {
    std::int64_t total = 0;
    for (const auto& node : nodes) total += node.macs_per_layer();
    return total * layer_repeat;
  }
  [[nodiscard]] std::int64_t total_approx_ops() const {
    std::int64_t total = 0;
    for (const auto& node : nodes) total += node.approx_ops_per_layer();
    return total * layer_repeat;
  }

  /// True when any node is a fused block (i.e. a fusion rewrite ran).
  [[nodiscard]] bool has_fused_nodes() const {
    for (const auto& node : nodes) {
      if (node.is_fused()) return true;
    }
    return false;
  }

  /// Memberwise equality (config, nodes, tags). Copying an OpGraph is a
  /// deep copy by construction -- all members are value types.
  [[nodiscard]] bool operator==(const OpGraph&) const = default;
};

/// Expands a BERT-family config into its encoder-layer operator graph: the
/// (optional bottleneck-in ->) QKV -> QK^T -> softmax -> AV -> proj ->
/// layernorm -> ffn-up -> GELU -> ffn-down -> layernorm (-> bottleneck-out)
/// chain, with per-layer volumes and `layer_repeat = config.layers`.
[[nodiscard]] OpGraph build_graph(const workload::BertConfig& config);

/// Expands one autoregressive decode step of a BERT-family config: a
/// single query token against a kv_len-entry KV cache. Same operator chain
/// as build_graph, but the QKV projection, output projection and FFN GEMMs
/// run at m=1, the score GEMM is (1 x head_dim) * (head_dim x kv_len), the
/// context GEMM is (1 x kv_len) * (kv_len x head_dim), the softmax is one
/// row of kv_len logits per head, the GELU covers ffn_stacks * ffn
/// activations, and each layernorm contributes a single rsqrt row. The
/// returned graph is tagged Phase::kDecode with `kv_len` recorded, and
/// config.seq_len plays no part in any volume. Reconciled against
/// accel::closed_form_decode_cycles exactly as build_graph is against
/// accel::closed_form_cycles.
[[nodiscard]] OpGraph build_decode_graph(const workload::BertConfig& config,
                                         std::int64_t kv_len);

/// Whole-graph MAC count of `config` expanded at `query_len` query tokens
/// over `attend_len` attended positions -- (seq_len, seq_len) for prefill,
/// (1, kv_len) for decode -- in closed form and in double, so it cannot
/// overflow. Equals OpGraph::total_macs() wherever that fits, and bounds
/// every volume the builders, the executor and the verifier form in int64.
[[nodiscard]] double closed_form_macs(const workload::BertConfig& config,
                                      double query_len, double attend_len);

namespace detail {
/// The bisection behind max_graph_len.
[[nodiscard]] int longest_fitting_len(Phase phase);
}  // namespace detail

/// Longest length at which every catalog model's graph arithmetic fits in
/// int64: the largest L <= INT_MAX whose closed_form_macs stays within
/// 2^62 (half the range, as headroom) for every model. For
/// Phase::kPrefill L is the seq_len; MACs grow as L^2, so the model with
/// the most layers x hidden sets it (about 1.4e7 tokens). For
/// Phase::kDecode L is the kv_len; MACs grow as L, so every int fits.
[[nodiscard]] inline int max_graph_len(Phase phase) {
  // Stream validation asks once per request: search once per phase, and
  // keep the per-request read inline.
  static const int prefill = detail::longest_fitting_len(Phase::kPrefill);
  static const int decode = detail::longest_fitting_len(Phase::kDecode);
  return phase == Phase::kPrefill ? prefill : decode;
}

/// Flattens a graph back into the legacy flat view: GEMM shapes with
/// per-inference counts (repeat x layer_repeat) and the summed non-linear
/// profile. workload::model_workload is exactly flatten(build_graph(cfg)),
/// which is what keeps the three views consistent by construction.
[[nodiscard]] workload::ModelWorkload flatten(const OpGraph& graph);

// Graph validation lives in analysis/verifier.hpp (analysis::run_passes):
// the old bool+reason pipeline::validate reject-list was subsumed by the
// verifier's structure / shape-dataflow / phase-coherence / conservation
// passes, which report structured diagnostics instead of one string.

}  // namespace nova::pipeline
