#include "pipeline/op_graph.hpp"

#include <limits>

#include "analysis/verifier.hpp"
#include "common/assert.hpp"

namespace nova::pipeline {

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kGemm: return "gemm";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kGelu: return "gelu";
    case OpKind::kLayerNormScale: return "layernorm";
    case OpKind::kFusedAttention: return "fused-attention";
    case OpKind::kFusedGemmGelu: return "fused-gemm-gelu";
    case OpKind::kFusedGemmLayerNorm: return "fused-gemm-layernorm";
  }
  return "?";
}

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kPrefill: return "prefill";
    case Phase::kDecode: return "decode";
  }
  return "?";
}

std::optional<Phase> phase_from_string(const std::string& name) {
  if (name == "prefill") return Phase::kPrefill;
  if (name == "decode") return Phase::kDecode;
  return std::nullopt;
}

namespace {

OpNode gemm_node(std::string label, std::int64_t m, std::int64_t k,
                 std::int64_t n, std::int64_t repeat, std::vector<int> deps) {
  OpNode node;
  node.kind = OpKind::kGemm;
  node.label = std::move(label);
  node.m = m;
  node.k = k;
  node.n = n;
  node.repeat = repeat;
  node.deps = std::move(deps);
  return node;
}

/// Shared encoder-layer chain builder. Prefill is the full sequence
/// attending over itself (query_len == attend_len == seq_len); decode is
/// one query token attending over the KV cache (query_len == 1,
/// attend_len == kv_len). Everything that feels "per token" scales with
/// query_len; everything that feels "per attended position" scales with
/// attend_len -- keeping both phases in one builder means they can never
/// drift structurally.
OpGraph build_chain(const workload::BertConfig& config,
                    std::int64_t query_len, std::int64_t attend_len) {
  NOVA_EXPECTS(config.layers >= 1);
  NOVA_EXPECTS(config.heads >= 1);
  NOVA_EXPECTS(config.hidden % config.heads == 0);
  NOVA_EXPECTS(query_len >= 1);
  NOVA_EXPECTS(attend_len >= 1);
  OpGraph graph;
  graph.config = config;
  graph.layer_repeat = config.layers;

  const std::int64_t q = query_len;
  const std::int64_t a = attend_len;
  const std::int64_t h = config.hidden;
  const std::int64_t heads = config.heads;
  const std::int64_t head_dim = h / heads;
  const std::int64_t ffn = config.ffn;
  const std::int64_t stacks = config.ffn_stacks;

  auto& nodes = graph.nodes;
  const auto last = [&nodes]() -> std::vector<int> {
    return nodes.empty() ? std::vector<int>{}
                         : std::vector<int>{static_cast<int>(nodes.size()) - 1};
  };

  // MobileBERT-style blocks project from the inter-block bottleneck width
  // into the wider body; standard blocks start at `hidden` directly.
  if (config.bottleneck > 0) {
    nodes.push_back(
        gemm_node("bottleneck-in", q, config.bottleneck, h, 1, {}));
  }

  // Attention body: QKV projections, per-head score and context GEMMs with
  // the softmax between them, the output projection, then the residual
  // layernorm (one rsqrt per row on the vector unit).
  nodes.push_back(gemm_node("attn-qkv", q, h, h, 3, last()));
  nodes.push_back(
      gemm_node("attn-scores QK^T", q, head_dim, a, heads, last()));

  OpNode softmax;
  softmax.kind = OpKind::kSoftmax;
  softmax.label = "attn-softmax";
  softmax.rows = heads * q;  // one row per (head, query position)
  softmax.row_len = a;
  softmax.deps = last();
  nodes.push_back(std::move(softmax));

  nodes.push_back(
      gemm_node("attn-context AV", q, a, head_dim, heads, last()));
  nodes.push_back(gemm_node("attn-proj", q, h, h, 1, last()));

  OpNode ln_attn;
  ln_attn.kind = OpKind::kLayerNormScale;
  ln_attn.label = "layernorm-attn";
  ln_attn.rows = q;
  ln_attn.deps = last();
  nodes.push_back(std::move(ln_attn));

  // Feed-forward stacks with GELU between the two GEMMs, then the second
  // residual layernorm.
  nodes.push_back(gemm_node("ffn-up", q, h, ffn, stacks, last()));

  OpNode gelu;
  gelu.kind = OpKind::kGelu;
  gelu.label = "ffn-gelu";
  gelu.elements = stacks * q * ffn;
  gelu.deps = last();
  nodes.push_back(std::move(gelu));

  nodes.push_back(gemm_node("ffn-down", q, ffn, h, stacks, last()));

  OpNode ln_ffn;
  ln_ffn.kind = OpKind::kLayerNormScale;
  ln_ffn.label = "layernorm-ffn";
  ln_ffn.rows = q;
  ln_ffn.deps = last();
  nodes.push_back(std::move(ln_ffn));

  if (config.bottleneck > 0) {
    nodes.push_back(
        gemm_node("bottleneck-out", q, h, config.bottleneck, 1, last()));
  }
  // Expanded straight from a config: the verifier's shape-dataflow and
  // conservation passes can (and do) re-derive every volume above.
  graph.origin = GraphOrigin::kConfigExpansion;
  return graph;
}

}  // namespace

OpGraph build_graph(const workload::BertConfig& config) {
  OpGraph graph = build_chain(config, config.seq_len, config.seq_len);
  analysis::expect_valid(graph);
  return graph;
}

OpGraph build_decode_graph(const workload::BertConfig& config,
                           std::int64_t kv_len) {
  NOVA_EXPECTS(kv_len >= 1);
  OpGraph graph = build_chain(config, 1, kv_len);
  graph.phase = Phase::kDecode;
  graph.kv_len = kv_len;
  analysis::expect_valid(graph);
  return graph;
}

double closed_form_macs(const workload::BertConfig& config, double query_len,
                        double attend_len) {
  // Per layer: the score and context GEMMs each run query x attend MACs
  // per hidden unit (head_dim x heads == hidden); the QKV, output, FFN and
  // bottleneck projections run per query token.
  const double h = config.hidden;
  const double per_token = 4.0 * h * h +
                           2.0 * config.ffn_stacks * h * config.ffn +
                           2.0 * config.bottleneck * h;
  return config.layers *
         (2.0 * h * query_len * attend_len + per_token * query_len);
}

namespace detail {

/// The largest len in [1, INT_MAX] at which every catalog model's graph
/// keeps closed_form_macs within 2^62; the MAC count is monotone in len,
/// so this bisects.
int longest_fitting_len(Phase phase) {
  const auto fits = [phase](std::int64_t len) {
    const auto l = static_cast<double>(len);
    for (const auto& entry : workload::benchmark_catalog()) {
      const auto config = entry.make(1);
      const double macs = phase == Phase::kPrefill
                              ? closed_form_macs(config, l, l)
                              : closed_form_macs(config, 1.0, l);
      if (macs > 0x1p62) return false;
    }
    return true;
  };
  std::int64_t lo = 1;
  std::int64_t hi = std::numeric_limits<int>::max();
  NOVA_ASSERT(fits(lo));
  if (fits(hi)) return static_cast<int>(hi);
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (fits(mid) ? lo : hi) = mid;
  }
  return static_cast<int>(lo);
}

}  // namespace detail

workload::ModelWorkload flatten(const OpGraph& graph) {
  workload::ModelWorkload wl;
  wl.config = graph.config;
  const std::int64_t layers = graph.layer_repeat;
  for (const auto& node : graph.nodes) {
    switch (node.kind) {
      case OpKind::kGemm:
        wl.gemms.push_back(
            {node.label, node.m, node.k, node.n, node.repeat * layers});
        break;
      case OpKind::kSoftmax:
        // The flat profile can only carry ONE row length; summing rows
        // while keeping the widest length would silently inflate the op
        // total, so mixed-length graphs are a contract violation here
        // (callers with heterogeneous softmax shapes must keep the graph
        // view rather than flattening).
        NOVA_EXPECTS(wl.nonlinear.softmax_rows == 0 ||
                     wl.nonlinear.softmax_row_len == node.row_len);
        wl.nonlinear.softmax_rows += node.rows * layers;
        wl.nonlinear.softmax_row_len = node.row_len;
        break;
      case OpKind::kGelu:
        wl.nonlinear.gelu_elements += node.elements * layers;
        break;
      case OpKind::kLayerNormScale:
        wl.nonlinear.layernorm_rsqrt_ops += node.rows * layers;
        break;
      // Fused blocks decompose back into their constituent flat shapes, so
      // flatten(fused(g)) carries the same volumes as flatten(g) and the
      // closed-form cycle model stays blind to how the graph was rewritten.
      case OpKind::kFusedAttention:
        wl.gemms.push_back({node.label + " (scores)", node.m, node.k, node.n,
                            node.repeat * layers});
        wl.gemms.push_back({node.label + " (context)", node.m, node.n, node.k,
                            node.repeat * layers});
        NOVA_EXPECTS(wl.nonlinear.softmax_rows == 0 ||
                     wl.nonlinear.softmax_row_len == node.row_len);
        wl.nonlinear.softmax_rows += node.rows * layers;
        wl.nonlinear.softmax_row_len = node.row_len;
        break;
      case OpKind::kFusedGemmGelu:
        wl.gemms.push_back(
            {node.label, node.m, node.k, node.n, node.repeat * layers});
        wl.nonlinear.gelu_elements += node.elements * layers;
        break;
      case OpKind::kFusedGemmLayerNorm:
        wl.gemms.push_back(
            {node.label, node.m, node.k, node.n, node.repeat * layers});
        wl.nonlinear.layernorm_rsqrt_ops += node.rows * layers;
        break;
    }
  }
  return wl;
}

}  // namespace nova::pipeline
