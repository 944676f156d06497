#include "pipeline/fusion.hpp"

#include <utility>

#include "analysis/verifier.hpp"
#include "common/assert.hpp"

namespace nova::pipeline {

std::string to_string_fusion_set(FusionSet set) {
  if (set == kFuseNone) return "none";
  std::string text;
  const auto part = [&text](const char* name) {
    if (!text.empty()) text += '+';
    text += name;
  };
  if (set & kFuseAttention) part("attn");
  if (set & kFuseGemmGelu) part("gelu-ep");
  if (set & kFuseGemmLayerNorm) part("ln-ep");
  return text;
}

const char* to_string(FusionMode mode) {
  switch (mode) {
    case FusionMode::kOff: return "off";
    case FusionMode::kOn: return "on";
    case FusionMode::kAuto: return "auto";
  }
  return "?";
}

std::optional<FusionMode> fusion_mode_from_string(const std::string& name) {
  if (name == "off") return FusionMode::kOff;
  if (name == "on") return FusionMode::kOn;
  if (name == "auto") return FusionMode::kAuto;
  return std::nullopt;
}

namespace {

/// consumers[i] = indices of nodes listing i as a producer.
std::vector<std::vector<int>> consumers_of(const OpGraph& graph) {
  std::vector<std::vector<int>> consumers(graph.nodes.size());
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    for (const int dep : graph.nodes[i].deps) {
      consumers[static_cast<std::size_t>(dep)].push_back(
          static_cast<int>(i));
    }
  }
  return consumers;
}

/// Replaces the matched chain (strictly increasing indices; each element
/// the sole consumer of the previous) with `fused` at the head's position,
/// erasing the tail elements and remapping every dep: edges into the old
/// tail now read the fused node, and indices shift down past the erased
/// slots. The head's producers become the fused node's producers.
void splice_chain(OpGraph& graph, const std::vector<int>& chain,
                  OpNode fused) {
  const int head = chain.front();
  const int count = static_cast<int>(graph.nodes.size());

  std::vector<char> erased(graph.nodes.size(), 0);
  for (std::size_t c = 1; c < chain.size(); ++c) {
    erased[static_cast<std::size_t>(chain[c])] = 1;
  }
  // old index -> new index (chain members collapse onto the head).
  std::vector<int> remap(graph.nodes.size(), -1);
  int next = 0;
  for (int i = 0; i < count; ++i) {
    if (erased[static_cast<std::size_t>(i)]) continue;
    remap[static_cast<std::size_t>(i)] = next++;
  }
  for (const int member : chain) {
    remap[static_cast<std::size_t>(member)] =
        remap[static_cast<std::size_t>(head)];
  }

  fused.deps = graph.nodes[static_cast<std::size_t>(head)].deps;
  std::vector<OpNode> nodes;
  nodes.reserve(static_cast<std::size_t>(next));
  for (int i = 0; i < count; ++i) {
    if (erased[static_cast<std::size_t>(i)]) continue;
    OpNode node = i == head ? std::move(fused)
                            : std::move(graph.nodes[static_cast<std::size_t>(i)]);
    for (int& dep : node.deps) dep = remap[static_cast<std::size_t>(dep)];
    nodes.push_back(std::move(node));
  }
  graph.nodes = std::move(nodes);
}

/// GEMM(QK^T) -> softmax -> GEMM(AV), exclusive and shape-coherent,
/// becomes one kFusedAttention node. The context GEMM must be the score
/// GEMM's (m, n, k) permutation -- anything else is not an attention block
/// and the pattern refuses.
int fuse_attention_pass(OpGraph& graph) {
  int rewrites = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto consumers = consumers_of(graph);
    for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
      const OpNode& scores = graph.nodes[i];
      if (scores.kind != OpKind::kGemm || consumers[i].size() != 1) continue;
      const int j = consumers[i][0];
      const OpNode& softmax = graph.nodes[static_cast<std::size_t>(j)];
      if (softmax.kind != OpKind::kSoftmax || softmax.deps.size() != 1 ||
          consumers[static_cast<std::size_t>(j)].size() != 1) {
        continue;
      }
      const int l = consumers[static_cast<std::size_t>(j)][0];
      const OpNode& context = graph.nodes[static_cast<std::size_t>(l)];
      if (context.kind != OpKind::kGemm || context.deps.size() != 1) continue;
      // Shape coherence: softmax rows cover every (head, query) row of the
      // score output, its row length is the attend length, and the context
      // GEMM consumes exactly the softmaxed scores.
      if (softmax.rows != scores.repeat * scores.m ||
          softmax.row_len != scores.n) {
        continue;
      }
      if (context.m != scores.m || context.k != scores.n ||
          context.n != scores.k || context.repeat != scores.repeat) {
        continue;
      }
      OpNode node;
      node.kind = OpKind::kFusedAttention;
      node.label = "fused-attention";
      node.m = scores.m;
      node.k = scores.k;
      node.n = scores.n;
      node.repeat = scores.repeat;
      node.rows = softmax.rows;
      node.row_len = softmax.row_len;
      splice_chain(graph, {static_cast<int>(i), j, l}, std::move(node));
      ++rewrites;
      changed = true;
      break;  // indices shifted; rescan
    }
  }
  return rewrites;
}

/// Shared matcher for the two GEMM-epilogue fusions: GEMM -> (vector op of
/// `tail_kind`), exclusive, with `coherent(gemm, tail)` guarding that the
/// epilogue's volume is exactly the GEMM's output.
template <typename Coherent, typename Build>
int fuse_epilogue(OpGraph& graph, OpKind tail_kind, Coherent coherent,
                  Build build) {
  int rewrites = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto consumers = consumers_of(graph);
    for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
      const OpNode& gemm = graph.nodes[i];
      if (gemm.kind != OpKind::kGemm || consumers[i].size() != 1) continue;
      const int j = consumers[i][0];
      const OpNode& tail = graph.nodes[static_cast<std::size_t>(j)];
      if (tail.kind != tail_kind || tail.deps.size() != 1) continue;
      if (!coherent(gemm, tail)) continue;
      OpNode node = build(gemm, tail);
      splice_chain(graph, {static_cast<int>(i), j}, std::move(node));
      ++rewrites;
      changed = true;
      break;
    }
  }
  return rewrites;
}

int fuse_gemm_gelu_pass(OpGraph& graph) {
  return fuse_epilogue(
      graph, OpKind::kGelu,
      [](const OpNode& gemm, const OpNode& gelu) {
        return gelu.elements == gemm.m * gemm.n * gemm.repeat;
      },
      [](const OpNode& gemm, const OpNode& gelu) {
        OpNode node;
        node.kind = OpKind::kFusedGemmGelu;
        node.label = gemm.label + "+gelu";
        node.m = gemm.m;
        node.k = gemm.k;
        node.n = gemm.n;
        node.repeat = gemm.repeat;
        node.elements = gelu.elements;
        return node;
      });
}

int fuse_gemm_layernorm_pass(OpGraph& graph) {
  return fuse_epilogue(
      graph, OpKind::kLayerNormScale,
      [](const OpNode& gemm, const OpNode& ln) {
        return ln.rows == gemm.m;
      },
      [](const OpNode& gemm, const OpNode& ln) {
        OpNode node;
        node.kind = OpKind::kFusedGemmLayerNorm;
        node.label = gemm.label + "+layernorm";
        node.m = gemm.m;
        node.k = gemm.k;
        node.n = gemm.n;
        node.repeat = gemm.repeat;
        node.rows = ln.rows;
        return node;
      });
}

}  // namespace

const std::vector<FusionPass>& fusion_pass_catalog() {
  static const std::vector<FusionPass> catalog = {
      {"fuse-attention", kFuseAttention, &fuse_attention_pass},
      {"fuse-gemm-gelu", kFuseGemmGelu, &fuse_gemm_gelu_pass},
      {"fuse-gemm-layernorm", kFuseGemmLayerNorm, &fuse_gemm_layernorm_pass},
  };
  return catalog;
}

int apply_fusion(OpGraph& graph, FusionSet set) {
  NOVA_EXPECTS((set & ~kFuseAll) == 0);
  int total = 0;
  for (const auto& pass : fusion_pass_catalog()) {
    if ((set & pass.bit) == 0) continue;
    const int rewrites = pass.apply(graph);
    if (rewrites > 0) {
      // Machine-check the rewrite: conservation (per-kind volume totals vs
      // config closed forms) and the fused-aware shape/structure passes
      // must all hold, or the rewrite mispriced something -- abort loudly.
      analysis::expect_valid(graph);
      total += rewrites;
    }
  }
  return total;
}

OpGraph fused(const OpGraph& graph, FusionSet set) {
  OpGraph copy = graph;
  apply_fusion(copy, set);
  return copy;
}

FusionTuning tune_fusion(const PipelineExecutor& executor,
                         const OpGraph& graph) {
  FusionTuning tuning;
  for (FusionSet mask = kFuseNone; mask <= kFuseAll; ++mask) {
    OpGraph candidate = graph;
    const int rewrites =
        mask == kFuseNone ? 0 : apply_fusion(candidate, mask);
    const auto timeline = executor.execute(candidate);
    tuning.candidates.push_back({mask, timeline.span_cycles, rewrites});
    if (mask == kFuseNone) {
      tuning.best = kFuseNone;
      tuning.best_span = timeline.span_cycles;
      tuning.baseline_span = timeline.span_cycles;
    } else if (timeline.span_cycles < tuning.best_span) {
      // Strict < keeps the tuner from ever picking a slower (or merely
      // equal, higher-mask) rewrite; ties resolve to the lowest mask.
      tuning.best = mask;
      tuning.best_span = timeline.span_cycles;
    }
  }
  return tuning;
}

}  // namespace nova::pipeline
