// Tests for the OpGraph static verifier: a clean sweep over every catalog
// graph (the same host x benchmark x phase x length grid nova_lint walks),
// then one seeded corruption per check -- each asserting the EXACT check id
// the verifier must report, so a future pass refactor cannot silently
// reclassify (or stop catching) a failure mode.
#include <gtest/gtest.h>

#include "accel/accelerator.hpp"
#include "analysis/verifier.hpp"
#include "pipeline/op_graph.hpp"
#include "workload/bert.hpp"

namespace nova::analysis {
namespace {

using pipeline::GraphOrigin;
using pipeline::OpGraph;
using pipeline::OpKind;
using pipeline::OpNode;

OpGraph tiny_prefill() { return pipeline::build_graph(workload::bert_tiny(16)); }
OpGraph tiny_decode() {
  return pipeline::build_decode_graph(workload::bert_tiny(16), 64);
}

std::size_t index_of(const OpGraph& graph, OpKind kind) {
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    if (graph.nodes[i].kind == kind) return i;
  }
  ADD_FAILURE() << "kind not found";
  return 0;
}

/// Corrupted graphs must surface `check` as an error-severity finding.
void expect_rejected(const OpGraph& graph, CheckId check) {
  const auto report = run_passes(graph);
  EXPECT_FALSE(report.ok()) << "graph unexpectedly clean";
  EXPECT_TRUE(report.has(check))
      << "expected " << to_string(check) << ", got:\n" << report.to_string();
}

TEST(Verifier, CleanOverEveryCatalogGraph) {
  // The nova_lint acceptance sweep in test form: every host x benchmark x
  // {prefill seq, decode kv} in {1, 128, 1024} graph verifies clean,
  // including the host-specific executor-vs-closed-form reconciliation.
  const accel::ApproximatorChoice choice{hw::UnitKind::kNovaNoc, 16};
  for (const auto& host : accel::host_catalog()) {
    const auto accel = accel::make_accelerator(host.kind);
    for (const int len : {1, 128, 1024}) {
      for (const auto& config : workload::paper_benchmarks(len)) {
        const auto report =
            reconcile_cycles(pipeline::build_graph(config), accel, choice);
        EXPECT_TRUE(report.ok()) << accel.name << " / " << config.name
                                 << " prefill seq " << len << ":\n"
                                 << report.to_string();
      }
      for (const auto& config : workload::paper_benchmarks(128)) {
        const auto report = reconcile_cycles(
            pipeline::build_decode_graph(config, len), accel, choice);
        EXPECT_TRUE(report.ok()) << accel.name << " / " << config.name
                                 << " decode kv " << len << ":\n"
                                 << report.to_string();
      }
    }
  }
}

TEST(Verifier, PassCatalogListsThePipeline) {
  const auto& catalog = pass_catalog();
  ASSERT_EQ(catalog.size(), 5u);
  EXPECT_STREQ(catalog[0].name, "structure");
  EXPECT_STREQ(catalog[1].name, "phase");
  EXPECT_STREQ(catalog[2].name, "shape");
  EXPECT_STREQ(catalog[3].name, "conservation");
  EXPECT_STREQ(catalog[4].name, "reconcile-cycles");
}

// --- structure pass -------------------------------------------------------

TEST(Verifier, CatchesForwardDepAsTopoOrderViolation) {
  // Nodes are stored topologically, so a forward (or self) edge is the
  // only way a cycle can be encoded; the structure pass must name it.
  auto graph = tiny_prefill();
  graph.nodes[0].deps.push_back(2);
  expect_rejected(graph, CheckId::kStructTopoOrder);

  auto self_loop = tiny_prefill();
  self_loop.nodes[3].deps.push_back(3);
  expect_rejected(self_loop, CheckId::kStructTopoOrder);
}

TEST(Verifier, CatchesDanglingEdge) {
  auto graph = tiny_prefill();
  graph.nodes[2].deps.push_back(static_cast<int>(graph.nodes.size()) + 7);
  expect_rejected(graph, CheckId::kStructDepRange);

  auto negative = tiny_prefill();
  negative.nodes[2].deps.push_back(-1);
  expect_rejected(negative, CheckId::kStructDepRange);
}

TEST(Verifier, CatchesDuplicateEdge) {
  auto graph = tiny_prefill();
  graph.nodes[3].deps.push_back(graph.nodes[3].deps.front());
  expect_rejected(graph, CheckId::kStructDepDuplicate);
}

TEST(Verifier, CatchesUnreachableNode) {
  auto graph = tiny_prefill();
  OpNode orphan;
  orphan.kind = OpKind::kGelu;
  orphan.label = "orphan";
  orphan.elements = 5;  // volumes are fine; connectivity is not
  graph.nodes.push_back(orphan);
  expect_rejected(graph, CheckId::kStructUnreachable);
}

TEST(Verifier, CatchesResourceClassLeakage) {
  // A fabric `repeat` on a softmax is silently ignored by
  // approx_ops_per_layer -- exactly the kind of misbuilt node the
  // resource-class check exists for.
  auto graph = tiny_prefill();
  graph.nodes[index_of(graph, OpKind::kSoftmax)].repeat = 2;
  expect_rejected(graph, CheckId::kStructResourceClass);

  auto gemm_rows = tiny_prefill();
  gemm_rows.nodes[index_of(gemm_rows, OpKind::kGemm)].rows = 4;
  expect_rejected(gemm_rows, CheckId::kStructResourceClass);
}

TEST(Verifier, CatchesDegenerateVolumes) {
  const auto corrupt = [](OpKind kind, auto mutate) {
    auto graph = tiny_prefill();
    mutate(graph.nodes[index_of(graph, kind)]);
    expect_rejected(graph, CheckId::kStructVolume);
  };
  corrupt(OpKind::kSoftmax, [](OpNode& n) { n.rows = 0; });
  corrupt(OpKind::kSoftmax, [](OpNode& n) { n.row_len = 0; });
  corrupt(OpKind::kGelu, [](OpNode& n) { n.elements = -5; });
  corrupt(OpKind::kLayerNormScale, [](OpNode& n) { n.rows = 0; });
  corrupt(OpKind::kGemm, [](OpNode& n) { n.m = 0; });

  auto graph = tiny_prefill();
  graph.layer_repeat = 0;
  expect_rejected(graph, CheckId::kStructLayerRepeat);
}

// --- phase pass -----------------------------------------------------------

TEST(Verifier, CatchesKvLenPhaseIncoherence) {
  auto decode = tiny_decode();
  decode.kv_len = 0;  // decode without its cache length
  expect_rejected(decode, CheckId::kPhaseKvLen);

  auto prefill = tiny_prefill();
  prefill.kv_len = 64;  // prefill claiming one
  expect_rejected(prefill, CheckId::kPhaseKvLen);
}

// --- shape dataflow pass --------------------------------------------------

TEST(Verifier, CatchesWrongSoftmaxRowCount) {
  auto graph = tiny_prefill();
  auto& softmax = graph.nodes[index_of(graph, OpKind::kSoftmax)];
  softmax.rows += 1;  // still positive: structure stays quiet, shape must not
  expect_rejected(graph, CheckId::kShapeSoftmax);
}

TEST(Verifier, CatchesKvLenVolumeMismatch) {
  // Retagging a decode graph with a different kv_len than its volumes were
  // expanded at: the re-derivation pins every kv-scaled shape.
  auto graph = tiny_decode();
  graph.kv_len += 1;
  expect_rejected(graph, CheckId::kShapeSoftmax);
  expect_rejected(graph, CheckId::kShapeGemm);  // QK^T / AV scale with kv too
}

TEST(Verifier, CatchesWrongGemmFoldShape) {
  auto graph = tiny_prefill();
  graph.nodes[index_of(graph, OpKind::kGemm)].n += 8;
  expect_rejected(graph, CheckId::kShapeGemm);
}

TEST(Verifier, CatchesChainDivergenceAndLayerMismatch) {
  auto graph = tiny_prefill();
  graph.nodes.pop_back();  // drop the trailing layernorm
  expect_rejected(graph, CheckId::kShapeChain);

  auto layers = tiny_prefill();
  layers.layer_repeat += 1;  // diverges from config.layers
  expect_rejected(layers, CheckId::kShapeChain);
}

TEST(Verifier, ShapeChecksSkipAdaptedGraphs) {
  // A graph built node by node has no config ground truth; only
  // structural/phase checking applies, so it must verify clean.
  OpGraph graph;
  OpNode gemm;
  gemm.label = "a";
  gemm.m = 16;
  gemm.k = 32;
  gemm.n = 64;
  gemm.repeat = 3;
  graph.nodes.push_back(gemm);
  OpNode softmax;
  softmax.kind = OpKind::kSoftmax;
  softmax.label = "softmax";
  softmax.rows = 10;
  softmax.row_len = 7;
  softmax.deps = {0};
  graph.nodes.push_back(softmax);
  ASSERT_EQ(graph.origin, GraphOrigin::kAdapted);
  const auto report = run_passes(graph);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- conservation pass ----------------------------------------------------

TEST(Verifier, CatchesVolumeNonConservation) {
  // Append a second softmax: node-order-agnostic totals must still flag
  // the inflated row count (and the op total it drags along) even though
  // every node is individually well-formed.
  auto graph = tiny_prefill();
  OpNode extra = graph.nodes[index_of(graph, OpKind::kSoftmax)];
  extra.label = "softmax-extra";
  extra.deps = {static_cast<int>(graph.nodes.size()) - 1};
  graph.nodes.push_back(extra);
  const auto report = run_passes(graph);
  EXPECT_TRUE(report.has(CheckId::kConserveSoftmaxRows))
      << report.to_string();
  EXPECT_TRUE(report.has(CheckId::kConserveApproxOps)) << report.to_string();
}

TEST(Verifier, CatchesGeluElementLoss) {
  auto graph = tiny_decode();
  graph.nodes[index_of(graph, OpKind::kGelu)].elements -= 1;
  const auto report = run_passes(graph);
  EXPECT_TRUE(report.has(CheckId::kShapeGelu)) << report.to_string();
  EXPECT_TRUE(report.has(CheckId::kConserveGeluElements))
      << report.to_string();
}

TEST(Verifier, CatchesMacLoss) {
  auto graph = tiny_prefill();
  graph.nodes[index_of(graph, OpKind::kGemm)].repeat += 1;
  const auto report = run_passes(graph);
  EXPECT_TRUE(report.has(CheckId::kConserveMacs)) << report.to_string();
}

// --- cycle reconciliation lint --------------------------------------------

TEST(Verifier, ReconcileRefusesToExecuteBrokenGraphs) {
  // reconcile_cycles must hand back the pass findings instead of feeding a
  // corrupt graph to the executor (whose entry guard would abort).
  auto graph = tiny_prefill();
  graph.nodes[0].deps.push_back(2);
  const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
  const auto report = reconcile_cycles(
      graph, accel, accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(CheckId::kStructTopoOrder));
  EXPECT_FALSE(report.has(CheckId::kConserveCycles));
}

TEST(Verifier, ReconcileCatchesDecodeVolumeDrift) {
  // An adapted decode graph sails past the shape/conservation passes (no
  // config ground truth) -- but the decode closed form derives from the
  // config alone, so the cycle lint still catches drifted volumes.
  auto graph = tiny_decode();
  graph.origin = GraphOrigin::kAdapted;
  // Big enough that the op-count drift survives the throughput ceil in
  // the vector-cycle closed form.
  auto& softmax = graph.nodes[index_of(graph, OpKind::kSoftmax)];
  softmax.row_len += 1 << 20;
  ASSERT_TRUE(run_passes(graph).ok());  // structurally fine, so it executes
  const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
  const auto report = reconcile_cycles(
      graph, accel, accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
  EXPECT_TRUE(report.has(CheckId::kConserveCycles)) << report.to_string();
}

// --- diagnostics plumbing -------------------------------------------------

TEST(Diagnostics, RendersStableCheckIdsAndCounts) {
  auto graph = tiny_prefill();
  graph.nodes[index_of(graph, OpKind::kSoftmax)].rows += 1;
  const auto report = run_passes(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_GT(report.errors(), 0);
  EXPECT_EQ(report.errors() + report.warnings(),
            static_cast<int>(report.diagnostics.size()));
  // The rendering carries the kebab-case id and the offending node -- the
  // format nova_lint reports and CI greps key on.
  EXPECT_NE(report.to_string().find("[shape.softmax]"), std::string::npos);
  EXPECT_NE(report.to_string().find("attn-softmax"), std::string::npos);
  EXPECT_STREQ(to_string(CheckId::kStructDepRange), "structure.dep-range");
  EXPECT_STREQ(to_string(CheckId::kConserveCycles), "conserve.cycles");
}

}  // namespace
}  // namespace nova::analysis
