// Tests for the attention-pipeline operator graph and its executor: graph
// structure, flatten/round-trip consistency with the legacy flat views,
// EXACT reconciliation of serial timelines with the closed-form cycle
// model across all (host, benchmark) pairs, and the overlap schedule's
// bounds and attribution invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "accel/accelerator.hpp"
#include "analysis/verifier.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/op_graph.hpp"
#include "workload/bert.hpp"

namespace nova::pipeline {
namespace {

std::vector<hw::AcceleratorKind> all_hosts() {
  // Derived from the resolver catalog: a newly added host is covered by
  // the exhaustive reconciliation loops automatically.
  std::vector<hw::AcceleratorKind> hosts;
  for (const auto& entry : accel::host_catalog()) hosts.push_back(entry.kind);
  return hosts;
}

TEST(OpGraph, BuildsTopologicallySortedChain) {
  for (const auto& config : workload::paper_benchmarks(128)) {
    const auto graph = build_graph(config);
    const auto report = analysis::run_passes(graph);
    EXPECT_TRUE(report.ok()) << config.name << ":\n" << report.to_string();
    EXPECT_EQ(graph.layer_repeat, config.layers);
    ASSERT_FALSE(graph.nodes.empty());
    // Every node (except the first) depends on its predecessor: the
    // encoder layer is a chain.
    for (std::size_t i = 1; i < graph.nodes.size(); ++i) {
      ASSERT_EQ(graph.nodes[i].deps.size(), 1u);
      EXPECT_EQ(graph.nodes[i].deps[0], static_cast<int>(i) - 1);
    }
  }
}

TEST(OpGraph, HasTheFourOperatorKinds) {
  const auto graph = build_graph(workload::bert_tiny(128));
  int softmax = 0, gelu = 0, layernorm = 0, gemm = 0;
  for (const auto& node : graph.nodes) {
    switch (node.kind) {
      case OpKind::kGemm: ++gemm; break;
      case OpKind::kSoftmax: ++softmax; break;
      case OpKind::kGelu: ++gelu; break;
      case OpKind::kLayerNormScale: ++layernorm; break;
      default: FAIL() << "builders never emit fused kinds";
    }
  }
  EXPECT_EQ(softmax, 1);
  EXPECT_EQ(gelu, 1);
  EXPECT_EQ(layernorm, 2);  // post-attention and post-FFN
  EXPECT_EQ(gemm, 6);       // qkv, scores, context, proj, ffn-up, ffn-down
}

TEST(OpGraph, BottleneckNodesOnlyForMobileBert) {
  const auto mb = build_graph(workload::mobilebert_base(128));
  const auto has = [](const OpGraph& g, const char* label) {
    return std::any_of(g.nodes.begin(), g.nodes.end(),
                       [&](const OpNode& n) { return n.label == label; });
  };
  EXPECT_TRUE(has(mb, "bottleneck-in"));
  EXPECT_TRUE(has(mb, "bottleneck-out"));
  const auto tiny = build_graph(workload::bert_tiny(128));
  EXPECT_FALSE(has(tiny, "bottleneck-in"));
}

TEST(OpGraph, FlattenMatchesLegacyFlatView) {
  // model_workload IS flatten(build_graph(cfg)); this pins the totals the
  // legacy tables were built on (cross-checked against the hand counts in
  // workload_test).
  for (const auto& config : workload::paper_benchmarks(1024)) {
    const auto graph = build_graph(config);
    const auto wl = flatten(graph);
    EXPECT_EQ(wl.total_macs(), graph.total_macs()) << config.name;
    EXPECT_EQ(wl.nonlinear.total_approx_ops(), graph.total_approx_ops())
        << config.name;
    const std::int64_t layers = config.layers;
    EXPECT_EQ(wl.nonlinear.softmax_rows,
              layers * config.heads * config.seq_len);
    EXPECT_EQ(wl.nonlinear.softmax_row_len, config.seq_len);
    EXPECT_EQ(wl.nonlinear.gelu_elements,
              layers * config.ffn_stacks * static_cast<std::int64_t>(
                                               config.seq_len) * config.ffn);
    EXPECT_EQ(wl.nonlinear.layernorm_rsqrt_ops, 2 * layers * config.seq_len);
  }
}

TEST(OpGraph, FlattenRejectsMixedSoftmaxRowLengths) {
  // The flat NonLinearProfile carries one row length; flattening a graph
  // that mixes them would inflate the op total, so it must die loudly
  // instead (heterogeneous graphs stay in graph form).
  OpGraph graph;
  OpNode a;
  a.kind = OpKind::kSoftmax;
  a.label = "softmax-a";
  a.rows = 10;
  a.row_len = 7;
  graph.nodes.push_back(a);
  OpNode b = a;
  b.label = "softmax-b";
  b.rows = 4;
  b.row_len = 3;
  b.deps = {0};
  graph.nodes.push_back(b);
  EXPECT_DEATH((void)flatten(graph), "precondition");
  // Uniform lengths flatten losslessly.
  graph.nodes[1].row_len = 7;
  const auto wl = flatten(graph);
  EXPECT_EQ(wl.nonlinear.softmax_rows, 14);
  EXPECT_EQ(wl.nonlinear.total_approx_ops(), graph.total_approx_ops());
}

TEST(OpGraph, DecodeGraphShapesScaleWithKvCacheNotSeqLen) {
  // One decode step: every projection / FFN GEMM shrinks to a single query
  // row while the score/context GEMMs and the softmax row stretch with the
  // KV cache. config.seq_len must play no part in any volume.
  const std::int64_t kv = 384;
  for (const auto& config : workload::paper_benchmarks(128)) {
    const auto graph = build_decode_graph(config, kv);
    const auto report = analysis::run_passes(graph);
    EXPECT_TRUE(report.ok()) << config.name << ":\n" << report.to_string();
    EXPECT_EQ(graph.phase, Phase::kDecode);
    EXPECT_EQ(graph.kv_len, kv);
    EXPECT_EQ(graph.layer_repeat, config.layers);
    const std::int64_t head_dim = config.hidden / config.heads;
    for (const auto& node : graph.nodes) {
      if (node.is_gemm()) {
        EXPECT_EQ(node.m, 1) << config.name << " / " << node.label;
      }
      if (node.label == "attn-scores QK^T") {
        EXPECT_EQ(node.k, head_dim);
        EXPECT_EQ(node.n, kv);
        EXPECT_EQ(node.repeat, config.heads);
      } else if (node.label == "attn-context AV") {
        EXPECT_EQ(node.k, kv);
        EXPECT_EQ(node.n, head_dim);
      } else if (node.kind == OpKind::kSoftmax) {
        EXPECT_EQ(node.rows, config.heads);  // one row per head
        EXPECT_EQ(node.row_len, kv);
      } else if (node.kind == OpKind::kGelu) {
        EXPECT_EQ(node.elements,
                  static_cast<std::int64_t>(config.ffn_stacks) * config.ffn);
      } else if (node.kind == OpKind::kLayerNormScale) {
        EXPECT_EQ(node.rows, 1);
      }
    }
    // Same operator chain as prefill: node count and kinds match 1:1.
    const auto prefill = build_graph(config);
    ASSERT_EQ(graph.nodes.size(), prefill.nodes.size());
    for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
      EXPECT_EQ(graph.nodes[i].kind, prefill.nodes[i].kind);
      EXPECT_EQ(graph.nodes[i].label, prefill.nodes[i].label);
    }
    // seq_len independence: a different seq_len yields identical volumes.
    auto other = config;
    other.seq_len = 17;
    const auto same = build_decode_graph(other, kv);
    EXPECT_EQ(same.total_macs(), graph.total_macs()) << config.name;
    EXPECT_EQ(same.total_approx_ops(), graph.total_approx_ops());
  }
}

TEST(OpGraph, DecodeOpsMatchClosedFormAndGrowWithKvLen) {
  for (const auto& config : workload::paper_benchmarks(128)) {
    std::int64_t prev_ops = 0;
    for (const std::int64_t kv : {1, 128, 1024, 4096}) {
      const auto graph = build_decode_graph(config, kv);
      const std::int64_t expected =
          static_cast<std::int64_t>(config.layers) *
          (static_cast<std::int64_t>(config.heads) * (2 * kv + 1) +
           static_cast<std::int64_t>(config.ffn_stacks) * config.ffn + 2);
      EXPECT_EQ(graph.total_approx_ops(), expected)
          << config.name << " kv " << kv;
      EXPECT_EQ(static_cast<std::uint64_t>(graph.total_approx_ops()),
                accel::closed_form_decode_ops(config, kv));
      EXPECT_GT(graph.total_approx_ops(), prev_ops);
      prev_ops = graph.total_approx_ops();
    }
  }
}

TEST(OpGraph, ClosedFormMacsMatchTheBuilders) {
  for (const auto& entry : workload::benchmark_catalog()) {
    for (const int len : {1, 7, 128, 4096}) {
      const auto config = entry.make(len);
      EXPECT_EQ(closed_form_macs(config, len, len),
                static_cast<double>(build_graph(config).total_macs()))
          << config.name << " seq " << len;
      EXPECT_EQ(closed_form_macs(config, 1, len),
                static_cast<double>(
                    build_decode_graph(config, len).total_macs()))
          << config.name << " kv " << len;
    }
  }
}

TEST(OpGraph, MaxGraphLenIsTheLongestLengthEveryModelHolds) {
  // Prefill MACs grow as seq_len^2: the bound is the last length at which
  // every catalog model stays within 2^62, and one more token breaks it.
  const int prefill = max_graph_len(Phase::kPrefill);
  const auto worst = [](double query, double attend) {
    double macs = 0.0;
    for (const auto& entry : workload::benchmark_catalog()) {
      macs = std::max(macs, closed_form_macs(entry.make(1), query, attend));
    }
    return macs;
  };
  EXPECT_LE(worst(prefill, prefill), 0x1p62);
  EXPECT_GT(worst(prefill + 1.0, prefill + 1.0), 0x1p62);
  EXPECT_GT(prefill, 10'000'000);
  // Decode MACs grow linearly in kv_len, so every int fits.
  EXPECT_EQ(max_graph_len(Phase::kDecode), std::numeric_limits<int>::max());
  EXPECT_LE(worst(1.0, std::numeric_limits<int>::max()), 0x1p62);
}

TEST(Executor, GraphsAtTheLengthBoundPriceWithoutOverflow) {
  // Every catalog model at the longest accepted prompt and KV cache,
  // through the verifier (the builders run it) and the executor on every
  // host. Under UBSan any signed overflow in their counts aborts here.
  const int prefill = max_graph_len(Phase::kPrefill);
  const int decode = max_graph_len(Phase::kDecode);
  for (const auto& entry : workload::benchmark_catalog()) {
    const auto config = entry.make(prefill);
    const auto prompt = build_graph(config);
    const auto step = build_decode_graph(config, decode);
    EXPECT_NEAR(static_cast<double>(prompt.total_macs()),
                closed_form_macs(config, prefill, prefill), 1e-12 * 0x1p62)
        << config.name;
    EXPECT_GT(prompt.total_approx_ops(), 0) << config.name;
    EXPECT_GT(step.total_approx_ops(), 0) << config.name;
    for (const auto host : all_hosts()) {
      const PipelineExecutor executor(accel::make_accelerator(host),
                                      ExecutorConfig{});
      EXPECT_GT(executor.execute(prompt).span_cycles, 0u) << config.name;
      EXPECT_GT(executor.execute(step).span_cycles, 0u) << config.name;
    }
  }
}

// Negative-path coverage (forward deps, degenerate volumes, phase/kv_len
// incoherence, ...) lives in analysis_test.cpp now: the verifier owns
// rejection and the tests there assert on stable check ids.

/// The bits of a double, so the comparisons below are bitwise.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(Executor, SerialTimelineReconcilesExactlyWithClosedForm) {
  // The acceptance contract of the pipeline refactor: with overlap
  // disabled, the executor's totals equal accel::inference_cycles plus the
  // legacy closed-form non-linear cycle total EXACTLY, for all five paper
  // benchmarks on all four hosts, every unit kind Fig 8 prices and three
  // sequence lengths. The reference is spelled out here independently of
  // the executor. evaluate_inference prices closed_form_cycles, so the same
  // loop pins it, field for field and bit for bit, to the flat roll-up of
  // evaluate_pipeline's serial timeline.
  static_assert(sizeof(accel::InferenceEnergy) ==
                    3 * sizeof(std::uint64_t) + 3 * sizeof(double),
                "compare every InferenceEnergy field below");
  for (const auto host : all_hosts()) {
    const auto accel = accel::make_accelerator(host);
    for (const auto kind :
         {hw::UnitKind::kNovaNoc, hw::UnitKind::kPerNeuronLut,
          hw::UnitKind::kPerCoreLut, hw::UnitKind::kNvdlaSdp}) {
      const accel::ApproximatorChoice choice{kind, 16};
      const auto throughput = static_cast<std::uint64_t>(
          hw::paper_unit_config(accel.kind, kind).total_neurons());
      for (const int seq : {1, 128, 1024}) {
        for (const auto& config : workload::paper_benchmarks(seq)) {
          const std::string where = accel.name + " / " + hw::to_string(kind) +
                                    " / " + config.name + " seq " +
                                    std::to_string(seq);
          const auto graph = build_graph(config);
          const auto wl = workload::model_workload(config);
          const auto legacy_compute = accel::inference_cycles(accel, wl);
          const auto ops =
              static_cast<std::uint64_t>(wl.nonlinear.total_approx_ops());
          const std::uint64_t legacy_vector =
              ops == 0 ? 0 : (ops + throughput - 1) / throughput + 1;

          // The shared reference helper the CLI/bench reconciliation
          // checks use must itself match the formula spelled out here.
          const auto closed = accel::closed_form_cycles(accel, wl, choice);
          EXPECT_EQ(closed.compute_cycles, legacy_compute) << where;
          EXPECT_EQ(closed.approx_cycles, legacy_vector) << where;

          ExecutorConfig exec;
          exec.choice = choice;
          exec.overlap = false;
          const auto timeline = PipelineExecutor(accel, exec).execute(graph);
          EXPECT_EQ(timeline.fabric_cycles, legacy_compute) << where;
          EXPECT_EQ(timeline.vector_cycles, legacy_vector) << where;
          EXPECT_EQ(timeline.span_cycles, legacy_compute + legacy_vector)
              << where;
          EXPECT_EQ(timeline.span_cycles, timeline.serial_cycles) << where;
          EXPECT_EQ(timeline.approx_ops, ops) << where;

          const auto flat = accel::evaluate_inference(accel, wl, choice);
          const auto want = evaluate_pipeline(accel, graph, choice).flat;
          EXPECT_EQ(flat.compute_cycles, legacy_compute) << where;
          EXPECT_EQ(flat.approx_cycles, legacy_vector) << where;
          EXPECT_EQ(flat.compute_cycles, want.compute_cycles) << where;
          EXPECT_EQ(flat.approx_ops, want.approx_ops) << where;
          EXPECT_EQ(flat.approx_cycles, want.approx_cycles) << where;
          EXPECT_EQ(bits(flat.runtime_ms), bits(want.runtime_ms)) << where;
          EXPECT_EQ(bits(flat.base_energy_mj), bits(want.base_energy_mj))
              << where;
          EXPECT_EQ(bits(flat.approx_energy_mj), bits(want.approx_energy_mj))
              << where;
        }
      }
    }
  }
}

TEST(Executor, DecodeSerialTimelineReconcilesWithClosedFormReference) {
  // The decode acceptance contract: with overlap disabled, the decode
  // executor timeline reconciles EXACTLY with closed_form_decode_cycles --
  // which spells out the m=1 shape list and op count itself, touching
  // neither the executor nor build_decode_graph -- for every host x
  // benchmark x kv_len in {1, 128, 1024}.
  for (const auto host : all_hosts()) {
    const auto accel = accel::make_accelerator(host);
    for (const auto& config : workload::paper_benchmarks(128)) {
      for (const std::int64_t kv : {1, 128, 1024}) {
        const auto closed = accel::closed_form_decode_cycles(
            accel, config, kv,
            accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
        ExecutorConfig exec;
        exec.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16};
        exec.overlap = false;
        const auto timeline = PipelineExecutor(accel, exec)
                                  .execute(build_decode_graph(config, kv));
        EXPECT_EQ(timeline.fabric_cycles, closed.compute_cycles)
            << accel.name << " / " << config.name << " kv " << kv;
        EXPECT_EQ(timeline.vector_cycles, closed.approx_cycles)
            << accel.name << " / " << config.name << " kv " << kv;
        EXPECT_EQ(timeline.span_cycles, closed.total())
            << accel.name << " / " << config.name << " kv " << kv;
        EXPECT_EQ(timeline.approx_ops,
                  accel::closed_form_decode_ops(config, kv));
      }
    }
  }
}

TEST(Executor, SingleQueryGemmTilesAndSingleRowSoftmaxAreWellFormed) {
  // The degenerate shapes decode exposes: m=1 GEMM folds must still cost
  // at least one fold of cycles per execution, and a single-row softmax
  // (rows=1, one head) must stream its 2*kv_len+1 ops without tripping the
  // telescoped accounting.
  workload::BertConfig config{"decode-probe", 1, 64, 1, 128, 16, 0, 1};
  const std::int64_t kv = 77;
  const auto graph = build_decode_graph(config, kv);
  const auto softmax_it =
      std::find_if(graph.nodes.begin(), graph.nodes.end(),
                   [](const OpNode& n) { return n.kind == OpKind::kSoftmax; });
  ASSERT_NE(softmax_it, graph.nodes.end());
  EXPECT_EQ(softmax_it->rows, 1);
  EXPECT_EQ(softmax_it->row_len, kv);
  EXPECT_EQ(softmax_it->approx_ops_per_layer(), 2 * kv + 1);

  for (const bool overlap : {false, true}) {
    const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
    ExecutorConfig exec;
    exec.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16};
    exec.overlap = overlap;
    const auto timeline = PipelineExecutor(accel, exec).execute(graph);
    for (const auto& entry : timeline.entries) {
      const auto& node = graph.nodes[static_cast<std::size_t>(entry.node)];
      EXPECT_GE(entry.tiles, 1) << node.label;
      EXPECT_GE(entry.finish, entry.start) << node.label;
      if (node.is_gemm()) {
        // Every m=1 GEMM still pays fill + stream + drain for its folds.
        EXPECT_GT(entry.cycles, 0u) << node.label;
        EXPECT_EQ(entry.macs, node.macs_per_layer()) << node.label;
      }
    }
    EXPECT_GT(timeline.span_cycles, 0u);
    EXPECT_EQ(timeline.approx_ops,
              static_cast<std::uint64_t>(graph.total_approx_ops()));
  }
}

TEST(Executor, LegacyApproxCycleFormulaStillHolds) {
  // evaluate_inference's numbers obey the original closed forms (ceil over
  // the paper throughput, +1 pipeline fill).
  const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
  const auto wl = workload::model_workload(workload::bert_mini(1024));
  const auto result = accel::evaluate_inference(
      accel, wl, accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
  const auto throughput = static_cast<std::uint64_t>(
      hw::paper_unit_config(accel.kind, hw::UnitKind::kNovaNoc)
          .total_neurons());
  EXPECT_EQ(result.approx_cycles,
            (result.approx_ops + throughput - 1) / throughput + 1);
  EXPECT_EQ(result.compute_cycles, accel::inference_cycles(accel, wl));
}

TEST(Executor, OverlapSpanBoundedBySerialAndResourceMax) {
  for (const auto host : all_hosts()) {
    const auto accel = accel::make_accelerator(host);
    for (const auto& config : workload::paper_benchmarks(512)) {
      const auto eval = evaluate_pipeline(
          accel, build_graph(config),
          accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
      // The overlapped span can never beat either resource's busy total
      // and can never lose to the serial sum.
      EXPECT_GE(eval.overlapped.span_cycles,
                std::max(eval.overlapped.fabric_cycles,
                         eval.overlapped.vector_cycles))
          << accel.name << " / " << config.name;
      EXPECT_LE(eval.overlapped.span_cycles, eval.serial.span_cycles)
          << accel.name << " / " << config.name;
      EXPECT_GE(eval.overlap_win, 1.0);
    }
  }
}

TEST(Executor, OverlapHidesVectorTimeUnderFabricTime) {
  // On the TPU-like hosts the fabric dominates and the double-buffered
  // schedule hides non-linear waves under GEMM streaming, so the
  // overlapped span must be strictly better than serial.
  const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
  const auto eval = evaluate_pipeline(
      accel, build_graph(workload::bert_tiny(1024)),
      accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
  EXPECT_LT(eval.overlapped.span_cycles, eval.serial.span_cycles);
  EXPECT_GT(eval.overlap_win, 1.0);
}

TEST(Executor, PerNodeAttributionSumsToTotals) {
  const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV3);
  const auto graph = build_graph(workload::mobilebert_base(256));
  ExecutorConfig exec;
  exec.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16};
  const auto timeline = PipelineExecutor(accel, exec).execute(graph);

  sim::Cycle fabric = 0, vector_cycles = 0;
  std::int64_t macs = 0;
  std::uint64_t ops = 0;
  for (const auto& entry : timeline.entries) {
    if (entry.resource == Resource::kFabric) {
      fabric += entry.cycles;
    } else {
      vector_cycles += entry.cycles;
    }
    macs += entry.macs;
    ops += static_cast<std::uint64_t>(entry.approx_ops);
    EXPECT_GE(entry.finish, entry.start + entry.cycles - 0u);
  }
  EXPECT_EQ(fabric, timeline.fabric_cycles);
  EXPECT_EQ(vector_cycles, timeline.vector_cycles);
  EXPECT_EQ(macs, graph.total_macs());
  EXPECT_EQ(ops, timeline.approx_ops);
  EXPECT_EQ(ops, static_cast<std::uint64_t>(graph.total_approx_ops()));
}

TEST(Executor, ResourcesNeverDoubleBook) {
  // Entries on one resource must not overlap each other, in either mode.
  for (const bool overlap : {false, true}) {
    const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
    ExecutorConfig exec;
    exec.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16};
    exec.overlap = overlap;
    const auto timeline = PipelineExecutor(accel, exec)
                              .execute(build_graph(workload::bert_mini(512)));
    for (const auto res : {Resource::kFabric, Resource::kVector}) {
      sim::Cycle last_finish = 0;
      for (const auto& entry : timeline.entries) {
        if (entry.resource != res) continue;
        EXPECT_GE(entry.start, last_finish);
        last_finish = entry.finish;
      }
    }
  }
}

TEST(Executor, MeasuredVectorRateScalesVectorCycles) {
  // The serving layer passes the steady-state rate measured by its
  // cycle-accurate run; a slower vector unit must stretch exactly the
  // vector side of the timeline.
  const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
  const auto graph = build_graph(workload::bert_tiny(256));
  ExecutorConfig fast;
  fast.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16};
  fast.overlap = false;
  ExecutorConfig slow = fast;
  slow.vector_elems_per_cycle =
      static_cast<double>(hw::paper_unit_config(accel.kind,
                                                hw::UnitKind::kNovaNoc)
                              .total_neurons()) /
      2.0;
  const auto fast_tl = PipelineExecutor(accel, fast).execute(graph);
  const auto slow_tl = PipelineExecutor(accel, slow).execute(graph);
  EXPECT_EQ(fast_tl.fabric_cycles, slow_tl.fabric_cycles);
  EXPECT_GT(slow_tl.vector_cycles, fast_tl.vector_cycles);
  // Halving the rate roughly doubles the stream time (modulo fill/ceil).
  EXPECT_NEAR(static_cast<double>(slow_tl.vector_cycles),
              2.0 * static_cast<double>(fast_tl.vector_cycles),
              4.0 + 0.01 * static_cast<double>(fast_tl.vector_cycles));
}

TEST(Executor, GemmOnlyGraphHasNoVectorCycles) {
  // No non-linear nodes -> no pipeline fill charged, matching the legacy
  // "0 when ops == 0" contract.
  OpGraph graph;
  OpNode gemm;
  gemm.label = "only";
  gemm.m = 64;
  gemm.k = 64;
  gemm.n = 64;
  gemm.repeat = 2;
  graph.nodes.push_back(gemm);
  const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
  ExecutorConfig exec;
  exec.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16};
  const auto timeline = PipelineExecutor(accel, exec).execute(graph);
  EXPECT_EQ(timeline.vector_cycles, 0u);
  EXPECT_EQ(timeline.approx_ops, 0u);
  EXPECT_EQ(timeline.span_cycles, timeline.fabric_cycles);
}

}  // namespace
}  // namespace nova::pipeline
