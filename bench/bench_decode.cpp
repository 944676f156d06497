// Decode-phase operator-graph bench: for each Table II host and each of
// the five paper benchmarks, walks one autoregressive decode step
// (pipeline::build_decode_graph -- a single query token against a growing
// KV cache) through the PipelineExecutor across a kv_len sweep, reports
// how the serial/overlapped spans scale with the cache, and verifies every
// serial timeline reconciles EXACTLY with accel::closed_form_decode_cycles
// -- a reference that touches neither the executor nor the graph builder,
// so a bug in either cannot cancel out of the comparison. Emits every
// series as machine-readable BENCH_decode.json for cross-PR tracking, like
// BENCH_pipeline.json.
#include <cstdio>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/op_graph.hpp"

int main() {
  using namespace nova;

  std::puts("Decode-step operator-graph timelines: kv_len sweep per host\n");

  // Hosts come from the resolver catalog so a newly added host can never
  // silently skip the decode reconciliation sweep.
  std::vector<hw::AcceleratorKind> hosts;
  for (const auto& entry : accel::host_catalog()) hosts.push_back(entry.kind);
  const std::vector<std::int64_t> kv_lens = {128, 256, 512, 1024, 2048, 4096};

  bool all_reconciled = true;
  std::vector<json::Object> rows;

  for (const auto host : hosts) {
    const auto accel = accel::make_accelerator(host);
    Table table(std::string("Decode / ") + accel.name);
    table.set_header({"benchmark", "kv_len", "decode ops", "fabric cyc",
                      "vector cyc", "serial cyc", "overlap cyc", "win",
                      "reconciled"});
    for (const auto& config : workload::paper_benchmarks(128)) {
      for (const auto kv : kv_lens) {
        const auto graph = pipeline::build_decode_graph(config, kv);
        const auto eval = pipeline::evaluate_pipeline(
            accel, graph,
            accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
        // The acceptance contract: the serial decode span equals the
        // closed-form decode compute + non-linear totals, exactly, for
        // every (host, benchmark, kv_len) triple.
        const auto closed = accel::closed_form_decode_cycles(
            accel, config, kv,
            accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
        const bool reconciled =
            eval.serial.span_cycles == closed.total() &&
            eval.serial.fabric_cycles == closed.compute_cycles &&
            eval.serial.vector_cycles == closed.approx_cycles &&
            static_cast<std::uint64_t>(graph.total_approx_ops()) ==
                accel::closed_form_decode_ops(config, kv);
        all_reconciled = all_reconciled && reconciled;
        table.add_row({config.name, std::to_string(kv),
                       std::to_string(graph.total_approx_ops()),
                       std::to_string(eval.serial.fabric_cycles),
                       std::to_string(eval.serial.vector_cycles),
                       std::to_string(eval.serial.span_cycles),
                       std::to_string(eval.overlapped.span_cycles),
                       Table::num(eval.overlap_win, 3),
                       reconciled ? "exact" : "MISMATCH"});

        rows.push_back(json::Object()
                           .str("host", accel.name)
                           .str("benchmark", config.name)
                           .num("kv_len", kv)
                           .num("decode_ops", graph.total_approx_ops())
                           .num("serial_cycles", eval.serial.span_cycles)
                           .num("overlapped_cycles",
                                eval.overlapped.span_cycles)
                           .num("overlap_win", eval.overlap_win, 4)
                           .flag("reconciled", reconciled));
      }
    }
    table.print();
    std::puts("");
  }

  if (!json::write_file("BENCH_decode.json",
                        json::Object().list("decode", rows).document())) {
    std::fputs("bench_decode: cannot write BENCH_decode.json\n", stderr);
    return 2;
  }
  std::puts("wrote BENCH_decode.json");

  if (!all_reconciled) {
    std::puts("FAILED: a decode timeline diverged from the closed-form "
              "decode model");
    return 1;
  }
  return 0;
}
