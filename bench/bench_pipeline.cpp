// Operator-graph pipeline bench: for each Table II host and each of the
// five paper benchmarks, walks the attention-layer OpGraph through the
// PipelineExecutor both serial (overlap off -- the legacy closed-form
// total) and overlapped (double-buffered fabric/vector streaming), reports
// the per-host overlap win, and verifies the serial timeline reconciles
// EXACTLY with accel::inference_cycles + the closed-form non-linear cycle
// total. Emits every series as machine-readable BENCH_pipeline.json for
// cross-PR tracking, like BENCH_hotpath.json / BENCH_scalability.json.
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

  std::puts("Attention-pipeline operator-graph timelines: serial vs "
            "overlapped spans per host\n");

  // Hosts come from the resolver catalog so a newly added host can never
  // silently skip the reconciliation sweep.
  std::vector<hw::AcceleratorKind> hosts;
  for (const auto& entry : accel::host_catalog()) hosts.push_back(entry.kind);

  bool all_reconciled = true;
  std::vector<json::Object> rows;

  for (const auto host : hosts) {
    const auto accel = accel::make_accelerator(host);
    // Paper protocol: seq 1024 everywhere except REACT (128,
    // edge-representative).
    const int seq = host == hw::AcceleratorKind::kReact ? 128 : 1024;
    Table table(std::string("Pipeline / ") + accel.name + " (seq_len " +
                std::to_string(seq) + ")");
    table.set_header({"benchmark", "fabric cyc", "vector cyc", "serial cyc",
                      "overlap cyc", "win", "reconciled"});
    for (const auto& config : workload::paper_benchmarks(seq)) {
      const auto graph = pipeline::build_graph(config);
      const auto eval = pipeline::evaluate_pipeline(
          accel, graph, accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
      // The acceptance contract: serial span == closed-form compute +
      // non-linear totals, exactly, for every (host, benchmark) pair. The
      // reference (accel::closed_form_cycles) is computed WITHOUT the
      // executor, so an executor bug cannot cancel out of both sides.
      const auto closed = accel::closed_form_cycles(
          accel, workload::model_workload(config),
          accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
      const bool reconciled =
          eval.serial.span_cycles == closed.total() &&
          eval.serial.fabric_cycles == closed.compute_cycles &&
          eval.serial.vector_cycles == closed.approx_cycles &&
          eval.flat.compute_cycles == closed.compute_cycles &&
          eval.flat.approx_cycles == closed.approx_cycles;
      all_reconciled = all_reconciled && reconciled;
      table.add_row({config.name,
                     std::to_string(eval.serial.fabric_cycles),
                     std::to_string(eval.serial.vector_cycles),
                     std::to_string(eval.serial.span_cycles),
                     std::to_string(eval.overlapped.span_cycles),
                     Table::num(eval.overlap_win, 3),
                     reconciled ? "exact" : "MISMATCH"});

      rows.push_back(json::Object()
                         .str("host", accel.name)
                         .str("benchmark", config.name)
                         .num("seq_len", seq)
                         .num("serial_cycles", eval.serial.span_cycles)
                         .num("overlapped_cycles", eval.overlapped.span_cycles)
                         .num("overlap_win", eval.overlap_win, 4)
                         .flag("reconciled", reconciled));
    }
    table.print();
    std::puts("");
  }

  if (!json::write_file("BENCH_pipeline.json",
                        json::Object().list("pipeline", rows).document())) {
    std::fputs("bench_pipeline: cannot write BENCH_pipeline.json\n", stderr);
    return 2;
  }
  std::puts("wrote BENCH_pipeline.json");

  if (!all_reconciled) {
    std::puts("FAILED: a serial timeline diverged from the closed-form "
              "model");
    return 1;
  }
  return 0;
}
