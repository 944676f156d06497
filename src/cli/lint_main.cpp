// nova_lint: the standalone OpGraph static-analysis driver.
//
// Sweeps every catalog graph -- host x benchmark x phase, prefill expanded
// at seq_len in {1, 128, 1024} and decode at kv_len in {1, 128, 1024} --
// through the full verifier pass pipeline (analysis::run_passes) plus the
// host-specific cycle reconciliation lint (analysis::reconcile_cycles),
// and exits non-zero if any graph carries error diagnostics. CI runs it as
// the lint-smoke job; --report persists the sweep as an artifact.
//
//   nova_lint             lint the full catalog sweep
//   nova_lint --list      print the registered passes and exit
//   nova_lint --report F  additionally write the per-graph report to F
//   nova_lint --json F    additionally write the sweep as machine-readable
//                         JSON (stable severity/check/node/kind/label/
//                         message fields per diagnostic, plus a summary
//                         object) -- what CI archives and tooling parses
#include <cstdio>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "analysis/verifier.hpp"
#include "common/json.hpp"
#include "pipeline/op_graph.hpp"
#include "workload/bert.hpp"

namespace {

struct LintTotals {
  int graphs = 0;
  int clean = 0;
  int errors = 0;
  int warnings = 0;
};

/// One sweep unit: verify `graph` on `accel` and append the outcome to the
/// console, the optional report body, and the optional JSON rows.
void lint_graph(const nova::pipeline::OpGraph& graph,
                const nova::accel::AcceleratorModel& accel,
                const std::string& what, LintTotals& totals,
                std::string& report_body,
                std::vector<nova::json::Object>& json_rows) {
  const nova::accel::ApproximatorChoice choice{nova::hw::UnitKind::kNovaNoc,
                                               16};
  const auto report = nova::analysis::reconcile_cycles(graph, accel, choice);
  ++totals.graphs;
  totals.errors += report.errors();
  totals.warnings += report.warnings();
  if (report.ok()) ++totals.clean;

  std::string line = (report.ok() ? "ok   " : "FAIL ") + what;
  report_body += line;
  report_body += '\n';
  if (!report.diagnostics.empty()) report_body += report.to_string();
  if (!report.ok()) {
    std::printf("%s\n%s", line.c_str(), report.to_string().c_str());
  }

  // Every sweep unit gets a JSON row -- clean graphs included, so tooling
  // can tell "not linted" from "linted clean". Field names are part of the
  // CLI contract; keep them in lockstep with the README.
  std::vector<nova::json::Object> diagnostics;
  for (const auto& diag : report.diagnostics) {
    diagnostics.push_back(
        nova::json::Object()
            .str("severity", nova::analysis::to_string(diag.severity))
            .str("check", nova::analysis::to_string(diag.check))
            .num("node", diag.node)
            .str("kind", diag.node >= 0
                             ? nova::pipeline::to_string(diag.node_kind)
                             : "")
            .str("label", diag.node_label)
            .str("message", diag.message));
  }
  json_rows.push_back(nova::json::Object()
                          .str("graph", what)
                          .flag("ok", report.ok())
                          .list("diagnostics", diagnostics));
}

/// Parses the flags and runs the sweep; the exit status.
int lint(int argc, char** argv) {
  std::string report_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      std::puts("nova_lint verifier passes:");
      for (const auto& pass : nova::analysis::pass_catalog()) {
        std::printf("  %-16s %s\n", pass.name, pass.summary);
      }
      return 0;
    }
    if (flag == "--report") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "nova_lint: --report expects a path\n");
        return 2;
      }
      report_path = argv[++i];
      continue;
    }
    if (flag == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "nova_lint: --json expects a path\n");
        return 2;
      }
      json_path = argv[++i];
      continue;
    }
    if (flag == "--help" || flag == "-h") {
      std::puts(
          "nova_lint -- static verifier sweep over every catalog OpGraph\n"
          "\n"
          "Usage: nova_lint [--list] [--report FILE] [--json FILE]\n"
          "  --list         print the registered verifier passes and exit\n"
          "  --report FILE  write the per-graph sweep report to FILE\n"
          "  --json FILE    write the sweep as machine-readable JSON\n"
          "                 (per-graph diagnostics + summary object)\n"
          "\n"
          "Lints host x benchmark x {prefill seq 1/128/1024, decode kv\n"
          "1/128/1024}; exits 1 if any graph has error diagnostics.");
      return 0;
    }
    std::fprintf(stderr, "nova_lint: unknown flag '%s' (try --help)\n",
                 flag.c_str());
    return 2;
  }

  const std::vector<std::int64_t> lengths = {1, 128, 1024};
  LintTotals totals;
  std::string body;
  std::vector<nova::json::Object> json_rows;
  for (const auto& host : nova::accel::host_catalog()) {
    const auto accel = nova::accel::make_accelerator(host.kind);
    for (const std::int64_t len : lengths) {
      for (const auto& config :
           nova::workload::paper_benchmarks(static_cast<int>(len))) {
        lint_graph(nova::pipeline::build_graph(config), accel,
                   config.name + " prefill seq " + std::to_string(len) +
                       " on " + accel.name,
                   totals, body, json_rows);
      }
      // Decode volumes are seq_len-independent; expand at the default
      // sequence length and sweep the KV-cache length instead.
      for (const auto& config : nova::workload::paper_benchmarks(128)) {
        lint_graph(nova::pipeline::build_decode_graph(config, len), accel,
                   config.name + " decode kv " + std::to_string(len) +
                       " on " + accel.name,
                   totals, body, json_rows);
      }
    }
  }

  std::string summary = "nova_lint: " + std::to_string(totals.graphs) +
                        " graphs, " + std::to_string(totals.clean) +
                        " clean, " + std::to_string(totals.errors) +
                        " errors, " + std::to_string(totals.warnings) +
                        " warnings";
  std::printf("%s\n", summary.c_str());

  if (!report_path.empty() &&
      !nova::json::write_file(report_path, body + summary + "\n")) {
    std::fprintf(stderr, "nova_lint: cannot write report to '%s'\n",
                 report_path.c_str());
    return 2;
  }

  if (!json_path.empty()) {
    const auto summary_json = nova::json::Object()
                                  .num("graphs", totals.graphs)
                                  .num("clean", totals.clean)
                                  .num("errors", totals.errors)
                                  .num("warnings", totals.warnings);
    const std::string json = nova::json::Object()
                                 .str("tool", "nova_lint")
                                 .list("graphs", json_rows)
                                 .obj("summary", summary_json)
                                 .document();
    if (!nova::json::write_file(json_path, json)) {
      std::fprintf(stderr, "nova_lint: cannot write JSON to '%s'\n",
                   json_path.c_str());
      return 2;
    }
  }
  return totals.errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const int status = lint(argc, argv);
  // A full device shows only when the buffered output is flushed.
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fputs("nova_lint: cannot write to standard output\n", stderr);
    return 2;
  }
  return status;
}
