// Command-line options for the nova_sim driver: which workload/host to
// evaluate and how the NOVA deployment is parameterized (breakpoints,
// link width, router count), plus the serving-mode knobs (--serve). The
// defaults below are the ones --help prints; each flag's bounds and the
// switches it turns on are its row in options.cpp's flag table.
#pragma once

#include <cstdint>
#include <string>

namespace nova::cli {

/// The most PE waves --waves accepts: its row in the flag table, and the
/// bound the driver sizes the cycle simulation's element budget from.
inline constexpr int kMaxWaves = 65536;

struct Options {
  /// Workload selector: "bert"/"all" = the paper's five Fig 8 benchmarks,
  /// or one of bert-tiny, bert-mini, roberta, mobilebert-base,
  /// mobilebert-tiny.
  std::string workload = "bert";
  /// Host accelerator: react, tpuv3, tpuv4, nvdla.
  std::string host = "tpuv4";
  /// Non-linear function driven through the mapper/NoC detail sections.
  std::string function = "gelu";
  /// True when the flag was given explicitly (serve mode narrows its
  /// traffic mix only on an explicit request).
  bool workload_set = false;
  bool function_set = false;
  int seq_len = 128;
  int breakpoints = 16;
  /// NoC link width in (slope, bias) pairs per flit (paper: 8 = 257 bits).
  int pairs_per_flit = 8;
  /// Router count override; 0 keeps the host overlay's configuration.
  int routers = 0;
  /// PE output waves streamed through the cycle-accurate simulation.
  int waves = 4;
  /// Seed for every synthetic input stream (cycle sim and serve traffic).
  std::uint64_t seed = 42;
  bool csv = false;
  bool no_sim = false;
  bool show_help = false;
  bool show_list = false;
  /// Print the per-layer pipeline Gantt/attribution tables (operator-graph
  /// timelines with fabric/vector overlap) for the selected workloads.
  bool pipeline = false;
  /// Print the prefill-vs-decode attribution table per workload (and, with
  /// --serve, switch the generated traffic to pure decode requests).
  bool decode = false;
  /// KV-cache length for --decode evaluation and the decode side of the
  /// serve traffic mix (base_kv_len).
  int kv_len = 512;
  /// Run the static verifier (analysis::run_passes + cycle reconciliation)
  /// over the selected workloads' prefill and decode graphs before any
  /// report, exiting non-zero on error diagnostics.
  bool verify = false;
  /// Fusion mode for every operator-graph walk: off (builder graphs,
  /// byte-identical to pre-fusion output), on (every rewrite pass), auto
  /// (per-shape tuner). Resolved via pipeline::fusion_mode_from_string.
  /// With --pipeline it additionally prints the tuner's per-mask table;
  /// with --serve it rewrites the graphs admission prices.
  std::string fusion = "off";

  // --- Serving mode (--serve) --------------------------------------------
  bool serve = false;
  /// Requests generated by the Poisson process (ignored with --trace).
  int requests = 256;
  /// Mean arrival rate for the Poisson process, requests/second.
  double rate_rps = 500000.0;
  /// Simulated accelerator instances in the pool.
  int instances = 2;
  /// Worker threads pricing requests (never changes results).
  int threads = 1;
  /// Max requests fused per instance dispatch (1 disables batching).
  int max_batch = 8;
  /// Optional arrival trace replacing the Poisson generator.
  std::string trace_path;
  /// Pricing mode for the admission hot path: exact, surrogate, hybrid
  /// (resolved via serve::pricing_mode_from_string).
  std::string pricing = "exact";
  /// Max cycle-accurate anchor runs per pricing class (surrogate/hybrid).
  int surrogate_anchors = 8;
  /// Relative tolerance for hybrid-mode surrogate reconciliation; drift
  /// past it exits non-zero.
  double surrogate_tol = 0.02;

  // --- Failure-aware serving (--faults and friends, all imply --serve) ---
  /// Inject a seeded exponential MTBF/MTTR fault plan into the pool
  /// (drawn per instance from --seed; see serve::draw_fault_plan).
  bool faults = false;
  /// Mean time between failures, us of simulated time (--mtbf implies
  /// --faults).
  double mtbf_us = 20000.0;
  /// Mean time to recover, us of simulated time (--mttr implies --faults).
  double mttr_us = 2000.0;
  /// SLO budget stamped on every generated request, us relative to
  /// arrival; 0 keeps best-effort traffic (traces carry their own column).
  double deadline_us = 0.0;
  /// Retry budget for batches killed by a mid-service outage.
  int max_retries = 3;
  /// Overload threshold on the projected queue wait, us; past it the batch
  /// cap shrinks toward latency, and best-effort work sheds at 4x this. 0
  /// disables overload handling.
  double shed_us = 0.0;

  // --- Continuous batching (--continuous and friends, imply --serve) -----
  /// Iteration-level scheduling: generations become sessions of kv-growing
  /// decode steps, prefills split into chunks, dispatch and preemption
  /// happen per step (see serve::ServeConfig::continuous).
  bool continuous = false;
  /// Prefill chunk size in prompt tokens under --continuous (--chunk-tokens
  /// implies --continuous).
  int chunk_tokens = 64;
  /// Max generation length drawn per generated request (uniform in
  /// [1, max_steps]); 0 keeps classic single-step traffic. Trace steps
  /// columns override this per line.
  int max_steps = 0;
};

/// Usage text printed for --help and on parse errors.
[[nodiscard]] std::string usage();

/// Parses argv into `options`. Returns false and fills `error` on bad
/// flags or out-of-range values; --help/--list short-circuit validation.
[[nodiscard]] bool parse_options(int argc, const char* const* argv,
                                 Options& options, std::string& error);

}  // namespace nova::cli
