#include "cli/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "analysis/verifier.hpp"
#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/overlay.hpp"
#include "core/vector_unit.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/fusion.hpp"
#include "pipeline/op_graph.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "workload/bert.hpp"

namespace nova::cli {

namespace {

std::optional<std::vector<workload::BertConfig>> resolve_workloads(
    const std::string& name, int seq_len) {
  if (name == "bert" || name == "all")
    return workload::paper_benchmarks(seq_len);
  if (const auto config = workload::by_name(name, seq_len))
    return {{*config}};
  return std::nullopt;
}

void emit(const Table& table, bool csv) {
  if (csv) {
    std::fputs(table.to_csv().c_str(), stdout);
    std::puts("");
  } else {
    table.print();
    std::puts("");
  }
}

/// Section 1: the deployment the mapper validates -- overlay parameters,
/// broadcast schedule, NoC clock, and the physical timing check.
void report_deployment(const Options& options,
                       const core::OverlayDescription& overlay,
                       const core::NovaConfig& cfg,
                       const approx::PwlTable& fit) {
  const auto schedule = core::make_schedule(fit, cfg.pairs_per_flit);
  const core::NovaVectorUnit unit(cfg);
  const auto check = unit.mapping_check(fit);
  // Width of the physical link = the widest flit the schedule broadcasts
  // (the flit type owns the wire format; don't re-derive it here).
  int link_bits = 0;
  for (const auto& flit : schedule.flits)
    link_bits = std::max(link_bits, flit.bits());

  Table table("Deployment: NOVA on " + std::string(hw::to_string(overlay.host)));
  table.set_header({"parameter", "value"});
  table.add_row({"attachment", overlay.attachment});
  table.add_row({"routers x neurons", std::to_string(cfg.routers) + " x " +
                                          std::to_string(cfg.neurons_per_router)});
  table.add_row({"router spacing (mm)", Table::num(cfg.spacing_mm, 2)});
  table.add_row({"accel clock (MHz)", Table::num(cfg.accel_freq_mhz, 0)});
  table.add_row({"function", fit.label()});
  table.add_row({"breakpoints", std::to_string(fit.breakpoints())});
  table.add_row({"pairs per flit", std::to_string(cfg.pairs_per_flit)});
  table.add_row({"link width (bits)", std::to_string(link_bits)});
  table.add_row({"flits per lookup (NoC mult)",
                 std::to_string(schedule.noc_clock_multiplier)});
  table.add_row({"NoC clock (MHz)", Table::num(check.noc_freq_mhz, 0)});
  table.add_row({"max hops per NoC cycle",
                 std::to_string(check.max_hops_per_cycle)});
  table.add_row({"broadcast (accel cycles)",
                 std::to_string(check.broadcast_accel_cycles)});
  table.add_row({"single-cycle lookup",
                 check.single_cycle_lookup ? "yes" : "NO (fails timing)"});
  emit(table, options.csv);
}

/// Section 2: PWL fit accuracy for the chosen function plus the softmax /
/// layernorm operators every attention layer needs.
void report_accuracy(const Options& options, approx::NonLinearFn chosen) {
  std::vector<approx::NonLinearFn> fns = {chosen};
  for (const auto fn :
       {approx::NonLinearFn::kExp, approx::NonLinearFn::kReciprocal,
        approx::NonLinearFn::kRsqrt}) {
    if (fn != chosen) fns.push_back(fn);
  }

  Table table("PWL accuracy (MLP-trained breakpoints, " +
              std::to_string(options.breakpoints) + " segments)");
  table.set_header({"function", "domain", "max |err|", "mean |err|"});
  for (const auto fn : fns) {
    const auto& fit =
        approx::PwlLibrary::instance().get(fn, options.breakpoints);
    const auto domain = fit.domain();
    std::string domain_text = "[";
    domain_text += Table::num(domain.lo, 1);
    domain_text += ", ";
    domain_text += Table::num(domain.hi, 1);
    domain_text += "]";
    table.add_row({fit.label(), domain_text,
                   Table::num(fit.max_abs_error(), 5),
                   Table::num(fit.mean_abs_error(), 5)});
  }
  emit(table, options.csv);
}

/// The most elements the cycle simulation streams: REACT's 10 x 256
/// deployment, the largest Table II host, at the --waves bound. Every
/// element is held in memory as an input and an output double, about 2.6 GB
/// at this size.
constexpr std::int64_t kMaxCycleSimElements = std::int64_t{10} * 256 * 65536;

/// Section 3: cycle-accurate simulation -- streams random PE waves through
/// the line NoC + vector unit and reports latency, cycles, and sim energy.
void report_cycle_sim(const Options& options, const core::NovaConfig& cfg,
                      const approx::PwlTable& fit) {
  Rng rng(options.seed);
  const auto domain = fit.domain();
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(cfg.routers));
  for (auto& stream : inputs) {
    stream.reserve(
        static_cast<std::size_t>(cfg.neurons_per_router) * options.waves);
    for (int i = 0; i < cfg.neurons_per_router * options.waves; ++i)
      stream.push_back(rng.uniform(domain.lo, domain.hi));
  }

  const core::NovaVectorUnit unit(cfg);
  const auto result = unit.approximate(fit, inputs);
  const auto energy =
      core::estimate_energy(hw::tech22(), cfg, fit.breakpoints(), result);

  std::int64_t elements = 0;
  double max_err = 0.0;
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    for (std::size_t i = 0; i < inputs[r].size(); ++i) {
      max_err = std::max(
          max_err, std::abs(result.outputs[r][i] - fit.exact(inputs[r][i])));
      ++elements;
    }
  }
  const double total_pj = energy.total_pj();

  Table table("Cycle-accurate NoC simulation (" + std::to_string(options.waves)
              + " waves of " + std::to_string(cfg.neurons_per_router) +
              " elements per router)");
  table.set_header({"metric", "value"});
  table.add_row({"elements approximated", std::to_string(elements)});
  table.add_row({"wave latency (accel cycles)",
                 std::to_string(result.wave_latency_cycles)});
  table.add_row({"batch runtime (accel cycles)",
                 std::to_string(result.accel_cycles)});
  table.add_row({"NoC cycles simulated", std::to_string(result.noc_cycles)});
  table.add_row({"flits injected",
                 std::to_string(result.stats.counter("noc.flits_injected"))});
  table.add_row({"sim energy (nJ)", Table::num(total_pj / 1000.0, 3)});
  table.add_row(
      {"energy per element (pJ)",
       Table::num(elements > 0 ? total_pj / static_cast<double>(elements) : 0.0,
                  3)});
  table.add_row({"max |err| vs exact (streamed)", Table::num(max_err, 5)});
  emit(table, options.csv);
}

/// Section 4: the Fig 8-style per-inference runtime/energy table for the
/// selected workloads, NOVA vs the per-neuron and per-core LUT baselines.
void report_workloads(const Options& options,
                      const std::vector<workload::BertConfig>& configs,
                      const accel::AcceleratorModel& accel) {
  Table table("Workload energy: " + accel.name + ", seq_len " +
              std::to_string(options.seq_len) + ", " +
              std::to_string(options.breakpoints) + " breakpoints");
  table.set_header({"benchmark", "GEMM MACs", "approx ops", "runtime ms",
                    "NOVA mJ", "pn-LUT mJ", "pc-LUT mJ", "pn/NOVA",
                    "pc/NOVA", "NOVA % of total"});
  for (const auto& cfg : configs) {
    const auto wl = workload::model_workload(cfg);
    const auto nova = accel::evaluate_inference(
        accel, wl,
        accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, options.breakpoints});
    const auto pn = accel::evaluate_inference(
        accel, wl,
        accel::ApproximatorChoice{hw::UnitKind::kPerNeuronLut,
                                  options.breakpoints});
    const auto pc = accel::evaluate_inference(
        accel, wl,
        accel::ApproximatorChoice{hw::UnitKind::kPerCoreLut,
                                  options.breakpoints});
    table.add_row(
        {cfg.name, std::to_string(wl.total_macs()),
         std::to_string(nova.approx_ops), Table::num(nova.runtime_ms, 3),
         Table::num(nova.approx_energy_mj, 4),
         Table::num(pn.approx_energy_mj, 4),
         Table::num(pc.approx_energy_mj, 4),
         Table::num(pn.approx_energy_mj / nova.approx_energy_mj, 2),
         Table::num(pc.approx_energy_mj / nova.approx_energy_mj, 2),
         Table::num(100.0 * nova.overhead_fraction(), 2)});
  }
  emit(table, options.csv);
}

/// --pipeline: the operator-graph timeline for one workload -- the
/// per-node Gantt with fabric/vector overlap and cycle/energy attribution,
/// plus the serial-vs-overlapped summary and the reconciliation line
/// against the closed-form model (which the serial timeline matches
/// exactly by construction).
/// Returns false when the serial timeline fails to reconcile with the
/// closed-form model (the caller turns that into a non-zero exit, matching
/// bench_pipeline's contract).
[[nodiscard]] bool report_pipeline(const Options& options,
                                   const workload::BertConfig& config,
                                   const accel::AcceleratorModel& accel) {
  const auto graph = pipeline::build_graph(config);
  const auto eval = pipeline::evaluate_pipeline(
      accel, graph,
      accel::ApproximatorChoice{hw::UnitKind::kNovaNoc,
                                options.breakpoints});
  const auto& timeline = eval.overlapped;
  const auto layers = static_cast<sim::Cycle>(timeline.layers);
  const auto serial_total = std::max<sim::Cycle>(1, timeline.serial_cycles);

  Table table("Pipeline timeline: " + config.name + " on " + accel.name +
              " (cycles span all " + std::to_string(timeline.layers) +
              " layers)");
  table.set_header({"node", "kind", "resource", "start", "finish", "cycles",
                    "cyc/layer", "share %", "approx ops", "energy mJ"});
  for (const auto& entry : timeline.entries) {
    const auto& node = graph.nodes[static_cast<std::size_t>(entry.node)];
    table.add_row(
        {node.label, pipeline::to_string(node.kind),
         pipeline::to_string(entry.resource), std::to_string(entry.start),
         std::to_string(entry.finish), std::to_string(entry.cycles),
         std::to_string(entry.cycles / layers),
         Table::num(100.0 * static_cast<double>(entry.cycles) /
                        static_cast<double>(serial_total),
                    2),
         std::to_string(entry.approx_ops), Table::num(entry.energy_mj, 4)});
  }
  emit(table, options.csv);

  Table summary("Pipeline summary: " + config.name + " on " + accel.name);
  summary.set_header({"metric", "value"});
  summary.add_row({"fabric cycles (GEMMs)",
                   std::to_string(timeline.fabric_cycles)});
  summary.add_row({"vector cycles (softmax/GELU/layernorm)",
                   std::to_string(timeline.vector_cycles)});
  summary.add_row({"serial span (overlap off)",
                   std::to_string(timeline.serial_cycles)});
  summary.add_row({"overlapped span (double-buffered)",
                   std::to_string(timeline.span_cycles)});
  summary.add_row({"overlap win", Table::num(eval.overlap_win, 3)});
  summary.add_row({"overlapped runtime (ms)",
                   Table::num(eval.overlapped_runtime_ms, 3)});
  // Independent closed-form reference, computed WITHOUT the executor --
  // evaluate_inference itself consumes a timeline now, so comparing
  // against it alone could hide an executor bug on both sides.
  const auto closed = accel::closed_form_cycles(
      accel, workload::model_workload(config),
      accel::ApproximatorChoice{hw::UnitKind::kNovaNoc,
                                options.breakpoints});
  const bool reconciled = eval.serial.span_cycles == closed.total();
  summary.add_row({"reconciles with closed form",
                   reconciled ? "exact" : "MISMATCH"});
  emit(summary, options.csv);
  return reconciled;
}

/// --pipeline with --fusion on|auto: the tuner's per-mask table for one
/// workload. All 8 rewrite masks are priced under the default overlap
/// executor (the same one report_pipeline's timeline uses), so the table
/// shows exactly the search the serve-side auto mode runs per shape. The
/// chosen row is the tuner's argmin under auto, or the unconditional
/// full mask under on.
void report_fusion(const Options& options, pipeline::FusionMode mode,
                   const workload::BertConfig& config,
                   const accel::AcceleratorModel& accel) {
  pipeline::ExecutorConfig exec_config;
  exec_config.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc,
                                                 options.breakpoints};
  exec_config.overlap = true;
  const pipeline::PipelineExecutor executor(accel, exec_config);
  const auto graph = pipeline::build_graph(config);
  const auto tuning = pipeline::tune_fusion(executor, graph);
  const pipeline::FusionSet chosen =
      mode == pipeline::FusionMode::kOn ? pipeline::kFuseAll : tuning.best;

  Table table("Fusion tuner: " + config.name + " on " + accel.name +
              " (mode " + pipeline::to_string(mode) + ", winner " +
              pipeline::to_string_fusion_set(chosen) + ", speedup " +
              Table::num(tuning.speedup(), 4) + ")");
  table.set_header({"mask", "rewrites", "overlapped span", "speedup",
                    "chosen"});
  for (const auto& candidate : tuning.candidates) {
    table.add_row(
        {pipeline::to_string_fusion_set(candidate.set),
         std::to_string(candidate.rewrites),
         std::to_string(candidate.span_cycles),
         Table::num(static_cast<double>(tuning.baseline_span) /
                        static_cast<double>(
                            std::max<sim::Cycle>(1, candidate.span_cycles)),
                    4),
         candidate.set == chosen ? "<--" : ""});
  }
  emit(table, options.csv);
}

/// --decode: prefill-vs-decode attribution for one workload -- one full
/// seq_len prefill against one autoregressive step at --kv-len, with both
/// phases' graph timelines side by side and each serial timeline
/// reconciled against its own executor-free closed-form reference
/// (closed_form_cycles for prefill, closed_form_decode_cycles for decode).
/// Returns false on any reconciliation mismatch (non-zero exit, matching
/// --pipeline / bench_decode).
[[nodiscard]] bool report_decode(const Options& options,
                                 const workload::BertConfig& config,
                                 const accel::AcceleratorModel& accel) {
  const accel::ApproximatorChoice choice{hw::UnitKind::kNovaNoc,
                                         options.breakpoints};
  const auto prefill_graph = pipeline::build_graph(config);
  const auto decode_graph =
      pipeline::build_decode_graph(config, options.kv_len);
  const auto prefill = pipeline::evaluate_pipeline(accel, prefill_graph,
                                                   choice);
  const auto decode = pipeline::evaluate_pipeline(accel, decode_graph,
                                                  choice);

  Table table("Prefill vs decode: " + config.name + " on " + accel.name +
              " (seq_len " + std::to_string(config.seq_len) + ", kv_len " +
              std::to_string(options.kv_len) + ")");
  table.set_header({"phase", "GEMM MACs", "approx ops", "fabric cyc",
                    "vector cyc", "serial cyc", "overlap cyc", "win",
                    "runtime ms"});
  const auto add_phase = [&table](const char* phase,
                                  const pipeline::OpGraph& graph,
                                  const pipeline::PipelineEvaluation& eval) {
    table.add_row({phase, std::to_string(graph.total_macs()),
                   std::to_string(graph.total_approx_ops()),
                   std::to_string(eval.serial.fabric_cycles),
                   std::to_string(eval.serial.vector_cycles),
                   std::to_string(eval.serial.span_cycles),
                   std::to_string(eval.overlapped.span_cycles),
                   Table::num(eval.overlap_win, 3),
                   Table::num(eval.overlapped_runtime_ms, 4)});
  };
  add_phase("prefill", prefill_graph, prefill);
  add_phase("decode", decode_graph, decode);
  emit(table, options.csv);

  // Each phase reconciles against its OWN executor-free reference; the
  // decode reference additionally never touches the graph builder, so a
  // shape-expansion bug cannot cancel out of both sides.
  const auto closed_prefill = accel::closed_form_cycles(
      accel, workload::model_workload(config), choice);
  const auto closed_decode = accel::closed_form_decode_cycles(
      accel, config, options.kv_len, choice);
  const bool prefill_ok =
      prefill.serial.span_cycles == closed_prefill.total();
  const bool decode_ok =
      decode.serial.span_cycles == closed_decode.total() &&
      decode.serial.fabric_cycles == closed_decode.compute_cycles &&
      decode.serial.vector_cycles == closed_decode.approx_cycles;

  Table summary("Decode summary: " + config.name + " on " + accel.name);
  summary.set_header({"metric", "value"});
  summary.add_row({"decode ops / token",
                   std::to_string(decode_graph.total_approx_ops())});
  summary.add_row(
      {"decode / prefill serial cycles",
       Table::num(static_cast<double>(decode.serial.span_cycles) /
                      static_cast<double>(
                          std::max<sim::Cycle>(1, prefill.serial.span_cycles)),
                  6)});
  summary.add_row({"prefill reconciles with closed form",
                   prefill_ok ? "exact" : "MISMATCH"});
  summary.add_row({"decode reconciles with closed form",
                   decode_ok ? "exact" : "MISMATCH"});
  emit(summary, options.csv);
  return prefill_ok && decode_ok;
}

/// --serve: the batched inference-serving engine over a pool of simulated
/// NOVA instances. Emits a summary table (throughput + latency percentiles)
/// and a per-instance utilization table; output is deterministic for a
/// fixed seed regardless of --threads.
/// --verify: runs the static verifier over the selected workloads' prefill
/// and decode graphs (full pass suite + host-specific cycle
/// reconciliation), printing one line per graph. Returns false when any
/// graph carries error diagnostics (non-zero exit, like the MISMATCH
/// paths).
[[nodiscard]] bool report_verify(const Options& options,
                                 const std::vector<workload::BertConfig>& workloads,
                                 const accel::AcceleratorModel& accel) {
  const accel::ApproximatorChoice choice{hw::UnitKind::kNovaNoc,
                                         options.breakpoints};
  bool all_ok = true;
  for (const auto& config : workloads) {
    const auto check = [&](const char* phase_name,
                           const pipeline::OpGraph& graph) {
      const auto report = analysis::reconcile_cycles(graph, accel, choice);
      std::printf("verify %-16s %-8s on %-6s: %s\n", config.name.c_str(),
                  phase_name, accel.name.c_str(),
                  report.ok() ? "ok" : "FAIL");
      if (!report.ok()) {
        std::fputs(report.to_string().c_str(), stderr);
        all_ok = false;
      }
    };
    check("prefill", pipeline::build_graph(config));
    check("decode", pipeline::build_decode_graph(config, options.kv_len));
  }
  std::puts("");
  return all_ok;
}

/// The surrogate-pricing audit tables: how much exact work admission spent
/// (anchors per class vs distinct shapes) and, in hybrid mode, the sampled
/// exact-vs-surrogate reconciliation with its max relative error.
void report_surrogate(const Options& options,
                      const serve::SurrogateAudit& audit) {
  Table classes("Surrogate pricing: " +
                std::string(serve::to_string(audit.mode)) + " mode, " +
                std::to_string(audit.anchors_priced) + " anchor runs for " +
                std::to_string(audit.distinct_shapes) + " distinct shapes");
  classes.set_header({"metric", "value"});
  classes.add_row({"distinct shapes", std::to_string(audit.distinct_shapes)});
  classes.add_row({"pricing classes", std::to_string(audit.classes)});
  classes.add_row({"anchor runs (cycle-accurate)",
                   std::to_string(audit.anchors_priced)});
  classes.add_row(
      {"exact runs saved",
       std::to_string(audit.distinct_shapes >= audit.anchors_priced
                          ? audit.distinct_shapes - audit.anchors_priced
                          : 0)});
  if (audit.mode == serve::PricingMode::kHybrid) {
    classes.add_row({"reconciliation samples",
                     std::to_string(audit.samples.size())});
    classes.add_row({"max relative error",
                     Table::num(audit.max_rel_error, 6)});
    classes.add_row({"tolerance", Table::num(audit.tolerance, 6)});
    classes.add_row({"within tolerance",
                     audit.within_tolerance ? "yes" : "DRIFT"});
  }
  emit(classes, options.csv);

  if (audit.samples.empty()) return;
  Table samples("Hybrid reconciliation samples (exact re-pricing vs "
                "surrogate)");
  samples.set_header({"workload", "function", "phase", "len", "exact cyc",
                      "surrogate cyc", "rel err"});
  for (const auto& sample : audit.samples) {
    samples.add_row(
        {std::string(sample.shape.workload.name()),
         approx::to_string(sample.shape.function),
         pipeline::to_string(sample.shape.phase),
         std::to_string(sample.shape.length()),
         Table::num(sample.exact_cycles, 0),
         Table::num(sample.surrogate_cycles, 0),
         Table::num(sample.rel_error, 6)});
  }
  emit(samples, options.csv);
}

int run_serve(const Options& options, hw::AcceleratorKind host,
              approx::NonLinearFn fn, const core::NovaConfig& cfg,
              pipeline::FusionMode fusion) {
  const auto pricing = serve::pricing_mode_from_string(options.pricing);
  if (!pricing) {
    std::fprintf(stderr,
                 "nova_sim: unknown pricing mode '%s' (expected exact, "
                 "surrogate, or hybrid)\n",
                 options.pricing.c_str());
    return 2;
  }
  std::vector<serve::InferenceRequest> requests;
  if (!options.trace_path.empty()) {
    std::string error;
    if (!serve::load_trace(options.trace_path, requests, error)) {
      std::fprintf(stderr, "nova_sim: %s\n", error.c_str());
      return 2;
    }
  } else {
    serve::TrafficProfile profile;
    profile.rate_rps = options.rate_rps;
    profile.breakpoints = options.breakpoints;
    profile.base_seq_len = options.seq_len;
    profile.base_kv_len = options.kv_len;
    // --decode narrows the stream to pure decode traffic; the default mix
    // interleaves prefill and decode request classes.
    if (options.decode) profile.decode_fraction = 1.0;
    profile.deadline_us = options.deadline_us;
    profile.max_steps = options.max_steps;
    // An explicit --workload / --function narrows the generated mix;
    // "bert"/"all" asks for the full five-benchmark stream.
    if (options.workload_set) {
      if (options.workload == "bert" || options.workload == "all") {
        profile.workloads = {"mobilebert-base", "mobilebert-tiny", "roberta",
                             "bert-tiny", "bert-mini"};
      } else {
        profile.workloads = {options.workload};
      }
    }
    if (options.function_set) profile.functions = {fn};
    requests = serve::generate_poisson(options.requests, profile,
                                       options.seed);
  }
  if (!options.csv) {
    std::printf("nova_sim: serving on %s, seed %llu\n\n",
                hw::to_string(host),
                static_cast<unsigned long long>(options.seed));
  }

  serve::ServeConfig serve_cfg;
  serve_cfg.nova = cfg;
  serve_cfg.host = host;
  serve_cfg.instances = options.instances;
  serve_cfg.threads = options.threads;
  serve_cfg.max_batch = options.max_batch;
  serve_cfg.seed = options.seed;
  serve_cfg.pricing = *pricing;
  serve_cfg.fusion = fusion;
  serve_cfg.surrogate_anchors = options.surrogate_anchors;
  serve_cfg.surrogate_tol = options.surrogate_tol;
  serve_cfg.policy.max_retries = options.max_retries;
  serve_cfg.policy.overload_queue_us = options.shed_us;
  serve_cfg.continuous = options.continuous;
  serve_cfg.chunk_tokens = options.chunk_tokens;
  if (options.faults) {
    serve::FaultProfile fault_profile;
    fault_profile.mtbf_us = options.mtbf_us;
    fault_profile.mttr_us = options.mttr_us;
    // Cover the run comfortably: the stream's arrival span doubled, plus a
    // few fail/recover cycles of slack for the backlog drain at the tail.
    const double last_arrival =
        requests.empty() ? 0.0 : requests.back().arrival_us;
    const double horizon_us = 2.0 * last_arrival +
                              4.0 * (options.mtbf_us + options.mttr_us);
    serve_cfg.faults = serve::draw_fault_plan(
        fault_profile, options.instances, horizon_us, options.seed);
  }

  const serve::BatchScheduler scheduler(serve_cfg);
  const auto report = scheduler.run(requests);

  if (!serve_cfg.faults.empty()) {
    Table timeline("Fault timeline: seeded exponential plan, MTBF " +
                   Table::num(options.mtbf_us, 0) + " us, MTTR " +
                   Table::num(options.mttr_us, 0) + " us");
    timeline.set_header(
        {"instance", "window", "kind", "start ms", "end ms", "slowdown"});
    for (int i = 0; i < options.instances; ++i) {
      const auto& windows = serve_cfg.faults.windows(i);
      for (std::size_t w = 0; w < windows.size(); ++w) {
        timeline.add_row({std::to_string(i), std::to_string(w),
                          serve::to_string(windows[w].kind),
                          Table::num(windows[w].start_us / 1e3, 3),
                          Table::num(windows[w].end_us / 1e3, 3),
                          Table::num(windows[w].slowdown, 2)});
      }
    }
    emit(timeline, options.csv);
  }

  Table summary("Serving: " + std::to_string(requests.size()) +
                " requests on " + std::to_string(options.instances) +
                " NOVA instance(s), " + std::to_string(options.threads) +
                " pricing thread(s)");
  summary.set_header({"metric", "value"});
  summary.add_row({"requests", std::to_string(requests.size())});
  summary.add_row({"instances", std::to_string(options.instances)});
  summary.add_row({"max batch", std::to_string(options.max_batch)});
  summary.add_row(
      {"arrivals", options.trace_path.empty()
                       ? "poisson @ " + Table::num(options.rate_rps, 1) +
                             " req/s"
                       : "trace " + options.trace_path});
  // Fusion rows appear only when fusion is enabled, so --fusion off stays
  // byte-identical to the pre-fusion report.
  if (fusion != pipeline::FusionMode::kOff) {
    summary.add_row({"fusion", pipeline::to_string(fusion)});
    summary.add_row(
        {"fused shapes",
         std::to_string(report.surrogate.fused_shapes) + " / " +
             std::to_string(report.surrogate.distinct_shapes) + " distinct"});
    if (fusion == pipeline::FusionMode::kAuto) {
      summary.add_row({"best tuner speedup",
                       Table::num(report.surrogate.max_fusion_speedup, 4)});
    }
  }
  // Continuous-only rows come first and whole mode adds none, keeping the
  // classic report byte-identical to the pre-session scheduler's output.
  if (options.continuous) {
    summary.add_row({"mode", "continuous (chunk " +
                                 std::to_string(options.chunk_tokens) +
                                 " tokens)"});
    summary.add_row({"steps dispatched",
                     std::to_string(report.stats.counter("serve.steps"))});
    summary.add_row(
        {"preempted steps",
         std::to_string(report.stats.counter("serve.preempted_steps"))});
    const auto* ttft = report.stats.find_histogram("serve.ttft_us");
    if (ttft != nullptr && ttft->count() > 0) {
      summary.add_row({"mean TTFT (us)", Table::num(ttft->mean(), 3)});
      summary.add_row({"max TTFT (us)", Table::num(ttft->max(), 3)});
    }
  }
  summary.add_row({"batches dispatched",
                   std::to_string(report.stats.counter("serve.batches"))});
  const auto* batch_hist = report.stats.find_histogram("serve.batch_size");
  summary.add_row(
      {"mean batch size",
       Table::num(batch_hist == nullptr ? 0.0 : batch_hist->mean(), 2)});
  summary.add_row({"makespan (ms)", Table::num(report.makespan_us / 1e3, 3)});
  summary.add_row(
      {"throughput (req/s)", Table::num(report.throughput_rps, 1)});
  summary.add_row({"goodput (req/s)", Table::num(report.goodput_rps, 1)});
  for (int s = 0; s < serve::kRequestStatusCount; ++s) {
    const auto status = static_cast<serve::RequestStatus>(s);
    summary.add_row({std::string(serve::to_string(status)) + " requests",
                     std::to_string(report.status_count(status))});
  }
  summary.add_row(
      {"retries", std::to_string(report.stats.counter("serve.retries"))});
  // Both dispatch loops accumulate serve.backoff_us (sum and count, no max).
  if (report.stats.sample_count("serve.backoff_us") > 0) {
    summary.add_row({"mean backoff (us)",
                     Table::num(report.stats.mean("serve.backoff_us"), 3)});
  }
  summary.add_row({"mean service (us)",
                   Table::num(report.stats.mean("serve.service_us"), 3)});
  summary.add_row({"mean queue wait (us)",
                   Table::num(report.stats.mean("serve.queue_us"), 3)});
  summary.add_row(
      {"latency p50 (us)", Table::num(report.latency_percentile_us(50.0), 3)});
  summary.add_row(
      {"latency p95 (us)", Table::num(report.latency_percentile_us(95.0), 3)});
  summary.add_row(
      {"latency p99 (us)", Table::num(report.latency_percentile_us(99.0), 3)});
  const auto* latency = report.stats.find_histogram("serve.latency_us");
  summary.add_row(
      {"latency max (us)",
       Table::num(latency == nullptr ? 0.0 : latency->max(), 3)});
  emit(summary, options.csv);

  Table per_instance("Per-instance utilization and availability");
  per_instance.set_header({"instance", "requests", "batches", "failed",
                           "busy ms", "utilization %", "down ms",
                           "availability %"});
  for (std::size_t i = 0; i < report.instances.size(); ++i) {
    const auto& inst = report.instances[i];
    const double util = report.makespan_us > 0.0
                            ? 100.0 * inst.busy_us / report.makespan_us
                            : 0.0;
    per_instance.add_row({std::to_string(i), std::to_string(inst.requests),
                          std::to_string(inst.batches),
                          std::to_string(inst.failed_batches),
                          Table::num(inst.busy_us / 1e3, 3),
                          Table::num(util, 2),
                          Table::num(inst.down_us / 1e3, 3),
                          Table::num(100.0 * inst.availability, 2)});
  }
  emit(per_instance, options.csv);

  // Prefill-vs-decode attribution: where the pool's time and ops actually
  // went, per request class (rows only for classes present in the stream).
  Table per_phase("Prefill/decode attribution");
  per_phase.set_header({"phase", "requests", "approx ops", "mean service us",
                        "mean latency us", "max latency us"});
  for (const auto phase :
       {pipeline::Phase::kPrefill, pipeline::Phase::kDecode}) {
    int count = 0;
    std::uint64_t ops = 0;
    double service = 0.0, latency = 0.0, max_latency = 0.0;
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      // Shed/failed outcomes never finished; their zeroed service fields
      // and negative pseudo-latencies would poison the class means.
      const auto& outcome = report.outcomes[i];
      if (requests[i].phase != phase || !outcome.served()) continue;
      ++count;
      ops += static_cast<std::uint64_t>(outcome.approx_ops);
      service += outcome.service_us;
      latency += outcome.latency_us(requests[i]);
      max_latency = std::max(max_latency, outcome.latency_us(requests[i]));
    }
    if (count == 0) continue;
    per_phase.add_row({pipeline::to_string(phase), std::to_string(count),
                       std::to_string(ops),
                       Table::num(service / count, 3),
                       Table::num(latency / count, 3),
                       Table::num(max_latency, 3)});
  }
  emit(per_phase, options.csv);

  if (*pricing != serve::PricingMode::kExact) {
    report_surrogate(options, report.surrogate);
  }
  if (*pricing == serve::PricingMode::kHybrid &&
      !report.surrogate.within_tolerance) {
    std::fprintf(stderr,
                 "nova_sim: hybrid pricing drift: surrogate max relative "
                 "error %.6f exceeds tolerance %.6f (see reconciliation "
                 "table)\n",
                 report.surrogate.max_rel_error, report.surrogate.tolerance);
    return 1;
  }
  return 0;
}

}  // namespace

int run(const Options& options) {
  const auto workloads = resolve_workloads(options.workload, options.seq_len);
  if (!workloads) {
    std::fprintf(stderr,
                 "nova_sim: unknown workload '%s' (try --list)\n",
                 options.workload.c_str());
    return 2;
  }
  const auto host = accel::host_by_name(options.host);
  if (!host) {
    std::fprintf(stderr, "nova_sim: unknown host '%s' (try --list)\n",
                 options.host.c_str());
    return 2;
  }
  const auto fn = approx::from_string(options.function);
  if (!fn) {
    std::fprintf(stderr, "nova_sim: unknown function '%s' (try --list)\n",
                 options.function.c_str());
    return 2;
  }

  const auto fusion = pipeline::fusion_mode_from_string(options.fusion);
  if (!fusion) {
    std::fprintf(stderr,
                 "nova_sim: unknown fusion mode '%s' (expected off, on, or "
                 "auto)\n",
                 options.fusion.c_str());
    return 2;
  }

  auto overlay = core::make_overlay(*host);
  core::NovaConfig cfg = overlay.nova;
  cfg.pairs_per_flit = options.pairs_per_flit;
  if (options.routers > 0) cfg.routers = options.routers;

  if (options.serve) return run_serve(options, *host, *fn, cfg, *fusion);

  const std::int64_t sim_elements = std::int64_t{cfg.routers} *
                                    cfg.neurons_per_router * options.waves;
  if (options.run_cycle_sim && sim_elements > kMaxCycleSimElements) {
    std::fprintf(stderr,
                 "nova_sim: the cycle simulation would stream %lld elements "
                 "(--routers %d x %d neurons per router x --waves %d), more "
                 "than its budget of %lld; lower --routers or --waves, or "
                 "pass --no-sim\n",
                 static_cast<long long>(sim_elements), cfg.routers,
                 cfg.neurons_per_router, options.waves,
                 static_cast<long long>(kMaxCycleSimElements));
    return 2;
  }

  if (!options.csv) {
    std::printf("nova_sim: %s on %s, seq_len %d\n\n", options.workload.c_str(),
                hw::to_string(*host), options.seq_len);
  }

  const auto& fit =
      approx::PwlLibrary::instance().get(*fn, options.breakpoints);
  report_deployment(options, overlay, cfg, fit);
  report_accuracy(options, *fn);
  if (options.run_cycle_sim) report_cycle_sim(options, cfg, fit);
  const auto accel_model = accel::make_accelerator(*host);
  if (options.verify &&
      !report_verify(options, *workloads, accel_model)) {
    std::fprintf(stderr,
                 "nova_sim: static verification failed (see diagnostics "
                 "above)\n");
    return 1;
  }
  report_workloads(options, *workloads, accel_model);
  if (options.pipeline) {
    bool all_reconciled = true;
    for (const auto& config : *workloads) {
      all_reconciled &= report_pipeline(options, config, accel_model);
      if (*fusion != pipeline::FusionMode::kOff) {
        report_fusion(options, *fusion, config, accel_model);
      }
    }
    if (!all_reconciled) {
      std::fprintf(stderr,
                   "nova_sim: pipeline timeline diverged from the "
                   "closed-form model (see MISMATCH rows)\n");
      return 1;
    }
  }
  if (options.decode) {
    bool all_reconciled = true;
    for (const auto& config : *workloads) {
      all_reconciled &= report_decode(options, config, accel_model);
    }
    if (!all_reconciled) {
      std::fprintf(stderr,
                   "nova_sim: decode timeline diverged from the "
                   "closed-form decode model (see MISMATCH rows)\n");
      return 1;
    }
  }
  return 0;
}

void print_catalog() {
  // Everything below is read from the same tables the resolvers use
  // (workload::benchmark_catalog, accel::host_catalog,
  // approx::all_functions), so this listing can never drift from what
  // nova_sim actually accepts.
  std::puts("workloads:");
  std::puts("  bert (alias: all)  -- all paper benchmarks below");
  for (const auto& entry : workload::benchmark_catalog()) {
    if (entry.alias != nullptr) {
      std::printf("  %s (alias: %s)\n", entry.name, entry.alias);
    } else {
      std::printf("  %s\n", entry.name);
    }
  }
  std::puts("hosts:");
  for (const auto& entry : accel::host_catalog()) {
    std::printf("  %-6s -- %s\n", entry.name, hw::to_string(entry.kind));
  }
  std::puts("functions:");
  for (const auto fn : approx::all_functions()) {
    std::printf("  %s\n", approx::to_string(fn));
  }
}

}  // namespace nova::cli
