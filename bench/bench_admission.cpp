// Admission-pricing throughput: exact vs surrogate vs hybrid pricing of a
// decode-heavy request stream through BatchScheduler::run. The decode sweep
// walks every kv_len in [1, kv_max] round-robin across workload x function
// classes, so the surrogate must interpolate (thousands of distinct lengths
// per class, a handful of anchors); a small prefill mix rides along to keep
// both phases in the stream. Reports priced requests/sec per mode, the
// surrogate's max relative service-cycle error against the exact outcomes,
// and whether hybrid mode reconciles byte-identically across thread counts.
// Emits BENCH_admission.json for cross-PR tracking.
//
// `--smoke` shrinks kv_max so CI can run the binary in seconds; the JSON
// then carries "smoke": true so readers never compare smoke numbers against
// full runs. Exit is non-zero when the surrogate drifts past 2% of exact,
// when hybrid reconciliation fails, when hybrid outcomes differ across
// --threads, or (full mode) when the surrogate speedup falls below 25x.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "approx/mlp_fitter.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "core/overlay.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "workload/bert.hpp"

namespace {

using nova::Table;
using nova::serve::outcome_fingerprint;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The decode-heavy mixed stream: one decode request per kv_len in
/// [1, kv_max], dealt round-robin across workload x function classes, plus
/// a prefill request per (workload, function, seq scale). Arrivals are an
/// evenly spaced open-loop schedule (pricing cost is what this bench
/// measures; queueing is irrelevant here).
std::vector<nova::serve::InferenceRequest> build_stream(int kv_max) {
  const std::vector<nova::workload::WorkloadName> workloads = {
      *nova::workload::WorkloadName::parse("bert-tiny"),
      *nova::workload::WorkloadName::parse("bert-mini")};
  const std::vector<nova::approx::NonLinearFn> functions = {
      nova::approx::NonLinearFn::kGelu, nova::approx::NonLinearFn::kExp};

  std::vector<nova::serve::InferenceRequest> stream;
  stream.reserve(static_cast<std::size_t>(kv_max) + 16);
  for (int kv = 1; kv <= kv_max; ++kv) {
    nova::serve::InferenceRequest req;
    req.workload = workloads[static_cast<std::size_t>(kv) % workloads.size()];
    req.function =
        functions[static_cast<std::size_t>(kv / 2) % functions.size()];
    req.seq_len = 1;
    req.phase = nova::pipeline::Phase::kDecode;
    req.kv_len = kv;
    stream.push_back(req);
  }
  for (const auto& workload : workloads) {
    for (const auto function : functions) {
      for (const int seq : {64, 128, 256}) {
        nova::serve::InferenceRequest req;
        req.workload = workload;
        req.function = function;
        req.seq_len = seq;
        req.phase = nova::pipeline::Phase::kPrefill;
        req.kv_len = 0;
        stream.push_back(req);
      }
    }
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = static_cast<int>(i);
    stream[i].arrival_us = 2.0 * static_cast<double>(i);
  }
  return stream;
}

nova::serve::ServeConfig make_config(nova::serve::PricingMode mode,
                                     int threads, int sim_elements_cap) {
  nova::serve::ServeConfig config;
  config.nova =
      nova::core::make_overlay(nova::hw::AcceleratorKind::kTpuV4).nova;
  config.instances = 4;
  config.threads = threads;
  config.seed = 7;
  config.sim_elements_cap = sim_elements_cap;
  config.pricing = mode;
  return config;
}

struct ModeResult {
  nova::serve::ServeReport report;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
};

ModeResult run_mode(const std::vector<nova::serve::InferenceRequest>& stream,
                    nova::serve::PricingMode mode, int threads,
                    int sim_elements_cap) {
  const nova::serve::BatchScheduler scheduler(
      make_config(mode, threads, sim_elements_cap));
  ModeResult result;
  const auto start = std::chrono::steady_clock::now();
  result.report = scheduler.run(stream);
  result.seconds = seconds_since(start);
  result.requests_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(stream.size()) / result.seconds
          : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const int kv_max = smoke ? 256 : 4096;
  const int cap = smoke ? 2048 : 8192;
  const auto stream = build_stream(kv_max);

  std::printf("Admission pricing throughput%s: %zu requests "
              "(decode kv_len 1..%d + prefill mix), tpuv4 host\n\n",
              smoke ? " (smoke mode)" : "", stream.size(), kv_max);

  // Pre-warm the PWL tables so table training stays out of every timing.
  for (const auto& req : stream) {
    (void)nova::approx::PwlLibrary::instance().get(req.function,
                                                   req.breakpoints);
  }

  const auto exact =
      run_mode(stream, nova::serve::PricingMode::kExact, 1, cap);
  const auto surrogate =
      run_mode(stream, nova::serve::PricingMode::kSurrogate, 1, cap);
  const auto hybrid =
      run_mode(stream, nova::serve::PricingMode::kHybrid, 1, cap);

  // Full-stream accuracy: the surrogate's priced service cycles against the
  // exact outcomes, request by request (not just the hybrid sample).
  double max_rel_error = 0.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const double e =
        static_cast<double>(exact.report.outcomes[i].service_cycles);
    const double s =
        static_cast<double>(surrogate.report.outcomes[i].service_cycles);
    max_rel_error =
        std::max(max_rel_error, std::abs(s - e) / std::max(e, 1.0));
  }

  // Hybrid must be byte-identical for every --threads value: same
  // outcomes, same dispatch, same audit verdict.
  const auto hybrid_mt =
      run_mode(stream, nova::serve::PricingMode::kHybrid, 8, cap);
  const bool thread_identical =
      outcome_fingerprint(stream, hybrid.report) ==
      outcome_fingerprint(stream, hybrid_mt.report);

  const double speedup = exact.seconds > 0.0 && surrogate.seconds > 0.0
                             ? exact.seconds / surrogate.seconds
                             : 0.0;
  const auto& audit = hybrid.report.surrogate;

  Table table("Admission pricing (higher req/s is better)");
  table.set_header({"mode", "seconds", "req/s", "anchor runs", "speedup"});
  const auto add_mode = [&table](const char* name, const ModeResult& r,
                                 double rel_speedup) {
    table.add_row({name, Table::num(r.seconds, 3),
                   Table::num(r.requests_per_sec, 1),
                   std::to_string(r.report.surrogate.anchors_priced),
                   Table::num(rel_speedup, 2)});
  };
  add_mode("exact", exact, 1.0);
  add_mode("surrogate", surrogate, speedup);
  add_mode("hybrid", hybrid,
           hybrid.seconds > 0.0 ? exact.seconds / hybrid.seconds : 0.0);
  table.print();

  Table checks("Reconciliation");
  checks.set_header({"check", "value"});
  checks.add_row({"distinct shapes",
                  std::to_string(audit.distinct_shapes)});
  checks.add_row({"pricing classes", std::to_string(audit.classes)});
  checks.add_row({"max rel error, full stream",
                  Table::num(max_rel_error, 6)});
  checks.add_row({"hybrid samples", std::to_string(audit.samples.size())});
  checks.add_row({"hybrid max rel error", Table::num(audit.max_rel_error, 6)});
  checks.add_row({"hybrid within tolerance",
                  audit.within_tolerance ? "yes" : "DRIFT"});
  checks.add_row({"hybrid identical across threads {1,8}",
                  thread_identical ? "yes" : "MISMATCH"});
  std::puts("");
  checks.print();

  const auto mode_json = [](const char* name, const ModeResult& r) {
    return nova::json::Object()
        .str("mode", name)
        .num("seconds", r.seconds, 4)
        .num("requests_per_sec", r.requests_per_sec, 1)
        .num("anchor_runs", r.report.surrogate.anchors_priced);
  };
  if (!nova::json::write_file(
          "BENCH_admission.json",
          nova::json::Object()
              .flag("smoke", smoke)
              .num("requests", stream.size())
              .num("kv_max", kv_max)
              .num("sim_elements_cap", cap)
              .num("distinct_shapes", audit.distinct_shapes)
              .num("pricing_classes", audit.classes)
              .list("modes", {mode_json("exact", exact),
                              mode_json("surrogate", surrogate),
                              mode_json("hybrid", hybrid)})
              .num("surrogate_speedup", speedup, 2)
              .num("max_rel_error", max_rel_error, 6)
              .num("hybrid_max_rel_error", audit.max_rel_error, 6)
              .flag("hybrid_within_tolerance", audit.within_tolerance)
              .flag("hybrid_thread_identical", thread_identical)
              .document())) {
    std::fputs("bench_admission: cannot write BENCH_admission.json\n",
               stderr);
    return 2;
  }
  std::puts("\nwrote BENCH_admission.json");

  bool ok = true;
  if (max_rel_error > 0.02) {
    std::fprintf(stderr,
                 "bench_admission: FAIL surrogate max relative error %.6f "
                 "exceeds 0.02\n",
                 max_rel_error);
    ok = false;
  }
  if (!audit.within_tolerance) {
    std::fprintf(stderr,
                 "bench_admission: FAIL hybrid reconciliation drift "
                 "(max rel error %.6f > tolerance %.6f)\n",
                 audit.max_rel_error, audit.tolerance);
    ok = false;
  }
  if (!thread_identical) {
    std::fprintf(stderr,
                 "bench_admission: FAIL hybrid outcomes differ across "
                 "--threads {1,8}\n");
    ok = false;
  }
  if (!smoke && speedup < 25.0) {
    std::fprintf(stderr,
                 "bench_admission: FAIL surrogate speedup %.2fx below the "
                 "25x floor\n",
                 speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
