// End-to-end throughput of the simulation hot path: wall-clock elements/sec
// through core::SimSession::run across the Table II host deployments, plus
// the serving layer's pricing throughput (distinct request shapes priced per
// second through BatchScheduler). Emits every series as machine-readable
// BENCH_hotpath.json so this and future perf PRs are tracked cross-PR, like
// BENCH_scalability.json.
//
// `--smoke` shrinks the element counts so CI can run the binary in seconds;
// the JSON then carries "smoke": true so readers never compare smoke numbers
// against full runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/overlay.hpp"
#include "core/sim_session.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"

namespace {

using nova::Table;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SessionCase {
  std::string label;
  nova::hw::AcceleratorKind host;
  int breakpoints = 16;
};

struct SessionResult {
  std::size_t elements = 0;
  double seconds = 0.0;
  double elements_per_sec = 0.0;
  nova::sim::Cycle accel_cycles = 0;
};

/// Times SimSession::run over `elements_per_router` elements per router,
/// repeating until ~0.2 s of simulation has been measured (at least one run).
SessionResult run_session_case(const SessionCase& cfg,
                               std::size_t elements_per_router) {
  const auto overlay = nova::core::make_overlay(cfg.host);
  const auto& table = nova::approx::PwlLibrary::instance().get(
      nova::approx::NonLinearFn::kGelu, cfg.breakpoints);
  const auto domain = table.domain();

  nova::Rng rng(0x5eed);
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(overlay.nova.routers));
  for (auto& stream : inputs) {
    stream.reserve(elements_per_router);
    for (std::size_t i = 0; i < elements_per_router; ++i) {
      stream.push_back(rng.uniform(domain.lo, domain.hi));
    }
  }
  const std::size_t batch_elements =
      elements_per_router * static_cast<std::size_t>(overlay.nova.routers);

  SessionResult result;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < 64; ++rep) {
    nova::core::SimSession session(overlay.nova, table, inputs);
    const auto run = session.run();
    result.accel_cycles = run.accel_cycles;
    result.elements += batch_elements;
    result.seconds = seconds_since(start);
    if (result.seconds > 0.2) break;
  }
  result.elements_per_sec =
      result.seconds > 0.0 ? static_cast<double>(result.elements) /
                                 result.seconds
                           : 0.0;
  return result;
}

struct ServeResultRow {
  int requests = 0;
  std::size_t distinct_shapes = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
};

/// Times a full BatchScheduler::run (pricing + dispatch) over a Poisson
/// request stream. The tpuv4 deployment's flit train lands within one
/// accelerator cycle, so calibration is two SimSessions per PWL table and
/// the distinct shapes' graph walks dominate.
ServeResultRow run_serve_case(int requests, int sim_elements_cap) {
  nova::serve::ServeConfig config;
  config.nova = nova::core::make_overlay(nova::hw::AcceleratorKind::kTpuV4)
                    .nova;
  config.instances = 4;
  config.threads = 1;  // single-threaded: measure the hot path, not the pool
  config.seed = 7;
  config.sim_elements_cap = sim_elements_cap;

  nova::serve::TrafficProfile profile;
  // Keep the tracked BENCH_hotpath.json series continuous across the
  // decode-phase PR: an all-prefill stream reproduces the exact request
  // mix the earlier snapshots measured (and keeps the distinct-shape key
  // below, which ignores phase/kv_len, an accurate tuple count).
  profile.decode_fraction = 0.0;
  const auto stream =
      nova::serve::generate_poisson(requests, profile, config.seed);
  std::size_t distinct = 0;
  {
    std::vector<std::string> keys;
    for (const auto& req : stream) {
      keys.push_back(std::string(req.workload.name()) + "/" +
                     std::to_string(req.seq_len) + "/" +
                     std::to_string(static_cast<int>(req.function)) + "/" +
                     std::to_string(req.breakpoints));
    }
    std::sort(keys.begin(), keys.end());
    distinct = static_cast<std::size_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
  }
  // Pre-warm the PWL tables so table training stays out of the timing.
  for (const auto& req : stream) {
    (void)nova::approx::PwlLibrary::instance().get(req.function,
                                                   req.breakpoints);
  }

  const nova::serve::BatchScheduler scheduler(config);
  const auto start = std::chrono::steady_clock::now();
  const auto report = scheduler.run(stream);
  const double secs = seconds_since(start);

  ServeResultRow row;
  row.requests = static_cast<int>(report.outcomes.size());
  row.distinct_shapes = distinct;
  row.seconds = secs;
  row.requests_per_sec =
      secs > 0.0 ? static_cast<double>(row.requests) / secs : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("Simulation hot-path throughput%s: elements/sec through "
              "SimSession::run, Table II deployments\n\n",
              smoke ? " (smoke mode)" : "");

  const std::size_t elements_per_router = smoke ? 4096 : 65536;
  const std::vector<SessionCase> cases = {
      {"react-10x256@240", nova::hw::AcceleratorKind::kReact, 16},
      {"tpuv3-4x128@1400", nova::hw::AcceleratorKind::kTpuV3, 16},
      {"tpuv4-8x128@1400", nova::hw::AcceleratorKind::kTpuV4, 16},
      {"nvdla-2x16@1400", nova::hw::AcceleratorKind::kJetsonNvdla, 16},
      {"tpuv4-8x128@1400-bp32", nova::hw::AcceleratorKind::kTpuV4, 32},
  };

  Table table("SimSession end-to-end throughput (higher is better)");
  table.set_header({"deployment", "elements", "seconds", "Melem/s",
                    "accel cycles"});
  std::string json = std::string("{\n  \"smoke\": ") +
                     (smoke ? "true" : "false") + ",\n  \"sim_session\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto r = run_session_case(cases[i], elements_per_router);
    table.add_row({cases[i].label, std::to_string(r.elements),
                   Table::num(r.seconds, 3),
                   Table::num(r.elements_per_sec / 1e6, 2),
                   std::to_string(r.accel_cycles)});
    json += "    {\"config\": \"" + cases[i].label +
            "\", \"breakpoints\": " + std::to_string(cases[i].breakpoints) +
            ", \"elements\": " + std::to_string(r.elements) +
            ", \"seconds\": " + Table::num(r.seconds, 4) +
            ", \"elements_per_sec\": " + Table::num(r.elements_per_sec, 0) +
            "}" + (i + 1 < cases.size() ? "," : "") + "\n";
  }
  table.print();
  json += "  ],\n  \"serve_pricing\": [\n";

  std::puts("\nServing-layer pricing throughput (BatchScheduler::run, "
            "1 worker thread)\n");
  Table serve_table("Serve pricing throughput");
  serve_table.set_header({"requests", "distinct shapes", "seconds", "req/s"});
  const int requests = smoke ? 64 : 512;
  const int cap = smoke ? 2048 : 8192;
  const auto row = run_serve_case(requests, cap);
  serve_table.add_row({std::to_string(row.requests),
                       std::to_string(row.distinct_shapes),
                       Table::num(row.seconds, 3),
                       Table::num(row.requests_per_sec, 1)});
  serve_table.print();
  json += "    {\"requests\": " + std::to_string(row.requests) +
          ", \"distinct_shapes\": " + std::to_string(row.distinct_shapes) +
          ", \"sim_elements_cap\": " + std::to_string(cap) +
          ", \"seconds\": " + Table::num(row.seconds, 4) +
          ", \"requests_per_sec\": " + Table::num(row.requests_per_sec, 1) +
          "}\n";
  json += "  ]\n}\n";

  FILE* out = std::fopen("BENCH_hotpath.json", "w");
  if (out != nullptr) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::puts("\nwrote BENCH_hotpath.json");
  } else {
    std::puts("\nwarning: could not write BENCH_hotpath.json");
  }
  return 0;
}
