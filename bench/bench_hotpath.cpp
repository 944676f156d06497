// Host-time throughput of the hot paths, written to BENCH_hotpath.json so
// perf PRs are tracked cross-PR like BENCH_scalability.json:
//   * sim_session: elements/s through core::SimSession::run across the
//     Table II host deployments;
//   * serve_pricing: distinct request shapes priced per second through
//     BatchScheduler::run;
//   * dispatch: session steps/s through BatchScheduler::run on a fixed
//     stream, in each dispatch mode. The run includes pricing, about 5 ms:
//     nearly half of a whole-mode run, 7% of a continuous one.
// The sim_session and dispatch series repeat short runs, interleaved
// round-robin across their cases so that a drift in host speed lands on
// every case alike, and report the median and quartiles of the runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "approx/mlp_fitter.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/overlay.hpp"
#include "core/sim_session.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"

namespace {

using nova::Table;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The quartiles of a sample: order statistics interpolated linearly.
struct Spread {
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
};

Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto at = [&samples](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// Adds `key`, `key_p25` and `key_p75` to `row`.
nova::json::Object& add_spread(nova::json::Object& row, const std::string& key,
                               const Spread& spread, int decimals) {
  return row.num(key, spread.median, decimals)
      .num(key + "_p25", spread.p25, decimals)
      .num(key + "_p75", spread.p75, decimals);
}

// ---- SimSession -----------------------------------------------------------

/// One deployment's session inputs, built once and simulated every round.
struct SessionCase {
  std::string label;
  int breakpoints = 16;
  nova::core::NovaConfig nova;
  std::vector<std::vector<double>> inputs;
  std::size_t elements = 0;  ///< per session, over every router
  nova::sim::Cycle accel_cycles = 0;
  std::vector<double> elements_per_sec;  ///< one sample per timed session
};

SessionCase make_session_case(std::string label,
                              nova::hw::AcceleratorKind host, int breakpoints,
                              std::size_t elements_per_router) {
  SessionCase c{std::move(label), breakpoints,
                nova::core::make_overlay(host).nova, {}, 0, 0, {}};
  const auto domain = nova::approx::PwlLibrary::instance()
                          .get(nova::approx::NonLinearFn::kGelu, breakpoints)
                          .domain();
  nova::Rng rng(0x5eed);
  c.inputs.resize(static_cast<std::size_t>(c.nova.routers));
  for (auto& stream : c.inputs) {
    stream.reserve(elements_per_router);
    for (std::size_t i = 0; i < elements_per_router; ++i) {
      stream.push_back(rng.uniform(domain.lo, domain.hi));
    }
  }
  c.elements = elements_per_router * c.inputs.size();
  return c;
}

/// Builds and runs one SimSession of `c`; returns its elements/s.
double time_session(SessionCase& c) {
  const auto& table = nova::approx::PwlLibrary::instance().get(
      nova::approx::NonLinearFn::kGelu, c.breakpoints);
  const auto start = std::chrono::steady_clock::now();
  nova::core::SimSession session(c.nova, table, c.inputs);
  const auto run = session.run();
  const double seconds = seconds_since(start);
  c.accel_cycles = run.accel_cycles;
  return static_cast<double>(c.elements) / seconds;
}

// ---- Serve pricing --------------------------------------------------------

struct ServeResultRow {
  int requests = 0;
  std::size_t distinct_shapes = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
};

/// Pre-trains every PWL table `stream` uses, so training stays out of the
/// timings.
void warm_tables(const std::vector<nova::serve::InferenceRequest>& stream) {
  for (const auto& req : stream) {
    (void)nova::approx::PwlLibrary::instance().get(req.function,
                                                   req.breakpoints);
  }
}

nova::serve::ServeConfig tpuv4_config(int instances) {
  nova::serve::ServeConfig config;
  config.nova = nova::core::make_overlay(nova::hw::AcceleratorKind::kTpuV4)
                    .nova;
  config.instances = instances;
  config.threads = 1;  // single-threaded: measure the hot path, not the pool
  config.seed = 7;
  return config;
}

/// Times a full BatchScheduler::run (pricing + dispatch) over a Poisson
/// request stream. The tpuv4 deployment's flit train lands within one
/// accelerator cycle, so calibration is two SimSessions per PWL table and
/// the distinct shapes' graph walks dominate.
ServeResultRow run_serve_case(int requests, int sim_elements_cap) {
  nova::serve::ServeConfig config = tpuv4_config(4);
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
  warm_tables(stream);

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

// ---- Dispatch -------------------------------------------------------------

/// One dispatch mode's scheduler over the shared stream.
struct DispatchCase {
  const char* mode;
  nova::serve::BatchScheduler scheduler;
  std::uint64_t dispatches = 0;
  std::uint64_t steps = 0;  ///< session steps the run served
  std::vector<double> steps_per_sec;  ///< one sample per timed run
};

DispatchCase make_dispatch_case(const char* mode, bool continuous) {
  nova::serve::ServeConfig config = tpuv4_config(8);
  config.continuous = continuous;
  return DispatchCase{mode, nova::serve::BatchScheduler(config), 0, 0, {}};
}

/// Runs `c`'s scheduler over `stream` once; returns the run's seconds and
/// records its dispatch and step counts.
double time_dispatch(DispatchCase& c,
                     const std::vector<nova::serve::InferenceRequest>& stream) {
  const auto start = std::chrono::steady_clock::now();
  const auto report = c.scheduler.run(stream);
  const double seconds = seconds_since(start);
  c.dispatches = report.stats.counter("serve.batches");
  c.steps = 0;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    if (!report.outcomes[i].served()) continue;
    c.steps += static_cast<std::uint64_t>(report.cost(i).prefill_chunks +
                                          nova::serve::decode_steps(stream[i]));
  }
  return seconds;
}

}  // namespace

int main() {
  std::puts("Simulation hot-path throughput: elements/sec through "
            "SimSession::run, Table II deployments\n");

  // Each session runs 65536 elements per router, 2-8 ms; one untimed round
  // first, then every deployment once per round.
  const std::size_t elements_per_router = 65536;
  const int session_rounds = 15;
  struct Deployment {
    const char* label;
    nova::hw::AcceleratorKind host;
    int breakpoints;
  };
  const Deployment deployments[] = {
      {"react-10x256@240", nova::hw::AcceleratorKind::kReact, 16},
      {"tpuv3-4x128@1400", nova::hw::AcceleratorKind::kTpuV3, 16},
      {"tpuv4-8x128@1400", nova::hw::AcceleratorKind::kTpuV4, 16},
      {"nvdla-2x16@1400", nova::hw::AcceleratorKind::kJetsonNvdla, 16},
      {"tpuv4-8x128@1400-bp32", nova::hw::AcceleratorKind::kTpuV4, 32},
  };
  std::vector<SessionCase> sessions;
  for (const auto& d : deployments) {
    sessions.push_back(make_session_case(d.label, d.host, d.breakpoints,
                                         elements_per_router));
  }
  for (int round = 0; round <= session_rounds; ++round) {
    for (auto& c : sessions) {
      const double rate = time_session(c);
      if (round > 0) c.elements_per_sec.push_back(rate);
    }
  }

  Table table("SimSession end-to-end throughput (higher is better)");
  table.set_header({"deployment", "elements", "sessions", "Melem/s",
                    "p25", "p75", "accel cycles"});
  std::vector<nova::json::Object> session_rows;
  for (const auto& c : sessions) {
    const Spread rate = spread_of(c.elements_per_sec);
    table.add_row({c.label, std::to_string(c.elements),
                   std::to_string(c.elements_per_sec.size()),
                   Table::num(rate.median / 1e6, 2),
                   Table::num(rate.p25 / 1e6, 2),
                   Table::num(rate.p75 / 1e6, 2),
                   std::to_string(c.accel_cycles)});
    auto row = nova::json::Object()
                   .str("config", c.label)
                   .num("breakpoints", c.breakpoints)
                   .num("elements", c.elements)
                   .num("sessions", c.elements_per_sec.size());
    session_rows.push_back(add_spread(row, "elements_per_sec", rate, 0));
  }
  table.print();

  std::puts("\nServing-layer pricing throughput (BatchScheduler::run, "
            "1 worker thread)\n");
  Table serve_table("Serve pricing throughput");
  serve_table.set_header({"requests", "distinct shapes", "seconds", "req/s"});
  const int requests = 512;
  const int cap = 8192;
  const auto row = run_serve_case(requests, cap);
  serve_table.add_row({std::to_string(row.requests),
                       std::to_string(row.distinct_shapes),
                       Table::num(row.seconds, 3),
                       Table::num(row.requests_per_sec, 1)});
  serve_table.print();
  const auto serve_row = nova::json::Object()
                             .num("requests", row.requests)
                             .num("distinct_shapes", row.distinct_shapes)
                             .num("sim_elements_cap", cap)
                             .num("seconds", row.seconds, 4)
                             .num("requests_per_sec", row.requests_per_sec, 1);

  std::puts("\nDispatch throughput: session steps/sec through "
            "BatchScheduler::run (pricing included), 1 worker thread\n");
  const int dispatch_requests = 100000;
  const int max_steps = 16;
  const int dispatch_rounds = 7;
  nova::serve::TrafficProfile profile;
  profile.max_steps = max_steps;
  const auto stream =
      nova::serve::generate_poisson(dispatch_requests, profile, 7);
  warm_tables(stream);
  std::vector<DispatchCase> modes;
  modes.push_back(make_dispatch_case("whole", false));
  modes.push_back(make_dispatch_case("continuous", true));
  for (int round = 0; round <= dispatch_rounds; ++round) {
    for (auto& c : modes) {
      const double seconds = time_dispatch(c, stream);
      if (round > 0) {
        c.steps_per_sec.push_back(static_cast<double>(c.steps) / seconds);
      }
    }
  }
  Table dispatch_table("Dispatch throughput (higher is better)");
  dispatch_table.set_header({"mode", "requests", "dispatches", "steps",
                             "runs", "Msteps/s", "p25", "p75"});
  std::vector<nova::json::Object> dispatch_rows;
  for (const auto& c : modes) {
    const Spread rate = spread_of(c.steps_per_sec);
    dispatch_table.add_row({c.mode, std::to_string(dispatch_requests),
                            std::to_string(c.dispatches),
                            std::to_string(c.steps),
                            std::to_string(c.steps_per_sec.size()),
                            Table::num(rate.median / 1e6, 2),
                            Table::num(rate.p25 / 1e6, 2),
                            Table::num(rate.p75 / 1e6, 2)});
    auto row = nova::json::Object()
                   .str("mode", c.mode)
                   .num("requests", dispatch_requests)
                   .num("max_steps", max_steps)
                   .num("instances", 8)
                   .num("dispatches", c.dispatches)
                   .num("steps", c.steps)
                   .num("runs", c.steps_per_sec.size());
    dispatch_rows.push_back(add_spread(row, "steps_per_sec", rate, 0));
  }
  dispatch_table.print();

  if (!nova::json::write_file("BENCH_hotpath.json",
                              nova::json::Object()
                                  .list("sim_session", session_rows)
                                  .list("serve_pricing", {serve_row})
                                  .list("dispatch", dispatch_rows)
                                  .document())) {
    std::fputs("bench_hotpath: cannot write BENCH_hotpath.json\n", stderr);
    return 2;
  }
  std::puts("\nwrote BENCH_hotpath.json");
  return 0;
}
