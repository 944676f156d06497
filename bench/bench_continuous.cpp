// Continuous batching vs whole-request dispatch: tail latency and goodput
// of BatchScheduler::run on a bursty mixed stream -- mostly short decode
// singles, a sprinkle of short generation chains, and rare heavy sessions
// (a 2048-token prefill + a 32-token generation) that monopolize an instance for
// the whole session under whole-request dispatch. The grid sweeps
// {whole, continuous} x {moderate, overload} arrival rates; each cell
// reports p50/p99 latency, mean TTFT, goodput, and the outcome counts.
// Emits BENCH_continuous.json for cross-PR tracking.
//
// `--smoke` shrinks the stream so CI can run the binary in seconds; the
// JSON then carries "smoke": true so readers never compare smoke numbers
// against full runs. Exit is non-zero when a gate fails:
//   * at the overload rate, continuous p99 must beat whole-request p99 by
//     at least 2x (iteration-level scheduling unblocks the short requests
//     queued behind heavy sessions),
//   * continuous goodput must be no worse than whole-request goodput at
//     EVERY grid rate,
//   * continuous reports must be byte-identical across --threads {1,2,8}
//     at the overload rate, in hybrid pricing mode.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/overlay.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"

namespace {

using nova::Table;
using nova::serve::outcome_fingerprint;

constexpr int kInstances = 1;
constexpr std::uint64_t kSeed = 7;
constexpr int kChunkTokens = 64;

/// Mostly short decode singles; every 10th request decodes a short chain
/// and every 300th becomes a heavy session -- a 2048-token prefill
/// followed by a 32-token generation. Under whole-request dispatch a heavy
/// session is
/// one monolithic dispatch, so the shorts behind it eat its entire
/// service time; under continuous batching they slot in between its
/// steps.
std::vector<nova::serve::InferenceRequest> build_stream(int count,
                                                        double rate_rps,
                                                        double deadline_us) {
  nova::serve::TrafficProfile profile;
  profile.rate_rps = rate_rps;
  profile.decode_fraction = 1.0;
  profile.base_kv_len = 512;
  profile.deadline_us = deadline_us;
  profile.workloads = {"bert-tiny", "bert-mini"};
  profile.functions = {nova::approx::NonLinearFn::kGelu};
  auto stream = nova::serve::generate_poisson(count, profile, kSeed);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    auto& req = stream[i];
    if (i % 300 == 75) {
      req.phase = nova::pipeline::Phase::kPrefill;
      req.seq_len = 2048;
      req.kv_len = 0;
      req.gen_steps = 32;
      // Long generations carry a per-token SLO budget on top of the base
      // deadline; a uniform deadline would punish continuous mode for the
      // very interleaving that rescues the shorts.
      req.deadline_us = deadline_us + 500.0 * req.gen_steps;
    } else if (i % 10 == 5) {
      req.gen_steps = 3;  // a short generation chain
    }
  }
  return stream;
}

nova::serve::ServeConfig make_config(bool continuous, int threads) {
  nova::serve::ServeConfig config;
  config.nova =
      nova::core::make_overlay(nova::hw::AcceleratorKind::kTpuV4).nova;
  config.instances = kInstances;
  config.threads = threads;
  config.seed = kSeed;
  config.pricing = nova::serve::PricingMode::kHybrid;
  config.continuous = continuous;
  config.chunk_tokens = kChunkTokens;
  return config;
}

nova::serve::ServeReport run(
    const std::vector<nova::serve::InferenceRequest>& stream,
    bool continuous, int threads) {
  const nova::serve::BatchScheduler scheduler(
      make_config(continuous, threads));
  return scheduler.run(stream);
}

double mean_ttft_us(const nova::serve::ServeReport& report) {
  double sum = 0.0;
  int count = 0;
  for (const auto& outcome : report.outcomes) {
    if (!outcome.served()) continue;
    sum += outcome.first_finish_us - outcome.arrival_us;
    ++count;
  }
  return count > 0 ? sum / count : 0.0;
}

struct Cell {
  std::string mode;
  double rate_rps = 0.0;
  nova::serve::ServeReport report;
};

std::string cell_json(const Cell& cell) {
  const auto& r = cell.report;
  using nova::serve::RequestStatus;
  return std::string("    {\"mode\": \"") + cell.mode +
         "\", \"rate_rps\": " + Table::num(cell.rate_rps, 1) +
         ", \"goodput_rps\": " + Table::num(r.goodput_rps, 1) +
         ", \"throughput_rps\": " + Table::num(r.throughput_rps, 1) +
         ", \"latency_p50_us\": " +
         Table::num(r.latency_percentile_us(50.0), 3) +
         ", \"latency_p99_us\": " +
         Table::num(r.latency_percentile_us(99.0), 3) +
         ", \"mean_ttft_us\": " + Table::num(mean_ttft_us(r), 3) +
         ", \"ok\": " + std::to_string(r.status_count(RequestStatus::kOk)) +
         ", \"retried\": " +
         std::to_string(r.status_count(RequestStatus::kRetried)) +
         ", \"shed\": " +
         std::to_string(r.status_count(RequestStatus::kShed)) +
         ", \"deadline_miss\": " +
         std::to_string(r.status_count(RequestStatus::kDeadlineMiss)) +
         ", \"failed\": " +
         std::to_string(r.status_count(RequestStatus::kFailed)) +
         ", \"steps\": " + std::to_string(r.stats.counter("serve.steps")) +
         "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const int count = smoke ? 450 : 3000;
  const double moderate_rps = 45000.0;
  const double overload_rps = 70000.0;
  const double deadline_us = 4000.0;

  std::printf("Continuous batching%s: %d Poisson requests on %d NOVA "
              "instances, tpuv4 host, hybrid pricing, chunk %d tokens\n\n",
              smoke ? " (smoke mode)" : "", count, kInstances,
              kChunkTokens);

  std::vector<Cell> cells;
  for (const double rate : {moderate_rps, overload_rps}) {
    for (const bool continuous : {false, true}) {
      Cell cell;
      cell.mode = continuous ? "continuous" : "whole";
      cell.rate_rps = rate;
      cell.report = run(build_stream(count, rate, deadline_us),
                        continuous, 1);
      cells.push_back(std::move(cell));
    }
  }

  Table table("Whole-request vs continuous dispatch (deadline 4000 us)");
  table.set_header({"mode", "rate r/s", "goodput r/s", "p50 us", "p99 us",
                    "mean TTFT us", "ok", "miss", "steps"});
  for (const auto& cell : cells) {
    const auto& r = cell.report;
    table.add_row(
        {cell.mode, Table::num(cell.rate_rps, 0),
         Table::num(r.goodput_rps, 1),
         Table::num(r.latency_percentile_us(50.0), 3),
         Table::num(r.latency_percentile_us(99.0), 3),
         Table::num(mean_ttft_us(r), 3),
         std::to_string(r.status_count(nova::serve::RequestStatus::kOk)),
         std::to_string(
             r.status_count(nova::serve::RequestStatus::kDeadlineMiss)),
         std::to_string(r.stats.counter("serve.steps"))});
  }
  table.print();

  // Gate 1: p99 at the overload point -- continuous must be at least 2x
  // better than whole-request dispatch.
  const auto& whole_over = cells[2].report;
  const auto& cont_over = cells[3].report;
  const double p99_whole = whole_over.latency_percentile_us(99.0);
  const double p99_cont = cont_over.latency_percentile_us(99.0);
  const double p99_ratio = p99_cont > 0.0 ? p99_whole / p99_cont : 0.0;

  // Gate 2: goodput no worse at every grid rate.
  bool goodput_ok = true;
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    if (cells[i + 1].report.goodput_rps < cells[i].report.goodput_rps) {
      goodput_ok = false;
    }
  }

  // Gate 3: byte-identical continuous reports across pricing threads.
  const auto gate_stream = build_stream(count, overload_rps, deadline_us);
  const auto t1 = outcome_fingerprint(run(gate_stream, true, 1));
  const auto t2 = outcome_fingerprint(run(gate_stream, true, 2));
  const auto t8 = outcome_fingerprint(run(gate_stream, true, 8));
  const bool thread_identical = t1 == t2 && t1 == t8;

  Table checks("Gates");
  checks.set_header({"check", "value"});
  checks.add_row({"p99 whole/continuous at overload",
                  Table::num(p99_ratio, 3)});
  checks.add_row(
      {"goodput no worse at every rate", goodput_ok ? "yes" : "NO"});
  checks.add_row({"identical across threads {1,2,8}",
                  thread_identical ? "yes" : "MISMATCH"});
  std::puts("");
  checks.print();

  std::string json = std::string("{\n  \"smoke\": ") +
                     (smoke ? "true" : "false") +
                     ",\n  \"requests\": " + std::to_string(count) +
                     ",\n  \"instances\": " + std::to_string(kInstances) +
                     ",\n  \"chunk_tokens\": " + std::to_string(kChunkTokens) +
                     ",\n  \"deadline_us\": " + Table::num(deadline_us, 1) +
                     ",\n  \"grid\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    json += cell_json(cells[i]) + (i + 1 < cells.size() ? ",\n" : "\n");
  }
  json += "  ],\n";
  json += "  \"p99_ratio_overload\": " + Table::num(p99_ratio, 3) + ",\n";
  json += std::string("  \"goodput_no_worse\": ") +
          (goodput_ok ? "true" : "false") + ",\n";
  json += std::string("  \"thread_identical\": ") +
          (thread_identical ? "true" : "false") + "\n}\n";

  FILE* out = std::fopen("BENCH_continuous.json", "w");
  if (out != nullptr) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::puts("\nwrote BENCH_continuous.json");
  } else {
    std::puts("\nwarning: could not write BENCH_continuous.json");
  }

  bool ok = true;
  if (!thread_identical) {
    std::fprintf(stderr,
                 "bench_continuous: FAIL continuous reports differ across "
                 "--threads {1,2,8}\n");
    ok = false;
  }
  if (!smoke) {
    if (p99_ratio < 2.0) {
      std::fprintf(stderr,
                   "bench_continuous: FAIL p99 at overload improved only "
                   "%.3fx over whole-request dispatch, below the 2x "
                   "floor\n",
                   p99_ratio);
      ok = false;
    }
    if (!goodput_ok) {
      std::fprintf(stderr,
                   "bench_continuous: FAIL continuous goodput fell below "
                   "whole-request goodput at some grid rate\n");
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
