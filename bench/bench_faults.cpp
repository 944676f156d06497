// Failure-aware serving under injected faults: goodput vs raw throughput
// of BatchScheduler::run as seeded exponential outage plans take instances
// down for 0%, ~10%, and ~30% of the run, at a moderate and a saturating
// arrival rate. Each cell reports goodput, throughput, the per-status
// outcome counts, and mean availability; a deadline + overload-shedding
// row pair shows the policy trading late work for on-time work. Emits
// BENCH_faults.json for cross-PR tracking. Exit is non-zero when a gate
// fails:
//   * a hand-built zero-fault plan must be byte-identical to a run with no
//     plan at all (the failure-aware dispatch loop reduces exactly to the
//     pre-fault one),
//   * a plan drawn at an astronomically large MTBF must be empty,
//   * at ~10% injected downtime the deadline-free goodput must stay within
//     70% of the fault-free run with zero failed requests (retries recover
//     everything; no starvation),
//   * reports must be byte-identical across --threads {1, 2, 8} with
//     faults active, in hybrid pricing mode.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"
#include "core/overlay.hpp"
#include "serve/faults.hpp"
#include "serve/policy.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"

namespace {

using nova::Table;
using nova::serve::outcome_fingerprint;

constexpr int kInstances = 4;
constexpr std::uint64_t kSeed = 7;
constexpr double kMttrUs = 400.0;

std::vector<nova::serve::InferenceRequest> build_stream(int count,
                                                        double rate_rps,
                                                        double deadline_us) {
  nova::serve::TrafficProfile profile;
  profile.rate_rps = rate_rps;
  profile.base_seq_len = 128;
  profile.base_kv_len = 512;
  profile.deadline_us = deadline_us;
  profile.workloads = {"bert-tiny", "bert-mini"};
  profile.functions = {nova::approx::NonLinearFn::kGelu,
                       nova::approx::NonLinearFn::kExp};
  return nova::serve::generate_poisson(count, profile, kSeed);
}

nova::serve::ServeConfig make_config(const nova::serve::FaultPlan& faults,
                                     double shed_us, int threads) {
  nova::serve::ServeConfig config;
  config.nova =
      nova::core::make_overlay(nova::hw::AcceleratorKind::kTpuV4).nova;
  config.instances = kInstances;
  config.threads = threads;
  config.seed = kSeed;
  config.pricing = nova::serve::PricingMode::kHybrid;
  config.faults = faults;
  config.policy.overload_queue_us = shed_us;
  return config;
}

nova::serve::ServeReport run(
    const std::vector<nova::serve::InferenceRequest>& stream,
    const nova::serve::FaultPlan& faults, double shed_us, int threads) {
  const nova::serve::BatchScheduler scheduler(
      make_config(faults, shed_us, threads));
  return scheduler.run(stream);
}

/// Draws the outage plan hitting ~`downtime` of the run: exponential
/// up-times at MTTR * (1 - d) / d keep the long-run unavailability at d.
nova::serve::FaultPlan draw_plan(
    const std::vector<nova::serve::InferenceRequest>& stream,
    double downtime) {
  if (downtime <= 0.0) return nova::serve::FaultPlan();
  nova::serve::FaultProfile profile;
  profile.mttr_us = kMttrUs;
  profile.mtbf_us = kMttrUs * (1.0 - downtime) / downtime;
  const double last_arrival =
      stream.empty() ? 0.0 : stream.back().arrival_us;
  const double horizon_us =
      2.0 * last_arrival + 4.0 * (profile.mtbf_us + profile.mttr_us);
  return nova::serve::draw_fault_plan(profile, kInstances, horizon_us,
                                      kSeed);
}

double mean_availability(const nova::serve::ServeReport& report) {
  double sum = 0.0;
  for (const auto& inst : report.instances) sum += inst.availability;
  return report.instances.empty()
             ? 1.0
             : sum / static_cast<double>(report.instances.size());
}

struct Cell {
  std::string config;
  double downtime = 0.0;
  double rate_rps = 0.0;
  double deadline_us = 0.0;
  double shed_us = 0.0;
  nova::serve::ServeReport report;
};

}  // namespace

int main() {
  const int count = 3000;
  const double moderate_rps = 60000.0;
  const double saturating_rps = 140000.0;
  const double deadline_us = 2000.0;
  const double shed_us = 500.0;

  std::printf("Failure-aware serving: %d Poisson requests on %d NOVA "
              "instances, tpuv4 host, hybrid pricing\n\n",
              count, kInstances);

  // The sweep: downtime x load, deadline + overload shedding active.
  std::vector<Cell> cells;
  for (const double downtime : {0.0, 0.1, 0.3}) {
    for (const double rate : {moderate_rps, saturating_rps}) {
      Cell cell;
      cell.downtime = downtime;
      cell.rate_rps = rate;
      cell.deadline_us = deadline_us;
      cell.shed_us = shed_us;
      char name[64];
      std::snprintf(name, sizeof(name), "down%02d-%s",
                    static_cast<int>(downtime * 100.0 + 0.5),
                    rate < 100000.0 ? "moderate" : "saturating");
      cell.config = name;
      const auto stream = build_stream(count, rate, deadline_us);
      cell.report = run(stream, draw_plan(stream, downtime), shed_us, 1);
      cells.push_back(std::move(cell));
    }
  }

  Table table("Goodput vs throughput under injected faults "
              "(deadline 2000 us, shed threshold 500 us)");
  table.set_header({"config", "goodput r/s", "throughput r/s", "ok",
                    "retried", "shed", "miss", "failed", "avail %",
                    "p95 us"});
  for (const auto& cell : cells) {
    const auto& r = cell.report;
    table.add_row(
        {cell.config, Table::num(r.goodput_rps, 1),
         Table::num(r.throughput_rps, 1),
         std::to_string(r.status_count(nova::serve::RequestStatus::kOk)),
         std::to_string(
             r.status_count(nova::serve::RequestStatus::kRetried)),
         std::to_string(r.status_count(nova::serve::RequestStatus::kShed)),
         std::to_string(
             r.status_count(nova::serve::RequestStatus::kDeadlineMiss)),
         std::to_string(
             r.status_count(nova::serve::RequestStatus::kFailed)),
         Table::num(100.0 * mean_availability(r), 2),
         Table::num(r.latency_percentile_us(95.0), 3)});
  }
  table.print();

  // Gate 1: the failure-aware loop with a zero-fault plan must reduce
  // byte-identically to a run with no plan at all (and a plan drawn at an
  // astronomically large MTBF must come back empty).
  const auto gate_stream = build_stream(count, moderate_rps, 0.0);
  const auto plain = run(gate_stream, nova::serve::FaultPlan(), 0.0, 1);
  const auto zero_plan = nova::serve::FaultPlan::make(
      std::vector<std::vector<nova::serve::FaultWindow>>(kInstances));
  const auto zero = run(gate_stream, zero_plan, 0.0, 1);
  const bool zero_fault_identical =
      outcome_fingerprint(plain) == outcome_fingerprint(zero);
  nova::serve::FaultProfile calm;
  calm.mtbf_us = 1e12;
  calm.mttr_us = kMttrUs;
  const bool calm_plan_empty =
      nova::serve::draw_fault_plan(calm, kInstances,
                                   2.0 * gate_stream.back().arrival_us,
                                   kSeed)
          .empty();

  // Gate 2: at ~10% injected downtime the deadline-free goodput stays
  // within 70% of fault-free, and retries recover every request.
  const auto faulted =
      run(gate_stream, draw_plan(gate_stream, 0.1), 0.0, 1);
  const double goodput_ratio =
      plain.goodput_rps > 0.0 ? faulted.goodput_rps / plain.goodput_rps
                              : 0.0;
  const auto failed_10 =
      faulted.status_count(nova::serve::RequestStatus::kFailed);
  const auto shed_10 =
      faulted.status_count(nova::serve::RequestStatus::kShed);

  // Gate 3: byte-identical reports across pricing thread counts with
  // faults active.
  const auto chaos_stream = build_stream(count, saturating_rps, deadline_us);
  const auto chaos_plan = draw_plan(chaos_stream, 0.1);
  const auto t1 =
      outcome_fingerprint(run(chaos_stream, chaos_plan, shed_us, 1));
  const auto t2 =
      outcome_fingerprint(run(chaos_stream, chaos_plan, shed_us, 2));
  const auto t8 =
      outcome_fingerprint(run(chaos_stream, chaos_plan, shed_us, 8));
  const bool thread_identical = t1 == t2 && t1 == t8;

  Table checks("Gates");
  checks.set_header({"check", "value"});
  checks.add_row({"zero-fault plan identical to no plan",
                  zero_fault_identical ? "yes" : "MISMATCH"});
  checks.add_row(
      {"calm draw (MTBF 1e12) empty", calm_plan_empty ? "yes" : "NO"});
  checks.add_row(
      {"goodput ratio at 10% downtime", Table::num(goodput_ratio, 4)});
  checks.add_row({"failed at 10% downtime", std::to_string(failed_10)});
  checks.add_row({"shed at 10% downtime", std::to_string(shed_10)});
  checks.add_row({"identical across threads {1,2,8}",
                  thread_identical ? "yes" : "MISMATCH"});
  std::puts("");
  checks.print();

  std::vector<nova::json::Object> configs;
  for (const auto& cell : cells) {
    const auto& r = cell.report;
    using nova::serve::RequestStatus;
    configs.push_back(
        nova::json::Object()
            .str("config", cell.config)
            .num("downtime", cell.downtime, 2)
            .num("rate_rps", cell.rate_rps, 1)
            .num("goodput_rps", r.goodput_rps, 1)
            .num("throughput_rps", r.throughput_rps, 1)
            .num("ok", r.status_count(RequestStatus::kOk))
            .num("retried", r.status_count(RequestStatus::kRetried))
            .num("shed", r.status_count(RequestStatus::kShed))
            .num("deadline_miss", r.status_count(RequestStatus::kDeadlineMiss))
            .num("failed", r.status_count(RequestStatus::kFailed))
            .num("mean_availability", mean_availability(r), 4)
            .num("latency_p95_us", r.latency_percentile_us(95.0), 3));
  }
  if (!nova::json::write_file("BENCH_faults.json",
                              nova::json::Object()
                                  .num("requests", count)
                                  .num("instances", kInstances)
                                  .num("mttr_us", kMttrUs, 1)
                                  .list("configs", configs)
                                  .flag("zero_fault_identical",
                                        zero_fault_identical)
                                  .flag("calm_plan_empty", calm_plan_empty)
                                  .num("goodput_ratio_10pct", goodput_ratio, 4)
                                  .num("failed_10pct", failed_10)
                                  .flag("thread_identical", thread_identical)
                                  .document())) {
    std::fputs("bench_faults: cannot write BENCH_faults.json\n", stderr);
    return 2;
  }
  std::puts("\nwrote BENCH_faults.json");

  bool ok = true;
  if (!zero_fault_identical) {
    std::fprintf(stderr,
                 "bench_faults: FAIL zero-fault plan run differs from a "
                 "run with no plan\n");
    ok = false;
  }
  if (!calm_plan_empty) {
    std::fprintf(stderr,
                 "bench_faults: FAIL plan drawn at MTBF 1e12 is not "
                 "empty\n");
    ok = false;
  }
  if (!thread_identical) {
    std::fprintf(stderr,
                 "bench_faults: FAIL reports differ across --threads "
                 "{1,2,8} with faults\n");
    ok = false;
  }
  if (goodput_ratio < 0.7) {
    std::fprintf(stderr,
                 "bench_faults: FAIL goodput at 10%% downtime is %.4f of "
                 "fault-free, below the 0.70 floor\n",
                 goodput_ratio);
    ok = false;
  }
  if (failed_10 != 0 || shed_10 != 0) {
    std::fprintf(stderr,
                 "bench_faults: FAIL retry starvation at 10%% downtime "
                 "(%llu failed, %llu shed)\n",
                 static_cast<unsigned long long>(failed_10),
                 static_cast<unsigned long long>(shed_10));
    ok = false;
  }
  return ok ? 0 : 1;
}
