// Randomized differential test of BatchScheduler's dispatch against a
// deliberately naive reference dispatcher, in both serving modes.
//
// reference_run below re-implements the serving model from its rules, not
// from the scheduler's data structures: every pending dispatch unit lives
// in one vector, and each decision is a linear scan -- the earliest-
// available instance with a free session slot, the earliest-startable
// unit, the units that may fuse behind it. It has no heap, no cursor, no
// tombstones and no per-instance queues, and it prices through the public
// API alone (build_session_plan, ExactPricer, price_shapes). The test
// serves hundreds of seeded small streams through both and requires the
// same outcome fingerprint, dispatch counters, TTFT and batch-size
// samples, backoff total, per-instance accounting and makespan, bit for
// bit.
//
// The two modes differ in three rules only. A whole-request unit is the
// session's whole plan, charged at its folded service_us; a continuous unit
// is one plan step, charged at share * cycles / freq. Whole-mode fusion is
// a FIFO run that stops at the first mismatch; continuous fusion skips it.
// serve.steps, serve.preempted_steps and serve.ttft_us count only in
// continuous mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/overlay.hpp"
#include "histogram_samples.hpp"
#include "serve/faults.hpp"
#include "serve/policy.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "serve/surrogate.hpp"

namespace nova::serve {
namespace {

/// One pending dispatch unit of the reference: a session's next step (or,
/// in whole mode, its whole plan) waiting since ready_us.
struct Unit {
  double ready_us = 0.0;
  int id = 0;
  int attempt = 1;
};

/// The reference dispatcher: prices `requests` exactly, dispatches them
/// with linear scans, and aggregates the report the way
/// BatchScheduler::run documents it.
ServeReport reference_run(const ServeConfig& config,
                          const std::vector<InferenceRequest>& requests) {
  const std::size_t n = requests.size();
  const bool continuous = config.continuous;
  const FaultPlan& faults = config.faults;
  const FailurePolicy& policy = config.policy;
  const double freq = config.nova.accel_freq_mhz;
  const double cycle_us = 1.0 / freq;
  ServeReport report;
  report.outcomes.resize(n);
  report.instances.resize(static_cast<std::size_t>(config.instances));

  // Pricing: every plan step's shape through the exact pricer, folded into
  // the per-request service fields.
  std::vector<SessionPlan> plans;
  std::map<ShapeKey, ShapeCost> cost_of;
  for (const auto& req : requests) {
    plans.push_back(
        build_session_plan(req, continuous, config.chunk_tokens));
    for (const auto& step : plans.back().steps) cost_of[step.shape];
  }
  std::vector<ShapeKey> shapes;
  for (const auto& entry : cost_of) shapes.push_back(entry.first);
  PricerConfig pricer_config{config.nova, config.host, config.seed,
                             config.sim_elements_cap};
  const ExactPricer pricer(pricer_config);
  const auto costs = price_shapes(pricer, shapes, 1);
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    cost_of[shapes[k]] = costs[k];
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto& outcome = report.outcomes[i];
    const auto& steps = plans[i].steps;
    outcome.prefill_chunks = plans[i].prefill_chunks;
    double cycles = 0.0;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const ShapeCost& cost = cost_of[steps[s].shape];
      cycles += steps[s].share * cost.service_cycles;
      if (s == 0 || steps[s].shape != steps[s - 1].shape) {
        outcome.approx_ops += cost.approx_ops;
      }
    }
    outcome.service_cycles = static_cast<sim::Cycle>(std::llround(cycles));
    outcome.service_us = cycles / freq;
    outcome.wave_latency_cycles = cost_of[steps[0].shape].wave_latency_cycles;
  }

  // Session state: plan steps done, the instance holding the session's KV
  // cache (-1 until a step completes), retries spent on completed steps,
  // first dispatch and first finish.
  std::vector<int> done(n, 0);
  std::vector<int> pinned(n, -1);
  std::vector<int> retries(n, 0);
  std::vector<double> started(n, 0.0);
  std::vector<double> first_finish(n, 0.0);
  const auto units = [&](int id) {
    return continuous ? plans[static_cast<std::size_t>(id)].total_steps()
                      : 1;
  };
  const auto step_of = [&](int id) -> const SessionStep& {
    const auto i = static_cast<std::size_t>(id);
    return plans[i].steps[static_cast<std::size_t>(done[i])];
  };
  const auto fuses = [&](int a, int b) {
    const ShapeKey& x = step_of(a).shape;
    const ShapeKey& y = step_of(b).shape;
    return x.function == y.function && x.breakpoints == y.breakpoints &&
           x.phase == y.phase;
  };

  std::vector<Unit> pending;
  for (const auto& req : requests) pending.push_back({req.arrival_us, req.id});
  (void)report.stats.histogram("serve.batch_size");
  if (continuous) (void)report.stats.histogram("serve.ttft_us");
  std::vector<double> free_at(static_cast<std::size_t>(config.instances), 0.0);
  std::vector<int> slots(static_cast<std::size_t>(config.instances), 0);
  int batch_id = 0;
  double last_finish = 0.0;
  while (!pending.empty()) {
    // The earliest-available instance with a free session slot, lowest
    // index on ties: where a session that holds no slot yet would start.
    int open = -1;
    double open_at = 0.0;
    for (int j = 0; j < config.instances; ++j) {
      const auto js = static_cast<std::size_t>(j);
      const double up = faults.next_up_us(j, free_at[js]);
      if (slots[js] < config.max_batch && (open < 0 || up < open_at)) {
        open = j;
        open_at = up;
      }
    }
    // The earliest-startable unit: a pinned session's on its instance, any
    // other on `open`. Ties go to the oldest (ready_us, id).
    using Key = std::tuple<double, double, int, int>;
    std::size_t best = pending.size();
    Key best_key;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const Unit& unit = pending[k];
      const int j = pinned[static_cast<std::size_t>(unit.id)] >= 0
                        ? pinned[static_cast<std::size_t>(unit.id)]
                        : open;
      if (j < 0) continue;
      const double avail =
          faults.next_up_us(j, free_at[static_cast<std::size_t>(j)]);
      const Key key{faults.next_up_us(j, std::max(avail, unit.ready_us)),
                    unit.ready_us, unit.id, j};
      if (best == pending.size() || key < best_key) {
        best = k;
        best_key = key;
      }
    }
    const auto [start, head_ready, head_id, instance] = best_key;
    const Unit head = pending[best];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
    const auto hs = static_cast<std::size_t>(head_id);
    const auto& head_req = requests[hs];
    auto& head_outcome = report.outcomes[hs];
    const bool fresh = pinned[hs] < 0;

    // Admission control, on a session's first step only.
    const double wait_us =
        start - (fresh ? head_req.arrival_us : head_ready);
    if (fresh &&
        (should_shed_overload(policy, wait_us, head_req.has_deadline(),
                              head.attempt) ||
         (policy.shed_on_deadline && head_req.has_deadline() &&
          start + head_outcome.service_us >
              head_req.arrival_us + head_req.deadline_us))) {
      head_outcome.status = RequestStatus::kShed;
      head_outcome.attempts = head.attempt;
      continue;
    }

    // Fusion: the units that could start on `instance` now, oldest first.
    const auto is = static_cast<std::size_t>(instance);
    std::vector<Unit> behind;
    for (const Unit& unit : pending) {
      const int pin = pinned[static_cast<std::size_t>(unit.id)];
      if ((pin == instance || pin < 0) && unit.ready_us <= start) {
        behind.push_back(unit);
      }
    }
    std::sort(behind.begin(), behind.end(), [](const Unit& a, const Unit& b) {
      return std::tie(a.ready_us, a.id) < std::tie(b.ready_us, b.id);
    });
    const int cap = degraded_max_batch(policy, config.max_batch, wait_us);
    int free_slots =
        std::max(0, config.max_batch - slots[is]) - (fresh ? 1 : 0);
    std::vector<Unit> batch{head};
    for (const Unit& unit : behind) {
      if (static_cast<int>(batch.size()) >= cap) break;
      const bool unpinned = pinned[static_cast<std::size_t>(unit.id)] < 0;
      if (unpinned && free_slots <= 0) continue;
      if (!fuses(unit.id, head_id)) {
        if (continuous) continue;
        break;
      }
      if (unpinned) free_slots -= 1;
      batch.push_back(unit);
      pending.erase(std::find_if(
          pending.begin(), pending.end(),
          [&](const Unit& other) { return other.id == unit.id; }));
    }

    double service_us = 0.0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const auto& outcome = report.outcomes[static_cast<std::size_t>(
          batch[k].id)];
      int wave_latency = outcome.wave_latency_cycles;
      if (continuous) {
        const SessionStep& step = step_of(batch[k].id);
        const ShapeCost& cost = cost_of[step.shape];
        service_us += step.share * cost.service_cycles / freq;
        wave_latency = cost.wave_latency_cycles;
      } else {
        service_us += outcome.service_us;
      }
      if (k != 0) service_us -= std::max(0, wave_latency - 1) * cycle_us;
    }
    service_us = std::max(service_us, cycle_us);
    service_us *= faults.slowdown_at(instance, start);
    const double finish = start + service_us;
    auto& inst = report.instances[is];

    if (const auto failed_at = faults.outage_in(instance, start, finish)) {
      for (const Unit& unit : batch) {
        const auto us = static_cast<std::size_t>(unit.id);
        if (continuous) {
          report.stats.bump(report.stats.counter_id("serve.preempted_steps"));
        }
        if (unit.attempt > policy.max_retries) {
          report.outcomes[us].status = RequestStatus::kFailed;
          report.outcomes[us].attempts = retries[us] + unit.attempt;
          if (pinned[us] >= 0) slots[static_cast<std::size_t>(pinned[us])] -= 1;
        } else {
          const double backoff_us =
              retry_backoff_us(policy, unit.attempt, unit.id, config.seed);
          report.stats.accumulator("serve.backoff_us").add(backoff_us);
          report.stats.bump(report.stats.counter_id("serve.retries"));
          pending.push_back({*failed_at + backoff_us, unit.id,
                             unit.attempt + 1});
        }
      }
      inst.failed_batches += 1;
      inst.busy_us += *failed_at - start;
      free_at[is] = *failed_at;
      ++batch_id;
      continue;
    }

    int completed = 0;
    for (const Unit& unit : batch) {
      const auto us = static_cast<std::size_t>(unit.id);
      auto& outcome = report.outcomes[us];
      if (done[us] == 0) started[us] = start;
      retries[us] += unit.attempt - 1;
      if (pinned[us] < 0) {
        pinned[us] = instance;
        slots[is] += 1;
      }
      done[us] += 1;
      if (done[us] == 1) first_finish[us] = finish;
      if (continuous) {
        report.stats.bump(report.stats.counter_id("serve.steps"));
      }
      if (done[us] < units(unit.id)) {
        pending.push_back({finish, unit.id, 1});
        continue;
      }
      slots[is] -= 1;
      completed += 1;
      outcome.instance = instance;
      outcome.batch_id = batch_id;
      outcome.start_us = started[us];
      outcome.finish_us = finish;
      outcome.first_finish_us = first_finish[us];
      outcome.attempts = retries[us] + 1;
      const auto& req = requests[us];
      if (req.has_deadline() && finish > req.arrival_us + req.deadline_us) {
        outcome.status = RequestStatus::kDeadlineMiss;
      } else {
        outcome.status = outcome.attempts > 1 ? RequestStatus::kRetried
                                              : RequestStatus::kOk;
      }
    }
    inst.requests += completed;
    inst.batches += 1;
    inst.busy_us += service_us;
    report.stats.histogram("serve.batch_size")
        .record(static_cast<double>(batch.size()));
    report.stats.bump(report.stats.counter_id("serve.batches"));
    report.stats.bump(report.stats.counter_id("serve.requests"),
                      static_cast<std::uint64_t>(completed));
    free_at[is] = finish;
    last_finish = std::max(last_finish, finish);
    ++batch_id;
  }

  // Aggregates, as BatchScheduler::run documents them.
  for (std::size_t i = 0; i < n; ++i) {
    auto& outcome = report.outcomes[i];
    if (outcome.served()) {
      if (continuous) {
        report.stats.histogram("serve.ttft_us")
            .record(outcome.first_finish_us - requests[i].arrival_us);
      }
    } else {
      outcome.service_cycles = 0;
      outcome.wave_latency_cycles = 0;
      outcome.service_us = 0.0;
    }
    report.status_counts[static_cast<std::size_t>(outcome.status)] += 1;
  }
  const double first_arrival = requests.front().arrival_us;
  report.makespan_us = std::max(0.0, last_finish - first_arrival);
  for (std::size_t j = 0; j < report.instances.size(); ++j) {
    auto& inst = report.instances[j];
    if (report.makespan_us > 0.0) {
      inst.down_us = faults.downtime_in(static_cast<int>(j), first_arrival,
                                        last_finish);
      inst.availability =
          std::max(0.0, 1.0 - inst.down_us / report.makespan_us);
    }
  }
  return report;
}

/// Requires `got` (the scheduler) to equal `want` (the reference) on
/// every output the dispatch loop decides for `requests`.
void expect_same_dispatch(const std::vector<InferenceRequest>& requests,
                          const ServeReport& got, const ServeReport& want) {
  EXPECT_EQ(outcome_fingerprint(requests, got),
            outcome_fingerprint(requests, want));
  for (const char* name : {"serve.batches", "serve.requests", "serve.retries",
                           "serve.steps", "serve.preempted_steps"}) {
    EXPECT_EQ(got.stats.counter(name), want.stats.counter(name)) << name;
  }
  EXPECT_EQ(got.stats.sample_count("serve.backoff_us"),
            want.stats.sample_count("serve.backoff_us"));
  EXPECT_EQ(got.stats.sum("serve.backoff_us"),
            want.stats.sum("serve.backoff_us"));
  // Every sample, not a summary: the batch-size samples are the only
  // record of each dispatch's size.
  for (const char* name : {"serve.ttft_us", "serve.batch_size"}) {
    const sim::Histogram* g = got.stats.find_histogram(name);
    const sim::Histogram* w = want.stats.find_histogram(name);
    ASSERT_EQ(g == nullptr, w == nullptr) << name;
    if (w == nullptr) continue;
    EXPECT_EQ(g->count(), w->count()) << name;
    EXPECT_EQ(g->sum(), w->sum()) << name;
    EXPECT_EQ(sim::sorted_samples(*g), sim::sorted_samples(*w)) << name;
  }
  ASSERT_EQ(got.instances.size(), want.instances.size());
  for (std::size_t j = 0; j < want.instances.size(); ++j) {
    const auto& g = got.instances[j];
    const auto& w = want.instances[j];
    EXPECT_EQ(g.requests, w.requests) << "instance " << j;
    EXPECT_EQ(g.batches, w.batches) << "instance " << j;
    EXPECT_EQ(g.busy_us, w.busy_us) << "instance " << j;
    EXPECT_EQ(g.failed_batches, w.failed_batches) << "instance " << j;
    EXPECT_EQ(g.down_us, w.down_us) << "instance " << j;
    EXPECT_EQ(g.availability, w.availability) << "instance " << j;
  }
  EXPECT_EQ(got.status_counts, want.status_counts);
  EXPECT_EQ(got.makespan_us, want.makespan_us);
}

ServeConfig small_pool() {
  ServeConfig config;
  config.nova = core::make_overlay(hw::AcceleratorKind::kTpuV4).nova;
  // Keep the cycle-accurate pricing slice small so the suite stays fast.
  config.sim_elements_cap = 512;
  return config;
}

/// One seeded small stream and deployment: mixed functions, breakpoints
/// and phases on a coarse arrival grid (so arrivals and retries tie),
/// generations of 0-8 steps, and drawn deadlines, overload shedding,
/// retry budgets and fault plans.
struct Scenario {
  ServeConfig config;
  std::vector<InferenceRequest> requests;
};

/// The pool shapes a scenario draws from: an instance count in
/// [min_instances, max_instances] and a slot cap (max_batch) in
/// [1, max_slots]. The defaults are the small pools of the first 600
/// streams.
struct PoolRange {
  int min_instances = 1;
  int max_instances = 4;
  int max_slots = 6;
};

Scenario draw_scenario(std::uint64_t seed, bool continuous,
                       const PoolRange& pool) {
  Rng rng(seed);
  Scenario s;
  s.config = small_pool();
  s.config.continuous = continuous;
  s.config.seed = seed;
  s.config.instances =
      pool.min_instances +
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
          pool.max_instances - pool.min_instances + 1)));
  s.config.max_batch = 1 + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(pool.max_slots)));
  s.config.threads = 1 + static_cast<int>(rng.next_below(4));
  s.config.chunk_tokens = 8 + static_cast<int>(rng.next_below(121));
  s.config.policy.max_retries = static_cast<int>(rng.next_below(4));
  if (rng.next_below(2) == 0) {
    s.config.policy.overload_queue_us = rng.uniform(2.0, 100.0);
  }
  if (rng.next_below(3) != 0) {
    FaultProfile profile;
    profile.mtbf_us = rng.uniform(20.0, 400.0);
    profile.mttr_us = rng.uniform(2.0, 80.0);
    if (rng.next_below(3) == 0) profile.slowdown_fraction = 0.3;
    s.config.faults = draw_fault_plan(profile, s.config.instances, 20000.0,
                                      rng.next_u64());
  }
  const bool deadlines = rng.next_below(2) == 0;
  s.config.policy.shed_on_deadline = rng.next_below(3) != 0;
  const double grid_us = 1.0 + static_cast<double>(rng.next_below(20));
  const int n = 1 + static_cast<int>(rng.next_below(48));
  const approx::NonLinearFn functions[] = {
      approx::NonLinearFn::kGelu, approx::NonLinearFn::kExp,
      approx::NonLinearFn::kTanh, approx::NonLinearFn::kSigmoid};
  // Few (function, breakpoints) tables per stream, so batches both fuse
  // and break.
  const auto kinds = 1 + rng.next_below(4);
  const bool mixed_breakpoints = rng.next_below(2) == 0;
  double clock = 0.0;
  for (int i = 0; i < n; ++i) {
    clock += grid_us * static_cast<double>(rng.next_below(3));  // 0 = tie
    InferenceRequest req;
    req.id = i;
    req.arrival_us = clock;
    req.function = functions[rng.next_below(kinds)];
    req.breakpoints = mixed_breakpoints && rng.next_below(2) == 0 ? 8 : 16;
    req.gen_steps = static_cast<int>(rng.next_below(9));
    if (rng.next_below(2) == 0) {
      req.seq_len = 8 + static_cast<int>(rng.next_below(200));
    } else {
      req.phase = pipeline::Phase::kDecode;
      req.seq_len = 1;
      req.kv_len = 1 + static_cast<int>(rng.next_below(400));
    }
    if (deadlines && rng.next_below(3) != 0) {
      req.deadline_us = rng.uniform(5.0, 400.0);
    }
    s.requests.push_back(req);
  }
  return s;
}

/// Requires every outcome's chunk count plus its request's decode steps to
/// be the session's plan length, which dispatch ends a continuous session
/// on, and the batch-size samples to fit the store dispatch reserved for
/// them: one per request in whole mode, one per session step in continuous
/// mode (a successful dispatch completes at least one unit, a killed one
/// records nothing).
void expect_samples_within_steps(const ServeConfig& config,
                                 const std::vector<InferenceRequest>& requests,
                                 const ServeReport& report) {
  std::uint64_t total_steps = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const int steps =
        build_session_plan(requests[i], config.continuous, config.chunk_tokens)
            .total_steps();
    EXPECT_EQ(report.outcomes[i].prefill_chunks + decode_steps(requests[i]),
              steps)
        << "request " << i;
    total_steps += static_cast<std::uint64_t>(steps);
  }
  const sim::Histogram* batches =
      report.stats.find_histogram("serve.batch_size");
  ASSERT_NE(batches, nullptr);
  EXPECT_LE(batches->count(),
            config.continuous ? total_steps : requests.size());
}

/// What the streams exercised, so the suite can check it reached every
/// mechanism it claims to compare.
struct Coverage {
  /// Members of successful dispatches of two or more: the sessions such a
  /// batch finished in whole mode, the steps it ran in continuous mode.
  int fused = 0;
  int shed = 0;
  int failed = 0;
  int retried = 0;
  int late = 0;       ///< deadline misses
  int preempted = 0;  ///< preempted steps (continuous only)
};

void run_mode(bool continuous, std::uint64_t first_seed,
              const PoolRange& pool = {}) {
  Coverage seen;
  for (std::uint64_t seed = first_seed; seed < first_seed + 300; ++seed) {
    const Scenario s = draw_scenario(seed, continuous, pool);
    const ServeReport got = BatchScheduler(s.config).run(s.requests);
    const ServeReport want = reference_run(s.config, s.requests);
    expect_same_dispatch(s.requests, got, want);
    expect_samples_within_steps(s.config, s.requests, got);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    for (const double size :
         sim::sorted_samples(*want.stats.find_histogram("serve.batch_size"))) {
      if (size > 1.0) seen.fused += static_cast<int>(size);
    }
    seen.shed += static_cast<int>(want.status_count(RequestStatus::kShed));
    seen.failed +=
        static_cast<int>(want.status_count(RequestStatus::kFailed));
    seen.retried +=
        static_cast<int>(want.status_count(RequestStatus::kRetried));
    seen.late +=
        static_cast<int>(want.status_count(RequestStatus::kDeadlineMiss));
    seen.preempted +=
        static_cast<int>(want.stats.counter("serve.preempted_steps"));
  }
  EXPECT_GT(seen.fused, 300);
  EXPECT_GT(seen.shed, 100);
  EXPECT_GT(seen.failed, 30);
  EXPECT_GT(seen.retried, 30);
  EXPECT_GT(seen.late, 30);
  if (continuous) {
    EXPECT_GT(seen.preempted, 100);
  }
}

TEST(DispatchReference, WholeModeMatchesOnRandomStreams) {
  run_mode(/*continuous=*/false, 1);
}

TEST(DispatchReference, ContinuousModeMatchesOnRandomStreams) {
  run_mode(/*continuous=*/true, 1001);
}

TEST(DispatchReference, ContinuousModeMatchesOnWidePools) {
  // 5-70 instances, so the scheduler's tournament trees carry padding
  // leaves and several levels, and slot caps up to 64, so long pinned
  // queues are compacted around the members a dispatch skips.
  run_mode(/*continuous=*/true, 2001,
           PoolRange{/*min_instances=*/5, /*max_instances=*/70,
                     /*max_slots=*/64});
}

TEST(ContinuousDispatch, FailedPinnedSessionEndsUnservedAndFreesItsSlot) {
  // One instance with one session slot. Session 0 (a prefill chunk and a
  // decode step) completes its first step and pins there, holding the slot
  // while session 1 waits for it. An outage opening during session 0's
  // decode step exhausts its retry budget of zero.
  ServeConfig config = small_pool();
  config.continuous = true;
  config.max_batch = 1;
  config.policy.max_retries = 0;
  std::vector<InferenceRequest> requests(2);
  for (int i = 0; i < 2; ++i) {
    requests[static_cast<std::size_t>(i)].id = i;
    requests[static_cast<std::size_t>(i)].gen_steps = 1;
  }
  const ServeReport clean = BatchScheduler(config).run(requests);
  const double step0_end = clean.outcomes[0].first_finish_us;
  const double step1_end = clean.outcomes[0].finish_us;
  ASSERT_LT(step0_end, step1_end);
  ASSERT_GE(clean.outcomes[1].start_us, step1_end);

  const double outage_end = step1_end + 100.0;
  config.faults = FaultPlan::make({{FaultWindow{
      FaultKind::kOutage, (step0_end + step1_end) / 2.0, outage_end}}});
  const ServeReport report = BatchScheduler(config).run(requests);
  const RequestOutcome& failed = report.outcomes[0];
  EXPECT_EQ(failed.status, RequestStatus::kFailed);
  EXPECT_EQ(failed.attempts, 1);
  EXPECT_EQ(failed.instance, -1);
  EXPECT_EQ(failed.batch_id, -1);
  EXPECT_EQ(failed.service_cycles, 0);
  EXPECT_EQ(failed.service_us, 0.0);
  EXPECT_EQ(failed.start_us, 0.0);
  EXPECT_EQ(failed.first_finish_us, 0.0);
  EXPECT_EQ(failed.finish_us, 0.0);
  // The failure freed the slot: session 1 starts on the same instance the
  // moment the outage ends.
  const RequestOutcome& waiting = report.outcomes[1];
  EXPECT_EQ(waiting.status, RequestStatus::kOk);
  EXPECT_EQ(waiting.instance, 0);
  EXPECT_EQ(waiting.start_us, outage_end);
  EXPECT_EQ(report.stats.counter("serve.preempted_steps"), 1u);
  expect_same_dispatch(requests, report, reference_run(config, requests));
}

TEST(ContinuousDispatch, BatchSamplesNeverExceedTheSessionSteps) {
  // Dispatch reserves the batch-size store at the stream's total session
  // steps, once, so the bound must hold however a run goes: served plain,
  // preempted by faults, or thinned by shedding. With one session slot and
  // no faults every step is its own dispatch, and the bound is met exactly.
  TrafficProfile profile;
  profile.rate_rps = 2e6;
  profile.max_steps = 8;
  profile.deadline_us = 16000.0;
  auto requests = generate_poisson(240, profile, 23);
  for (auto& req : requests) {
    if (req.id % 2 == 1) req.deadline_us = 0.0;  // best-effort half
  }
  ServeConfig config = small_pool();
  config.continuous = true;
  config.instances = 2;
  config.max_batch = 4;
  config.chunk_tokens = 48;
  config.pricing = PricingMode::kSurrogate;
  config.policy.shed_on_deadline = false;

  const ServeReport plain = BatchScheduler(config).run(requests);
  expect_samples_within_steps(config, requests, plain);

  ServeConfig faulted = config;
  FaultProfile fault_profile;
  fault_profile.mtbf_us = 2000.0;
  fault_profile.mttr_us = 200.0;
  faulted.faults = draw_fault_plan(fault_profile, faulted.instances,
                                   60000.0, 23);
  const ServeReport preempted = BatchScheduler(faulted).run(requests);
  EXPECT_GT(preempted.stats.counter("serve.preempted_steps"), 0u);
  expect_samples_within_steps(faulted, requests, preempted);

  ServeConfig shedding = config;
  shedding.policy.shed_on_deadline = true;
  shedding.policy.overload_queue_us = 4000.0;
  const ServeReport thinned = BatchScheduler(shedding).run(requests);
  EXPECT_GT(thinned.status_count(RequestStatus::kShed), 0u);
  expect_samples_within_steps(shedding, requests, thinned);

  ServeConfig one_slot = config;
  one_slot.max_batch = 1;
  const ServeReport single = BatchScheduler(one_slot).run(requests);
  expect_samples_within_steps(one_slot, requests, single);
  std::uint64_t total_steps = 0;
  for (const auto& req : requests) {
    total_steps += static_cast<std::uint64_t>(
        session_layout(req, /*continuous=*/true, config.chunk_tokens)
            .total_steps());
  }
  EXPECT_EQ(single.status_count(RequestStatus::kShed) +
                single.status_count(RequestStatus::kFailed),
            0u);
  EXPECT_EQ(single.stats.find_histogram("serve.batch_size")->count(),
            total_steps);
}

}  // namespace
}  // namespace nova::serve
