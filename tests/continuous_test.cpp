// Tests for continuous batching: the session-plan builder (prefill
// chunking, kv-growing decode chains) and the step-clocked dispatch loop
// (determinism across threads and pricing modes, whole-dispatch
// equivalence on single-step streams, TTFT, and step-granular preemption
// resume under fault windows), plus golden fingerprint pins of both
// dispatch loops (continuous and whole-request) on overloaded mixed streams
// with and without faults and shedding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/overlay.hpp"
#include "histogram_samples.hpp"
#include "serve/faults.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"

namespace nova::serve {
namespace {

ServeConfig small_pool(int instances, int threads) {
  ServeConfig config;
  config.nova = core::make_overlay(hw::AcceleratorKind::kTpuV4).nova;
  config.instances = instances;
  config.threads = threads;
  config.seed = 7;
  // Keep the cycle-accurate pricing slice small so the suite stays fast.
  config.sim_elements_cap = 512;
  return config;
}

InferenceRequest prefill_request(int id, double arrival, int seq_len,
                                 int gen_steps) {
  InferenceRequest req;
  req.id = id;
  req.arrival_us = arrival;
  req.seq_len = seq_len;
  req.gen_steps = gen_steps;
  return req;
}

/// Bitwise comparison of two reports of `requests`: per-request outcomes,
/// their fingerprints (which print each session's step count,
/// prefill_chunks + decode_steps of its request), every dispatch's batch
/// size, and the scalar aggregates (EXPECT_DOUBLE_EQ is exact equality,
/// not a tolerance).
void expect_identical_outcomes(const std::vector<InferenceRequest>& requests,
                               const ServeReport& a, const ServeReport& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(outcome_fingerprint(requests, a),
            outcome_fingerprint(requests, b));
  const sim::Histogram* a_sizes = a.stats.find_histogram("serve.batch_size");
  const sim::Histogram* b_sizes = b.stats.find_histogram("serve.batch_size");
  ASSERT_NE(a_sizes, nullptr);
  ASSERT_NE(b_sizes, nullptr);
  EXPECT_EQ(sim::sorted_samples(*a_sizes), sim::sorted_samples(*b_sizes));
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    EXPECT_EQ(x.status, y.status) << "request " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "request " << i;
    EXPECT_EQ(x.instance, y.instance) << "request " << i;
    EXPECT_EQ(x.batch_id, y.batch_id) << "request " << i;
    EXPECT_EQ(x.service_cycles, y.service_cycles) << "request " << i;
    EXPECT_EQ(x.prefill_chunks, y.prefill_chunks) << "request " << i;
    EXPECT_DOUBLE_EQ(x.service_us, y.service_us) << "request " << i;
    EXPECT_DOUBLE_EQ(x.start_us, y.start_us) << "request " << i;
    EXPECT_DOUBLE_EQ(x.finish_us, y.finish_us) << "request " << i;
    EXPECT_DOUBLE_EQ(x.first_finish_us, y.first_finish_us)
        << "request " << i;
  }
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.goodput_rps, b.goodput_rps);
}

TEST(SessionPlan, WholeModePrefillIsOneFullShareChunk) {
  const auto req = prefill_request(0, 0.0, 128, 0);
  const auto plan = build_session_plan(req, /*continuous=*/false,
                                       /*chunk_tokens=*/64);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.prefill_chunks, 1);
  EXPECT_EQ(plan.decode_steps, 0);
  // share is seq_len/seq_len: exactly 1.0, so unchunked plans price
  // bit-identically to the pre-session scheduler.
  EXPECT_EQ(plan.steps[0].share, 1.0);
  EXPECT_EQ(plan.steps[0].shape.seq_len, 128);
  EXPECT_EQ(plan.steps[0].phase(), pipeline::Phase::kPrefill);
}

TEST(SessionPlan, ChunksCoverThePromptProportionally) {
  // 100 prompt tokens in 64-token chunks: 64 + 36, shares 0.64 and 0.36.
  const auto req = prefill_request(0, 0.0, 100, 0);
  const auto plan = build_session_plan(req, /*continuous=*/true,
                                       /*chunk_tokens=*/64);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.prefill_chunks, 2);
  EXPECT_DOUBLE_EQ(plan.steps[0].share, 64.0 / 100.0);
  EXPECT_DOUBLE_EQ(plan.steps[1].share, 36.0 / 100.0);
  double total = 0.0;
  for (const auto& step : plan.steps) {
    // Every chunk carries the FULL prefill shape (one priced cost, scaled
    // by share), not a shorter sequence.
    EXPECT_EQ(step.shape.seq_len, 100);
    EXPECT_EQ(step.phase(), pipeline::Phase::kPrefill);
    total += step.share;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(SessionPlan, PrefillSessionChainsDecodeStepsFromTheScheduledPrompt) {
  const auto req = prefill_request(0, 0.0, 128, 3);
  const auto plan = build_session_plan(req, /*continuous=*/true,
                                       /*chunk_tokens=*/64);
  ASSERT_EQ(plan.steps.size(), 5u);  // 2 chunks + 3 decode steps
  EXPECT_EQ(plan.prefill_chunks, 2);
  EXPECT_EQ(plan.decode_steps, 3);
  for (int s = 0; s < 3; ++s) {
    const auto& step = plan.steps[static_cast<std::size_t>(2 + s)];
    EXPECT_EQ(step.phase(), pipeline::Phase::kDecode);
    EXPECT_EQ(step.shape.seq_len, 1);
    // The KV cache starts at the prefilled prompt and grows per token.
    EXPECT_EQ(step.shape.kv_len, 128 + s);
    EXPECT_EQ(step.share, 1.0);
  }
}

TEST(SessionPlan, DecodeSessionGrowsItsKvCache) {
  InferenceRequest req;
  req.id = 0;
  req.phase = pipeline::Phase::kDecode;
  req.seq_len = 1;
  req.kv_len = 512;
  req.gen_steps = 2;  // two MORE tokens after the request's own step
  const auto plan = build_session_plan(req, /*continuous=*/true,
                                       /*chunk_tokens=*/64);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.prefill_chunks, 0);
  EXPECT_EQ(plan.decode_steps, 3);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(plan.steps[static_cast<std::size_t>(s)].shape.kv_len, 512 + s);
  }
}

TEST(SessionPlan, PromptsNearIntMaxPlanWithoutOverflow) {
  // Lengths at the top of the int range: the largest prompt whose decode
  // chain still fits. Whole mode's one chunk used to be counted as
  // (seq_len + seq_len - 1) / seq_len, which overflows past 2^30 and left
  // the plan without its prefill.
  const int max = std::numeric_limits<int>::max();
  const auto req = prefill_request(0, 0.0, max, 1);
  ASSERT_TRUE(kv_chain_fits(req));
  const auto whole = build_session_plan(req, /*continuous=*/false,
                                        /*chunk_tokens=*/64);
  ASSERT_EQ(whole.steps.size(), 2u);
  EXPECT_EQ(whole.prefill_chunks, 1);
  EXPECT_EQ(whole.steps[0].share, 1.0);
  EXPECT_EQ(whole.steps[1].shape.kv_len, max);
  // Continuous chunks tile the prompt up to its last token.
  const auto chunked = build_session_plan(req, /*continuous=*/true,
                                          /*chunk_tokens=*/max / 2 + 1);
  ASSERT_EQ(chunked.prefill_chunks, 2);
  EXPECT_DOUBLE_EQ(chunked.steps[0].share + chunked.steps[1].share, 1.0);

  // One more generated token would need kv_len INT_MAX + 1.
  EXPECT_FALSE(kv_chain_fits(prefill_request(0, 0.0, max, 2)));
  InferenceRequest decode;
  decode.phase = pipeline::Phase::kDecode;
  decode.seq_len = 1;
  decode.kv_len = max - 1;
  decode.gen_steps = 1;
  EXPECT_TRUE(kv_chain_fits(decode));
  decode.gen_steps = 2;
  EXPECT_FALSE(kv_chain_fits(decode));
}

TEST(ContinuousScheduler, ChunkingPreservesTheSessionPrice) {
  // A chunked prefill sums its per-chunk shares back to the whole-graph
  // price: splitting the prompt must not change what the session costs.
  std::vector<InferenceRequest> requests(1);
  requests[0] = prefill_request(0, 0.0, 128, 2);

  auto whole = small_pool(1, 1);
  auto chunked = small_pool(1, 1);
  chunked.continuous = true;
  chunked.chunk_tokens = 32;
  const auto a = BatchScheduler(whole).run(requests);
  const auto b = BatchScheduler(chunked).run(requests);

  // A session's steps are its prefill chunks plus its decode steps.
  const int decode = decode_steps(requests[0]);
  EXPECT_EQ(a.outcomes[0].prefill_chunks + decode, 3);  // 1 chunk + 2 decode
  EXPECT_EQ(b.outcomes[0].prefill_chunks + decode, 6);  // 4 chunks + 2 decode
  EXPECT_EQ(b.outcomes[0].prefill_chunks, 4);
  EXPECT_NEAR(b.outcomes[0].service_us, a.outcomes[0].service_us,
              1e-9 * a.outcomes[0].service_us);
  EXPECT_EQ(b.stats.counter("serve.steps"), 6u);
}

TEST(ContinuousScheduler, SingleStepStreamMatchesWholeDispatch) {
  // On a uniform single-step stream (one phase, one PWL table, no
  // generation chains) iteration-level scheduling degenerates to the
  // whole-request loop: no session ever holds a slot across dispatches and
  // the fusion scan skips nothing, so the two reports are bit-identical.
  TrafficProfile profile;
  profile.rate_rps = 1e6;
  profile.decode_fraction = 1.0;
  profile.functions = {approx::NonLinearFn::kGelu};
  const auto requests = generate_poisson(96, profile, 11);

  auto whole = small_pool(2, 2);
  auto continuous = whole;
  continuous.continuous = true;
  const auto a = BatchScheduler(whole).run(requests);
  const auto b = BatchScheduler(continuous).run(requests);
  expect_identical_outcomes(requests, a, b);
}

TEST(ContinuousScheduler, DeterministicAcrossThreadsAndPricingModes) {
  // The standing serve invariant extends to sessions: byte-identical
  // reports for any worker-thread count, in every pricing mode.
  TrafficProfile profile;
  profile.rate_rps = 1e6;
  profile.max_steps = 4;
  const auto requests = generate_poisson(96, profile, 11);

  for (const auto pricing : {PricingMode::kExact, PricingMode::kSurrogate,
                             PricingMode::kHybrid}) {
    auto config = small_pool(3, 1);
    config.continuous = true;
    config.chunk_tokens = 48;
    config.pricing = pricing;
    const auto one = BatchScheduler(config).run(requests);
    config.threads = 4;
    const auto four = BatchScheduler(config).run(requests);
    config.threads = 8;
    const auto eight = BatchScheduler(config).run(requests);
    expect_identical_outcomes(requests, one, four);
    expect_identical_outcomes(requests, one, eight);
    EXPECT_EQ(one.stats.counter("serve.steps"),
              eight.stats.counter("serve.steps"));
  }
}

TEST(ContinuousScheduler, FirstTokenLandsBeforeTheSessionFinishes) {
  // TTFT is the point of chunked prefill: the first step of a multi-step
  // session completes well before the generation chain does, while a
  // whole-request dispatch holds its result until the single dispatch
  // finishes.
  std::vector<InferenceRequest> requests(1);
  requests[0] = prefill_request(0, 0.0, 256, 8);

  auto config = small_pool(1, 1);
  config.continuous = true;
  const auto report = BatchScheduler(config).run(requests);
  const auto& outcome = report.outcomes[0];
  EXPECT_GT(outcome.first_finish_us, 0.0);
  EXPECT_LT(outcome.first_finish_us, outcome.finish_us);

  const auto whole = BatchScheduler(small_pool(1, 1)).run(requests);
  EXPECT_DOUBLE_EQ(whole.outcomes[0].first_finish_us,
                   whole.outcomes[0].finish_us);
}

TEST(ContinuousScheduler, ShortRequestOvertakesALongSessionInFlight) {
  // Iteration-level scheduling interleaves: a short request arriving just
  // after a long session starts slots in between the session's steps and
  // finishes before it, instead of waiting out the whole generation.
  std::vector<InferenceRequest> requests(2);
  requests[0] = prefill_request(0, 0.0, 512, 16);
  requests[1] = prefill_request(1, 1.0, 64, 0);

  auto config = small_pool(1, 1);
  config.continuous = true;
  const auto report = BatchScheduler(config).run(requests);
  EXPECT_LT(report.outcomes[1].finish_us, report.outcomes[0].finish_us);

  const auto whole = BatchScheduler(small_pool(1, 1)).run(requests);
  EXPECT_GT(whole.outcomes[1].finish_us, whole.outcomes[0].finish_us);
}

TEST(ContinuousScheduler, PreemptedSessionResumesInsteadOfRestarting) {
  // An outage that kills a step mid-session must cost only that step: the
  // session keeps its completed work (the KV cache survives on the pinned
  // instance) and retries the killed step after the window, not the whole
  // session from scratch.
  std::vector<InferenceRequest> requests(1);
  requests[0] = prefill_request(0, 0.0, 256, 8);

  auto config = small_pool(1, 1);
  config.continuous = true;
  // A near-zero deterministic backoff keeps the retry delay out of the
  // resumed-tail measurement below, which compares work re-run, not waits.
  config.policy.backoff_base_us = 1.0;
  config.policy.backoff_cap_us = 1.0;
  config.policy.backoff_jitter = 0.0;
  const auto clean = BatchScheduler(config).run(requests);
  const double clean_finish = clean.outcomes[0].finish_us;
  const double service = clean.outcomes[0].service_us;
  ASSERT_GT(clean_finish, 0.0);

  // Drop an outage over the last quarter of the clean schedule: most of
  // the session has completed by then, so a restart-from-scratch engine
  // would re-run nearly everything after the window.
  FaultWindow window;
  window.start_us = 0.75 * clean_finish;
  window.end_us = 0.80 * clean_finish;
  auto faulted = config;
  faulted.faults = FaultPlan::make({{window}});
  const auto report = BatchScheduler(faulted).run(requests);
  const auto& outcome = report.outcomes[0];

  EXPECT_EQ(outcome.status, RequestStatus::kRetried);
  EXPECT_GE(outcome.attempts, 2);
  EXPECT_GE(report.stats.counter("serve.preempted_steps"), 1u);
  // The session waited out the window...
  EXPECT_GE(outcome.finish_us, window.end_us);
  // ...and then needed only the work still pending at the preemption plus
  // the retry backoff -- far less than re-running the full session, which
  // would land past end + service.
  const double resumed_tail = outcome.finish_us - window.end_us;
  EXPECT_LT(resumed_tail, 0.5 * service);
  // Completed steps kept their prices: the outcome's standalone service
  // cost is a plan property and must not change under retries.
  EXPECT_DOUBLE_EQ(outcome.service_us, service);
}

/// 64-bit FNV-1a over the bytes of serve::outcome_fingerprint.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Arrival rate of the shared golden stream below: far more than two
/// instances can serve.
constexpr double kOverloadRps = 2e6;

/// One golden-pin configuration: fault plan, admission policy and arrival
/// rate of the shared mixed stream below.
struct GoldenCase {
  const char* name;
  bool faults;
  bool shedding;
  std::uint64_t pinned;
  double rate_rps = kOverloadRps;
};

void PrintTo(const GoldenCase& golden, std::ostream* os) { *os << golden.name; }

std::string golden_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return info.param.name;
}

/// Serves the golden stream under `golden`'s faults and policy, in
/// continuous or whole-request mode, checks the case still reaches the
/// mechanism it is named for, and returns the outcome fingerprint's hash.
/// The stream mixes all four functions and both phases. At the default
/// rate it arrives far faster than two instances can serve, so a long
/// ready backlog waits on every dispatch.
std::uint64_t golden_hash(const GoldenCase& golden, bool continuous) {
  TrafficProfile profile;
  profile.rate_rps = golden.rate_rps;
  profile.max_steps = 8;
  if (golden.shedding) profile.deadline_us = 16000.0;
  auto requests = generate_poisson(480, profile, 23);
  // Half the stream is best-effort, so both the deadline and the overload
  // halves of the shedding policy have work to drop.
  if (golden.shedding) {
    for (auto& req : requests) {
      if (req.id % 2 == 1) req.deadline_us = 0.0;
    }
  }

  auto config = small_pool(2, 2);
  config.continuous = continuous;
  config.max_batch = 4;
  config.chunk_tokens = 48;
  config.pricing = PricingMode::kSurrogate;
  if (golden.shedding) config.policy.overload_queue_us = 4000.0;
  if (golden.faults) {
    FaultProfile fault_profile;
    fault_profile.mtbf_us = 2000.0;
    fault_profile.mttr_us = 200.0;
    config.faults =
        draw_fault_plan(fault_profile, config.instances, 60000.0, 23);
  }
  const auto report = BatchScheduler(config).run(requests);

  if (golden.shedding) {
    EXPECT_GT(report.status_count(RequestStatus::kShed), 0u);
  }
  if (golden.faults) {
    // Continuous mode preempts the in-flight step; whole-request dispatch
    // re-queues the whole request.
    EXPECT_GT(report.stats.counter(continuous ? "serve.preempted_steps"
                                              : "serve.retries"),
              0u);
  }
  if (golden.faults && golden.rate_rps < kOverloadRps) {
    // Paced: some retried request is served while later requests are still
    // arriving, so its retry re-entered the ready queue ahead of them.
    const double last_arrival = requests.back().arrival_us;
    EXPECT_TRUE(std::any_of(
        report.outcomes.begin(), report.outcomes.end(),
        [&](const RequestOutcome& outcome) {
          return outcome.attempts >= 2 && outcome.start_us < last_arrival;
        }));
  }
  return fnv1a(outcome_fingerprint(requests, report));
}

class ContinuousGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ContinuousGolden, OverloadedMixedStreamMatchesPinnedFingerprint) {
  // The continuous dispatch loop's decisions, pinned. Two instances with
  // four session slots each saturate while a backlog of not-yet-started
  // sessions waits, so almost every fusion scan runs with no slot free and
  // a long new-session queue. Any change to which steps fuse, where they
  // run, or when changes the hash; a change meant only to make the loop
  // faster must leave every pin as is.
  const GoldenCase& golden = GetParam();
  const std::uint64_t hash = golden_hash(golden, /*continuous=*/true);
  EXPECT_EQ(hash, golden.pinned) << "fingerprint hash 0x" << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, ContinuousGolden,
    ::testing::Values(
        GoldenCase{"plain", false, false, 0x7e58a57b05d74262ULL},
        GoldenCase{"shedding", false, true, 0xb883a431e4913c85ULL},
        GoldenCase{"faults", true, false, 0x4809586da6243097ULL},
        GoldenCase{"faultsShedding", true, true, 0x0577068cbbbc909fULL}),
    golden_name);

class WholeGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(WholeGolden, OverloadedMixedStreamMatchesPinnedFingerprint) {
  // The same matrix through whole-request dispatch: each request's session
  // plan (prefill + decode chain) is one dispatch, fused FIFO runs stop at
  // the first mismatch, and under faults killed batches re-enter the ready
  // queue by (ready time, id). The overloaded stream arrives within about
  // 240 us, so every retry lands behind the last arrival; faultsPaced
  // arrives over about 47 ms, at a pace the pool keeps up with, so retries
  // merge among later arrivals. The first four hashes were captured with
  // the std::set<Pending> ready queue the loop used before its arrival
  // cursor.
  const GoldenCase& golden = GetParam();
  const std::uint64_t hash = golden_hash(golden, /*continuous=*/false);
  EXPECT_EQ(hash, golden.pinned) << "fingerprint hash 0x" << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, WholeGolden,
    ::testing::Values(
        GoldenCase{"plain", false, false, 0xeb974e7a95548316ULL},
        GoldenCase{"shedding", false, true, 0xab085a10890ef734ULL},
        GoldenCase{"faults", true, false, 0x3f24e50b58fc12d7ULL},
        GoldenCase{"faultsShedding", true, true, 0x70277043d4790036ULL},
        GoldenCase{"faultsPaced", true, false, 0x044dae43e84b0abaULL, 1e4}),
    golden_name);

TEST(ContinuousSchedulerDeathTest, RejectsNegativeGenSteps) {
  std::vector<InferenceRequest> requests(1);
  requests[0].id = 0;
  requests[0].gen_steps = -1;
  const BatchScheduler scheduler(small_pool(1, 1));
  EXPECT_DEATH((void)scheduler.run(requests), "gen_steps");
}

}  // namespace
}  // namespace nova::serve
