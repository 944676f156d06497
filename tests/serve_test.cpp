// Tests for the serving layer: request generation, trace parsing, the
// BatchScheduler's determinism / queueing / batching behaviour, and the
// exact pricer's calibration memo.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "accel/accelerator.hpp"
#include "approx/mlp_fitter.hpp"
#include "core/overlay.hpp"
#include "serve/ready_queue.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/surrogate.hpp"
#include "workload/bert.hpp"

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

/// The size of the batch that finished each outcome of a whole-request
/// run, where every member of a successful dispatch finishes in it: the
/// number of outcomes sharing its batch_id (0 for an unserved outcome).
std::vector<int> whole_batch_sizes(const ServeReport& report) {
  std::map<int, int> members;
  for (const auto& outcome : report.outcomes) {
    if (outcome.served()) ++members[outcome.batch_id];
  }
  std::vector<int> sizes;
  for (const auto& outcome : report.outcomes) {
    sizes.push_back(outcome.served() ? members[outcome.batch_id] : 0);
  }
  return sizes;
}

TEST(RequestGenerator, PoissonIsDeterministicAndSorted) {
  TrafficProfile profile;
  const auto a = generate_poisson(64, profile, 123);
  const auto b = generate_poisson(64, profile, 123);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].function, b[i].function);
    EXPECT_EQ(a[i].seq_len, b[i].seq_len);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
    }
  }
  const auto c = generate_poisson(64, profile, 124);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival_us != c[i].arrival_us) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RequestGenerator, RespectsRate) {
  TrafficProfile profile;
  profile.rate_rps = 1e6;  // 1 us mean gap
  const auto requests = generate_poisson(2000, profile, 9);
  const double span_us = requests.back().arrival_us;
  const double mean_gap = span_us / 2000.0;
  EXPECT_GT(mean_gap, 0.8);
  EXPECT_LT(mean_gap, 1.25);
}

TEST(Trace, ParsesSortsAndRenumbers) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "20.5, bert-mini, exp, 64, 16\n"
      "3.0, bert-tiny, gelu, 128, 16\n");
  std::vector<InferenceRequest> requests;
  std::string error;
  ASSERT_TRUE(parse_trace(in, requests, error)) << error;
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].id, 0);
  EXPECT_DOUBLE_EQ(requests[0].arrival_us, 3.0);
  EXPECT_EQ(requests[0].workload.name(), "bert-tiny");
  EXPECT_EQ(requests[0].function, approx::NonLinearFn::kGelu);
  EXPECT_EQ(requests[1].id, 1);
  EXPECT_EQ(requests[1].seq_len, 64);
}

TEST(Trace, RejectsMalformedLines) {
  std::vector<InferenceRequest> requests;
  std::string error;
  {
    std::istringstream in("1.0, bert-tiny, gelu\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
  }
  {
    std::istringstream in("1.0, no-such-model, gelu, 64, 16\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("unknown workload"), std::string::npos);
  }
  {
    std::istringstream in("1.0, bert-tiny, no-such-fn, 64, 16\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("unknown function"), std::string::npos);
  }
  {
    std::istringstream in("-1.0, bert-tiny, gelu, 64, 16\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
  }
  {
    // A sixth column is the phase; anything that isn't prefill/decode must
    // reject, not be swallowed into the breakpoints field.
    std::istringstream in("1.0, bert-tiny, gelu, 64, 16, 99\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("unknown phase"), std::string::npos);
  }
  {
    // An eighth column is the deadline, a ninth the generation steps; a
    // tenth is malformed outright.
    std::istringstream in(
        "1.0, bert-tiny, gelu, 64, 16, decode, 256, 9, 1, 7\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("expected"), std::string::npos);
  }
  {
    // A negative or non-finite deadline cannot be compared against a
    // projected finish.
    std::istringstream in("1.0, bert-tiny, gelu, 64, 16, prefill, 0, -5\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("deadline_us"), std::string::npos);
  }
  {
    std::istringstream in("1.0, bert-tiny, gelu, 64, 16, prefill, 0, inf\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("deadline_us"), std::string::npos);
  }
  {
    std::istringstream in("1.0, bert-tiny, gelu, 64, 16, prefill, 0, 1x\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("malformed number"), std::string::npos);
  }
  {
    std::istringstream in("1.0, bert-tiny, gelu, 64x, 16\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
  }
  {
    // NaN/inf would poison the arrival sort and the latency statistics.
    std::istringstream in("nan, bert-tiny, gelu, 64, 16\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
  }
  {
    std::istringstream in("inf, bert-tiny, gelu, 64, 16\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
  }
  // breakpoints is bounded like --breakpoints: a table of billions of
  // segments would be trained before anything is served.
  for (const char* breakpoints : {"4097", "2000000000", "1"}) {
    std::istringstream in("1.0, bert-tiny, gelu, 64, 16\n"
                          "2.0, bert-tiny, gelu, 64, " +
                          std::string(breakpoints) + "\n");
    EXPECT_FALSE(parse_trace(in, requests, error)) << breakpoints;
    EXPECT_NE(error.find("line 2: breakpoints must be in [2, 4096]"),
              std::string::npos)
        << error;
  }
  {
    std::istringstream in("1.0, bert-tiny, gelu, 64, 4096\n");
    ASSERT_TRUE(parse_trace(in, requests, error)) << error;
    EXPECT_EQ(requests[0].breakpoints, kMaxBreakpoints);
  }
}

TEST(RequestGenerator, SeqScaleMixMatchesTableWeights) {
  // Regression for the hardcoded next_below(5) bound: the sequence-length
  // mix must follow the kSeqScales table {1/4, 1/2, 1, 1, 2} -- the
  // duplicated 1x entry gets 2/5 of the mass, every other scale 1/5. The
  // bound is now derived from the table, so a skew here means the sampler
  // and the table drifted apart.
  TrafficProfile profile;
  profile.base_seq_len = 128;
  profile.decode_fraction = 0.0;  // isolate the prefill seq_len draw
  const int n = 5000;
  const auto requests = generate_poisson(n, profile, 17);
  std::map<int, int> counts;
  for (const auto& req : requests) counts[req.seq_len] += 1;
  ASSERT_EQ(counts.size(), 4u) << "expected seq_len buckets 32/64/128/256";
  const std::map<int, double> expected = {
      {32, 0.2}, {64, 0.2}, {128, 0.4}, {256, 0.2}};
  for (const auto& [seq_len, share] : expected) {
    ASSERT_TRUE(counts.count(seq_len)) << seq_len;
    const double got = static_cast<double>(counts[seq_len]) / n;
    EXPECT_NEAR(got, share, 0.04) << "seq_len " << seq_len;
  }
}

TEST(RequestGenerator, EmitsMixedPrefillDecodeTraffic) {
  TrafficProfile profile;  // default decode_fraction = 0.5
  const auto requests = generate_poisson(400, profile, 31);
  int prefill = 0, decode = 0;
  for (const auto& req : requests) {
    if (req.phase == pipeline::Phase::kDecode) {
      ++decode;
      EXPECT_GE(req.kv_len, 1);
      EXPECT_EQ(req.seq_len, 1);  // one query token
    } else {
      ++prefill;
      EXPECT_EQ(req.kv_len, 0);
      EXPECT_GE(req.seq_len, 8);
    }
  }
  // Both classes present in roughly the configured proportion.
  EXPECT_GT(prefill, 100);
  EXPECT_GT(decode, 100);

  // decode_fraction == 0 reproduces the pre-decode all-prefill stream.
  profile.decode_fraction = 0.0;
  for (const auto& req : generate_poisson(100, profile, 31)) {
    EXPECT_EQ(req.phase, pipeline::Phase::kPrefill);
  }
}

TEST(Trace, ParsesPhaseAndKvLenColumns) {
  std::istringstream in(
      "5.0, bert-tiny, gelu, 128, 16\n"
      "1.0, bert-tiny, gelu, 128, 16, prefill\n"
      "2.0, bert-mini, exp, 1, 16, decode, 768\n"
      "3.0, bert-tiny, gelu, 64, 16, prefill, 0\n");
  std::vector<InferenceRequest> requests;
  std::string error;
  ASSERT_TRUE(parse_trace(in, requests, error)) << error;
  ASSERT_EQ(requests.size(), 4u);
  EXPECT_EQ(requests[0].phase, pipeline::Phase::kPrefill);  // explicit
  EXPECT_EQ(requests[1].phase, pipeline::Phase::kDecode);
  EXPECT_EQ(requests[1].kv_len, 768);
  EXPECT_EQ(requests[1].workload.name(), "bert-mini");
  EXPECT_EQ(requests[2].phase, pipeline::Phase::kPrefill);  // kv_len 0 ok
  EXPECT_EQ(requests[3].phase, pipeline::Phase::kPrefill);  // 5-column
  EXPECT_EQ(requests[3].kv_len, 0);
}

TEST(Trace, RejectsIncoherentPhaseKvLen) {
  std::vector<InferenceRequest> requests;
  std::string error;
  {
    // Decode without a cache length cannot be priced.
    std::istringstream in("1.0, bert-tiny, gelu, 1, 16, decode\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("kv_len"), std::string::npos);
  }
  {
    std::istringstream in("1.0, bert-tiny, gelu, 1, 16, decode, 0\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("kv_len"), std::string::npos);
  }
  {
    // Prefill claiming a cache would silently mis-price.
    std::istringstream in("1.0, bert-tiny, gelu, 64, 16, prefill, 256\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("kv_len"), std::string::npos);
  }
  {
    std::istringstream in("1.0, bert-tiny, gelu, 1, 16, decode, abc\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("malformed number"), std::string::npos);
  }
}

TEST(Trace, ParsesStepsColumn) {
  // The optional ninth column is the TOTAL generation length: a prefill
  // line decodes that many tokens after the prompt, a decode line's own
  // step counts toward it (so steps-1 further tokens follow).
  std::istringstream in(
      "1.0, bert-tiny, gelu, 128, 16, prefill, 0, 0, 4\n"
      "2.0, bert-mini, exp, 1, 16, decode, 768, 0, 3\n"
      "3.0, bert-tiny, gelu, 64, 16, prefill, 0, 0, 0\n"
      "4.0, bert-tiny, gelu, 1, 16, decode, 32, 0, 1\n");
  std::vector<InferenceRequest> requests;
  std::string error;
  ASSERT_TRUE(parse_trace(in, requests, error)) << error;
  ASSERT_EQ(requests.size(), 4u);
  EXPECT_EQ(requests[0].gen_steps, 4);  // prefill: 4 decoded tokens follow
  EXPECT_EQ(requests[1].gen_steps, 2);  // decode: 2 MORE after its own
  EXPECT_EQ(requests[2].gen_steps, 0);  // prefill-only, no generation
  EXPECT_EQ(requests[3].gen_steps, 0);  // single decode step, nothing more
}

TEST(Trace, RejectsIncoherentSteps) {
  std::vector<InferenceRequest> requests;
  std::string error;
  {
    // A decode request IS one generation step, so steps == 0 contradicts
    // the line's own existence.
    std::istringstream in("1.0, bert-tiny, gelu, 1, 16, decode, 32, 0, 0\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("steps"), std::string::npos);
  }
  {
    std::istringstream in(
        "1.0, bert-tiny, gelu, 64, 16, prefill, 0, 0, -2\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("steps"), std::string::npos);
  }
  {
    // Beyond kMaxGenSteps a session plan would be absurdly long.
    std::istringstream in("1.0, bert-tiny, gelu, 64, 16, prefill, 0, 0, " +
                          std::to_string(kMaxGenSteps + 1) + "\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("steps"), std::string::npos);
  }
  {
    std::istringstream in(
        "1.0, bert-tiny, gelu, 64, 16, prefill, 0, 0, 1x\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("malformed number"), std::string::npos);
  }
  {
    // Lengths near INT_MAX plus a generation overflow the decode chain's
    // kv_len (prefill: seq_len + steps - 1; decode: kv_len + steps - 1).
    std::istringstream in(
        "0, bert-tiny, gelu, 64, 16, prefill, 0, 0, 1\n"
        "0, bert-tiny, gelu, 2147483647, 16, prefill, 0, 0, 2\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("trace line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("overflows"), std::string::npos) << error;
  }
  {
    std::istringstream in(
        "0, bert-tiny, gelu, 1, 16, decode, 2147483647, 0, 2\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("overflows"), std::string::npos) << error;
  }
  {
    // A prompt past pipeline::max_graph_len overflows its graph's int64
    // MAC and vector-op counts in pricing; this one used to abort there
    // with std::length_error.
    std::istringstream in(
        "0, bert-tiny, gelu, 64, 16, prefill\n"
        "0, bert-tiny, gelu, 1073741823, 16, prefill\n");
    EXPECT_FALSE(parse_trace(in, requests, error));
    EXPECT_NE(error.find("trace line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("prompt overflows"), std::string::npos) << error;
  }
  {
    const int longest = pipeline::max_graph_len(pipeline::Phase::kPrefill);
    std::istringstream over("0, roberta, exp, " +
                            std::to_string(longest + 1) + ", 16\n");
    EXPECT_FALSE(parse_trace(over, requests, error));
    EXPECT_NE(error.find("prompt overflows"), std::string::npos) << error;
    std::istringstream at("0, roberta, exp, " + std::to_string(longest) +
                          ", 16\n");
    EXPECT_TRUE(parse_trace(at, requests, error)) << error;
  }
}

TEST(RequestGenerator, MaxStepsDrawsBoundedGenerationLengths) {
  TrafficProfile profile;
  profile.max_steps = 8;
  const auto requests = generate_poisson(400, profile, 23);
  bool any_multi = false;
  for (const auto& req : requests) {
    if (req.phase == pipeline::Phase::kDecode) {
      // The decode request's own step counts toward the drawn length.
      EXPECT_GE(req.gen_steps, 0);
      EXPECT_LE(req.gen_steps, 7);
    } else {
      EXPECT_GE(req.gen_steps, 1);
      EXPECT_LE(req.gen_steps, 8);
    }
    any_multi |= req.gen_steps > 1;
  }
  EXPECT_TRUE(any_multi);
}

TEST(RequestGenerator, ZeroMaxStepsKeepsTheClassicStream) {
  // max_steps == 0 must consume no randomness: the stream is
  // field-for-field the one the pre-session generator produced.
  TrafficProfile classic;
  TrafficProfile stepped = classic;
  stepped.max_steps = 0;
  const auto a = generate_poisson(200, classic, 29);
  const auto b = generate_poisson(200, stepped, 29);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].seq_len, b[i].seq_len);
    EXPECT_EQ(a[i].kv_len, b[i].kv_len);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(b[i].gen_steps, 0);
  }
}

TEST(BatchScheduler, ShapePricingIsStableAcrossStreams) {
  // The same request shape must cost the same whether it arrives alone or
  // alongside unrelated shapes (pricing seeds from the shape, not from its
  // position in the stream).
  std::vector<InferenceRequest> alone(1);
  alone[0].id = 0;

  std::vector<InferenceRequest> mixed(2);
  mixed[0].id = 0;
  // bert-mini sorts ahead of bert-tiny in the distinct-shape map.
  mixed[0].workload = workload::WorkloadName::parse("bert-mini").value();
  mixed[1].id = 1;
  mixed[1].arrival_us = 1.0;

  const BatchScheduler scheduler(small_pool(1, 1));
  const auto a = scheduler.run(alone);
  const auto b = scheduler.run(mixed);
  EXPECT_EQ(a.cost(0).service_cycles, b.cost(1).service_cycles);
  EXPECT_DOUBLE_EQ(a.cost(0).service_us, b.cost(1).service_us);
}

TEST(BatchScheduler, DeterministicAcrossThreadCounts) {
  TrafficProfile profile;
  profile.rate_rps = 1e6;
  const auto requests = generate_poisson(200, profile, 11);

  const auto one = BatchScheduler(small_pool(3, 1)).run(requests);
  const auto four = BatchScheduler(small_pool(3, 4)).run(requests);
  const auto eight = BatchScheduler(small_pool(3, 8)).run(requests);

  ASSERT_EQ(one.outcomes.size(), four.outcomes.size());
  ASSERT_EQ(one.outcomes.size(), eight.outcomes.size());
  EXPECT_EQ(whole_batch_sizes(one), whole_batch_sizes(four));
  EXPECT_EQ(whole_batch_sizes(one), whole_batch_sizes(eight));
  for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
    for (const auto* other : {&four, &eight}) {
      const auto& a = one.outcomes[i];
      const auto& b = other->outcomes[i];
      EXPECT_EQ(a.instance, b.instance);
      EXPECT_EQ(a.batch_id, b.batch_id);
      EXPECT_EQ(one.cost(i).service_cycles, other->cost(i).service_cycles);
      // Bit-identical, not merely close: the dispatch phase is serial and
      // the pricing phase writes to disjoint slots.
      EXPECT_DOUBLE_EQ(one.cost(i).service_us, other->cost(i).service_us);
      EXPECT_DOUBLE_EQ(a.start_us, b.start_us);
      EXPECT_DOUBLE_EQ(a.finish_us, b.finish_us);
    }
  }
  EXPECT_DOUBLE_EQ(one.throughput_rps, four.throughput_rps);
  EXPECT_DOUBLE_EQ(one.makespan_us, four.makespan_us);
  EXPECT_DOUBLE_EQ(one.latency_percentile_us(99.0),
                   four.latency_percentile_us(99.0));
}

TEST(BatchScheduler, OutcomesAreCausallyOrdered) {
  TrafficProfile profile;
  profile.rate_rps = 2e6;  // overload a small pool so queues form
  const auto requests = generate_poisson(120, profile, 3);
  const auto report = BatchScheduler(small_pool(2, 2)).run(requests);

  ASSERT_EQ(report.outcomes.size(), requests.size());
  double max_finish = 0.0;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& outcome = report.outcomes[i];
    EXPECT_GE(outcome.start_us, requests[i].arrival_us);
    EXPECT_GT(outcome.finish_us, outcome.start_us);
    EXPECT_GE(outcome.instance, 0);
    EXPECT_LT(outcome.instance, 2);
    EXPECT_GT(report.cost(i).service_cycles, 0u);
    max_finish = std::max(max_finish, outcome.finish_us);
  }
  // Per-instance dispatches must not overlap.
  for (int inst = 0; inst < 2; ++inst) {
    double last_finish = 0.0;
    int last_batch = -1;
    for (const auto& outcome : report.outcomes) {
      if (outcome.instance != inst || outcome.batch_id == last_batch)
        continue;
      EXPECT_GE(outcome.start_us, last_finish);
      last_finish = outcome.finish_us;
      last_batch = outcome.batch_id;
    }
  }
  const auto* hist = report.stats.find_histogram("serve.latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), requests.size());
  EXPECT_LE(report.latency_percentile_us(50.0),
            report.latency_percentile_us(95.0));
  EXPECT_LE(report.latency_percentile_us(95.0),
            report.latency_percentile_us(99.0));
  EXPECT_GT(report.throughput_rps, 0.0);
}

TEST(BatchScheduler, FusesBackloggedCompatibleRequests) {
  // Four same-table requests all queued at t=0 on one instance fuse into a
  // single dispatch under max_batch >= 4.
  std::vector<InferenceRequest> requests(4);
  for (int i = 0; i < 4; ++i) {
    requests[static_cast<std::size_t>(i)].id = i;
    requests[static_cast<std::size_t>(i)].arrival_us = 0.0;
  }
  auto config = small_pool(1, 1);
  config.max_batch = 4;
  const auto report = BatchScheduler(config).run(requests);
  const std::vector<int> sizes = whole_batch_sizes(report);
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& outcome = report.outcomes[i];
    EXPECT_EQ(outcome.batch_id, 0);
    EXPECT_EQ(sizes[i], 4);
    EXPECT_DOUBLE_EQ(outcome.finish_us, report.outcomes[0].finish_us);
  }
  // The fused dispatch is cheaper than four standalone ones (pipeline
  // overlap credit) but still costs more than one.
  const double fused = report.outcomes[0].finish_us;
  const double standalone = report.cost(0).service_us;
  EXPECT_LT(fused, 4.0 * standalone);
  EXPECT_GT(fused, standalone);

  // With batching disabled the same stream needs four dispatches.
  config.max_batch = 1;
  const auto unbatched = BatchScheduler(config).run(requests);
  EXPECT_EQ(unbatched.stats.counter("serve.batches"), 4u);
  EXPECT_GT(unbatched.outcomes[3].finish_us, fused);
}

TEST(BatchScheduler, PricesRequestsFromTheFullGraphTimeline) {
  // Graph-based pricing covers the whole layer timeline, so a request can
  // never be cheaper than its GEMM time on the host fabric -- the
  // non-linear-only pricing of the pre-graph engine cannot satisfy this.
  std::vector<InferenceRequest> requests(1);
  requests[0].id = 0;  // bert-tiny @ 128, gelu, 16 breakpoints
  const auto config = small_pool(1, 1);
  const auto report = BatchScheduler(config).run(requests);

  const auto accel = accel::make_accelerator(config.host);
  const auto model = workload::by_name(
      std::string(requests[0].workload.name()), requests[0].seq_len);
  ASSERT_TRUE(model.has_value());
  const auto fabric_cycles =
      accel::inference_cycles(accel, workload::model_workload(*model));
  EXPECT_GE(report.cost(0).service_cycles, fabric_cycles);
  // Overlap keeps the span below the serial sum of fabric time plus the
  // whole non-linear stream at one element per cycle (a loose roof).
  EXPECT_LT(report.cost(0).service_cycles,
            fabric_cycles + static_cast<sim::Cycle>(report.cost(0).approx_ops));
}

TEST(BatchScheduler, HeavierWorkloadsPriceHigher) {
  // Same arrival, same table: RoBERTa's layer timeline dwarfs BERT-tiny's.
  std::vector<InferenceRequest> tiny(1), roberta(1);
  tiny[0].id = 0;
  roberta[0].id = 0;
  roberta[0].workload = workload::WorkloadName::parse("roberta").value();
  const BatchScheduler scheduler(small_pool(1, 1));
  const auto a = scheduler.run(tiny);
  const auto b = scheduler.run(roberta);
  EXPECT_GT(b.cost(0).service_cycles, 10 * a.cost(0).service_cycles);
}

TEST(BatchScheduler, DecodeNeverFusesWithPrefill) {
  // Same PWL table, same arrival instant, batching wide open: the fusion
  // run must still break at every phase boundary, because a decode wave
  // shares no shape with a prefill wave.
  std::vector<InferenceRequest> requests(6);
  for (int i = 0; i < 6; ++i) {
    requests[static_cast<std::size_t>(i)].id = i;
    requests[static_cast<std::size_t>(i)].arrival_us = 0.0;
  }
  for (const int i : {2, 3, 4}) {
    auto& req = requests[static_cast<std::size_t>(i)];
    req.phase = pipeline::Phase::kDecode;
    req.kv_len = 256;
    req.seq_len = 1;
  }
  auto config = small_pool(1, 1);
  config.max_batch = 8;
  const auto report = BatchScheduler(config).run(requests);
  // [prefill x2][decode x3][prefill x1]: three dispatches, phase-pure.
  EXPECT_EQ(report.stats.counter("serve.batches"), 3u);
  std::map<int, pipeline::Phase> batch_phase;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& outcome = report.outcomes[i];
    const auto it = batch_phase.find(outcome.batch_id);
    if (it == batch_phase.end()) {
      batch_phase[outcome.batch_id] = requests[i].phase;
    } else {
      EXPECT_EQ(it->second, requests[i].phase)
          << "batch " << outcome.batch_id << " mixes phases";
    }
  }
  const std::vector<int> sizes = whole_batch_sizes(report);
  EXPECT_EQ(sizes[0], 2);
  EXPECT_EQ(sizes[2], 3);
  EXPECT_EQ(sizes[5], 1);
}

TEST(BatchScheduler, MixedPhaseOutcomesIdenticalAcrossThreadCounts) {
  // The acceptance contract for mixed traffic: a prefill/decode stream
  // must price and dispatch bit-identically for every --threads value.
  TrafficProfile profile;  // default mix: half decode
  profile.rate_rps = 1e6;
  const auto requests = generate_poisson(200, profile, 29);
  int decode_count = 0;
  for (const auto& req : requests) {
    if (req.phase == pipeline::Phase::kDecode) ++decode_count;
  }
  ASSERT_GT(decode_count, 50);  // the stream genuinely mixes phases

  const auto one = BatchScheduler(small_pool(3, 1)).run(requests);
  const auto four = BatchScheduler(small_pool(3, 4)).run(requests);
  const auto eight = BatchScheduler(small_pool(3, 8)).run(requests);
  ASSERT_EQ(one.outcomes.size(), four.outcomes.size());
  ASSERT_EQ(one.outcomes.size(), eight.outcomes.size());
  EXPECT_EQ(whole_batch_sizes(one), whole_batch_sizes(four));
  EXPECT_EQ(whole_batch_sizes(one), whole_batch_sizes(eight));
  for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
    for (const auto* other : {&four, &eight}) {
      const auto& a = one.outcomes[i];
      const auto& b = other->outcomes[i];
      EXPECT_EQ(a.latency_us(requests[i]), b.latency_us(requests[i]));
      EXPECT_EQ(a.instance, b.instance);
      EXPECT_EQ(a.batch_id, b.batch_id);
      EXPECT_EQ(one.cost(i).approx_ops, other->cost(i).approx_ops);
      EXPECT_EQ(one.cost(i).service_cycles, other->cost(i).service_cycles);
      EXPECT_DOUBLE_EQ(one.cost(i).service_us, other->cost(i).service_us);
      EXPECT_DOUBLE_EQ(a.start_us, b.start_us);
      EXPECT_DOUBLE_EQ(a.finish_us, b.finish_us);
    }
  }
  EXPECT_DOUBLE_EQ(one.makespan_us, four.makespan_us);
  EXPECT_DOUBLE_EQ(one.latency_percentile_us(99.0),
                   eight.latency_percentile_us(99.0));
}

TEST(BatchScheduler, DecodePricingScalesWithKvLenAndUndercutsPrefill) {
  const auto make = [](pipeline::Phase phase, int kv_len) {
    InferenceRequest req;
    req.id = 0;
    req.phase = phase;
    req.kv_len = kv_len;
    req.seq_len = phase == pipeline::Phase::kDecode ? 1 : 128;
    return std::vector<InferenceRequest>{req};
  };
  const BatchScheduler scheduler(small_pool(1, 1));
  const auto minimal = scheduler.run(make(pipeline::Phase::kDecode, 1));
  const auto small = scheduler.run(make(pipeline::Phase::kDecode, 128));
  const auto large = scheduler.run(make(pipeline::Phase::kDecode, 4096));
  const auto prefill = scheduler.run(make(pipeline::Phase::kPrefill, 0));
  // The degenerate kv_len == 1 step (the smallest possible cycle-accurate
  // pricing slice) still prices to a positive cost.
  EXPECT_GT(minimal.cost(0).service_cycles, 0u);
  EXPECT_GT(minimal.cost(0).approx_ops, 0);
  // A deeper cache costs strictly more; a single decode token costs far
  // less than prefilling the whole 128-token sequence.
  EXPECT_GT(large.cost(0).service_cycles, small.cost(0).service_cycles);
  EXPECT_GT(large.cost(0).approx_ops, small.cost(0).approx_ops);
  EXPECT_LT(small.cost(0).service_cycles, prefill.cost(0).service_cycles);
}

TEST(BatchScheduler, MoreInstancesReduceTailLatency) {
  TrafficProfile profile;
  profile.rate_rps = 2e6;
  const auto requests = generate_poisson(150, profile, 21);
  const auto narrow = BatchScheduler(small_pool(1, 2)).run(requests);
  const auto wide = BatchScheduler(small_pool(4, 2)).run(requests);
  EXPECT_LT(wide.latency_percentile_us(99.0),
            narrow.latency_percentile_us(99.0));
}

TEST(BatchScheduler, EmptyStreamYieldsEmptyReport) {
  const auto report =
      BatchScheduler(small_pool(2, 2)).run(std::vector<InferenceRequest>{});
  EXPECT_TRUE(report.outcomes.empty());
  EXPECT_DOUBLE_EQ(report.throughput_rps, 0.0);
}

/// A decode-heavy stream with one distinct kv_len per request -- more
/// distinct lengths per class than the surrogate keeps anchors, so
/// interpolation genuinely runs.
std::vector<InferenceRequest> interpolating_stream(int count) {
  std::vector<InferenceRequest> requests(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto& req = requests[static_cast<std::size_t>(i)];
    req.id = i;
    req.arrival_us = 2.0 * i;
    req.phase = pipeline::Phase::kDecode;
    req.seq_len = 1;
    req.kv_len = 1 + 7 * i;
    req.function = (i % 2 == 0) ? approx::NonLinearFn::kGelu
                                : approx::NonLinearFn::kExp;
  }
  return requests;
}

TEST(PricingSurrogate, OutcomesIdenticalAcrossThreadCounts) {
  const auto requests = interpolating_stream(48);
  auto config = small_pool(2, 1);
  config.pricing = PricingMode::kSurrogate;
  const auto one = BatchScheduler(config).run(requests);
  config.threads = 2;
  const auto two = BatchScheduler(config).run(requests);
  config.threads = 8;
  const auto eight = BatchScheduler(config).run(requests);
  ASSERT_EQ(one.outcomes.size(), requests.size());
  for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
    for (const auto* other : {&two, &eight}) {
      const auto& a = one.outcomes[i];
      const auto& b = other->outcomes[i];
      const SessionCost ca = one.cost(i);
      const SessionCost cb = other->cost(i);
      EXPECT_EQ(ca.approx_ops, cb.approx_ops);
      EXPECT_EQ(ca.service_cycles, cb.service_cycles);
      EXPECT_EQ(ca.wave_latency_cycles, cb.wave_latency_cycles);
      EXPECT_EQ(a.instance, b.instance);
      EXPECT_EQ(a.batch_id, b.batch_id);
      EXPECT_DOUBLE_EQ(ca.service_us, cb.service_us);
      EXPECT_DOUBLE_EQ(a.start_us, b.start_us);
      EXPECT_DOUBLE_EQ(a.finish_us, b.finish_us);
    }
  }
  EXPECT_DOUBLE_EQ(one.makespan_us, eight.makespan_us);
}

TEST(PricingSurrogate, BitEqualToExactWhenEveryLengthIsAnAnchor) {
  // Classes with at most surrogate_anchors distinct lengths are anchored
  // exactly; the surrogate must then reproduce the exact path bit for bit
  // (same ExactPricer::calibrate, same graph walk).
  std::vector<InferenceRequest> requests;
  int id = 0;
  for (const int kv : {16, 64, 256}) {
    InferenceRequest req;
    req.id = id;
    req.arrival_us = 3.0 * id++;
    req.phase = pipeline::Phase::kDecode;
    req.seq_len = 1;
    req.kv_len = kv;
    requests.push_back(req);
  }
  for (const int seq : {64, 128}) {
    InferenceRequest req;
    req.id = id;
    req.arrival_us = 3.0 * id++;
    req.seq_len = seq;
    requests.push_back(req);
  }

  auto config = small_pool(1, 2);
  const auto exact = BatchScheduler(config).run(requests);
  config.pricing = PricingMode::kSurrogate;
  const auto surrogate = BatchScheduler(config).run(requests);
  ASSERT_EQ(exact.outcomes.size(), surrogate.outcomes.size());
  for (std::size_t i = 0; i < exact.outcomes.size(); ++i) {
    const SessionCost a = exact.cost(i);
    const SessionCost b = surrogate.cost(i);
    EXPECT_EQ(a.approx_ops, b.approx_ops);
    EXPECT_EQ(a.service_cycles, b.service_cycles);
    EXPECT_EQ(a.wave_latency_cycles, b.wave_latency_cycles);
    EXPECT_DOUBLE_EQ(a.service_us, b.service_us);
    EXPECT_DOUBLE_EQ(exact.outcomes[i].finish_us,
                     surrogate.outcomes[i].finish_us);
  }
  for (const auto& curve : surrogate.surrogate.samples) {
    EXPECT_DOUBLE_EQ(curve.rel_error, 0.0);
  }
}

TEST(PricingSurrogate, InterpolatedPricingStaysNearExact) {
  const auto requests = interpolating_stream(48);
  auto config = small_pool(2, 2);
  const auto exact = BatchScheduler(config).run(requests);
  config.pricing = PricingMode::kSurrogate;
  const auto surrogate = BatchScheduler(config).run(requests);
  ASSERT_GT(exact.surrogate.distinct_shapes,
            surrogate.surrogate.anchors_priced);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto e = static_cast<double>(exact.cost(i).service_cycles);
    const auto s = static_cast<double>(surrogate.cost(i).service_cycles);
    EXPECT_LE(std::abs(s - e) / std::max(e, 1.0), 0.02)
        << "kv_len " << requests[i].kv_len;
    // approx_ops comes from the shape's own graph, never interpolation.
    EXPECT_EQ(exact.cost(i).approx_ops, surrogate.cost(i).approx_ops);
  }
}

TEST(PricingSurrogate, HybridReconcilesAndKeepsSurrogateOutcomes) {
  const auto requests = interpolating_stream(40);
  auto config = small_pool(2, 2);
  config.pricing = PricingMode::kSurrogate;
  const auto surrogate = BatchScheduler(config).run(requests);
  config.pricing = PricingMode::kHybrid;
  const auto hybrid = BatchScheduler(config).run(requests);

  // Hybrid outcomes ARE the surrogate outcomes (exact re-pricing is an
  // audit, never a substitution -- that's what keeps the mode
  // thread-count-deterministic).
  ASSERT_EQ(hybrid.outcomes.size(), surrogate.outcomes.size());
  for (std::size_t i = 0; i < hybrid.outcomes.size(); ++i) {
    EXPECT_EQ(hybrid.cost(i).service_cycles,
              surrogate.cost(i).service_cycles);
    EXPECT_DOUBLE_EQ(hybrid.outcomes[i].finish_us,
                     surrogate.outcomes[i].finish_us);
  }

  const auto& audit = hybrid.surrogate;
  EXPECT_EQ(audit.mode, PricingMode::kHybrid);
  ASSERT_FALSE(audit.samples.empty());
  EXPECT_TRUE(audit.within_tolerance);
  EXPECT_LE(audit.max_rel_error, audit.tolerance);
  for (const auto& sample : audit.samples) {
    EXPECT_GT(sample.exact_cycles, 0.0);
    EXPECT_GE(sample.rel_error, 0.0);
  }
  // Exact mode reports a pass-through audit: no samples, tolerance holds.
  const auto exact = BatchScheduler(small_pool(2, 2)).run(requests);
  EXPECT_EQ(exact.surrogate.mode, PricingMode::kExact);
  EXPECT_TRUE(exact.surrogate.samples.empty());
  EXPECT_TRUE(exact.surrogate.within_tolerance);
}

// ExactPricer's per-table memo, made visible. Should the guard break,
// pricing falls back to one SimSession per shape: outputs stay identical,
// so no pin fails, but exact pricing gets several times slower. The
// session counter catches that, and the 8-thread runs race the lazy memo
// fill (this suite runs under ThreadSanitizer in CI).

/// 1,020 distinct shapes: decode kv_len 1-70 and prefill seq_len 1-15 over
/// four functions at 4, 16 and 64 breakpoints, with their tables trained.
std::vector<ShapeKey> memo_shapes(std::size_t& tables) {
  std::vector<ShapeKey> shapes;
  tables = 0;
  for (const auto fn : {approx::NonLinearFn::kGelu, approx::NonLinearFn::kExp,
                        approx::NonLinearFn::kTanh,
                        approx::NonLinearFn::kSigmoid}) {
    for (const int breakpoints : {4, 16, 64}) {
      (void)approx::PwlLibrary::instance().get(fn, breakpoints);
      ++tables;
      ShapeKey shape;
      shape.workload = workload::WorkloadName::parse("bert-tiny").value();
      shape.function = fn;
      shape.breakpoints = breakpoints;
      for (int kv = 1; kv <= 70; ++kv) {
        shape.phase = pipeline::Phase::kDecode;
        shape.seq_len = 1;
        shape.kv_len = kv;
        shapes.push_back(shape);
      }
      for (int seq = 1; seq <= 15; ++seq) {
        shape.phase = pipeline::Phase::kPrefill;
        shape.seq_len = seq;
        shape.kv_len = 0;
        shapes.push_back(shape);
      }
    }
  }
  return shapes;
}

void expect_same_calibrations(const std::vector<Calibration>& a,
                              const std::vector<Calibration>& b,
                              const std::vector<ShapeKey>& shapes) {
  ASSERT_EQ(a.size(), shapes.size());
  ASSERT_EQ(b.size(), shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].elems_per_cycle),
              std::bit_cast<std::uint64_t>(b[i].elems_per_cycle))
        << "shape " << i;
    EXPECT_EQ(a[i].wave_latency_cycles, b[i].wave_latency_cycles)
        << "shape " << i;
  }
}

TEST(ExactPricer, OneCycleDeploymentsCalibrateEachTableInTwoSessions) {
  std::size_t tables = 0;
  const auto shapes = memo_shapes(tables);
  ASSERT_GE(shapes.size(), 1000u);
  for (const auto host :
       {hw::AcceleratorKind::kReact, hw::AcceleratorKind::kTpuV3,
        hw::AcceleratorKind::kTpuV4, hw::AcceleratorKind::kJetsonNvdla}) {
    PricerConfig config;
    config.nova = core::make_overlay(host).nova;
    config.host = host;
    config.seed = 7;
    const ExactPricer threaded(config);
    const auto many = calibrate_shapes(threaded, shapes, 8);
    EXPECT_LE(threaded.sim_sessions(), 2 * tables) << hw::to_string(host);
    const ExactPricer serial(config);
    const auto one = calibrate_shapes(serial, shapes, 1);
    EXPECT_EQ(serial.sim_sessions(), threaded.sim_sessions());
    expect_same_calibrations(many, one, shapes);
  }
}

TEST(ExactPricer, MultiCycleTrainsCalibrateEveryShapeAfterOneGuardWave) {
  // tpuv4 with 16 routers and one pair per flit: the train outruns one
  // accelerator cycle, so each table costs its guard wave and each shape
  // its own seeded session.
  std::size_t tables = 0;
  const auto shapes = memo_shapes(tables);
  PricerConfig config;
  config.nova = core::make_overlay(hw::AcceleratorKind::kTpuV4).nova;
  config.nova.routers = 16;
  config.nova.pairs_per_flit = 1;
  config.seed = 7;
  const ExactPricer threaded(config);
  const auto many = calibrate_shapes(threaded, shapes, 8);
  EXPECT_GE(threaded.sim_sessions(), shapes.size());
  EXPECT_LE(threaded.sim_sessions(), shapes.size() + tables);
  const ExactPricer serial(config);
  expect_same_calibrations(many, calibrate_shapes(serial, shapes, 1), shapes);
}

TEST(PricingSurrogate, ModeNamesRoundTrip) {
  for (const auto mode : {PricingMode::kExact, PricingMode::kSurrogate,
                          PricingMode::kHybrid}) {
    const auto parsed = pricing_mode_from_string(to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(pricing_mode_from_string("approximate").has_value());
  EXPECT_FALSE(pricing_mode_from_string("").has_value());
}

TEST(BatchSchedulerDeathTest, RejectsUnsortedArrivals) {
  std::vector<InferenceRequest> requests(2);
  requests[0].id = 0;
  requests[0].arrival_us = 5.0;
  requests[1].id = 1;
  requests[1].arrival_us = 1.0;  // earlier than its predecessor
  const BatchScheduler scheduler(small_pool(1, 1));
  EXPECT_DEATH((void)scheduler.run(requests), "sorted by arrival_us");
}

TEST(BatchSchedulerDeathTest, RejectsMisnumberedIds) {
  std::vector<InferenceRequest> requests(2);
  requests[0].id = 0;
  requests[1].id = 7;  // must be 1
  requests[1].arrival_us = 1.0;
  requests[1].workload = workload::WorkloadName::parse("roberta-base").value();
  const BatchScheduler scheduler(small_pool(1, 1));
  // The message names the request by its workload's own spelling.
  EXPECT_DEATH((void)scheduler.run(requests),
               "position 1 \\(id 7, workload 'roberta-base'.*"
               "ids must be 0..n-1");
}

TEST(BatchSchedulerDeathTest, RejectsIncoherentPhaseShapes) {
  const BatchScheduler scheduler(small_pool(1, 1));
  {
    std::vector<InferenceRequest> requests(1);
    requests[0].phase = pipeline::Phase::kPrefill;
    requests[0].kv_len = 64;  // prefill must not carry a cache
    EXPECT_DEATH((void)scheduler.run(requests), "prefill requests");
  }
  {
    std::vector<InferenceRequest> requests(1);
    requests[0].phase = pipeline::Phase::kDecode;
    requests[0].kv_len = 0;  // decode needs one
    EXPECT_DEATH((void)scheduler.run(requests), "decode requests");
  }
  {
    std::vector<InferenceRequest> requests(1);
    requests[0].arrival_us = -1.0;
    EXPECT_DEATH((void)scheduler.run(requests), "finite");
  }
}

TEST(BatchSchedulerDeathTest, RejectsBreakpointsPastTheBound) {
  const BatchScheduler scheduler(small_pool(1, 1));
  std::vector<InferenceRequest> requests(1);
  requests[0].breakpoints = kMaxBreakpoints + 1;
  EXPECT_DEATH((void)scheduler.run(requests),
               "request at position 0 .*breakpoints in \\[2, "
               "kMaxBreakpoints\\]");
}

TEST(BatchSchedulerDeathTest, RejectsOverflowingDecodeChains) {
  // A prompt of INT_MAX tokens followed by two generated tokens would
  // chain a decode step at kv_len INT_MAX + 1.
  const BatchScheduler scheduler(small_pool(1, 1));
  std::vector<InferenceRequest> requests(1);
  requests[0].seq_len = std::numeric_limits<int>::max();
  requests[0].gen_steps = 2;
  EXPECT_DEATH((void)scheduler.run(requests),
               "request at position 0 .*decode chain overflows");
}

TEST(BatchSchedulerDeathTest, RejectsPromptsPastTheGraphBound) {
  const BatchScheduler scheduler(small_pool(1, 1));
  std::vector<InferenceRequest> requests(1);
  requests[0].seq_len = pipeline::max_graph_len(pipeline::Phase::kPrefill) + 1;
  EXPECT_DEATH((void)scheduler.run(requests),
               "request at position 0 .*prompt overflows");
}

TEST(BatchScheduler, LongestAcceptedLengthsPriceCleanly) {
  // Every catalog model at the longest accepted prompt, decoding one token
  // at that kv_len, and a decode step ending at the longest KV cache,
  // priced exactly and by the surrogate. Under UBSan a signed overflow
  // anywhere in graph building, verification or pricing aborts here;
  // every served latency must come out finite.
  const int prompt = pipeline::max_graph_len(pipeline::Phase::kPrefill);
  const int cache = pipeline::max_graph_len(pipeline::Phase::kDecode);
  std::vector<InferenceRequest> requests;
  for (const auto& entry : workload::benchmark_catalog()) {
    InferenceRequest prefill;
    prefill.workload = workload::WorkloadName::parse(entry.name).value();
    prefill.seq_len = prompt;
    prefill.gen_steps = 1;
    InferenceRequest decode = prefill;
    decode.phase = pipeline::Phase::kDecode;
    decode.seq_len = 1;
    decode.kv_len = cache - 1;
    for (auto req : {prefill, decode}) {
      req.id = static_cast<int>(requests.size());
      req.arrival_us = req.id;
      requests.push_back(req);
    }
  }
  for (const auto mode : {PricingMode::kExact, PricingMode::kSurrogate}) {
    auto config = small_pool(2, 2);
    config.pricing = mode;
    const auto report = BatchScheduler(config).run(requests);
    ASSERT_EQ(report.outcomes.size(), requests.size());
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      const auto& outcome = report.outcomes[i];
      const std::string_view name = requests[i].workload.name();
      EXPECT_TRUE(outcome.served()) << name;
      EXPECT_GT(report.cost(i).service_us, 0.0) << name;
      EXPECT_TRUE(std::isfinite(outcome.finish_us)) << name;
    }
    EXPECT_TRUE(std::isfinite(report.latency_percentile_us(99.0)));
  }
}

TEST(RequestGeneratorDeathTest, RejectsAnUnknownWorkloadNamingIt) {
  // Resolved once, before any draw: the unknown spelling never reaches a
  // request, so pricing never sees it.
  TrafficProfile profile;
  profile.workloads = {"bert-tiny", "bert-large"};
  EXPECT_DEATH((void)generate_poisson(16, profile, 1),
               "unknown workload 'bert-large'");
}

TEST(RequestRecords, DefaultsNameBertTiny) {
  EXPECT_EQ(InferenceRequest{}.workload.name(), "bert-tiny");
  EXPECT_EQ(ShapeKey{}.workload.name(), "bert-tiny");
}

TEST(RequestRecords, AreCompactAndTriviallyCopyable) {
  // A run holds a request and an outcome per request and a ShapeKey per
  // distinct shape, so these sizes are most of the serve path's memory:
  // 10^6 requests hold 88 MB of requests and outcomes. Both records order
  // their fields by size: the request pads one tail byte, the outcome four
  // bytes after its class id. What a session costs is kept once per
  // session class, not in the outcome.
  EXPECT_EQ(sizeof(InferenceRequest), 40u);
  EXPECT_LE(sizeof(ShapeKey), 24u);
  EXPECT_EQ(sizeof(RequestOutcome), 48u);
  EXPECT_TRUE(std::is_trivially_copyable_v<InferenceRequest>);
  EXPECT_TRUE(std::is_trivially_copyable_v<ShapeKey>);
  EXPECT_TRUE(std::is_trivially_copyable_v<RequestOutcome>);
}

TEST(RequestRecords, QueuedUnitsAreCompactAndTriviallyCopyable) {
  // Every fusion-scan candidate is a queued unit, and a pinned queue shifts
  // units on insert: the step's 4-byte fusion key fills the tail padding
  // of (ready_us, id, attempt, step).
  EXPECT_EQ(sizeof(FusionKey), 4u);
  EXPECT_EQ(sizeof(Pending), 24u);
  EXPECT_TRUE(std::is_trivially_copyable_v<Pending>);
}

TEST(RequestGeneratorDeathTest, RejectsNonPositiveRate) {
  TrafficProfile profile;
  profile.rate_rps = -100.0;
  EXPECT_DEATH((void)generate_poisson(4, profile, 1), "precondition");
  profile.rate_rps = 0.0;
  EXPECT_DEATH((void)generate_poisson(4, profile, 1), "precondition");
}

// ---- Failure-aware serving -----------------------------------------------

FaultWindow fault_outage(double start, double end) { return {start, end}; }

/// Standalone service time of one default request on the test pool.
double standalone_service_us() {
  std::vector<InferenceRequest> requests(1);
  requests[0].id = 0;
  const auto report = BatchScheduler(small_pool(1, 1)).run(requests);
  return report.cost(0).service_us;
}

TEST(RequestGenerator, StampsTheProfileDeadline) {
  TrafficProfile profile;
  profile.deadline_us = 1234.5;
  for (const auto& req : generate_poisson(16, profile, 3)) {
    EXPECT_DOUBLE_EQ(req.deadline_us, 1234.5);
    EXPECT_TRUE(req.has_deadline());
  }
  profile.deadline_us = 0.0;
  for (const auto& req : generate_poisson(16, profile, 3)) {
    EXPECT_FALSE(req.has_deadline());
  }
}

TEST(RequestGeneratorDeathTest, RejectsBadProfileDeadline) {
  TrafficProfile profile;
  profile.deadline_us = -1.0;
  EXPECT_DEATH((void)generate_poisson(4, profile, 1), "precondition");
}

TEST(Trace, ParsesTheDeadlineColumn) {
  std::vector<InferenceRequest> requests;
  std::string error;
  std::istringstream in(
      "5.0, bert-tiny, gelu, 64, 16, prefill, 0, 250.5\n"
      "1.0, bert-mini, exp, 1, 16, decode, 512, 0\n"
      "2.0, bert-tiny, tanh, 32, 16\n");
  ASSERT_TRUE(parse_trace(in, requests, error)) << error;
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_DOUBLE_EQ(requests[0].deadline_us, 0.0);  // explicit 0 = none
  EXPECT_FALSE(requests[0].has_deadline());
  EXPECT_DOUBLE_EQ(requests[1].deadline_us, 0.0);  // absent = none
  EXPECT_DOUBLE_EQ(requests[2].deadline_us, 250.5);
  EXPECT_TRUE(requests[2].has_deadline());
}

TEST(BatchScheduler, OutageDelaysDispatchUntilRecovery) {
  std::vector<InferenceRequest> requests(1);
  requests[0].id = 0;
  auto config = small_pool(1, 1);
  config.faults = FaultPlan::make({{fault_outage(0.0, 10.0)}});
  const auto report = BatchScheduler(config).run(requests);
  EXPECT_EQ(report.outcomes[0].status, RequestStatus::kOk);
  EXPECT_DOUBLE_EQ(report.outcomes[0].start_us, 10.0);
  EXPECT_DOUBLE_EQ(report.outcomes[0].queue_us(requests[0]), 10.0);
  EXPECT_GT(report.instances[0].down_us, 0.0);
  EXPECT_LT(report.instances[0].availability, 1.0);
}

TEST(BatchScheduler, RetriesAfterMidServiceOutage) {
  const double s = standalone_service_us();
  std::vector<InferenceRequest> requests(1);
  requests[0].id = 0;
  auto config = small_pool(1, 1);
  // The outage opens mid-service: the first attempt dies at 0.5 s.
  config.faults =
      FaultPlan::make({{fault_outage(0.5 * s, 0.6 * s)}});
  const auto report = BatchScheduler(config).run(requests);
  const auto& outcome = report.outcomes[0];
  EXPECT_EQ(outcome.status, RequestStatus::kRetried);
  EXPECT_EQ(outcome.attempts, 2);
  // The retry waits out its backoff (>= 50 us, well past the window).
  EXPECT_GE(outcome.start_us, 0.5 * s + retry_backoff_us(1, 0, config.seed));
  EXPECT_DOUBLE_EQ(outcome.finish_us, outcome.start_us + s);
  EXPECT_EQ(report.instances[0].failed_batches, 1);
  EXPECT_EQ(report.status_count(RequestStatus::kRetried), 1u);
  EXPECT_EQ(report.stats.counter("serve.retries"), 1u);
  // Goodput counts the retried request: it was served on time (no SLO).
  EXPECT_DOUBLE_EQ(report.goodput_rps, report.throughput_rps);
}

TEST(BatchScheduler, FailsAfterExhaustingRetries) {
  const double s = standalone_service_us();
  std::vector<InferenceRequest> requests(1);
  requests[0].id = 0;
  auto config = small_pool(1, 1);
  config.policy.max_retries = 0;
  config.faults =
      FaultPlan::make({{fault_outage(0.5 * s, 0.6 * s)}});
  const auto report = BatchScheduler(config).run(requests);
  const auto& outcome = report.outcomes[0];
  EXPECT_EQ(outcome.status, RequestStatus::kFailed);
  EXPECT_EQ(outcome.attempts, 1);
  // The unserved contract: every service-side field zeroed.
  EXPECT_EQ(outcome.instance, -1);
  EXPECT_EQ(outcome.batch_id, -1);
  EXPECT_EQ(report.cost(0).service_cycles, 0u);
  EXPECT_EQ(report.cost(0).wave_latency_cycles, 0);
  EXPECT_DOUBLE_EQ(report.cost(0).service_us, 0.0);
  EXPECT_DOUBLE_EQ(outcome.start_us, 0.0);
  EXPECT_DOUBLE_EQ(outcome.finish_us, 0.0);
  EXPECT_FALSE(outcome.served());
  EXPECT_EQ(report.status_count(RequestStatus::kFailed), 1u);
  EXPECT_DOUBLE_EQ(report.throughput_rps, 0.0);
  EXPECT_DOUBLE_EQ(report.goodput_rps, 0.0);
}

TEST(BatchScheduler, SecondOutageExhaustsTheRetryBudget) {
  const double s = standalone_service_us();
  std::vector<InferenceRequest> requests(1);
  requests[0].id = 0;
  auto config = small_pool(1, 1);
  config.policy.max_retries = 1;
  // First attempt dies at 0.5 s; the retry starts after its deterministic
  // backoff and a second window kills it too -> kFailed with attempts 2.
  const double backoff = retry_backoff_us(1, 0, config.seed);
  const double retry_start = 0.5 * s + backoff;
  config.faults = FaultPlan::make(
      {{fault_outage(0.5 * s, 0.51 * s),
        fault_outage(retry_start + 0.1 * s, retry_start + 0.2 * s)}});
  const auto report = BatchScheduler(config).run(requests);
  EXPECT_EQ(report.outcomes[0].status, RequestStatus::kFailed);
  EXPECT_EQ(report.outcomes[0].attempts, 2);
  EXPECT_EQ(report.instances[0].failed_batches, 2);
}

TEST(BatchScheduler, ShedsHopelessDeadlinesAtAdmission) {
  const double s = standalone_service_us();
  std::vector<InferenceRequest> requests(1);
  requests[0].id = 0;
  requests[0].deadline_us = 0.5 * s;  // cannot be met even if dispatched now
  const auto report = BatchScheduler(small_pool(1, 1)).run(requests);
  const auto& outcome = report.outcomes[0];
  EXPECT_EQ(outcome.status, RequestStatus::kShed);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.instance, -1);
  EXPECT_DOUBLE_EQ(outcome.finish_us, 0.0);
  EXPECT_EQ(report.status_count(RequestStatus::kShed), 1u);
  // Nothing was served: the latency histogram is empty, and its empty
  // contract reports 0 percentiles rather than poisoning them with zeros.
  const auto* hist = report.stats.find_histogram("serve.latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 0u);
  EXPECT_DOUBLE_EQ(report.latency_percentile_us(50.0), 0.0);
  EXPECT_DOUBLE_EQ(report.latency_percentile_us(99.0), 0.0);
  EXPECT_DOUBLE_EQ(report.makespan_us, 0.0);
  EXPECT_DOUBLE_EQ(report.throughput_rps, 0.0);
}

TEST(BatchScheduler, LateServiceCountsAsDeadlineMiss) {
  // Admission checks only a batch's head. A best-effort head admits the
  // batch, and the member fused behind it, whose deadline its standalone
  // service alone would miss, is served anyway -- late.
  const double s = standalone_service_us();
  std::vector<InferenceRequest> requests(2);
  requests[0].id = 0;
  requests[1].id = 1;
  requests[1].deadline_us = 0.5 * s;
  const auto report = BatchScheduler(small_pool(1, 1)).run(requests);
  const auto& head = report.outcomes[0];
  const auto& outcome = report.outcomes[1];
  EXPECT_EQ(head.status, RequestStatus::kOk);
  EXPECT_EQ(outcome.status, RequestStatus::kDeadlineMiss);
  EXPECT_TRUE(outcome.served());
  EXPECT_EQ(outcome.batch_id, head.batch_id);
  EXPECT_DOUBLE_EQ(outcome.finish_us, head.finish_us);
  EXPECT_GT(outcome.finish_us, s);
  // Served but late: counted in throughput, excluded from goodput.
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_DOUBLE_EQ(report.goodput_rps, 0.5 * report.throughput_rps);
  const auto* hist = report.stats.find_histogram("serve.latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 2u);
}

TEST(BatchScheduler, OverloadShrinksBatchesBeforeShedding) {
  // Eight same-table requests queued at t=0 on one instance: the first
  // dispatch fuses 4 (head wait 0); by the second the projected wait is
  // one full batch service, so a threshold at half that wait halves the
  // cap.
  std::vector<InferenceRequest> requests(8);
  for (int i = 0; i < 8; ++i) requests[static_cast<std::size_t>(i)].id = i;
  auto config = small_pool(1, 1);
  config.max_batch = 4;
  const auto base = BatchScheduler(config).run(requests);
  EXPECT_EQ(whole_batch_sizes(base)[4], 4);
  const double first_batch_service = base.outcomes[0].finish_us;

  // Every later wait stays under two batch services, short of the shed
  // line at 4x the threshold.
  config.policy.overload_queue_us = 0.5 * first_batch_service;
  const auto degraded = BatchScheduler(config).run(requests);
  const std::vector<int> degraded_sizes = whole_batch_sizes(degraded);
  EXPECT_EQ(degraded_sizes[0], 4);  // head wait 0: full cap
  EXPECT_EQ(degraded_sizes[4], 2);  // wait 2x threshold
  for (const auto& outcome : degraded.outcomes) {
    EXPECT_TRUE(outcome.served());
  }

  // Past 4x a tight threshold the backlogged best-effort tail is dropped
  // outright instead.
  config.policy.overload_queue_us = 0.01 * first_batch_service;
  const auto shed = BatchScheduler(config).run(requests);
  EXPECT_GT(shed.status_count(RequestStatus::kShed), 0u);
  EXPECT_EQ(shed.status_count(RequestStatus::kShed) +
                shed.status_count(RequestStatus::kOk),
            8u);
}

TEST(BatchScheduler, DeterministicUnderFaultsAcrossThreadsAndModes) {
  TrafficProfile profile;
  profile.rate_rps = 2e6;  // saturate so queues, sheds, and retries occur
  profile.deadline_us = 400.0;
  const auto requests = generate_poisson(200, profile, 13);

  FaultProfile fault_profile;
  fault_profile.mtbf_us = 200.0;
  fault_profile.mttr_us = 60.0;
  const auto plan = draw_fault_plan(
      fault_profile, 3, 4.0 * requests.back().arrival_us, 13);
  ASSERT_FALSE(plan.empty());

  for (const auto mode : {PricingMode::kExact, PricingMode::kSurrogate,
                          PricingMode::kHybrid}) {
    const auto configure = [&](int threads) {
      auto config = small_pool(3, threads);
      config.pricing = mode;
      config.faults = plan;
      config.policy.max_retries = 2;
      config.policy.overload_queue_us = 150.0;
      return config;
    };
    const auto one = BatchScheduler(configure(1)).run(requests);
    const auto two = BatchScheduler(configure(2)).run(requests);
    const auto eight = BatchScheduler(configure(8)).run(requests);
    // The run must actually exercise the failure paths, not trivially
    // agree on an all-kOk stream.
    EXPECT_LT(one.status_count(RequestStatus::kOk), requests.size());
    for (const auto* other : {&two, &eight}) {
      ASSERT_EQ(one.outcomes.size(), other->outcomes.size());
      for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
        const auto& a = one.outcomes[i];
        const auto& b = other->outcomes[i];
        EXPECT_EQ(a.status, b.status);
        EXPECT_EQ(a.attempts, b.attempts);
        EXPECT_EQ(a.instance, b.instance);
        EXPECT_EQ(a.batch_id, b.batch_id);
        EXPECT_EQ(one.cost(i).service_cycles, other->cost(i).service_cycles);
        EXPECT_DOUBLE_EQ(one.cost(i).service_us, other->cost(i).service_us);
        EXPECT_DOUBLE_EQ(a.start_us, b.start_us);
        EXPECT_DOUBLE_EQ(a.finish_us, b.finish_us);
      }
      EXPECT_EQ(one.status_counts, other->status_counts);
      EXPECT_DOUBLE_EQ(one.goodput_rps, other->goodput_rps);
      EXPECT_DOUBLE_EQ(one.throughput_rps, other->throughput_rps);
      for (std::size_t j = 0; j < one.instances.size(); ++j) {
        EXPECT_DOUBLE_EQ(one.instances[j].down_us,
                         other->instances[j].down_us);
        EXPECT_EQ(one.instances[j].failed_batches,
                  other->instances[j].failed_batches);
      }
    }
  }
}

TEST(BatchScheduler, ZeroFaultPlanMatchesNoPlanBitForBit) {
  TrafficProfile profile;
  profile.rate_rps = 1e6;
  const auto requests = generate_poisson(100, profile, 5);
  auto config = small_pool(2, 1);
  const auto plain = BatchScheduler(config).run(requests);
  config.faults =
      FaultPlan::make(std::vector<std::vector<FaultWindow>>(2));
  const auto zero = BatchScheduler(config).run(requests);
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(plain.outcomes[i].status, zero.outcomes[i].status);
    EXPECT_EQ(plain.outcomes[i].instance, zero.outcomes[i].instance);
    EXPECT_EQ(plain.outcomes[i].batch_id, zero.outcomes[i].batch_id);
    EXPECT_DOUBLE_EQ(plain.outcomes[i].start_us, zero.outcomes[i].start_us);
    EXPECT_DOUBLE_EQ(plain.outcomes[i].finish_us,
                     zero.outcomes[i].finish_us);
  }
  EXPECT_DOUBLE_EQ(plain.throughput_rps, zero.throughput_rps);
  EXPECT_DOUBLE_EQ(plain.goodput_rps, zero.goodput_rps);
  EXPECT_EQ(plain.status_count(RequestStatus::kOk), requests.size());
}

TEST(BatchSchedulerDeathTest, RejectsBadRequestDeadlines) {
  const BatchScheduler scheduler(small_pool(1, 1));
  {
    std::vector<InferenceRequest> requests(1);
    requests[0].deadline_us = -1.0;
    EXPECT_DEATH((void)scheduler.run(requests), "deadline_us");
  }
  {
    std::vector<InferenceRequest> requests(1);
    requests[0].deadline_us = std::nan("");
    EXPECT_DEATH((void)scheduler.run(requests), "deadline_us");
  }
}

TEST(BatchSchedulerDeathTest, RejectsBadPolicyAtConstruction) {
  auto config = small_pool(1, 1);
  config.policy.max_retries = -2;
  EXPECT_DEATH(BatchScheduler{config}, "max_retries");
}

}  // namespace
}  // namespace nova::serve
