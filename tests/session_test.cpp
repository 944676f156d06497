// Tests for the session-plan index (serve::build_plan_index) and the
// session classes it indexes (serve::group_session_classes): every step of
// every session read through two slots per plan must be the step the
// per-step expansion lists. A randomized differential suite diffs the
// index against a reference that lists every plan step by step -- the
// step builder as it was before plans were indexed, copied below -- and
// numbers the distinct shapes through a std::map; on the same streams,
// two requests must share a class exactly when their seven shape fields
// match, and every member must read its own steps through its class's
// plan. Directed cases cover adjacent, nested, identical and same-start
// runs, classes that differ only in seq_len, and a chain that ends at
// kv_len INT_MAX; a 20,000-request stream with thousands of distinct runs
// grows the run table through many rehashes, and every slot a plan does
// not use must read 0. Also pins the size of the per-plan record, the
// index and the session classes of the exact-decode benchmark stream, how
// closely chunk shares sum to 1, and that a session's steps are its chunks
// plus decode_steps of its request for every generation length; and holds
// the fusion key dispatch carries in each queued unit (serve::fusion_key)
// to the function, breakpoints and phase of the listed plan's step.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "serve/ready_queue.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"

namespace nova::serve {
namespace {

/// The per-step plan builder as it was before plans were indexed: the
/// reference build_session_plan and build_plan_index must both agree with.
SessionPlan reference_plan(const InferenceRequest& req, bool continuous,
                           int chunk_tokens) {
  SessionPlan plan;
  if (req.phase == pipeline::Phase::kPrefill) {
    const ShapeKey prefill{req.workload, req.seq_len,     req.function,
                           req.breakpoints, req.phase, req.kv_len};
    const int chunk = continuous ? chunk_tokens : req.seq_len;
    const int chunks = 1 + (req.seq_len - 1) / chunk;
    plan.prefill_chunks = chunks;
    for (int c = 0; c < chunks; ++c) {
      const int begin = c * chunk;
      const int end = begin + std::min(chunk, req.seq_len - begin);
      SessionStep step;
      step.shape = prefill;
      step.share = static_cast<double>(end - begin) /
                   static_cast<double>(req.seq_len);
      plan.steps.push_back(step);
    }
    for (int s = 0; s < req.gen_steps; ++s) {
      SessionStep step;
      step.shape = ShapeKey{req.workload,    1,
                            req.function,    req.breakpoints,
                            pipeline::Phase::kDecode, req.seq_len + s};
      plan.steps.push_back(step);
    }
    plan.decode_steps = req.gen_steps;
  } else {
    plan.decode_steps = req.gen_steps + 1;
    for (int s = 0; s < plan.decode_steps; ++s) {
      SessionStep step;
      step.shape = ShapeKey{req.workload,    req.seq_len,
                            req.function,    req.breakpoints,
                            pipeline::Phase::kDecode, req.kv_len + s};
      plan.steps.push_back(step);
    }
  }
  return plan;
}

/// Bitwise double equality (EXPECT_EQ on doubles would also accept -0.0
/// for 0.0).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every position of `requests`: indexes the whole stream, a plan per
/// request.
std::vector<std::uint32_t> every_position(
    const std::vector<InferenceRequest>& requests) {
  std::vector<std::uint32_t> positions(requests.size());
  std::iota(positions.begin(), positions.end(), 0u);
  return positions;
}

/// Diffs build_plan_index and build_session_plan against the reference on
/// `requests` in one dispatch mode: the distinct shapes element by element,
/// and for every (request, step) the slot's shape, the share bit for bit,
/// the step and chunk counts.
void expect_matches_reference(const std::vector<InferenceRequest>& requests,
                              bool continuous, int chunk_tokens,
                              const std::string& label) {
  std::vector<SessionPlan> plans;
  std::map<ShapeKey, std::uint32_t> slots;
  for (const auto& req : requests) {
    plans.push_back(reference_plan(req, continuous, chunk_tokens));
    for (const auto& step : plans.back().steps) slots.try_emplace(step.shape);
  }
  std::vector<ShapeKey> shapes;
  for (auto& [shape, slot] : slots) {
    slot = static_cast<std::uint32_t>(shapes.size());
    shapes.push_back(shape);
  }

  const PlanIndex index = build_plan_index(requests, every_position(requests));
  ASSERT_EQ(index.shapes.size(), shapes.size()) << label;
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    ASSERT_TRUE(index.shapes[k] == shapes[k]) << label << " shape " << k;
  }
  ASSERT_EQ(index.plans.size(), requests.size()) << label;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SessionPlan& want = plans[i];
    const SessionLayout layout =
        session_layout(requests[i], continuous, chunk_tokens);
    ASSERT_EQ(layout.total_steps(), want.total_steps()) << label << " #" << i;
    ASSERT_EQ(layout.chunks, want.prefill_chunks) << label << " #" << i;
    ASSERT_EQ(layout.decode_steps, want.decode_steps) << label << " #" << i;
    // A slot the plan does not use reads 0.
    if (want.prefill_chunks == 0) {
      ASSERT_EQ(index.plans[i].prefill, 0u) << label << " #" << i;
    }
    if (want.decode_steps == 0) {
      ASSERT_EQ(index.plans[i].decode, 0u) << label << " #" << i;
    }
    const SessionPlan listed =
        build_session_plan(requests[i], continuous, chunk_tokens);
    ASSERT_EQ(listed.steps.size(), want.steps.size()) << label << " #" << i;
    ASSERT_EQ(listed.prefill_chunks, want.prefill_chunks) << label;
    ASSERT_EQ(listed.decode_steps, want.decode_steps) << label;
    for (int s = 0; s < want.total_steps(); ++s) {
      const SessionStep& step = want.steps[static_cast<std::size_t>(s)];
      const std::uint32_t slot = index.plans[i].slot(layout.chunks, s);
      ASSERT_EQ(slot, slots.at(step.shape))
          << label << " request " << i << " step " << s;
      ASSERT_TRUE(same_bits(layout.share(s), step.share))
          << label << " request " << i << " step " << s;
      const SessionStep& got = listed.steps[static_cast<std::size_t>(s)];
      ASSERT_TRUE(got.shape == step.shape) << label << " step " << s;
      ASSERT_TRUE(same_bits(got.share, step.share)) << label << " step " << s;
    }
  }
}

/// Both dispatch modes of `requests` at `chunk_tokens`.
void expect_matches_reference(const std::vector<InferenceRequest>& requests,
                              int chunk_tokens, const std::string& label) {
  expect_matches_reference(requests, /*continuous=*/false, chunk_tokens,
                           label + " whole");
  expect_matches_reference(requests, /*continuous=*/true, chunk_tokens,
                           label + " continuous");
}

constexpr const char* kSpellings[] = {
    "bert-mini",       "bert-tiny", "mobilebert",  "mobilebert-base",
    "mobilebert-tiny", "roberta",   "roberta-base"};

workload::WorkloadName name(const char* spelling) {
  return *workload::WorkloadName::parse(spelling);
}

InferenceRequest decode_request(int kv_len, int steps, int seq_len = 1,
                                const char* spelling = "bert-tiny") {
  InferenceRequest req;
  req.workload = name(spelling);
  req.phase = pipeline::Phase::kDecode;
  req.seq_len = seq_len;
  req.kv_len = kv_len;
  req.gen_steps = steps - 1;  // the request's own step counts
  return req;
}

InferenceRequest prefill_request(int seq_len, int gen_steps,
                                 const char* spelling = "bert-tiny") {
  InferenceRequest req;
  req.workload = name(spelling);
  req.seq_len = seq_len;
  req.gen_steps = gen_steps;
  return req;
}

/// A seeded stream drawn from a small palette, so that runs of one class
/// overlap, nest, abut and share starts: 1-7 workload spellings, 1-2
/// functions and breakpoint counts, decode seq_len 1-4, kv_len and prompt
/// lengths up to `spread` (at most 400), gen_steps 0-64.
std::vector<InferenceRequest> seeded_stream(Rng& rng, int& max_seq_len) {
  const int n = 1 + static_cast<int>(rng.next_below(60));
  const int spread = std::vector<int>{8, 64, 400}[rng.next_below(3)];
  const auto workloads = 1 + rng.next_below(7);
  const auto functions = 1 + rng.next_below(2);
  const auto tables = 1 + rng.next_below(2);
  const approx::NonLinearFn fns[] = {approx::NonLinearFn::kGelu,
                                     approx::NonLinearFn::kExp};
  std::vector<InferenceRequest> requests;
  max_seq_len = 1;
  for (int i = 0; i < n; ++i) {
    InferenceRequest req;
    req.id = i;
    req.arrival_us = static_cast<double>(i);
    req.workload = name(kSpellings[rng.next_below(workloads)]);
    req.function = fns[rng.next_below(functions)];
    req.breakpoints = 8 * static_cast<int>(1 + rng.next_below(tables));
    req.gen_steps = static_cast<int>(rng.next_below(65));
    if (rng.next_below(2) == 0) {
      req.phase = pipeline::Phase::kDecode;
      req.seq_len = 1 + static_cast<int>(rng.next_below(4));
      req.kv_len = 1 + static_cast<int>(rng.next_below(
                           static_cast<std::uint64_t>(spread)));
    } else {
      req.seq_len = 1 + static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(spread)));
      max_seq_len = std::max(max_seq_len, req.seq_len);
    }
    requests.push_back(req);
  }
  return requests;
}

TEST(PlanIndex, MatchesThePerStepReferenceOnSeededStreams) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    int max_seq_len = 1;
    const auto requests = seeded_stream(rng, max_seq_len);
    // Chunk sizes from 1 token to past the longest prompt.
    const int chunk_tokens = 1 + static_cast<int>(rng.next_below(
                                     static_cast<std::uint64_t>(max_seq_len) +
                                     8));
    expect_matches_reference(requests, chunk_tokens,
                             "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

/// The seven fields a session class is keyed on.
constexpr const char* kClassFields[] = {"workload", "function", "breakpoints",
                                        "phase",    "seq_len",  "kv_len",
                                        "gen_steps"};

/// Which of the kClassFields differ between `a` and `b`, in that order.
std::array<bool, 7> differing_fields(const InferenceRequest& a,
                                     const InferenceRequest& b) {
  return {a.workload != b.workload,       a.function != b.function,
          a.breakpoints != b.breakpoints, a.phase != b.phase,
          a.seq_len != b.seq_len,         a.kv_len != b.kv_len,
          a.gen_steps != b.gen_steps};
}

TEST(SessionClasses, GroupExactlyTheRequestsWithEqualShapeFields) {
  // The seeded streams of MatchesThePerStepReferenceOnSeededStreams, each
  // followed by replays of its own requests. Two requests share a class
  // exactly when their seven shape fields match; classes number from 0 in
  // first-seen order; and indexing each class's first request alone,
  // every member reads its own steps, its chunk count and its shares
  // through its class's plan, in both dispatch modes. Pairs that differ in
  // one field alone show that each field keys the class (phase never
  // differs alone: it fixes whether kv_len is 0).
  std::array<int, 7> alone{};  // pairs that differ in that field alone
  int repeats = 0;             // requests that join an earlier one's class
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    int max_seq_len = 1;
    auto requests = seeded_stream(rng, max_seq_len);
    const int chunk_tokens = 1 + static_cast<int>(rng.next_below(
                                     static_cast<std::uint64_t>(max_seq_len) +
                                     8));
    // The stream, then as many replays of its requests' shapes drawn at
    // random, so that classes gather several members.
    const std::size_t drawn = requests.size();
    for (std::size_t k = 0; k < drawn; ++k) {
      InferenceRequest replay = requests[rng.next_below(drawn)];
      replay.id = static_cast<int>(requests.size());
      replay.arrival_us = static_cast<double>(replay.id);
      requests.push_back(replay);
    }
    const std::string label = "seed " + std::to_string(seed);
    std::vector<std::uint32_t> ids(requests.size(), 0xffffffffu);
    const SessionClasses classes = group_session_classes(
        requests, [&ids](std::size_t i, std::uint32_t id) { ids[i] = id; });
    ASSERT_EQ(classes.members.size(), classes.first.size()) << label;
    std::vector<std::uint32_t> members(classes.first.size(), 0);
    std::uint32_t next_id = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_LT(ids[i], classes.first.size()) << label << " #" << i;
      if (ids[i] == next_id) {  // a new class: i is its first request
        ASSERT_EQ(classes.first[next_id++], i) << label << " #" << i;
      } else {
        ASSERT_LT(ids[i], next_id) << label << " #" << i;
        ASSERT_LT(classes.first[ids[i]], i) << label << " #" << i;
        ++repeats;
      }
      ++members[ids[i]];
      for (std::size_t j = 0; j < i; ++j) {
        const auto differs = differing_fields(requests[i], requests[j]);
        const auto count = std::count(differs.begin(), differs.end(), true);
        ASSERT_EQ(ids[i] == ids[j], count == 0)
            << label << " requests " << j << " and " << i;
        if (count == 1) {
          ++alone[static_cast<std::size_t>(
              std::find(differs.begin(), differs.end(), true) -
              differs.begin())];
        }
      }
    }
    ASSERT_EQ(members, classes.members) << label;

    const PlanIndex index = build_plan_index(requests, classes.first);
    ASSERT_EQ(index.plans.size(), classes.first.size()) << label;
    for (const bool continuous : {false, true}) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const SessionPlan want =
            reference_plan(requests[i], continuous, chunk_tokens);
        const SessionLayout layout = session_layout(
            requests[classes.first[ids[i]]], continuous, chunk_tokens);
        const PlanSlots& plan = index.plans[ids[i]];
        ASSERT_EQ(layout.chunks, want.prefill_chunks) << label << " #" << i;
        ASSERT_EQ(layout.total_steps(), want.total_steps())
            << label << " #" << i;
        for (int s = 0; s < want.total_steps(); ++s) {
          const SessionStep& step = want.steps[static_cast<std::size_t>(s)];
          ASSERT_TRUE(index.shapes[plan.slot(layout.chunks, s)] == step.shape)
              << label << " request " << i << " step " << s;
          ASSERT_TRUE(same_bits(layout.share(s), step.share))
              << label << " request " << i << " step " << s;
        }
      }
    }
  }
  // Coverage floors: 9,367 repeats, and 18 to 2,391 pairs per field.
  EXPECT_GT(repeats, 5000);
  for (std::size_t f = 0; f < alone.size(); ++f) {
    if (f == 3) continue;  // phase
    EXPECT_GE(alone[f], 10) << kClassFields[f];
  }
}

TEST(PlanIndex, MatchesTheReferenceWithThousandsOfDistinctRuns) {
  // 20,000 requests over all seven spellings, two functions and two
  // tables, with prompt and kv_len lengths spread over 6,000 and up to 16
  // generated tokens: thousands of distinct runs, so the run table grows
  // through many rehashes while runs of one class still overlap and nest.
  Rng rng(22);
  const approx::NonLinearFn fns[] = {approx::NonLinearFn::kGelu,
                                     approx::NonLinearFn::kExp};
  std::vector<InferenceRequest> requests;
  std::set<ShapeKey> runs;  // each run's first shape
  for (int i = 0; i < 20000; ++i) {
    InferenceRequest req;
    req.id = i;
    req.arrival_us = static_cast<double>(i);
    req.workload = name(kSpellings[rng.next_below(7)]);
    req.function = fns[rng.next_below(2)];
    req.breakpoints = 8 * static_cast<int>(1 + rng.next_below(2));
    req.gen_steps = static_cast<int>(rng.next_below(17));
    if (rng.next_below(2) == 0) {
      req.phase = pipeline::Phase::kDecode;
      req.seq_len = 1 + static_cast<int>(rng.next_below(4));
      req.kv_len = 1 + static_cast<int>(rng.next_below(6000));
    } else {
      req.seq_len = 1 + static_cast<int>(rng.next_below(6000));
    }
    const SessionPlan plan = reference_plan(req, /*continuous=*/false, 1);
    if (plan.prefill_chunks > 0) runs.insert(plan.steps.front().shape);
    if (plan.decode_steps > 0) {
      runs.insert(plan.steps[static_cast<std::size_t>(plan.prefill_chunks)]
                      .shape);
    }
    requests.push_back(req);
  }
  ASSERT_GE(runs.size(), 5000u);
  expect_matches_reference(requests, 512, "20,000 requests");
}

TEST(PlanIndex, MergesAdjacentNestedAndIdenticalRuns) {
  // One class: 10..14 and 15..19 abut, 30..40 holds 32..35 nested in it,
  // 50..54 twice, and 60..62 next to 60..69 (same start, the shorter
  // first). The index lists each kv_len once and every run reads its own
  // steps.
  const std::vector<InferenceRequest> requests = {
      decode_request(10, 5), decode_request(15, 5), decode_request(32, 4),
      decode_request(30, 11), decode_request(50, 5), decode_request(50, 5),
      decode_request(60, 3), decode_request(60, 10)};
  expect_matches_reference(requests, 64, "directed runs");
  const PlanIndex index = build_plan_index(requests, every_position(requests));
  EXPECT_EQ(index.shapes.size(), 10u + 11u + 5u + 10u);
  EXPECT_EQ(index.plans[1].decode, index.plans[0].decode + 5);
  EXPECT_EQ(index.plans[2].decode, index.plans[3].decode + 2);
  EXPECT_EQ(index.plans[4].decode, index.plans[5].decode);
  EXPECT_EQ(index.plans[6].decode, index.plans[7].decode);
}

TEST(PlanIndex, PrefillChainsShareTheSeqLenOneDecodeClass) {
  // A prefill's chain decodes at seq_len 1 from kv_len seq_len, so it
  // merges with seq_len 1 decode runs of its class; a seq_len 4 decode run
  // over the same kv_lens is a class of its own, and so is an alias.
  const std::vector<InferenceRequest> requests = {
      prefill_request(32, 8),         decode_request(28, 7),
      decode_request(34, 3),          decode_request(40, 6),
      decode_request(33, 4, 4),       prefill_request(32, 0),
      decode_request(18, 4, 1, "roberta"),
      prefill_request(16, 5, "roberta-base"),
      prefill_request(40, 3, "mobilebert")};
  for (int chunk = 1; chunk <= 41; chunk += 4) {
    expect_matches_reference(requests, chunk,
                             "chunk " + std::to_string(chunk));
  }
}

TEST(PlanIndex, ChainsEndingAtIntMaxIndexWithoutOverflow) {
  const int max = std::numeric_limits<int>::max();
  const std::vector<InferenceRequest> requests = {
      decode_request(max - 2, 3), decode_request(max - 1, 2),
      decode_request(max, 1),     prefill_request(max, 1),
      prefill_request(max - 4, 3), decode_request(max - 5, 3)};
  for (const auto& req : requests) ASSERT_TRUE(kv_chain_fits(req));
  expect_matches_reference(requests, 1 << 30, "INT_MAX chains");
  const PlanIndex index = build_plan_index(requests, every_position(requests));
  // The seq_len 1 class covers max - 5 .. max once; the two prompts add
  // their prefill shapes.
  EXPECT_EQ(index.shapes.size(), 6u + 2u);
}

TEST(ShapeKeyHash, EveryFieldTakesPart) {
  // Keys that differ in one field each, and keys along one kv_len run,
  // all hash apart.
  const ShapeKey base{name("bert-tiny"), 128, approx::NonLinearFn::kGelu, 16,
                      pipeline::Phase::kDecode, 300};
  std::vector<ShapeKey> keys(7, base);
  keys[1].workload = name("roberta");
  keys[2].seq_len = 129;
  keys[3].function = approx::NonLinearFn::kExp;
  keys[4].breakpoints = 32;
  keys[5].phase = pipeline::Phase::kPrefill;
  keys[6].kv_len = 301;
  for (int kv = 302; kv < 1302; ++kv) {
    keys.push_back(base);
    keys.back().kv_len = kv;
  }
  std::set<std::size_t> hashes;
  for (const auto& key : keys) hashes.insert(std::hash<ShapeKey>{}(key));
  EXPECT_EQ(hashes.size(), keys.size());
}

TEST(PlanIndex, RecordsAreCompactAndTriviallyCopyable) {
  // Two slots per plan, however long its generation.
  EXPECT_LE(sizeof(PlanSlots), 8u);
  EXPECT_TRUE(std::is_trivially_copyable_v<PlanSlots>);
  // The index is the distinct shapes plus one record per indexed request.
  EXPECT_EQ(sizeof(PlanIndex),
            sizeof(std::vector<ShapeKey>) + sizeof(std::vector<PlanSlots>));
}

TEST(PlanIndex, IndexesTheExactDecodeStreamWithoutPerStepStorage) {
  // The exact-decode benchmark stream at seed 1: 8,000 pure-decode
  // generations of up to 64 steps.
  TrafficProfile profile;
  profile.decode_fraction = 1.0;
  profile.max_steps = 64;
  const auto requests = generate_poisson(8000, profile, 1);
  const PlanIndex index = build_plan_index(requests, every_position(requests));
  std::int64_t steps = 0;
  for (const auto& req : requests) {
    steps += session_layout(req, /*continuous=*/false, 64).total_steps();
  }
  EXPECT_EQ(steps, 257400);
  EXPECT_EQ(index.plans.size(), 8000u);
  EXPECT_EQ(index.shapes.size(), 3067u);
  // Its session classes, one plan each, index the same distinct shapes.
  const SessionClasses classes =
      group_session_classes(requests, [](std::size_t, std::uint32_t) {});
  EXPECT_EQ(classes.first.size(), 2747u);
  const PlanIndex by_class = build_plan_index(requests, classes.first);
  EXPECT_EQ(by_class.plans.size(), 2747u);
  EXPECT_TRUE(by_class.shapes == index.shapes);
}

TEST(SessionSteps, AreTheChunksPlusTheRequestsDecodeSteps) {
  // The scheduler keeps only a session's chunk count (its class's
  // prefill_chunks, written from session_layout) and takes its step count
  // as prefill_chunks + decode_steps(request): dispatch ends a continuous
  // session on it and outcome_fingerprint prints it. Seeded requests of
  // both phases, generations from 0 to kMaxGenSteps steps and prompts at
  // and one token either side of a multiple of the chunk size, in both
  // dispatch modes, against the layout, the listed plan and the per-step
  // reference.
  Rng rng(2405);
  constexpr int kEdges[] = {0, 1, 2, kMaxGenSteps - 1, kMaxGenSteps};
  int prefills = 0;
  int decodes = 0;
  int longest = 0;
  for (int draw = 0; draw < 160; ++draw) {
    const int chunk_tokens = 1 + static_cast<int>(rng.next_below(160));
    InferenceRequest req;
    req.gen_steps =
        rng.next_below(2) == 0
            ? kEdges[rng.next_below(std::size(kEdges))]
            : static_cast<int>(rng.next_below(kMaxGenSteps + 1));
    if (rng.next_below(2) == 0) {
      req.phase = pipeline::Phase::kDecode;
      req.seq_len = 1 + static_cast<int>(rng.next_below(4));
      req.kv_len = 1 + static_cast<int>(rng.next_below(4096));
      ++decodes;
    } else {
      const int multiple = 1 + static_cast<int>(rng.next_below(40));
      const int offset = static_cast<int>(rng.next_below(3)) - 1;
      req.seq_len = std::max(1, multiple * chunk_tokens + offset);
      ++prefills;
    }
    longest = std::max(longest, req.gen_steps);
    for (const bool continuous : {false, true}) {
      const std::string label = "draw " + std::to_string(draw) +
                                (continuous ? " continuous" : " whole");
      const int chunks =
          session_layout(req, continuous, chunk_tokens).chunks;
      const int steps = chunks + decode_steps(req);
      EXPECT_EQ(steps,
                session_layout(req, continuous, chunk_tokens).total_steps())
          << label;
      const SessionPlan listed =
          build_session_plan(req, continuous, chunk_tokens);
      EXPECT_EQ(steps, listed.total_steps()) << label;
      EXPECT_EQ(chunks, listed.prefill_chunks) << label;
      const SessionPlan want = reference_plan(req, continuous, chunk_tokens);
      EXPECT_EQ(steps, want.total_steps()) << label;
      EXPECT_EQ(chunks, want.prefill_chunks) << label;
    }
  }
  EXPECT_GT(prefills, 40);
  EXPECT_GT(decodes, 40);
  EXPECT_EQ(longest, kMaxGenSteps);
}

TEST(FusionKeys, AreTheListedStepsTablesAndPhases) {
  // Dispatch keys each queued unit by fusion_key: an arrival by its
  // request's first step, a next step by the request and its class's chunk
  // count (session_layout's), and a retry copies its unit's key. Seeded
  // requests of both phases, every function, breakpoints up to
  // kMaxBreakpoints, generations up to 64 steps and random chunk sizes, in
  // both dispatch modes: every step's key must be the function, breakpoints
  // and phase of that step's shape in the listed plan.
  Rng rng(35);
  const auto& functions = approx::all_functions();
  int later_chunks = 0;     // prefill chunks after the first
  int first_decodes = 0;    // the first decode step after a prefill's chunks
  int decode_steps_seen = 0;
  for (int draw = 0; draw < 400; ++draw) {
    const int chunk_tokens = 1 + static_cast<int>(rng.next_below(160));
    InferenceRequest req;
    req.function = functions[rng.next_below(functions.size())];
    req.breakpoints =
        2 + static_cast<int>(rng.next_below(kMaxBreakpoints - 1));
    req.gen_steps = static_cast<int>(rng.next_below(65));
    if (rng.next_below(2) == 0) {
      req.phase = pipeline::Phase::kDecode;
      req.seq_len = 1 + static_cast<int>(rng.next_below(4));
      req.kv_len = 1 + static_cast<int>(rng.next_below(4096));
    } else {
      req.seq_len = 1 + static_cast<int>(rng.next_below(2048));
    }
    for (const bool continuous : {false, true}) {
      const std::string label = "draw " + std::to_string(draw) +
                                (continuous ? " continuous" : " whole");
      const int chunks = session_layout(req, continuous, chunk_tokens).chunks;
      const SessionPlan plan =
          build_session_plan(req, continuous, chunk_tokens);
      ASSERT_EQ(fusion_key(req), fusion_key(req, chunks, 0)) << label;
      for (int s = 0; s < plan.total_steps(); ++s) {
        const ShapeKey& shape = plan.steps[static_cast<std::size_t>(s)].shape;
        const FusionKey want{shape.function, shape.phase,
                             static_cast<std::uint16_t>(shape.breakpoints)};
        ASSERT_EQ(fusion_key(req, chunks, s), want)
            << label << " step " << s;
        if (shape.phase == pipeline::Phase::kDecode) ++decode_steps_seen;
        if (s > 0 && s < chunks) ++later_chunks;
        if (s > 0 && s == chunks) ++first_decodes;
      }
    }
  }
  EXPECT_GT(later_chunks, 1000);
  EXPECT_GT(first_decodes, 100);
  EXPECT_GT(decode_steps_seen, 10000);
}

TEST(ChunkShares, SumToOneWithinRounding) {
  // Every prompt up to 512 tokens in every chunk size: the shares, summed
  // in plan order as pricing folds them, land within chunks x 2^-52 of 1.
  // They are not exactly 1 in general, only for an unchunked prompt.
  double worst = 0.0;
  for (int seq_len = 1; seq_len <= 512; ++seq_len) {
    const InferenceRequest req = prefill_request(seq_len, 0);
    EXPECT_EQ(session_layout(req, /*continuous=*/false, 1).share(0), 1.0);
    for (int chunk = 1; chunk <= seq_len; ++chunk) {
      const SessionLayout layout =
          session_layout(req, /*continuous=*/true, chunk);
      double sum = 0.0;
      for (int c = 0; c < layout.chunks; ++c) sum += layout.share(c);
      const double error = std::abs(sum - 1.0);
      ASSERT_LE(error, layout.chunks * 0x1p-52)
          << "seq_len " << seq_len << " chunk " << chunk;
      worst = std::max(worst, error);
    }
  }
  EXPECT_GT(worst, 0.0);
  // The first counterexample: six 1-token chunks sum to 1 - 2^-53.
  const SessionLayout six =
      session_layout(prefill_request(6, 0), /*continuous=*/true, 1);
  double sum = 0.0;
  for (int c = 0; c < six.chunks; ++c) sum += six.share(c);
  EXPECT_EQ(sum, 1.0 - 0x1p-53);
}

}  // namespace
}  // namespace nova::serve
