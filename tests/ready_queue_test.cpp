// Randomized differential test for serve::ReadyQueue against a
// std::set<Pending>, the container the dispatch loop's queue of
// not-yet-started sessions replaced.
//
// The queue's claim is "the same entries in the same (ready_us, id) order
// as a std::set<Pending> seeded with every request's first attempt", fusion
// keys included, under the dispatch loop's access pattern: read the front,
// shed it, walk the queue, take a batch -- a FIFO prefix (whole-request
// fusion) or any subset of the ready entries (continuous fusion skips
// mismatches, so it takes arrivals from behind the front and tombstones
// them) -- and push retries back, including retries of tombstoned arrivals. The test drives
// both through seeded streams with tied arrivals and retries whose ready
// times tie arrivals and each other, and requires the same front and the
// same full walk at every step. Pending compares every field, so a walk
// matches only when each entry also carries its request's function,
// breakpoints and phase as its fusion key, and a retry its unit's key.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "approx/functions.hpp"
#include "common/rng.hpp"
#include "pipeline/op_graph.hpp"
#include "serve/ready_queue.hpp"
#include "serve/request.hpp"

namespace {

using nova::Rng;
using nova::approx::NonLinearFn;
using nova::pipeline::Phase;
using nova::serve::FusionKey;
using nova::serve::InferenceRequest;
using nova::serve::kMaxBreakpoints;
using nova::serve::Pending;
using nova::serve::ReadyQueue;

/// A stream obeying the scheduler's contract (ids 0..n-1, sorted arrivals)
/// whose arrivals sit on a coarse integer grid, so runs of equal
/// arrival_us are common and the id tie-break decides their order. Each
/// request draws its function, breakpoints (up to kMaxBreakpoints) and
/// phase, the fields of its first step's fusion key.
std::vector<InferenceRequest> tied_stream(Rng& rng, int n) {
  constexpr NonLinearFn kFunctions[] = {NonLinearFn::kGelu, NonLinearFn::kExp,
                                        NonLinearFn::kTanh};
  constexpr int kBreakpoints[] = {2, 16, 255, 256, kMaxBreakpoints};
  std::vector<InferenceRequest> requests(static_cast<std::size_t>(n));
  double clock = 0.0;
  for (int i = 0; i < n; ++i) {
    clock += static_cast<double>(rng.next_below(3));  // 0 = tie
    auto& req = requests[static_cast<std::size_t>(i)];
    req.id = i;
    req.arrival_us = clock;
    req.function = kFunctions[rng.next_below(std::size(kFunctions))];
    req.breakpoints = kBreakpoints[rng.next_below(std::size(kBreakpoints))];
    if (rng.next_below(2) == 0) {
      req.phase = Phase::kDecode;
      req.kv_len = 1 + static_cast<int>(rng.next_below(64));
    }
  }
  return requests;
}

/// Request `req`'s first attempt, keyed by its own function, phase and
/// breakpoints: the entry the reference set is seeded with.
Pending first_attempt(const InferenceRequest& req) {
  return Pending{req.arrival_us, req.id, 1, 0,
                 FusionKey{req.function, req.phase,
                           static_cast<std::uint16_t>(req.breakpoints)}};
}

/// Every entry of `queue`, in walk order.
std::vector<Pending> walk_all(const ReadyQueue& queue) {
  std::vector<Pending> out;
  for (auto it = queue.walk(); !it.done(); ++it) out.push_back(*it);
  return out;
}

/// What an episode exercised, so the test can check the paths it claims
/// to cover were actually taken.
struct Coverage {
  int batches = 0;            ///< batches taken and compared
  int long_batches = 0;       ///< batches of two or more entries
  int mixed_batches = 0;      ///< batches holding an arrival and a retry
  int sheds = 0;
  int retries = 0;
  int tombstones = 0;         ///< arrivals taken from behind the front
  int tombstone_retries = 0;  ///< retries of a tombstoned arrival
  int foreign_keys = 0;       ///< batch members keyed unlike their head
};

/// One randomized episode, accumulating into `seen`.
void run_episode(std::uint64_t seed, Coverage& seen) {
  Rng rng(seed);
  const int n = 1 + static_cast<int>(rng.next_below(160));
  const auto requests = tied_stream(rng, n);

  ReadyQueue queue(requests);
  std::set<Pending> reference;
  for (const auto& req : requests) reference.insert(first_attempt(req));

  for (int step = 0; !reference.empty(); ++step) {
    ASSERT_FALSE(queue.empty()) << "step " << step;
    const Pending head = *reference.begin();
    ASSERT_EQ(*queue.walk(), head) << "front diverged at step " << step;
    ASSERT_EQ(walk_all(queue),
              std::vector<Pending>(reference.begin(), reference.end()))
        << "walk diverged at step " << step;

    if (rng.next_below(5) == 0) {
      // Shed the head: it leaves without a batch.
      queue.erase(head);
      reference.erase(reference.begin());
      ++seen.sheds;
      continue;
    }

    // A batch: the head plus entries of the first few behind it. Half the
    // batches are FIFO prefixes; the rest take any subset, as continuous
    // fusion does when it skips mismatches.
    const bool prefix = rng.next_below(2) == 0;
    const std::size_t scan = rng.next_below(12);
    std::vector<Pending> batch{head};
    auto it = queue.walk();
    ++it;
    for (std::size_t k = 0; k < scan && !it.done(); ++k, ++it) {
      if (prefix || rng.next_below(2) == 0) batch.push_back(*it);
    }
    for (const auto& member : batch) {
      if (!(member.key == head.key)) ++seen.foreign_keys;
    }
    // An arrival taken while it is not the front is tombstoned.
    std::vector<bool> tombstoned;
    for (const auto& member : batch) {
      tombstoned.push_back(member.attempt == 1 &&
                           !(member == *reference.begin()));
      if (tombstoned.back()) ++seen.tombstones;
      queue.erase(member);
      reference.erase(member);
    }
    ++seen.batches;
    if (batch.size() > 1) ++seen.long_batches;
    bool any_arrival = false;
    bool any_retry = false;
    for (const auto& member : batch) {
      (member.attempt == 1 ? any_arrival : any_retry) = true;
    }
    if (any_arrival && any_retry) ++seen.mixed_batches;

    // Some members fail and retry. Their ready times land on the arrival
    // grid (often tying a queued arrival or another retry), so the merge
    // has to break (ready_us, id) ties across both sources.
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Pending& member = batch[k];
      if (member.attempt >= 4 || rng.next_below(3) != 0) continue;
      const auto& other = requests[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(n)))];
      const double ready =
          rng.next_below(2) == 0
              ? other.arrival_us
              : head.ready_us + static_cast<double>(rng.next_below(6));
      const Pending retry{ready, member.id, member.attempt + 1, 0,
                          member.key};
      queue.push(retry);
      reference.insert(retry);
      ++seen.retries;
      if (tombstoned[k]) ++seen.tombstone_retries;
    }
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(queue.walk().done());
}

TEST(ReadyQueue, MatchesOrderedSetOnRandomTraffic) {
  Coverage seen;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    run_episode(seed, seen);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "episode " << seed << " diverged";
  }
  // Every path the dispatch loop uses was compared, many times over.
  EXPECT_GT(seen.batches, 1000);
  EXPECT_GT(seen.long_batches, 500);
  EXPECT_GT(seen.mixed_batches, 100);
  EXPECT_GT(seen.sheds, 500);
  EXPECT_GT(seen.retries, 1000);
  EXPECT_GT(seen.tombstones, 1000);
  EXPECT_GT(seen.tombstone_retries, 100);
  EXPECT_GT(seen.foreign_keys, 1000);
}

/// The default request's fusion key: GELU at 16 breakpoints, prefill.
constexpr FusionKey kGelu16{NonLinearFn::kGelu, Phase::kPrefill, 16};

TEST(ReadyQueue, RetryTyingAnArrivalOrdersById) {
  std::vector<InferenceRequest> requests(4);
  const double arrivals[] = {0.0, 5.0, 5.0, 10.0};
  for (int i = 0; i < 4; ++i) {
    requests[static_cast<std::size_t>(i)].id = i;
    requests[static_cast<std::size_t>(i)].arrival_us =
        arrivals[static_cast<std::size_t>(i)];
  }
  ReadyQueue queue(requests);
  EXPECT_EQ(*queue.walk(), (Pending{0.0, 0, 1, 0, kGelu16}));
  queue.erase(*queue.walk());
  // Request 0 retries at 5.0: it ties requests 1 and 2 and wins on id.
  queue.push(Pending{5.0, 0, 2, 0, kGelu16});
  const std::vector<Pending> want{{5.0, 0, 2, 0, kGelu16},
                                  {5.0, 1, 1, 0, kGelu16},
                                  {5.0, 2, 1, 0, kGelu16},
                                  {10.0, 3, 1, 0, kGelu16}};
  EXPECT_EQ(walk_all(queue), want);
  // Taking entries consumes from both sources.
  queue.erase(want[0]);
  queue.erase(want[1]);
  queue.erase(want[2]);
  EXPECT_EQ(*queue.walk(), (Pending{10.0, 3, 1, 0, kGelu16}));
}

TEST(ReadyQueue, TombstonedArrivalsAreSkippedAndMayRetry) {
  std::vector<InferenceRequest> requests(5);
  for (int i = 0; i < 5; ++i) {
    requests[static_cast<std::size_t>(i)].id = i;
    requests[static_cast<std::size_t>(i)].arrival_us = 1.0;
  }
  ReadyQueue queue(requests);
  // Take arrivals 1 and 2 from behind the front: the walk skips them.
  queue.erase(Pending{1.0, 2, 1, 0, kGelu16});
  queue.erase(Pending{1.0, 1, 1, 0, kGelu16});
  EXPECT_EQ(walk_all(queue),
            (std::vector<Pending>{{1.0, 0, 1, 0, kGelu16},
                                  {1.0, 3, 1, 0, kGelu16},
                                  {1.0, 4, 1, 0, kGelu16}}));
  // Taking the front moves the cursor past both tombstones at once.
  queue.erase(*queue.walk());
  EXPECT_EQ(*queue.walk(), (Pending{1.0, 3, 1, 0, kGelu16}));
  // A tombstoned arrival's retry is pushable, and orders by (ready, id).
  queue.push(Pending{1.0, 2, 2, 0, kGelu16});
  EXPECT_EQ(*queue.walk(), (Pending{1.0, 2, 2, 0, kGelu16}));
  queue.erase(Pending{1.0, 4, 1, 0, kGelu16});
  queue.erase(Pending{1.0, 3, 1, 0, kGelu16});
  queue.erase(Pending{1.0, 2, 2, 0, kGelu16});
  EXPECT_TRUE(queue.empty());
}

TEST(ReadyQueue, ArrivalsCarryTheirRequestsFirstStepKey) {
  // Each arrival's key is its request's table and own phase: a decode
  // request's first step is a decode step, a prefill's a chunk.
  std::vector<InferenceRequest> requests(3);
  for (int i = 0; i < 3; ++i) {
    requests[static_cast<std::size_t>(i)].id = i;
    requests[static_cast<std::size_t>(i)].arrival_us = 2.0 * i;
  }
  requests[1].function = NonLinearFn::kExp;
  requests[1].breakpoints = kMaxBreakpoints;
  requests[2].phase = Phase::kDecode;
  requests[2].kv_len = 7;
  const ReadyQueue queue(requests);
  EXPECT_EQ(walk_all(queue),
            (std::vector<Pending>{
                {0.0, 0, 1, 0, kGelu16},
                {2.0, 1, 1, 0, {NonLinearFn::kExp, Phase::kPrefill, 4096}},
                {4.0, 2, 1, 0, {NonLinearFn::kGelu, Phase::kDecode, 16}}}));
}

TEST(ReadyQueue, EmptyStreamIsEmpty) {
  const std::vector<InferenceRequest> none;
  const ReadyQueue queue(none);
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(queue.walk().done());
}

}  // namespace
