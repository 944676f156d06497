// Randomized differential test for serve::ReadyQueue against the
// std::set<Pending> it replaced in whole-request dispatch.
//
// The queue's claim is "the same entries in the same (ready_us, id) order
// as a std::set<Pending> seeded with every request's first attempt", under
// whole-request dispatch's access pattern: read the front, shed it, take a
// FIFO run of 1..cap entries that stops at the first misfit, and push
// retries back. The test drives both through seeded streams with tied
// arrivals and retries whose ready times tie arrivals and each other, and
// requires the same front, size and taken run at every step.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "serve/ready_queue.hpp"
#include "serve/request.hpp"

namespace {

using nova::Rng;
using nova::serve::InferenceRequest;
using nova::serve::Pending;
using nova::serve::ReadyQueue;

/// A stream obeying the scheduler's contract (ids 0..n-1, sorted arrivals)
/// whose arrivals sit on a coarse integer grid, so runs of equal
/// arrival_us are common and the id tie-break decides their order.
std::vector<InferenceRequest> tied_stream(Rng& rng, int n) {
  std::vector<InferenceRequest> requests(static_cast<std::size_t>(n));
  double clock = 0.0;
  for (int i = 0; i < n; ++i) {
    clock += static_cast<double>(rng.next_below(3));  // 0 = tie
    auto& req = requests[static_cast<std::size_t>(i)];
    req.id = i;
    req.arrival_us = clock;
  }
  return requests;
}

/// The old dispatch_whole fusion scan over the reference set: the front,
/// then entries in order until one misfits or the run holds `cap`.
template <typename Fits>
std::vector<Pending> reference_run(const std::set<Pending>& reference,
                                   std::size_t cap, const Fits& fits) {
  std::vector<Pending> run{*reference.begin()};
  for (auto it = std::next(reference.begin());
       it != reference.end() && run.size() < cap; ++it) {
    if (!fits(*it)) break;
    run.push_back(*it);
  }
  return run;
}

/// What an episode exercised, so the test can check the paths it claims
/// to cover were actually taken.
struct Coverage {
  int runs = 0;        ///< runs taken and compared
  int long_runs = 0;   ///< runs of two or more entries
  int mixed_runs = 0;  ///< runs holding both an arrival and a retry
  int sheds = 0;
  int retries = 0;
};

/// One randomized episode, accumulating into `seen`.
void run_episode(std::uint64_t seed, Coverage& seen) {
  Rng rng(seed);
  const int n = 1 + static_cast<int>(rng.next_below(160));
  const auto requests = tied_stream(rng, n);
  // A per-request fusion class, like the (function, breakpoints, phase)
  // match: few classes so runs both continue and break.
  std::vector<int> klass(static_cast<std::size_t>(n));
  for (auto& k : klass) k = static_cast<int>(rng.next_below(3));

  ReadyQueue queue(requests);
  std::set<Pending> reference;
  for (const auto& req : requests) {
    reference.insert(Pending{req.arrival_us, req.id, 1});
  }

  std::vector<Pending> got;
  for (int step = 0; !reference.empty(); ++step) {
    EXPECT_FALSE(queue.empty());
    EXPECT_EQ(queue.size(), reference.size()) << "step " << step;
    const Pending head = *reference.begin();
    EXPECT_EQ(queue.front(), head) << "front diverged at step " << step;
    if (queue.empty() || !(queue.front() == head)) return;

    if (rng.next_below(5) == 0) {
      // Shed the head: it leaves without a run.
      queue.pop_front(1);
      reference.erase(reference.begin());
      ++seen.sheds;
      continue;
    }

    const std::size_t cap = 1 + rng.next_below(8);
    const double horizon =
        head.ready_us + static_cast<double>(rng.next_below(4));
    const int head_class = klass[static_cast<std::size_t>(head.id)];
    const auto fits = [&](const Pending& entry) {
      return entry.ready_us <= horizon &&
             klass[static_cast<std::size_t>(entry.id)] == head_class;
    };
    queue.peek_run(cap, fits, got);
    const auto want = reference_run(reference, cap, fits);
    EXPECT_EQ(got, want) << "run diverged at step " << step;
    if (got != want) return;
    ++seen.runs;
    if (got.size() > 1) ++seen.long_runs;
    bool any_arrival = false;
    bool any_retry = false;
    for (const auto& member : got) {
      (member.attempt == 1 ? any_arrival : any_retry) = true;
    }
    if (any_arrival && any_retry) ++seen.mixed_runs;
    queue.pop_front(got.size());
    for (const auto& member : want) reference.erase(member);

    // Some members fail and retry. Their ready times land on the arrival
    // grid (often tying a queued arrival or another retry), so the merge
    // has to break (ready_us, id) ties across both sources.
    for (const auto& member : want) {
      if (member.attempt >= 4 || rng.next_below(3) != 0) continue;
      const auto& other = requests[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(n)))];
      const double ready =
          rng.next_below(2) == 0
              ? other.arrival_us
              : head.ready_us + static_cast<double>(rng.next_below(6));
      const Pending retry{ready, member.id, member.attempt + 1};
      queue.push(retry);
      reference.insert(retry);
      ++seen.retries;
    }
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(ReadyQueue, MatchesOrderedSetOnRandomTraffic) {
  Coverage seen;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    run_episode(seed, seen);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "episode " << seed << " diverged";
  }
  // Every path the dispatch loop uses was compared, many times over.
  EXPECT_GT(seen.runs, 1000);
  EXPECT_GT(seen.long_runs, 100);
  EXPECT_GT(seen.mixed_runs, 100);
  EXPECT_GT(seen.sheds, 1000);
  EXPECT_GT(seen.retries, 1000);
}

TEST(ReadyQueue, RetryTyingAnArrivalOrdersById) {
  std::vector<InferenceRequest> requests(4);
  const double arrivals[] = {0.0, 5.0, 5.0, 10.0};
  for (int i = 0; i < 4; ++i) {
    requests[static_cast<std::size_t>(i)].id = i;
    requests[static_cast<std::size_t>(i)].arrival_us =
        arrivals[static_cast<std::size_t>(i)];
  }
  ReadyQueue queue(requests);
  EXPECT_EQ(queue.front(), (Pending{0.0, 0, 1}));
  queue.pop_front(1);
  // Request 0 retries at 5.0: it ties requests 1 and 2 and wins on id.
  queue.push(Pending{5.0, 0, 2});
  std::vector<Pending> run;
  queue.peek_run(8, [](const Pending& p) { return p.ready_us <= 5.0; }, run);
  const std::vector<Pending> want{{5.0, 0, 2}, {5.0, 1, 1}, {5.0, 2, 1}};
  EXPECT_EQ(run, want);
  // Taking a run consumes from both sources.
  queue.pop_front(run.size());
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.front(), (Pending{10.0, 3, 1}));
}

TEST(ReadyQueue, RunStopsAtTheFirstMisfitAndAtTheCap) {
  std::vector<InferenceRequest> requests(5);
  for (int i = 0; i < 5; ++i) {
    requests[static_cast<std::size_t>(i)].id = i;
    requests[static_cast<std::size_t>(i)].arrival_us = 1.0;
  }
  const ReadyQueue queue(requests);
  std::vector<Pending> run;
  // Id 2 misfits: the run stops there even though 3 and 4 would fit.
  queue.peek_run(8, [](const Pending& p) { return p.id != 2; }, run);
  EXPECT_EQ(run.size(), 2u);
  // The front is taken even when the predicate rejects everything.
  queue.peek_run(8, [](const Pending&) { return false; }, run);
  EXPECT_EQ(run, (std::vector<Pending>{{1.0, 0, 1}}));
  queue.peek_run(3, [](const Pending&) { return true; }, run);
  EXPECT_EQ(run.size(), 3u);
  // peek_run leaves the queue as it was.
  EXPECT_EQ(queue.size(), 5u);
}

TEST(ReadyQueue, EmptyStreamIsEmpty) {
  const std::vector<InferenceRequest> none;
  const ReadyQueue queue(none);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

}  // namespace
