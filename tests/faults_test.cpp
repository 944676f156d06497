// Tests for the failure-injection substrate: FaultPlan validation and
// window queries, the seeded MTBF/MTTR plan drawing, and the FailurePolicy
// retry/backoff/overload helpers. Scheduler-level fault behaviour (retries,
// shedding, determinism under faults) lives in serve_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/faults.hpp"
#include "serve/policy.hpp"

namespace nova::serve {
namespace {

FaultWindow outage(double start, double end) { return {start, end}; }

TEST(FaultPlan, DefaultPlanIsEmptyAndAlwaysUp) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.instances(), 0);
  EXPECT_TRUE(plan.windows(5).empty());
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 123.0), 123.0);
  EXPECT_FALSE(plan.outage_in(0, 0.0, 1e9).has_value());
  EXPECT_DOUBLE_EQ(plan.downtime_in(0, 0.0, 1e9), 0.0);
}

TEST(FaultPlan, WindowQueriesWalkTheTimeline) {
  const auto plan =
      FaultPlan::make({{outage(10.0, 20.0), outage(40.0, 50.0)}});
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.instances(), 1);

  // next_up: pushed past any outage covering t.
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 15.0), 20.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 20.0), 20.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 35.0), 35.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 45.0), 50.0);
  // Instances past the plan are always healthy.
  EXPECT_DOUBLE_EQ(plan.next_up_us(1, 15.0), 15.0);

  // outage_in: the first outage OPENING strictly inside (start, finish).
  ASSERT_TRUE(plan.outage_in(0, 5.0, 15.0).has_value());
  EXPECT_DOUBLE_EQ(*plan.outage_in(0, 5.0, 15.0), 10.0);
  EXPECT_FALSE(plan.outage_in(0, 10.0, 15.0).has_value());  // opened at start
  EXPECT_FALSE(plan.outage_in(0, 20.0, 30.0).has_value());
  EXPECT_FALSE(plan.outage_in(0, 5.0, 10.0).has_value());  // opens at finish
  ASSERT_TRUE(plan.outage_in(0, 20.0, 60.0).has_value());
  EXPECT_DOUBLE_EQ(*plan.outage_in(0, 20.0, 60.0), 40.0);

  // downtime_in: clipped outage overlap.
  EXPECT_DOUBLE_EQ(plan.downtime_in(0, 0.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(plan.downtime_in(0, 15.0, 45.0), 10.0);
  EXPECT_DOUBLE_EQ(plan.downtime_in(0, 20.0, 40.0), 0.0);
}

// The window queries as linear walks from the first window, the form they
// had before each walk started at a partition point. The differential test
// below holds the partition-point queries to these answers.
double reference_next_up_us(const std::vector<FaultWindow>& windows,
                            double t) {
  for (const auto& window : windows) {
    if (window.end_us <= t) continue;
    if (window.start_us > t) break;
    t = window.end_us;
  }
  return t;
}

std::optional<double> reference_outage_in(
    const std::vector<FaultWindow>& windows, double start, double finish) {
  for (const auto& window : windows) {
    if (window.start_us >= finish) break;
    if (window.start_us > start) return window.start_us;
  }
  return std::nullopt;
}

/// One instance's random timeline on a half-microsecond grid: outage chains
/// whose windows abut (one ends where the next starts), spaced apart.
std::vector<FaultWindow> draw_timeline(Rng& rng) {
  std::vector<FaultWindow> windows;
  const auto count = rng.next_below(40);
  double t = 0.5 * static_cast<double>(rng.next_below(10));
  for (std::uint64_t w = 0; w < count; ++w) {
    const bool abut = rng.next_below(3) != 0;
    const double start =
        abut ? t : t + 0.5 * static_cast<double>(1 + rng.next_below(20));
    const double end =
        start + 0.5 * static_cast<double>(1 + rng.next_below(16));
    windows.push_back(outage(start, end));
    t = end;
  }
  return windows;
}

TEST(FaultPlan, QueriesMatchTheLinearWalksOnRandomPlans) {
  int chained = 0;  // next_up answers pushed through two or more outages
  int opened = 0;   // outage_in answers that found an outage
  int past_plan = 0;  // instances queried past the plan's instance count
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::vector<std::vector<FaultWindow>> timelines(1 + rng.next_below(4));
    for (auto& timeline : timelines) timeline = draw_timeline(rng);
    const FaultPlan plan = FaultPlan::make(timelines);
    // Query times: every window start and end exactly, the midpoints, a
    // time before the first window and one past the last.
    std::vector<double> times{0.0, 1e9};
    for (const auto& timeline : timelines) {
      for (const auto& window : timeline) {
        times.push_back(window.start_us);
        times.push_back(window.end_us);
        times.push_back(0.5 * (window.start_us + window.end_us));
      }
    }
    // Two instances past the plan's end answer like the empty plan: the
    // reference reads the drawn timelines, and no windows past them.
    const std::vector<FaultWindow> none;
    const int instances = plan.instances() + 2;
    for (int i = 0; i < instances; ++i) {
      const auto index = static_cast<std::size_t>(i);
      const auto& windows = index < timelines.size() ? timelines[index] : none;
      if (index >= timelines.size()) ++past_plan;
      for (const double t : times) {
        const double up = plan.next_up_us(i, t);
        ASSERT_EQ(up, reference_next_up_us(windows, t))
            << "seed " << seed << " instance " << i << " t " << t;
        int crossed = 0;
        for (const auto& window : windows) {
          if (window.start_us >= t && window.end_us <= up) ++crossed;
        }
        if (crossed >= 2) ++chained;
        // Spans from t to a later, equal and earlier query time.
        for (const double finish :
             {times[rng.next_below(times.size())], t, t + 0.5, t - 0.5}) {
          const auto got = plan.outage_in(i, t, finish);
          ASSERT_EQ(got, reference_outage_in(windows, t, finish))
              << "seed " << seed << " instance " << i << " span (" << t
              << ", " << finish << ")";
          if (got) ++opened;
        }
      }
    }
  }
  EXPECT_GT(chained, 1000);
  EXPECT_GT(opened, 1000);
  EXPECT_EQ(past_plan, 400);
}

TEST(FaultPlan, DrawIsDeterministicAndStableUnderPoolResizing) {
  FaultProfile profile;
  profile.mtbf_us = 500.0;
  profile.mttr_us = 100.0;
  const auto a = draw_fault_plan(profile, 3, 50000.0, 42);
  const auto b = draw_fault_plan(profile, 5, 50000.0, 42);
  ASSERT_FALSE(a.empty());
  // Instance i's windows are keyed by (seed, i) alone: growing the pool
  // must not perturb existing instances.
  for (int i = 0; i < 3; ++i) {
    const auto& wa = a.windows(i);
    const auto& wb = b.windows(i);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t w = 0; w < wa.size(); ++w) {
      EXPECT_DOUBLE_EQ(wa[w].start_us, wb[w].start_us);
      EXPECT_DOUBLE_EQ(wa[w].end_us, wb[w].end_us);
    }
  }
  // Another seed gives another plan.
  const auto c = draw_fault_plan(profile, 3, 50000.0, 43);
  ASSERT_FALSE(c.empty());
  ASSERT_FALSE(a.windows(0).empty());
  ASSERT_FALSE(c.windows(0).empty());
  const bool differs =
      a.windows(0).size() != c.windows(0).size() ||
      a.windows(0).front().start_us != c.windows(0).front().start_us;
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, DrawMatchesTheConfiguredUnavailability) {
  FaultProfile profile;
  profile.mtbf_us = 900.0;
  profile.mttr_us = 100.0;  // long-run unavailability 10%
  const double horizon = 2e6;
  const auto plan = draw_fault_plan(profile, 4, horizon, 7);
  double down = 0.0;
  for (int i = 0; i < 4; ++i) down += plan.downtime_in(i, 0.0, horizon);
  const double unavailability = down / (4.0 * horizon);
  EXPECT_GT(unavailability, 0.07);
  EXPECT_LT(unavailability, 0.13);
}

// Bit-level pins of drawn plans. The fault-timeline goldens print windows
// to three decimals, and the outcome fingerprints see them only through
// dispatch, so a draw that moves a window by a rounding step shows here
// first.

/// 64-bit FNV-1a over each instance's window count and the bit patterns of
/// its windows' start and end times, instance by instance.
std::uint64_t plan_hash(const FaultPlan& plan, int instances) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (int i = 0; i < instances; ++i) {
    const auto& windows = plan.windows(i);
    mix(windows.size());
    for (const auto& window : windows) {
      mix(std::bit_cast<std::uint64_t>(window.start_us));
      mix(std::bit_cast<std::uint64_t>(window.end_us));
    }
  }
  return hash;
}

/// One pinned draw: profile, pool size, horizon and seed.
struct DrawnPlanCase {
  const char* name;
  double mtbf_us;
  double mttr_us;
  int instances;
  double horizon_us;
  std::uint64_t seed;
  std::uint64_t pinned;
};

void PrintTo(const DrawnPlanCase& pin, std::ostream* os) { *os << pin.name; }

class DrawnPlanGolden : public ::testing::TestWithParam<DrawnPlanCase> {};

TEST_P(DrawnPlanGolden, WindowBitsMatchThePin) {
  const DrawnPlanCase& pin = GetParam();
  FaultProfile profile;
  profile.mtbf_us = pin.mtbf_us;
  profile.mttr_us = pin.mttr_us;
  const auto plan =
      draw_fault_plan(profile, pin.instances, pin.horizon_us, pin.seed);
  // Each horizon spans about 450 fail/recover cycles per instance.
  for (int i = 0; i < pin.instances; ++i) {
    EXPECT_GT(plan.windows(i).size(), 300u) << "instance " << i;
  }
  const std::uint64_t hash = plan_hash(plan, pin.instances);
  EXPECT_EQ(hash, pin.pinned) << "plan hash 0x" << std::hex << hash;
}

// The profile of both fault-timeline goldens (serve_whole_faults and
// serve_continuous_faults), and that of the continuous-faults benchmark
// workload.
INSTANTIATE_TEST_SUITE_P(
    Pinned, DrawnPlanGolden,
    ::testing::Values(
        DrawnPlanCase{"serveWholeFaults", 2000.0, 200.0, 4, 1e6, 7,
                      0xf9b85847f1e04489ULL},
        DrawnPlanCase{"continuousFaults", 20000.0, 2000.0, 8, 1e7, 42,
                      0xe48b2781cf1cfe03ULL}),
    [](const ::testing::TestParamInfo<DrawnPlanCase>& info) {
      return std::string(info.param.name);
    });

TEST(FaultPlanDeathTest, RejectsOverlappingWindows) {
  EXPECT_DEATH((void)FaultPlan::make({{outage(0.0, 10.0), outage(5.0, 15.0)}}),
               "sorted by start and non-overlapping");
  EXPECT_DEATH(
      (void)FaultPlan::make({{outage(20.0, 30.0), outage(0.0, 10.0)}}),
      "sorted by start and non-overlapping");
}

TEST(FaultPlanDeathTest, RejectsDegenerateWindows) {
  EXPECT_DEATH((void)FaultPlan::make({{outage(10.0, 10.0)}}),
               "duration must be positive");
  EXPECT_DEATH((void)FaultPlan::make({{outage(10.0, 5.0)}}),
               "duration must be positive");
  EXPECT_DEATH((void)FaultPlan::make({{outage(-1.0, 5.0)}}),
               "finite and start >= 0");
  EXPECT_DEATH(
      (void)FaultPlan::make({{outage(std::nan(""), 5.0)}}),
      "finite and start >= 0");
}

TEST(FaultPlanDeathTest, RejectsNonPositiveMtbfMttr) {
  FaultProfile profile;
  profile.mttr_us = -5.0;  // a negative MTTR inverts every repair draw
  EXPECT_DEATH((void)draw_fault_plan(profile, 1, 1000.0, 1), "precondition");
  profile.mttr_us = 0.0;
  EXPECT_DEATH((void)draw_fault_plan(profile, 1, 1000.0, 1), "precondition");
  profile.mttr_us = 100.0;
  profile.mtbf_us = 0.0;
  EXPECT_DEATH((void)draw_fault_plan(profile, 1, 1000.0, 1), "precondition");
}

TEST(RequestStatusNames, CoverEveryStatus) {
  EXPECT_STREQ(to_string(RequestStatus::kOk), "ok");
  EXPECT_STREQ(to_string(RequestStatus::kRetried), "retried");
  EXPECT_STREQ(to_string(RequestStatus::kShed), "shed");
  EXPECT_STREQ(to_string(RequestStatus::kDeadlineMiss), "deadline-miss");
  EXPECT_STREQ(to_string(RequestStatus::kFailed), "failed");
  EXPECT_EQ(kRequestStatusCount, 5);
}

TEST(FailurePolicy, BackoffGrowsExponentiallyAndCaps) {
  // Retry a waits in [b, 1.25 b), b = 50 us * 2^(a-1) capped at 5000 us
  // (reached on the 8th retry). Doubling outruns the jitter, so until the
  // cap every delay of a retry exceeds every delay of the one before.
  double previous_max = 0.0;
  for (int attempt = 1; attempt <= 9; ++attempt) {
    const double base =
        std::min(50.0 * std::ldexp(1.0, attempt - 1), 5000.0);
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (int id = 0; id < 16; ++id) {
      const double delay = retry_backoff_us(attempt, id, 7);
      EXPECT_GE(delay, base) << "attempt " << attempt << " request " << id;
      EXPECT_LT(delay, 1.25 * base)
          << "attempt " << attempt << " request " << id;
      lo = std::min(lo, delay);
      hi = std::max(hi, delay);
    }
    if (attempt <= 8) {
      EXPECT_GT(lo, previous_max) << "attempt " << attempt;
    }
    previous_max = hi;
  }
  // Absurd attempt counts saturate at the cap instead of overflowing.
  EXPECT_GE(retry_backoff_us(50, 0, 7), 5000.0);
  EXPECT_LT(retry_backoff_us(50, 0, 7), 6250.0);
}

TEST(FailurePolicy, JitterIsDeterministicBoundedAndSpreadsRequests) {
  const double a = retry_backoff_us(1, 3, 42);
  EXPECT_DOUBLE_EQ(a, retry_backoff_us(1, 3, 42));
  EXPECT_GE(a, 50.0);
  EXPECT_LT(a, 62.5);
  // Distinct requests (and attempts, and seeds) de-synchronize.
  EXPECT_NE(a, retry_backoff_us(1, 4, 42));
  EXPECT_NE(a, retry_backoff_us(2, 3, 42));
  EXPECT_NE(a, retry_backoff_us(1, 3, 43));
}

TEST(FailurePolicy, DegradedMaxBatchShrinksTowardOne) {
  FailurePolicy policy;
  EXPECT_EQ(degraded_max_batch(policy, 8, 1e9), 8);  // disabled by default
  policy.overload_queue_us = 100.0;
  EXPECT_EQ(degraded_max_batch(policy, 8, 0.0), 8);
  EXPECT_EQ(degraded_max_batch(policy, 8, 100.0), 8);  // at the threshold
  EXPECT_EQ(degraded_max_batch(policy, 8, 200.0), 4);
  EXPECT_EQ(degraded_max_batch(policy, 8, 400.0), 2);
  EXPECT_EQ(degraded_max_batch(policy, 8, 1e6), 1);  // floors at 1
}

TEST(FailurePolicy, OverloadShedSparesDeadlinesAndRetries) {
  FailurePolicy policy;
  EXPECT_FALSE(should_shed_overload(policy, 1e9, false, 1));  // disabled
  policy.overload_queue_us = 100.0;  // shed past 4x = 400 us
  EXPECT_FALSE(should_shed_overload(policy, 400.0, false, 1));
  EXPECT_TRUE(should_shed_overload(policy, 401.0, false, 1));
  // Deadline-carrying work and retries are never overload-shed.
  EXPECT_FALSE(should_shed_overload(policy, 1e9, true, 1));
  EXPECT_FALSE(should_shed_overload(policy, 1e9, false, 2));
}

TEST(FailurePolicyDeathTest, RejectsOutOfRangeFields) {
  FailurePolicy policy;
  policy.max_retries = -1;
  EXPECT_DEATH(validate(policy), "max_retries");
  policy = {};
  policy.overload_queue_us = -1.0;
  EXPECT_DEATH(validate(policy), "overload_queue_us");
}

}  // namespace
}  // namespace nova::serve
