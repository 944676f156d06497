// Randomized parity tests for serve::TournamentTree, the dispatch loop's
// per-instance minimum, against linear reference scans.
//
// The dispatch loop keeps two trees: one over (availability, instance) for
// instances with a free session slot, checked here against the linear
// argmin it must reproduce (serve::earliest_available_linear), and one over
// (start, ready_us, id, instance) pinned-queue candidates, checked against
// a plain linear minimum. Both are driven through the loop's access
// pattern -- free_at advances, slots filling and freeing, leaves set and
// cleared in any order -- over drawn outage plans and pool sizes that
// leave padding leaves in the tree, and must agree at every step,
// including the tie-break on the lowest instance index and the empty tree
// when every instance is rejected.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "serve/availability.hpp"
#include "serve/faults.hpp"

namespace {

using nova::Rng;
using nova::serve::earliest_available_linear;
using nova::serve::FaultPlan;
using nova::serve::FaultProfile;
using nova::serve::TournamentTree;

using OpenKey = std::pair<double, int>;

/// The tree's minimum, or nullopt when it is empty.
template <typename Key>
std::optional<Key> tree_min(const TournamentTree<Key>& tree) {
  if (tree.empty()) return std::nullopt;
  return tree.min();
}

/// One randomized episode of the open-instance tree: a drawn fault plan, a
/// pool of instances whose free session slots come and go, and a stream of
/// interleaved mutations and comparisons. Returns the number of
/// comparisons that found an open instance (so callers can assert the
/// episode exercised both outcomes).
int run_open_episode(std::uint64_t seed, int instances, int steps) {
  Rng rng(seed);
  FaultProfile profile;
  profile.mtbf_us = 500.0 + rng.uniform(0.0, 2000.0);
  profile.mttr_us = 100.0 + rng.uniform(0.0, 500.0);
  // Every third episode runs fault-free: the tree must also match the scan
  // when next_up_us degenerates to the identity on free_at.
  const FaultPlan faults =
      seed % 3 == 0 ? FaultPlan()
                    : nova::serve::draw_fault_plan(profile, instances,
                                                   20000.0, seed);

  const auto n = static_cast<std::size_t>(instances);
  std::vector<double> free_at(n, 0.0);
  std::vector<bool> open(n, true);
  TournamentTree<OpenKey> tree(instances);
  // What the dispatch loop does after touching instance j.
  const auto refresh = [&](std::size_t j) {
    const int instance = static_cast<int>(j);
    if (open[j]) {
      tree.set(instance, {faults.next_up_us(instance, free_at[j]), instance});
    } else {
      tree.clear(instance);
    }
  };
  for (std::size_t j = 0; j < n; ++j) refresh(j);

  int found = 0;
  for (int step = 0; step < steps; ++step) {
    const auto j = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(instances)));
    const auto action = rng.next_below(4);
    if (action == 0) {
      // Advance the busy horizon: availability only ever grows.
      free_at[j] += rng.uniform(0.0, 400.0);
      refresh(j);
    } else if (action == 1) {
      // A slot fills or frees; sometimes the leaf is refreshed unchanged.
      if (rng.next_below(4) != 0) open[j] = !open[j];
      refresh(j);
    } else {
      const auto want = earliest_available_linear(
          faults, free_at,
          [&open](int k) { return open[static_cast<std::size_t>(k)]; });
      EXPECT_EQ(tree_min(tree), want) << "diverged at step " << step;
      if (want) ++found;
    }
  }
  return found;
}

TEST(TournamentTree, MatchesEarliestAvailableLinearOnRandomTraffic) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    // 1-7 instances, and 9-70 in every fourth episode: deeper trees whose
    // padding leaves stay empty.
    const int instances = seed % 4 == 0 ? 9 + static_cast<int>(seed % 62)
                                        : 1 + static_cast<int>(seed % 7);
    ASSERT_GT(run_open_episode(seed, instances, 200), 0)
        << "episode " << seed << " never found an open instance";
  }
}

TEST(TournamentTree, MatchesLinearMinOverCandidateKeys) {
  // The pinned-candidate tree: (start, ready_us, id, instance) keys drawn
  // from a coarse grid, so the leading fields tie often and only the
  // trailing fields decide.
  using Candidate = std::tuple<double, double, int, int>;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int instances = 1 + static_cast<int>(rng.next_below(70));
    const auto n = static_cast<std::size_t>(instances);
    TournamentTree<Candidate> tree(instances);
    std::vector<std::optional<Candidate>> leaves(n);
    for (int step = 0; step < 400; ++step) {
      const auto j = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(instances)));
      const int instance = static_cast<int>(j);
      if (rng.next_below(3) == 0) {
        leaves[j].reset();
        tree.clear(instance);
      } else {
        leaves[j] = Candidate{static_cast<double>(rng.next_below(4)),
                              static_cast<double>(rng.next_below(3)),
                              static_cast<int>(rng.next_below(5)), instance};
        tree.set(instance, *leaves[j]);
      }
      std::optional<Candidate> want;
      for (const auto& leaf : leaves) {
        if (leaf && (!want || *leaf < *want)) want = leaf;
      }
      ASSERT_EQ(tree_min(tree), want)
          << "seed " << seed << " diverged at step " << step;
    }
  }
}

TEST(TournamentTree, TieBreaksOnLowestInstance) {
  // All instances identical: the minimum must be instance 0 whatever order
  // the leaves were refreshed in.
  const FaultPlan faults;
  std::vector<double> free_at(5, 0.0);
  TournamentTree<OpenKey> tree(5);
  for (int j = 4; j >= 0; --j) tree.set(j, {0.0, j});
  EXPECT_EQ(tree.min(), (OpenKey{0.0, 0}));
  for (int j = 4; j >= 0; --j) {
    free_at[static_cast<std::size_t>(j)] = 10.0;  // same key everywhere
    tree.set(j, {10.0, j});
  }
  EXPECT_EQ(tree.min(), (OpenKey{10.0, 0}));
  const auto want = earliest_available_linear(faults, free_at,
                                              [](int) { return true; });
  EXPECT_EQ(tree.min(), *want);
}

TEST(TournamentTree, AllRejectedIsEmpty) {
  const FaultPlan faults;
  std::vector<double> free_at(3, 5.0);
  TournamentTree<OpenKey> tree(3);
  EXPECT_TRUE(tree.empty());  // a new tree holds no key
  for (int j = 0; j < 3; ++j) tree.set(j, {5.0, j});
  for (int j = 0; j < 3; ++j) tree.clear(j);
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(earliest_available_linear(faults, free_at,
                                         [](int) { return false; })
                   .has_value());
  tree.clear(1);  // clearing an empty leaf keeps it empty
  EXPECT_TRUE(tree.empty());
  // And a leaf set again is found again.
  tree.set(2, {5.0, 2});
  EXPECT_EQ(tree.min(), (OpenKey{5.0, 2}));
}

TEST(TournamentTree, SingleInstanceIsItsOwnRoot) {
  TournamentTree<OpenKey> tree(1);
  EXPECT_TRUE(tree.empty());
  tree.set(0, {3.0, 0});
  EXPECT_EQ(tree.min(), (OpenKey{3.0, 0}));
  tree.set(0, {1.0, 0});
  EXPECT_EQ(tree.min(), (OpenKey{1.0, 0}));
  tree.clear(0);
  EXPECT_TRUE(tree.empty());
}

}  // namespace
