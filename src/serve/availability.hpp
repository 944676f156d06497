// Instance selection for the dispatch loop: a tournament tree that keeps
// the minimum of one key per instance, and the linear reference scan for
// the earliest-available instance that the tree must reproduce.
//
// Kept as a small header type, like ReadyQueue, so the parity test
// (tests/availability_test.cpp) can drive the tree directly against the
// reference scan with randomized traffic -- the tree is pure bookkeeping,
// and "the same decisions as the scan" is a claim to machine-check, not to
// argue in a comment.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "serve/faults.hpp"

namespace nova::serve {

/// The reference policy for the earliest open instance: a linear argmin
/// scan over all instances of next_up_us(j, free_at[j]), restricted to
/// instances `ok` accepts, ties broken on the lowest instance index.
/// O(instances) per query, but obviously correct, which is why the parity
/// test keeps it around.
[[nodiscard]] inline std::optional<std::pair<double, int>>
earliest_available_linear(const FaultPlan& faults,
                          const std::vector<double>& free_at,
                          const std::function<bool(int)>& ok) {
  std::optional<std::pair<double, int>> best;
  for (std::size_t j = 0; j < free_at.size(); ++j) {
    const int instance = static_cast<int>(j);
    if (!ok(instance)) continue;
    const double up = faults.next_up_us(instance, free_at[j]);
    // Strict < keeps the lowest index on ties, as (up, instance) keys do.
    if (!best || up < best->first) best = {up, instance};
  }
  return best;
}

/// A fixed-size tournament (winner) tree over instances 0..n-1. Each leaf
/// holds one instance's key or nothing; each inner node names the leaf
/// with the smaller key of its two subtrees, so the root names the minimum.
/// set() and clear() replay one leaf's path to the root, O(log n); min()
/// reads the root, O(1). The leaf row is padded to a power of two with
/// leaves that stay empty.
///
/// `Key` is ordered by operator< and must end in the instance index, as
/// (availability, instance) and the dispatch loop's (start, ready_us, id,
/// instance) candidates do: no two leaves then compare equal, so the
/// minimum is unique and ties on the leading fields go to the lower index.
template <typename Key>
class TournamentTree {
 public:
  explicit TournamentTree(int instances) {
    NOVA_EXPECTS(instances >= 1);
    while (width_ < static_cast<std::size_t>(instances)) width_ *= 2;
    keys_.resize(width_);
    winner_.assign(2 * width_, kNone);
  }

  /// Puts `key` in `instance`'s leaf.
  void set(int instance, const Key& key) {
    const auto leaf = static_cast<std::size_t>(instance);
    keys_[leaf] = key;
    winner_[width_ + leaf] = static_cast<int>(leaf);
    replay(leaf);
  }

  /// Empties `instance`'s leaf; returns at once when it is already empty,
  /// so a leaf that stays empty costs one load.
  void clear(int instance) {
    const auto leaf = static_cast<std::size_t>(instance);
    if (winner_[width_ + leaf] == kNone) return;
    winner_[width_ + leaf] = kNone;
    replay(leaf);
  }

  /// True when every leaf is empty.
  [[nodiscard]] bool empty() const { return winner_[1] == kNone; }

  /// The smallest key held; the tree must not be empty().
  [[nodiscard]] const Key& min() const {
    NOVA_EXPECTS(!empty());
    return keys_[static_cast<std::size_t>(winner_[1])];
  }

 private:
  static constexpr int kNone = -1;

  /// Recomputes the winners on `leaf`'s path to the root. With one leaf
  /// the leaf is the root and there is nothing to replay.
  void replay(std::size_t leaf) {
    for (std::size_t node = (width_ + leaf) / 2; node >= 1; node /= 2) {
      const int left = winner_[2 * node];
      const int right = winner_[2 * node + 1];
      winner_[node] =
          left == kNone ||
                  (right != kNone && keys_[static_cast<std::size_t>(right)] <
                                         keys_[static_cast<std::size_t>(left)])
              ? right
              : left;
    }
  }

  std::size_t width_ = 1;
  std::vector<Key> keys_;
  /// Node k's winning leaf, or kNone when its subtree holds no key; the
  /// root is node 1, the children of node k are 2k and 2k + 1, and leaf i
  /// is node width_ + i.
  std::vector<int> winner_;
};

}  // namespace nova::serve
