// Instance-availability tracking for the dispatch loops: which instance
// becomes dispatchable first, accounting for both its busy horizon
// (free_at) and any outage windows in the FaultPlan.
//
// Extracted from BatchScheduler's anonymous namespace so the parity test
// (tests/availability_test.cpp) can drive the heap directly against the
// linear reference scan it replaced -- the heap is pure bookkeeping, and
// the contract "byte-identical decisions to the scan" is the kind of claim
// that should be machine-checked with randomized traffic, not argued in a
// comment.
#pragma once

#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "serve/faults.hpp"

namespace nova::serve {

/// The reference policy the heap must reproduce: a linear argmin scan over
/// all instances of next_up_us(j, free_at[j]), restricted to instances
/// `ok` accepts, ties broken on the lowest instance index. O(instances)
/// per query -- exactly what per-step dispatch made too hot -- but obviously
/// correct, which is why the parity test keeps it around.
[[nodiscard]] inline std::optional<std::pair<double, int>>
earliest_available_linear(const FaultPlan& faults,
                          const std::vector<double>& free_at,
                          const std::function<bool(int)>& ok) {
  std::optional<std::pair<double, int>> best;
  for (std::size_t j = 0; j < free_at.size(); ++j) {
    const int instance = static_cast<int>(j);
    if (!ok(instance)) continue;
    const double up = faults.next_up_us(instance, free_at[j]);
    // Strict < keeps the lowest index on ties: earlier instances were
    // pushed first in arrival order, matching the heap's pair ordering.
    if (!best || up < best->first) best = {up, instance};
  }
  return best;
}

/// The (next_up_us, instance) min-heap replacing the old linear argmin
/// scan over instances -- per-step dispatch makes instance selection hot.
///
/// Protocol: refresh(j) after every free_at[j] change pushes j's current
/// availability; the entry it supersedes stays behind with a stale (and,
/// since availability only ever grows, strictly smaller-or-equal) key and
/// is discarded when it surfaces. The first fresh top is therefore the
/// true argmin over next_up_us(j, free_at[j]), and the pair ordering
/// breaks ties on the lowest instance index -- byte-identical decisions to
/// the scan it replaces (earliest_available_linear; the randomized parity
/// test holds the two to that claim).
class AvailabilityHeap {
 public:
  AvailabilityHeap(const FaultPlan& faults, const std::vector<double>& free_at)
      : faults_(&faults), free_at_(&free_at) {
    for (std::size_t j = 0; j < free_at.size(); ++j) {
      refresh(static_cast<int>(j));
    }
  }

  void refresh(int instance) {
    heap_.emplace(
        faults_->next_up_us(instance,
                            (*free_at_)[static_cast<std::size_t>(instance)]),
        instance);
  }

  /// Earliest-available instance among those `ok` accepts, as
  /// (availability, instance); nullopt when every instance is rejected.
  /// Valid-but-rejected entries are parked and restored, so the heap is
  /// unchanged apart from discarded stale entries. `ok` is a template
  /// parameter, not a std::function: both dispatch loops call this once per
  /// dispatch, and the predicate inlines.
  template <typename Pred>
  std::optional<std::pair<double, int>> peek_min_where(const Pred& ok) {
    parked_.clear();
    std::optional<std::pair<double, int>> found;
    while (!heap_.empty()) {
      const auto top = heap_.top();
      const double fresh = faults_->next_up_us(
          top.second, (*free_at_)[static_cast<std::size_t>(top.second)]);
      if (top.first != fresh) {  // superseded by a later refresh
        heap_.pop();
        continue;
      }
      if (!ok(top.second)) {
        parked_.push_back(top);
        heap_.pop();
        continue;
      }
      found = top;
      break;
    }
    for (const auto& entry : parked_) heap_.push(entry);
    return found;
  }

  /// Unfiltered minimum; always present (one fresh entry per instance).
  std::pair<double, int> peek_min() {
    return *peek_min_where([](int) { return true; });
  }

 private:
  const FaultPlan* faults_;
  const std::vector<double>* free_at_;
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<>>
      heap_;
  std::vector<std::pair<double, int>> parked_;
};

}  // namespace nova::serve
