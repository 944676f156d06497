// Deterministic fault injection for the serving layer: per-instance
// fail/recover windows that the BatchScheduler's dispatch loop consults
// when placing work.
//
// A FaultPlan is a validated, immutable timeline per instance: ordered,
// non-overlapping outage windows during which the instance is down
// (dispatch skips it, and batches in flight fail at the window start).
// Plans are either hand-built through FaultPlan::make (which validates
// eagerly and aborts with a message naming the offending window, the same
// contract as BatchScheduler's stream validation) or drawn from a seeded
// exponential MTBF/MTTR profile via draw_fault_plan.
//
// Determinism: every fault draw comes from an RNG stream keyed by
// (seed, instance id) alone -- never from thread timing, draw order across
// instances, or pool size -- so instance i's windows are byte-identical
// whether the pool holds 1 instance or 100, and reports stay byte-identical
// across --threads like everything else in the serve stack.
//
// The two queries dispatch makes on every iteration, next_up_us and
// outage_in, are defined here in the header, so a fault-free dispatch makes
// no call into another translation unit for them. Each starts at a binary-
// searched partition point of its instance's windows, so it stays O(log w)
// in the instance's w windows however late in simulated time it asks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.hpp"

namespace nova::serve {

/// One outage [start_us, end_us) on one instance: it accepts no
/// dispatches, and a batch in flight when the window opens fails at the
/// window start.
struct FaultWindow {
  double start_us = 0.0;
  double end_us = 0.0;
};

/// The validated per-instance fault timeline (see file comment). A
/// default-constructed plan has no windows anywhere: every instance is
/// always healthy, and the scheduler's behaviour is byte-identical to a
/// run without any plan at all.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Builds a plan from `windows[i]` = instance i's fault windows.
  /// Instances beyond windows.size() are fault-free. Validation is eager
  /// and active in every build type: each window needs a finite
  /// start_us >= 0 and a positive duration; per instance the windows must
  /// be sorted by start and non-overlapping. A violation aborts with a
  /// message naming the instance and window index instead of
  /// mis-simulating silently.
  [[nodiscard]] static FaultPlan make(
      std::vector<std::vector<FaultWindow>> windows);

  /// True when no instance has any window (the zero-fault plan).
  [[nodiscard]] bool empty() const;

  /// Windows of `instance` (empty past the plan's instance count).
  [[nodiscard]] const std::vector<FaultWindow>& windows(int instance) const {
    NOVA_EXPECTS(instance >= 0);
    const auto index = static_cast<std::size_t>(instance);
    return index < windows_.size() ? windows_[index] : kNoWindows;
  }

  /// Instances the plan carries windows for.
  [[nodiscard]] int instances() const {
    return static_cast<int>(windows_.size());
  }

  /// Earliest time >= t at which `instance` is outside every outage
  /// window.
  [[nodiscard]] double next_up_us(int instance, double t) const {
    // Walking forward once suffices: each outage covering t pushes t to its
    // end, where the next window may open.
    const auto& plan = windows(instance);
    for (auto it = first_ending_after(plan, t); it != plan.end(); ++it) {
      if (it->start_us > t) break;  // t is up before this window opens
      t = it->end_us;
    }
    return t;
  }

  /// Start of the first outage window opening inside (start, finish), if
  /// any: the instant a batch in flight over that interval fails.
  [[nodiscard]] std::optional<double> outage_in(int instance, double start,
                                                double finish) const {
    const auto& plan = windows(instance);
    const auto it = first_opening_after(plan, start);
    if (it == plan.end() || it->start_us >= finish) return std::nullopt;
    return it->start_us;
  }

  /// Total outage time of `instance` inside [start, finish]; the
  /// availability numerator's complement.
  [[nodiscard]] double downtime_in(int instance, double start,
                                   double finish) const;

 private:
  // A plan's windows are sorted and non-overlapping, so their ends ascend
  // as well as their starts: the windows ending at or before t form a
  // prefix, and so do those opening at or before t. Each query starts its
  // walk past the prefix whose windows it would skip without effect.

  /// The first window that ends after t.
  static std::vector<FaultWindow>::const_iterator first_ending_after(
      const std::vector<FaultWindow>& windows, double t) {
    return std::partition_point(
        windows.begin(), windows.end(),
        [t](const FaultWindow& window) { return window.end_us <= t; });
  }

  /// The first window that opens after t.
  static std::vector<FaultWindow>::const_iterator first_opening_after(
      const std::vector<FaultWindow>& windows, double t) {
    return std::partition_point(
        windows.begin(), windows.end(),
        [t](const FaultWindow& window) { return window.start_us <= t; });
  }

  /// The windows of every instance past the plan's instance count.
  static inline const std::vector<FaultWindow> kNoWindows;

  std::vector<std::vector<FaultWindow>> windows_;
};

/// Seeded exponential failure model: instances alternate exponentially
/// distributed up-times (mean mtbf_us) and repair times (mean mttr_us),
/// so the long-run expected unavailability is mttr / (mtbf + mttr).
struct FaultProfile {
  /// Mean time between failures (up-time before the next fault), > 0.
  double mtbf_us = 20000.0;
  /// Mean time to recover (fault window duration), > 0.
  double mttr_us = 2000.0;
};

/// Draws a FaultPlan for `instances` instances over [0, horizon_us) from
/// `profile`. Instance i's windows come from an RNG stream keyed by
/// (seed, i) alone, so they do not change when the pool grows or shrinks.
/// Profile preconditions (finite, positive MTBF and MTTR) abort eagerly on
/// violation.
[[nodiscard]] FaultPlan draw_fault_plan(const FaultProfile& profile,
                                        int instances, double horizon_us,
                                        std::uint64_t seed);

}  // namespace nova::serve
