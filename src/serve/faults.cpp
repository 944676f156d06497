#include "serve/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace nova::serve {

namespace {

/// Eager plan validation, active in every build type: a malformed window
/// does not crash the scheduler -- it silently mis-simulates (a batch
/// "fails" inside an inverted interval, or two overlapping outages double
/// count downtime), so reject it at construction with a message naming
/// the offence.
[[noreturn]] void fail_plan(int instance, std::size_t window,
                            const char* what) {
  std::fprintf(stderr,
               "nova: FaultPlan::make precondition violation: instance %d "
               "window %zu: %s\n",
               instance, window, what);
  std::abort();
}

}  // namespace

FaultPlan FaultPlan::make(std::vector<std::vector<FaultWindow>> windows) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto instance = static_cast<int>(i);
    for (std::size_t w = 0; w < windows[i].size(); ++w) {
      const auto& window = windows[i][w];
      if (!std::isfinite(window.start_us) || !std::isfinite(window.end_us) ||
          window.start_us < 0.0) {
        fail_plan(instance, w, "start/end must be finite and start >= 0");
      }
      if (window.end_us <= window.start_us) {
        fail_plan(instance, w, "window duration must be positive");
      }
      if (w > 0 && windows[i][w - 1].end_us > window.start_us) {
        fail_plan(instance, w,
                  "windows must be sorted by start and non-overlapping");
      }
    }
  }
  FaultPlan plan;
  plan.windows_ = std::move(windows);
  return plan;
}

bool FaultPlan::empty() const {
  return std::all_of(windows_.begin(), windows_.end(),
                     [](const auto& w) { return w.empty(); });
}

double FaultPlan::downtime_in(int instance, double start,
                              double finish) const {
  double down = 0.0;
  for (const auto& window : windows(instance)) {
    if (window.start_us >= finish) break;
    down += std::max(0.0, std::min(window.end_us, finish) -
                              std::max(window.start_us, start));
  }
  return down;
}

FaultPlan draw_fault_plan(const FaultProfile& profile, int instances,
                          double horizon_us, std::uint64_t seed) {
  NOVA_EXPECTS(std::isfinite(profile.mtbf_us) && profile.mtbf_us > 0.0);
  NOVA_EXPECTS(std::isfinite(profile.mttr_us) && profile.mttr_us > 0.0);
  NOVA_EXPECTS(instances >= 1);
  NOVA_EXPECTS(std::isfinite(horizon_us) && horizon_us >= 0.0);

  std::vector<std::vector<FaultWindow>> windows(
      static_cast<std::size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    // Per-instance stream keyed by (seed, instance id) only: splitmix64's
    // golden-ratio increment decorrelates adjacent ids, and no draw here
    // depends on any other instance, so instance i's windows are stable
    // under pool resizing.
    Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(
                                                static_cast<unsigned>(i) + 1)));
    double t = 0.0;
    while (true) {
      // Exponential draws via inverse CDF on U in (0, 1].
      const double up = -std::log(1.0 - rng.next_double()) * profile.mtbf_us;
      t += up;
      if (t >= horizon_us) break;
      const double repair =
          -std::log(1.0 - rng.next_double()) * profile.mttr_us;
      // Degenerate repair draws (U ~ 1) would violate the positive-duration
      // contract; clamp to a nanosecond-scale floor.
      const double duration = std::max(repair, 1e-3);
      windows[static_cast<std::size_t>(i)].push_back({t, t + duration});
      t += duration;
      // Each window also consumes a third draw, which decides nothing.
      // Dropping it would move every later window of the instance, and
      // with them every faulted golden and the pinned continuous-faults
      // fingerprint.
      (void)rng.next_double();
    }
  }
  return FaultPlan::make(std::move(windows));
}

}  // namespace nova::serve
