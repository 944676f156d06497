// Failure-handling policy for the serving layer: the request status
// taxonomy, retry/backoff schedule, deadline shedding, and graceful
// overload degradation the BatchScheduler's dispatch loop applies.
//
// Everything here is a pure function of (policy, request identity,
// attempt) -- no wall clock, no shared state -- so dispatch decisions are
// byte-identical across worker-thread counts by construction. The jitter
// folded into each backoff delay is deterministic: it comes from an RNG
// stream keyed by (seed, request id, attempt), not from time or thread
// interleaving, so two retries of the same request always back off by the
// same amount while distinct requests still de-synchronize (no retry
// stampede against a recovering instance). The two overload predicates
// dispatch evaluates on every iteration are defined here in the header.
#pragma once

#include <algorithm>
#include <cstdint>

namespace nova::serve {

/// Terminal status of one request after dispatch (RequestOutcome::status).
enum class RequestStatus {
  /// Served on the first attempt, inside its deadline (or with none).
  kOk,
  /// Served inside its deadline, but only after at least one mid-service
  /// instance failure forced a retry.
  kRetried,
  /// Never serviced: dropped at admission by the deadline or overload
  /// policy. Shed outcomes keep service_cycles/finish_us at zero.
  kShed,
  /// Served to completion, but finished past arrival + deadline_us.
  kDeadlineMiss,
  /// Never completed: every allowed attempt died in a fault window.
  /// Failed outcomes keep service_cycles/finish_us at zero.
  kFailed,
};

[[nodiscard]] const char* to_string(RequestStatus status);

/// Number of distinct RequestStatus values (report arrays index by it).
inline constexpr int kRequestStatusCount = 5;

/// How dispatch reacts to faults and overload. The defaults retry
/// generously and never shed on queue depth. Deadline shedding is always
/// on: a request is shed at admission when its projected finish (dispatch
/// start + its own standalone service time) already misses arrival +
/// deadline_us; requests without a deadline are never deadline-shed.
struct FailurePolicy {
  /// Retries after a mid-service failure before a request goes kFailed
  /// (so a request is attempted at most max_retries + 1 times). >= 0.
  int max_retries = 3;
  /// Projected queue-wait threshold (us) past which dispatch degrades
  /// gracefully: the effective max batch shrinks proportionally toward 1,
  /// trading fused throughput for latency, and past 4x the threshold
  /// best-effort work (requests carrying no deadline -- the lowest
  /// priority class) is shed outright on its first attempt. 0 disables the
  /// overload policy entirely (no degradation, no overload shedding).
  double overload_queue_us = 0.0;
};

/// Aborts (precondition style, active in every build) on out-of-range
/// policy fields; called by the scheduler constructor.
void validate(const FailurePolicy& policy);

/// Backoff delay before retry number `attempt` (1 = first retry) of
/// request `request_id`: b = 50 us * 2^(attempt - 1), capped at 5000 us,
/// stretched by deterministic jitter to b * (1 + 0.25 u), u in [0, 1)
/// keyed by (seed, request id, attempt). Pure; in [b, 1.25 b).
[[nodiscard]] double retry_backoff_us(int attempt, int request_id,
                                      std::uint64_t seed);

/// The graceful-degradation half of the overload policy: the batch cap
/// dispatch may fuse under a projected queue wait of `projected_wait_us`.
/// At or below the threshold the configured max_batch stands; past it the
/// cap shrinks proportionally (threshold / wait) toward 1, so a pool 4x
/// over its wait budget fuses quarter-size batches -- smaller dispatches
/// finish sooner and cut the wait of everything behind them before any
/// request is dropped. Returns max_batch when the policy is disabled.
[[nodiscard]] inline int degraded_max_batch(const FailurePolicy& policy,
                                            int max_batch,
                                            double projected_wait_us) {
  if (policy.overload_queue_us <= 0.0 ||
      projected_wait_us <= policy.overload_queue_us) {
    return max_batch;
  }
  const double scale = policy.overload_queue_us / projected_wait_us;
  return std::max(1, static_cast<int>(max_batch * scale));
}

/// The shedding half of the overload policy: true when a first-attempt,
/// deadline-free request facing `projected_wait_us` of queue wait should
/// be dropped (wait past 4 * overload_queue_us).
/// Deadline-carrying work is never overload-shed (it has its own policy),
/// and retries are never overload-shed (they already paid for service).
[[nodiscard]] inline bool should_shed_overload(const FailurePolicy& policy,
                                               double projected_wait_us,
                                               bool has_deadline,
                                               int attempt) {
  // Multiple of overload_queue_us past which best-effort work is shed.
  constexpr double kOverloadShedFactor = 4.0;
  if (policy.overload_queue_us <= 0.0) return false;
  if (has_deadline || attempt > 1) return false;
  return projected_wait_us > kOverloadShedFactor * policy.overload_queue_us;
}

}  // namespace nova::serve
