#include "serve/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"

namespace nova::serve {

namespace {

/// The first retry backs off this long; each further retry doubles it.
constexpr double kBackoffBaseUs = 50.0;
/// Exponential backoff cap (pre-jitter).
constexpr double kBackoffCapUs = 5000.0;
/// Deterministic jitter span as a fraction of the capped backoff.
constexpr double kBackoffJitter = 0.25;

[[noreturn]] void fail_policy(const char* what) {
  std::fprintf(stderr,
               "nova: FailurePolicy precondition violation: %s\n", what);
  std::abort();
}

}  // namespace

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRetried:
      return "retried";
    case RequestStatus::kShed:
      return "shed";
    case RequestStatus::kDeadlineMiss:
      return "deadline-miss";
    case RequestStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

void validate(const FailurePolicy& policy) {
  if (policy.max_retries < 0) fail_policy("max_retries must be >= 0");
  if (!std::isfinite(policy.overload_queue_us) ||
      policy.overload_queue_us < 0.0) {
    fail_policy("overload_queue_us must be finite and >= 0");
  }
}

double retry_backoff_us(int attempt, int request_id, std::uint64_t seed) {
  // Capped exponential: base * 2^(attempt-1), saturating instead of
  // overflowing for absurd attempt counts.
  double backoff = kBackoffBaseUs;
  for (int i = 1; i < attempt && backoff < kBackoffCapUs; ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, kBackoffCapUs);
  // Deterministic jitter keyed by (seed, request, attempt): the same
  // retry always waits the same amount, but distinct requests spread out
  // instead of stampeding a recovering instance in lockstep.
  Rng rng(seed ^
          (0xD1B54A32D192ED03ULL * (static_cast<std::uint64_t>(
                                        static_cast<unsigned>(request_id)) +
                                    1)) ^
          (0x9E3779B97F4A7C15ULL *
           (static_cast<std::uint64_t>(static_cast<unsigned>(attempt)) + 1)));
  return backoff * (1.0 + kBackoffJitter * rng.next_double());
}

}  // namespace nova::serve
