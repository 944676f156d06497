// Session plans: the step decomposition of one inference request under
// iteration-level (continuous-batching) scheduling.
//
// A generation is a SESSION -- a chain of scheduler-visible steps. A
// prefill request becomes ceil(seq_len / chunk_tokens) prefill CHUNKS
// (Sarathi-style: each chunk carries a proportional share of the full
// prefill's priced service, so the chunk sum reproduces the whole-request
// cost exactly) followed by gen_steps autoregressive decode steps whose
// kv_len grows by one token per step, starting at seq_len (the cache holds
// the prefilled prompt). A decode request runs its own step at kv_len plus
// gen_steps more at kv_len+1, kv_len+2, ... Each step carries its own
// ShapeKey, so the existing pricing machinery (exact / surrogate / hybrid)
// prices sessions with no changes: decode steps are ordinary
// per-kv_len shapes of the request's pricing class.
//
// With continuous batching off the plan collapses to one prefill chunk
// (share 1.0 -- bit-equal to the unchunked cost) plus the decode chain,
// and the scheduler dispatches the whole plan as a single unit; a
// gen_steps == 0 request in either phase is exactly the classic
// single-step request.
#pragma once

#include <vector>

#include "serve/request.hpp"
#include "serve/surrogate.hpp"

namespace nova::serve {

/// One scheduler-visible step of a generation session.
struct SessionStep {
  /// Pricing identity of this step's work. Every chunk of a prefill
  /// carries the FULL prefill shape (a chunk is a time slice of the same
  /// wave train, not a shorter sequence); decode steps carry the
  /// single-token decode shape at their kv_len.
  ShapeKey shape;
  /// Fraction of shape's priced service this step carries: chunk tokens /
  /// seq_len for prefill chunks (sums to exactly 1 across a prefill's
  /// chunks), 1.0 for decode steps.
  double share = 1.0;

  /// The phase the dispatcher batches this step under (chunks fuse with
  /// chunks, decode steps with decode steps -- never across).
  [[nodiscard]] pipeline::Phase phase() const { return shape.phase; }
};

/// The full step plan of one request's session, in execution order.
struct SessionPlan {
  std::vector<SessionStep> steps;
  /// Chunks the prefill split into (0 for decode-phase requests).
  int prefill_chunks = 0;
  /// Decode steps in the plan (the request's generation length).
  int decode_steps = 0;

  [[nodiscard]] int total_steps() const {
    return static_cast<int>(steps.size());
  }
};

/// Builds the step plan of `req`. `continuous` controls prefill chunking
/// (off = one chunk with share 1.0); `chunk_tokens` >= 1 is the chunk size
/// in prompt tokens. `req`'s decode chain must fit in an int
/// (kv_chain_fits). Pure and cheap -- no pricing happens here.
[[nodiscard]] SessionPlan build_session_plan(const InferenceRequest& req,
                                             bool continuous,
                                             int chunk_tokens);

}  // namespace nova::serve
