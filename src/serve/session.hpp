// Session plans: the step decomposition of one inference request under
// iteration-level (continuous-batching) scheduling.
//
// A generation is a SESSION -- a chain of scheduler-visible steps. A
// prefill request becomes ceil(seq_len / chunk_tokens) prefill CHUNKS
// (Sarathi-style: each chunk carries a proportional share of the full
// prefill's priced service; see SessionLayout::share for how closely the
// shares add up) followed by gen_steps autoregressive decode steps whose
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
//
// A plan never needs listing step by step. Its SessionLayout (chunk size,
// chunk count, decode step count) follows from the request and the
// dispatch mode, every chunk carries prefill_shape(req), and decode step d
// carries decode_shape(req, d). The scheduler therefore keeps two slots per
// request (PlanSlots, built by build_plan_index) and reads any step's shape
// and share from the request alone; build_session_plan lists the same
// steps for readers that want them spelled out.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "serve/request.hpp"
#include "serve/surrogate.hpp"

namespace nova::serve {

/// How one request's session splits into steps: `chunks` prefill chunks of
/// `chunk` prompt tokens (the last one may be shorter), then
/// `decode_steps` decode steps. Step s < chunks is chunk s; step chunks + d
/// is decode step d.
struct SessionLayout {
  /// Prompt tokens the chunks tile (the request's seq_len).
  int seq_len = 1;
  /// Chunk size in prompt tokens: chunk_tokens under continuous batching,
  /// seq_len under whole-request dispatch (0 for decode requests).
  int chunk = 0;
  /// Chunks the prefill splits into (0 for decode requests).
  int chunks = 0;
  /// Decode steps after the chunks (the request's generation length).
  int decode_steps = 0;

  [[nodiscard]] int total_steps() const { return chunks + decode_steps; }

  /// Fraction of its shape's priced service step `step` carries: chunk
  /// tokens / seq_len for a prefill chunk, 1.0 for a decode step. An
  /// unchunked prefill's one share is seq_len / seq_len, exactly 1.0, and
  /// whole-request dispatch charges the folded service of the whole plan.
  /// The shares of a chunked prefill sum to 1 only within rounding: each is
  /// a rounded quotient (a 6-token prompt in 1-token chunks sums to
  /// 0.9999999999999999), at most `chunks` x 2^-52 away.
  [[nodiscard]] double share(int step) const {
    if (step >= chunks) return 1.0;
    const int begin = step * chunk;
    const int end = begin + std::min(chunk, seq_len - begin);
    return static_cast<double>(end - begin) / static_cast<double>(seq_len);
  }
};

/// The layout of `req`'s session. `continuous` controls prefill chunking
/// (off = one chunk of the whole prompt); `chunk_tokens` >= 1 is the chunk
/// size in prompt tokens under continuous batching.
[[nodiscard]] inline SessionLayout session_layout(const InferenceRequest& req,
                                                  bool continuous,
                                                  int chunk_tokens) {
  SessionLayout layout;
  layout.seq_len = req.seq_len;
  if (req.phase == pipeline::Phase::kPrefill) {
    layout.chunk = continuous ? chunk_tokens : req.seq_len;
    // ceil(seq_len / chunk_tokens), written so no intermediate exceeds
    // seq_len: the plain (seq_len + chunk - 1) / chunk overflows when both
    // pass 2^30. An unchunked prompt is one chunk, with no division for
    // the serve path to pay per request.
    layout.chunks = continuous ? 1 + (req.seq_len - 1) / chunk_tokens : 1;
    layout.decode_steps = req.gen_steps;
  } else {
    layout.decode_steps = req.gen_steps + 1;
  }
  return layout;
}

/// The shape every prefill chunk of `req` carries: the FULL prefill (a
/// chunk is a time slice of the same wave train, not a shorter sequence).
[[nodiscard]] ShapeKey prefill_shape(const InferenceRequest& req);

/// The shape of decode step `d` of `req`'s session: the single-token
/// decode shape of the request's class at its d-th kv_len. Generated
/// tokens of a prefill decode against the prefilled prompt (kv_len
/// seq_len + d, seq_len 1 by the decode-shape convention); a decode
/// request keeps its own seq_len and grows its kv_len + d.
[[nodiscard]] ShapeKey decode_shape(const InferenceRequest& req, int d);

/// One scheduler-visible step of a generation session.
struct SessionStep {
  /// Pricing identity of this step's work: prefill_shape for every chunk,
  /// decode_shape at its kv_len for a decode step.
  ShapeKey shape;
  /// SessionLayout::share of this step.
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

/// Lists the steps of `req`'s session: its layout expanded step by step.
/// `req`'s decode chain must fit in an int (kv_chain_fits). Pure -- no
/// pricing happens here.
[[nodiscard]] SessionPlan build_session_plan(const InferenceRequest& req,
                                             bool continuous,
                                             int chunk_tokens);

/// Where one request's session steps sit among its stream's distinct
/// shapes (PlanIndex::shapes): every prefill chunk at `prefill`, decode
/// step d at `decode + d`. A slot the plan does not use (`prefill` of a
/// decode request, `decode` of a prefill without a generation) stays 0.
/// Trivially copyable and 8 bytes, whatever the generation length.
struct PlanSlots {
  std::uint32_t prefill = 0;
  std::uint32_t decode = 0;

  /// The slot of step `step` of a plan whose prefill splits into `chunks`
  /// chunks (SessionLayout::chunks).
  [[nodiscard]] std::uint32_t slot(int chunks, int step) const {
    // Both candidates are read unconditionally, so the select compiles to
    // a conditional move: whether a step is a chunk follows the stream's
    // random prefill/decode mix, and a branch on it would mispredict.
    const std::uint32_t chunk_slot = prefill;
    const std::uint32_t decode_slot =
        decode + static_cast<std::uint32_t>(step - chunks);
    return step < chunks ? chunk_slot : decode_slot;
  }
};

/// Every session step of a request stream, indexed without listing them.
struct PlanIndex {
  /// The distinct shapes of every step of every session, each once, in
  /// ShapeKey order.
  std::vector<ShapeKey> shapes;
  /// One entry per request, in stream order.
  std::vector<PlanSlots> plans;
};

/// Indexes the session plans of `requests` with at most two hash-table
/// probes per request, however long its generation: one for its prefill
/// shape, one for its run of decode shapes. The distinct runs are sorted
/// once and walked in ShapeKey order, and one pass over the plans turns
/// their provisional run ids into slots. Decode step d of a session sits
/// at slot decode + d because ShapeKey orders kv_len last and every kv_len
/// of the run is in the distinct set. The index does not depend on the
/// dispatch mode: chunking slices a prefill's service, not its shape. Each
/// request's decode chain must fit in an int (kv_chain_fits).
[[nodiscard]] PlanIndex build_plan_index(
    const std::vector<InferenceRequest>& requests);

}  // namespace nova::serve
