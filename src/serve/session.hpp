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
// carries decode_shape(req, d). Nor does it need building per request:
// requests whose seven shape fields match (SessionKey) run the same plan at
// the same cost, a SESSION CLASS. The scheduler therefore groups its stream
// into classes (group_session_classes), indexes one request per class
// (build_plan_index) and keeps two slots per class (PlanSlots), from which
// any step's shape and share follow; build_session_plan lists the same
// steps for readers that want them spelled out.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
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

/// Decode steps in `req`'s session, the same in both dispatch modes: its
/// generation, plus its own step for a decode request. A session's steps
/// are its prefill chunks plus these, so a reader that knows the chunk
/// count (SessionCost::prefill_chunks) needs no layout.
[[nodiscard]] inline int decode_steps(const InferenceRequest& req) {
  return req.phase == pipeline::Phase::kDecode ? req.gen_steps + 1
                                               : req.gen_steps;
}

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
  }
  layout.decode_steps = decode_steps(req);
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

/// The fields a request's session plan and its cost depend on: the
/// request's own shape (prefill_shape) and its generation length.
/// Arrival, deadline and id stay out; they shape dispatch, not the session.
struct SessionKey {
  ShapeKey shape;
  int gen_steps = 0;

  friend bool operator==(const SessionKey&, const SessionKey&) = default;
};

/// The session classes of a stream (group_session_classes), by class id.
struct SessionClasses {
  /// Stream position of each class's first request: the one its plan is
  /// indexed and priced from.
  std::vector<std::uint32_t> first;
  /// Requests in each class.
  std::vector<std::uint32_t> members;
};

/// Groups `requests` into session classes with one hash-table probe per
/// request, numbering the classes from 0 in first-seen order, and calls
/// `assign(i, id)` with request i's class id. The table is freed on
/// return, so a stream that never repeats a session holds it only here.
template <typename Assign>
[[nodiscard]] SessionClasses group_session_classes(
    const std::vector<InferenceRequest>& requests, Assign&& assign) {
  SessionClasses classes;
  const auto key = [&requests](std::size_t i) {
    return SessionKey{prefill_shape(requests[i]), requests[i].gen_steps};
  };
  // Open addressing with linear probing, at most half full. A slot holds
  // its class's id + 1 (0 = empty) and its key is the class's first
  // request's, so the table keeps 4 bytes a slot and no node per class.
  // A std::unordered_map, which allocates one, grouped 10^5 requests that
  // each start a class in 31-38 ms against 5-7 ms (GCC 12 Release, shared
  // 4-vCPU VM).
  std::vector<std::uint32_t> table(16, 0);
  // gen_steps times an odd constant, folded into the ShapeKey hash, whose
  // finalizer has already spread the shape: keys that differ in gen_steps
  // alone land apart.
  const auto home = [&table](const SessionKey& k) {
    const std::uint64_t gen =
        std::uint64_t{static_cast<std::uint32_t>(k.gen_steps)} *
        0x9e3779b97f4a7c15ULL;
    return (std::hash<ShapeKey>{}(k.shape) ^ static_cast<std::size_t>(gen)) &
           (table.size() - 1);
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SessionKey k = key(i);
    std::size_t s = home(k);
    while (table[s] != 0 && !(key(classes.first[table[s] - 1]) == k)) {
      s = (s + 1) & (table.size() - 1);
    }
    if (table[s] == 0) {
      table[s] = static_cast<std::uint32_t>(classes.first.size() + 1);
      classes.first.push_back(static_cast<std::uint32_t>(i));
      classes.members.push_back(0);
    }
    const std::uint32_t id = table[s] - 1;
    ++classes.members[id];
    assign(i, id);
    if (2 * classes.first.size() > table.size()) {
      table.assign(2 * table.size(), 0);
      for (std::uint32_t c = 0; c < classes.first.size(); ++c) {
        std::size_t t = home(key(classes.first[c]));
        while (table[t] != 0) t = (t + 1) & (table.size() - 1);
        table[t] = c + 1;
      }
    }
  }
  return classes;
}

/// Where one session's steps sit among its stream's distinct shapes
/// (PlanIndex::shapes): every prefill chunk at `prefill`, decode step d at
/// `decode + d`. A slot the plan does not use (`prefill` of a decode
/// request, `decode` of a prefill without a generation) stays 0. Trivially
/// copyable and 8 bytes, whatever the generation length.
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

/// Every session step of the indexed requests, without listing them.
struct PlanIndex {
  /// The distinct shapes of every step of every indexed session, each
  /// once, in ShapeKey order.
  std::vector<ShapeKey> shapes;
  /// One entry per indexed request, in the order of its position.
  std::vector<PlanSlots> plans;
};

/// Indexes the session plans of the requests at `positions` in `requests`
/// with at most two hash-table probes per position, however long its
/// generation: one for its prefill shape, one for its run of decode
/// shapes. The distinct runs are sorted once and walked in ShapeKey order,
/// and one pass over the plans turns their provisional run ids into slots.
/// Decode step d of a session sits at slot decode + d because ShapeKey
/// orders kv_len last and every kv_len of the run is in the distinct set.
/// The scheduler passes each session class's first request: members of a
/// class share every step shape, so the distinct set is the whole
/// stream's. The index does not depend on the dispatch mode: chunking
/// slices a prefill's service, not its shape. Each indexed request's
/// decode chain must fit in an int (kv_chain_fits).
[[nodiscard]] PlanIndex build_plan_index(
    const std::vector<InferenceRequest>& requests,
    const std::vector<std::uint32_t>& positions);

}  // namespace nova::serve
