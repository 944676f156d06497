#include "serve/session.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace nova::serve {

SessionPlan build_session_plan(const InferenceRequest& req, bool continuous,
                               int chunk_tokens) {
  NOVA_EXPECTS(chunk_tokens >= 1);
  NOVA_EXPECTS(req.gen_steps >= 0);
  NOVA_EXPECTS(req.seq_len >= 1);
  NOVA_EXPECTS(kv_chain_fits(req));
  SessionPlan plan;
  if (req.phase == pipeline::Phase::kPrefill) {
    const ShapeKey prefill{req.workload, req.seq_len,     req.function,
                           req.breakpoints, req.phase, req.kv_len};
    const int chunk = continuous ? chunk_tokens : req.seq_len;
    // ceil(seq_len / chunk) and the chunk ends below, written so no
    // intermediate exceeds seq_len: the plain (seq_len + chunk - 1) / chunk
    // overflows for seq_len > 2^30 when chunk == seq_len.
    const int chunks = 1 + (req.seq_len - 1) / chunk;
    plan.prefill_chunks = chunks;
    plan.steps.reserve(static_cast<std::size_t>(chunks) +
                       static_cast<std::size_t>(req.gen_steps));
    for (int c = 0; c < chunks; ++c) {
      const int begin = c * chunk;
      const int end = begin + std::min(chunk, req.seq_len - begin);
      SessionStep step;
      step.shape = prefill;
      // A single chunk carries seq_len/seq_len == 1.0 exactly, so the
      // unchunked plan prices bit-equal to the pre-session scheduler.
      step.share = static_cast<double>(end - begin) /
                   static_cast<double>(req.seq_len);
      plan.steps.push_back(step);
    }
    for (int s = 0; s < req.gen_steps; ++s) {
      SessionStep step;
      // Generated tokens decode against the prefilled prompt: the cache
      // starts at seq_len entries and grows one per emitted token.
      // seq_len == 1 is the decode-shape convention (one query token).
      step.shape = ShapeKey{req.workload,    1,
                            req.function,    req.breakpoints,
                            pipeline::Phase::kDecode, req.seq_len + s};
      plan.steps.push_back(step);
    }
    plan.decode_steps = req.gen_steps;
  } else {
    plan.decode_steps = req.gen_steps + 1;
    plan.steps.reserve(static_cast<std::size_t>(plan.decode_steps));
    for (int s = 0; s < plan.decode_steps; ++s) {
      SessionStep step;
      step.shape = ShapeKey{req.workload,    req.seq_len,
                            req.function,    req.breakpoints,
                            pipeline::Phase::kDecode, req.kv_len + s};
      plan.steps.push_back(step);
    }
  }
  return plan;
}

}  // namespace nova::serve
