#include "serve/session.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"

namespace nova::serve {

ShapeKey prefill_shape(const InferenceRequest& req) {
  return ShapeKey{req.workload,    req.seq_len, req.function,
                  req.breakpoints, req.phase,   req.kv_len};
}

ShapeKey decode_shape(const InferenceRequest& req, int d) {
  const bool prefill = req.phase == pipeline::Phase::kPrefill;
  return ShapeKey{req.workload,
                  prefill ? 1 : req.seq_len,
                  req.function,
                  req.breakpoints,
                  pipeline::Phase::kDecode,
                  (prefill ? req.seq_len : req.kv_len) + d};
}

SessionPlan build_session_plan(const InferenceRequest& req, bool continuous,
                               int chunk_tokens) {
  NOVA_EXPECTS(chunk_tokens >= 1);
  NOVA_EXPECTS(req.gen_steps >= 0);
  NOVA_EXPECTS(req.seq_len >= 1);
  NOVA_EXPECTS(kv_chain_fits(req));
  const SessionLayout layout = session_layout(req, continuous, chunk_tokens);
  SessionPlan plan;
  plan.prefill_chunks = layout.chunks;
  plan.decode_steps = layout.decode_steps;
  plan.steps.reserve(static_cast<std::size_t>(layout.total_steps()));
  for (int c = 0; c < layout.chunks; ++c) {
    plan.steps.push_back({prefill_shape(req), layout.share(c)});
  }
  for (int d = 0; d < layout.decode_steps; ++d) {
    plan.steps.push_back({decode_shape(req, d), 1.0});
  }
  return plan;
}

namespace {

/// True when two shapes differ at most in kv_len: the class a decode run
/// grows along.
bool same_class(const ShapeKey& a, const ShapeKey& b) {
  return a.workload == b.workload && a.seq_len == b.seq_len &&
         a.function == b.function && a.breakpoints == b.breakpoints &&
         a.phase == b.phase;
}

}  // namespace

PlanIndex build_plan_index(const std::vector<InferenceRequest>& requests,
                           const std::vector<std::uint32_t>& positions) {
  // Each indexed request adds at most two RUNS of consecutive kv_len in
  // one class: its prefill shape (a run of one) and its decode chain. Runs
  // are keyed by their first shape in a hash table; runs that start at the
  // same shape keep the longest one's last kv_len, and each distinct run
  // gets a provisional first-seen id from 1, which a plan stores in each
  // slot it uses (it leaves the others at 0). Chain ends are 64-bit: a
  // chain may end at kv_len INT_MAX, so end + 1 must not overflow.
  struct Run {
    std::int64_t last = 0;
    std::uint32_t id = 0;
  };
  std::unordered_map<ShapeKey, Run> runs;
  const auto add_run = [&runs](const ShapeKey& first, std::int64_t last) {
    const auto next_id = static_cast<std::uint32_t>(runs.size() + 1);
    const auto [it, fresh] = runs.try_emplace(first, Run{last, next_id});
    if (!fresh) it->second.last = std::max(it->second.last, last);
    return it->second.id;
  };
  PlanIndex index;
  index.plans.resize(positions.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    const auto& req = requests[positions[k]];
    NOVA_EXPECTS(req.gen_steps >= 0 && kv_chain_fits(req));
    // A plan's shapes are the same in both dispatch modes, so the
    // whole-request layout tells which of the two runs a request has.
    const SessionLayout layout =
        session_layout(req, /*continuous=*/false, /*chunk_tokens=*/1);
    auto& plan = index.plans[k];
    if (layout.chunks > 0) {
      plan.prefill = add_run(prefill_shape(req), req.kv_len);
    }
    if (layout.decode_steps > 0) {
      const ShapeKey first = decode_shape(req, 0);
      plan.decode = add_run(
          first, std::int64_t{first.kv_len} + layout.decode_steps - 1);
    }
  }

  // One ordered walk over the runs sorted once by first shape. A class's
  // runs are adjacent and sorted by first kv_len, so each run emits only
  // the kv_lens past the furthest one its class has emitted (`end`): every
  // covered kv_len once, in ShapeKey order, which is the distinct set of
  // all the steps. A run's own first kv_len then sits `from - first` slots
  // before the first one it emits.
  std::vector<std::pair<ShapeKey, Run>> sorted(runs.begin(), runs.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::uint32_t> slot_of(sorted.size() + 1, 0);
  const ShapeKey* previous = nullptr;
  std::int64_t end = 0;
  for (const auto& [first, run] : sorted) {
    const bool extends = previous != nullptr && same_class(*previous, first);
    const std::int64_t from =
        extends ? std::max<std::int64_t>(first.kv_len, end + 1)
                : first.kv_len;
    slot_of[run.id] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(index.shapes.size()) -
        (from - first.kv_len));
    ShapeKey shape = first;
    for (std::int64_t kv = from; kv <= run.last; ++kv) {
      shape.kv_len = static_cast<int>(kv);
      index.shapes.push_back(shape);
    }
    end = extends ? std::max(end, run.last) : run.last;
    previous = &first;
  }

  // Provisional run ids to slots; slot_of[0] keeps an unused slot at 0.
  for (auto& plan : index.plans) {
    plan.prefill = slot_of[plan.prefill];
    plan.decode = slot_of[plan.decode];
  }
  return index;
}

}  // namespace nova::serve
