// Inference requests for the serving layer: what arrives, when, and the
// synthetic (Poisson) and replayed (trace) arrival processes that produce
// request streams for the BatchScheduler.
//
// NOVA's unit of service is the non-linear side of one model inference: a
// request names the transformer workload (which fixes the softmax / GELU /
// layernorm element-operation volume at its sequence length), the operator
// whose PWL table the batch shares on the wire, and the table resolution --
// everything the cycle-accurate pricing pass needs to cost the request in
// accelerator cycles.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "approx/functions.hpp"
#include "pipeline/op_graph.hpp"

namespace nova::serve {

/// One inference request against a served NOVA instance pool.
struct InferenceRequest {
  int id = 0;
  /// Simulated arrival time, microseconds since serving start.
  double arrival_us = 0.0;
  /// Benchmark whose non-linear op volume this request carries
  /// (workload::by_name names, e.g. "bert-tiny").
  std::string workload = "bert-tiny";
  /// Sequence length of the inference (scales the op volume). Decode
  /// requests carry seq_len == 1 by convention (one query token); their
  /// volume scales with kv_len instead.
  int seq_len = 128;
  /// Dominant non-linear operator; requests batch only with requests
  /// sharing this function's broadcast table.
  approx::NonLinearFn function = approx::NonLinearFn::kGelu;
  /// PWL segments per lookup (fixes the flit-train length / NoC clock), in
  /// [2, kMaxBreakpoints].
  int breakpoints = 16;
  /// Request class: prefill prices the full-sequence operator graph at
  /// seq_len; decode prices one autoregressive step against a kv_len-entry
  /// KV cache. The scheduler never batch-fuses across phases (they share
  /// no wave shape).
  pipeline::Phase phase = pipeline::Phase::kPrefill;
  /// KV-cache length of a decode request (>= 1); prefill keeps 0.
  int kv_len = 0;
  /// Optional SLO: the latency budget in microseconds relative to
  /// arrival_us (the request's deadline is arrival_us + deadline_us).
  /// 0 means no deadline -- best-effort work, the first to be shed under
  /// overload. Must be finite and >= 0.
  double deadline_us = 0.0;
  /// Additional autoregressive decode steps chained onto this request,
  /// turning it into a generation session (serve/session.hpp). A prefill
  /// request with gen_steps n prefills, then decodes n tokens at kv_len =
  /// seq_len, seq_len+1, ...; a decode request runs its own step at kv_len
  /// plus n more at kv_len+1..kv_len+n. 0 (the default) is the classic
  /// single-step request in both phases. The trace `steps` column is the
  /// TOTAL generation length instead: steps == gen_steps for prefill
  /// lines, steps == gen_steps + 1 for decode lines (a decode request's
  /// own step counts toward its generation). Must be in [0, kMaxGenSteps].
  int gen_steps = 0;

  [[nodiscard]] bool has_deadline() const { return deadline_us > 0.0; }
};

/// Upper bound on InferenceRequest::breakpoints (and --breakpoints): a
/// request's PWL table is trained before it is served, and training time
/// and memory grow with the segment count, so an unbounded trace value
/// could stall or exhaust the host before any request is dispatched.
inline constexpr int kMaxBreakpoints = 4096;

/// Upper bound on InferenceRequest::gen_steps: enough for any realistic
/// generation, small enough that a corrupt trace cannot explode the
/// dispatch loop into billions of steps.
inline constexpr int kMaxGenSteps = 1 << 16;

/// True when the request's prompt is short enough for the int64 volume
/// arithmetic of its prefill graph (pipeline::max_graph_len, about 1.4e7
/// tokens): a longer seq_len overflows the MAC and vector-op counts that
/// pricing reads.
[[nodiscard]] inline bool prompt_fits(const InferenceRequest& req) {
  return req.seq_len <= pipeline::max_graph_len(pipeline::Phase::kPrefill);
}

/// True when every KV-cache length the request's session plan chains
/// (serve/session.hpp) fits in an int and in its decode graph's arithmetic
/// (pipeline::max_graph_len; today INT_MAX): a prefill request decodes its
/// gen_steps tokens at kv_len seq_len .. seq_len + gen_steps - 1, a decode
/// request runs at kv_len .. kv_len + gen_steps. A length near INT_MAX
/// plus a generation would overflow that chain.
[[nodiscard]] inline bool kv_chain_fits(const InferenceRequest& req) {
  // The chain's last kv_len, in 64 bits so the check itself cannot
  // overflow.
  const std::int64_t last =
      req.phase == pipeline::Phase::kDecode
          ? std::int64_t{req.kv_len} + req.gen_steps
          : std::int64_t{req.seq_len} + req.gen_steps - 1;
  return last <= pipeline::max_graph_len(pipeline::Phase::kDecode);
}

/// Shape of the synthetic open-loop traffic the Poisson generator emits.
struct TrafficProfile {
  /// Mean arrival rate, requests per second of simulated time.
  double rate_rps = 500000.0;
  /// PWL resolution shared by all generated requests (keeps the table
  /// training set small; traces may mix resolutions freely).
  int breakpoints = 16;
  /// Baseline sequence length; prefill requests draw from the scale table
  /// {1/4, 1/2, 1, 1, 2} x this (clamped to >= 8) to model mixed sequence
  /// lengths.
  int base_seq_len = 128;
  /// Fraction of requests that are autoregressive decode steps (single
  /// query against a KV cache); the remainder are prefill. 0 reproduces
  /// the pre-decode all-prefill stream, 1 is pure decode traffic.
  double decode_fraction = 0.5;
  /// Baseline KV-cache length for decode requests; actual lengths draw
  /// from the same scale table as sequence lengths (clamped to >= 1) to
  /// model caches at different depths of generation.
  int base_kv_len = 512;
  /// Latency budget stamped on every generated request (see
  /// InferenceRequest::deadline_us); 0 generates best-effort traffic with
  /// no deadlines, reproducing the pre-deadline stream bit for bit.
  double deadline_us = 0.0;
  /// When > 0, every request carries a generation: its total decode-step
  /// count draws uniformly from [1, max_steps] (prefill requests get
  /// gen_steps = the draw, decode requests one less -- their own step
  /// counts). 0 (default) skips the draw entirely, reproducing the
  /// pre-session stream bit for bit.
  int max_steps = 0;
  /// Workload mix, sampled uniformly. Empty profiles are invalid.
  std::vector<std::string> workloads = {"bert-tiny", "bert-mini",
                                        "mobilebert-tiny"};
  /// Operator mix, sampled uniformly. Empty profiles are invalid.
  std::vector<approx::NonLinearFn> functions = {
      approx::NonLinearFn::kGelu, approx::NonLinearFn::kExp,
      approx::NonLinearFn::kTanh, approx::NonLinearFn::kSigmoid};
};

/// Generates `count` requests with exponential inter-arrival gaps (a
/// Poisson process at profile.rate_rps), deterministic from `seed`.
/// Requests come back sorted by arrival time with ids 0..count-1.
[[nodiscard]] std::vector<InferenceRequest> generate_poisson(
    int count, const TrafficProfile& profile, std::uint64_t seed);

/// Parses a request trace: one request per line,
/// `arrival_us,workload,function,seq_len,breakpoints[,phase[,kv_len
/// [,deadline_us[,steps]]]]`, with `#` comments and blank lines ignored.
/// `phase` is "prefill" (default) or "decode"; decode lines must carry
/// kv_len >= 1, prefill lines may only carry kv_len 0. The optional
/// deadline_us column is the request's SLO budget relative to arrival
/// (finite, >= 0; 0 or absent means best-effort). The optional trailing
/// `steps` column is the request's total generation length: >= 0 on
/// prefill lines (tokens decoded after the prefill), >= 1 on decode lines
/// (the request's own step counts), at most kMaxGenSteps; absent means a
/// classic single-step request. Returns false and fills `error` on
/// malformed input. Requests are re-sorted by arrival time and
/// re-numbered in that order.
[[nodiscard]] bool parse_trace(std::istream& in,
                               std::vector<InferenceRequest>& out,
                               std::string& error);

/// parse_trace over the contents of `path`.
[[nodiscard]] bool load_trace(const std::string& path,
                              std::vector<InferenceRequest>& out,
                              std::string& error);

}  // namespace nova::serve
