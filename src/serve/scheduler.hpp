// BatchScheduler: packs a stream of inference requests onto a pool of
// simulated NOVA accelerator instances and reports end-to-end latency
// percentiles and throughput.
//
// Two-phase design, so the outcome is bit-identical for any worker-thread
// count:
//
//   1. Pricing (parallel): every request is priced from its workload's
//      attention-pipeline operator graph on the configured host fabric --
//      the full-sequence prefill graph (pipeline::build_graph) or the
//      single-step decode graph at its KV-cache length
//      (pipeline::build_decode_graph) -- not from the non-linear stream
//      alone.
//      In `exact` pricing mode every distinct shape runs the cycle-accurate
//      path (serve::ExactPricer): a core::SimSession calibration of the
//      deployment's steady-state wave rate and pipeline fill, which then
//      parameterizes a PipelineExecutor walk of the graph, whose
//      overlap-aware makespan (fabric GEMM tiles overlapping NOVA waves) is
//      the request's service time. Where the flit train lands within one
//      accelerator cycle (every Table II deployment) the calibration is
//      measured once per PWL table; elsewhere each shape simulates up to
//      sim_elements_cap elements per router of inputs synthesized from
//      (config.seed, request shape). In `surrogate` mode only a handful
//      of log-spaced anchor shapes per (workload, phase, function,
//      breakpoints) class run that path; every other shape walks its own
//      graph under a calibration read off plain PWL curves fitted through
//      the anchors' calibration parameters (elements/cycle and wave
//      latency), never through the cost (serve::PricingSurrogate).
//      `hybrid` runs the surrogate and additionally re-prices a
//      deterministic sample of distinct shapes exactly, reconciling the
//      two within surrogate_tol (the audit lands in
//      ServeReport::surrogate; CLI/bench drivers exit non-zero on drift).
//      Requests are independent, so the worker pool shares only the
//      read-only PWL tables (pre-warmed before fan-out; PwlLibrary::get is
//      additionally mutex-guarded) and the pricer's per-table memo, whose
//      entries depend on nothing a worker chooses.
//
//      Before pricing, the stream's session plans are indexed, not listed
//      (serve::build_plan_index): each distinct step ShapeKey is stored
//      once and priced once, and each request keeps two slots into them,
//      its prefill shape's and its first decode step's. Step s of request
//      i sits at one of the two, offset by s past the prefill chunks
//      (PlanSlots::slot), and costs costs[slot] scaled by its share in the
//      request's SessionLayout, so the per-request fold and the dispatch
//      loop read every step from its request. Nothing is stored per step,
//      and no per-request plan or cost vector stays resident: the index
//      and the shape costs are freed when dispatch returns, before the
//      aggregate pass records its latency samples.
//
//   2. Dispatch (serial, deterministic): one step-clocked event loop
//      serves both modes. Every session has one pending dispatch unit at a
//      time. Units of sessions that have not started wait in one ready
//      queue (serve/ready_queue.hpp: an arrival cursor over the request
//      array plus an ordered set of retries); a session pins to the
//      instance that completes its first unit (its KV cache lives there),
//      and its later units wait in that instance's pinned queue, a vector
//      sorted by (ready_us, id). Each iteration dispatches the unit that
//      can START earliest -- each pinned queue's head on its instance, or
//      the ready queue's head on the earliest-available instance with a
//      free session slot (max_batch sessions per instance) -- ties to the
//      oldest (ready_us, id) unit. Two tournament trees over the instances
//      (serve/availability.hpp) hold those candidates, one leaf per
//      instance each, so the pick reads two roots and a dispatch replays
//      only its own instance's leaves, O(log instances). Ready units
//      behind it whose first step shares its PWL table (function +
//      breakpoints) AND phase fuse in, up to max_batch: fused waves reuse
//      the broadcast flit train back-to-back, so each extra member saves
//      the pipeline-fill latency of its first wave (the overlap credit).
//      Prefill and decode never fuse -- they share no wave shape.
//      Admission control (deadline/overload shedding) runs once per
//      session, on its first unit.
//
//      The modes differ in three rules, all keyed on config.continuous:
//        * Dispatch unit. Whole-request mode dispatches a session's whole
//          plan at once, charged at its folded service_us, so its slot is
//          claimed and freed inside one dispatch and it never waits
//          pinned. Continuous batching (Orca/Sarathi-style iteration-level
//          scheduling) dispatches one plan step (serve/session.hpp: a
//          prefill chunk or a kv-growing decode step), charged at its
//          share of its shape's cycles; the next step becomes ready the
//          moment the previous one finishes.
//        * Fusion scan. Whole-request fusion is a FIFO run that stops at
//          the first mismatch, so a batch is a prefix of the ready queue;
//          continuous fusion skips mismatches.
//        * Step counters. serve.steps, serve.preempted_steps and
//          serve.ttft_us count only under continuous batching.
//      An outage kills only the unit in flight: a continuous session keeps
//      its completed steps (the KV cache survives on the pinned instance)
//      and retries just that step after backoff, while whole-request
//      dispatch loses the entire request. The retry budget,
//      policy.max_retries, is per unit.
//
//      Failure awareness (config.faults + config.policy): dispatch skips
//      instances inside an outage window; a batch whose instance fails
//      mid-service is re-queued and retried with capped exponential
//      backoff + deterministic jitter (kFailed after max_retries);
//      requests whose projected finish already misses their deadline are
//      shed at admission; and past a projected-queue-wait threshold the
//      effective batch cap shrinks toward latency before best-effort work
//      is shed. With the default (empty) FaultPlan and default policy the
//      loop reduces exactly to the paragraphs above: a zero-fault run is
//      byte-identical to a fault-free one.
//
// All times are simulated microseconds; the accelerator clock converts the
// SimSession's cycle counts (config.nova.accel_freq_mhz cycles per us).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/vector_unit.hpp"
#include "hwmodel/vector_unit_cost.hpp"
#include "serve/faults.hpp"
#include "serve/policy.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "serve/surrogate.hpp"
#include "sim/stats.hpp"

namespace nova::serve {

/// Deployment of the serving pool.
struct ServeConfig {
  /// Hardware configuration of every instance in the pool.
  core::NovaConfig nova;
  /// Host accelerator whose compute fabric executes the GEMM side of each
  /// request's operator graph (the NOVA unit `nova` serves its non-linear
  /// side).
  hw::AcceleratorKind host = hw::AcceleratorKind::kTpuV4;
  /// Simulated accelerator instances served by the pool.
  int instances = 1;
  /// Worker threads pricing requests in phase 1 (does not affect results).
  int threads = 1;
  /// Max requests fused into one instance dispatch; 1 disables batching.
  int max_batch = 8;
  /// Seed for per-request input synthesis.
  std::uint64_t seed = 42;
  /// Elements per router simulated cycle-accurately when a shape is
  /// calibrated on its own input stream (the flit train spans accelerator
  /// cycles); the remainder of the stream extrapolates at the measured
  /// steady-state rate.
  int sim_elements_cap = 8192;
  /// How distinct request shapes are priced (see surrogate.hpp): exact
  /// cycle-accurate runs per shape, surrogate interpolation anchored by a
  /// few such runs, or hybrid (surrogate + sampled exact reconciliation).
  PricingMode pricing = PricingMode::kExact;
  /// How pricing rewrites each shape's operator graph before walking it
  /// (pipeline/fusion.hpp): off = the builder graph untouched (byte
  /// identical to pre-fusion binaries), on = every fusion pass, auto = the
  /// per-shape tuner's argmin over all 8 masks. Admission therefore prices
  /// the TUNED graph: the same speedup the executor would realize is the
  /// one the scheduler projects. Composes with every pricing mode --
  /// surrogate/hybrid interpolate the calibration, and the fusion rewrite
  /// happens inside the shared graph walk.
  pipeline::FusionMode fusion = pipeline::FusionMode::kOff;
  /// Max cycle-accurate anchor runs per pricing class in surrogate/hybrid
  /// mode; classes with at most this many distinct lengths are anchored
  /// exactly (no interpolation at all).
  int surrogate_anchors = 8;
  /// Relative service-cycle tolerance hybrid reconciliation enforces.
  double surrogate_tol = 0.02;
  /// Distinct shapes hybrid mode re-prices exactly, spread evenly over the
  /// shape-sorted distinct set (deterministic; capped by the set size).
  int hybrid_samples = 24;
  /// Per-instance fault timeline dispatch simulates against (see
  /// faults.hpp). The default empty plan keeps every instance healthy and
  /// the run byte-identical to a pre-fault one.
  FaultPlan faults;
  /// Retry/backoff, deadline-shedding, and overload-degradation policy
  /// (see policy.hpp). Validated eagerly by the constructor.
  FailurePolicy policy;
  /// Continuous batching: dispatch at step granularity (sessions advance
  /// one kv-growing decode step per dispatch, prefills split into
  /// chunk_tokens-sized chunks) instead of whole requests. Off by
  /// default; the whole-request path is bit-identical to the pre-session
  /// scheduler.
  bool continuous = false;
  /// Prefill chunk size in prompt tokens under continuous batching; a
  /// prefill of seq_len S becomes ceil(S / chunk_tokens) dispatches.
  int chunk_tokens = 64;
};

/// Where and when one request was served -- or why it was not.
///
/// Outcomes are indexed like the request array, by request id, and carry
/// no copy of the request: latency_us() and queue_us() take the request
/// whose arrival they measure from, and a reader that wants any other
/// request field indexes the request array with the outcome's index. The
/// session's step count is prefill_chunks + decode_steps(request)
/// (serve/session.hpp), and the size of the batch that finished it is the
/// number of outcomes sharing its batch_id in whole-request mode; the
/// "serve.batch_size" histogram records every dispatch's size. Trivially
/// copyable and 72 bytes.
///
/// Unserved contract: outcomes whose status is kShed or kFailed were never
/// serviced to completion, and every service-side field stays at its zero
/// default -- instance == -1, batch_id == -1, service_cycles == 0,
/// wave_latency_cycles == 0, service_us == start_us == finish_us ==
/// first_finish_us == 0.0 (enforced by the scheduler, not merely
/// documented; shed requests are priced for the admission projection but
/// the price is not part of their outcome). Aggregate consumers must filter
/// on served() rather than probing instance == -1. approx_ops and the plan
/// field prefill_chunks describe the request, not its service, and survive
/// the zeroing.
struct RequestOutcome {
  /// Terminal status; kOk/kRetried/kDeadlineMiss outcomes were served to
  /// completion, kShed/kFailed never were (see the unserved contract).
  RequestStatus status = RequestStatus::kOk;
  /// Dispatch attempts made: 1 + every retry any step of the session
  /// spent (1 = served first try; a shed request records the attempt it
  /// was shed on, a failed single-step request max_retries + 1).
  int attempts = 1;
  int instance = -1;
  int batch_id = -1;
  int wave_latency_cycles = 0;
  /// Chunks the prefill split into (0 for decode-phase requests). A plan
  /// property (set by pricing), so it survives the unserved zeroing. The
  /// dispatch loop reads it for every fusion candidate, so it is kept here
  /// rather than derived from the request.
  int prefill_chunks = 0;
  /// Non-linear element operations one inference of this request costs.
  std::int64_t approx_ops = 0;
  /// Standalone service cost: the overlap-aware makespan of the request's
  /// operator-graph timeline, with the vector-unit rate and fill measured
  /// by the cycle-accurate pricing run.
  sim::Cycle service_cycles = 0;
  double service_us = 0.0;
  double start_us = 0.0;   ///< first (successful) dispatch of the session
  double finish_us = 0.0;  ///< completion of the session's last step
  /// Completion of the session's first step -- the time-to-first-token
  /// proxy under continuous batching. Equals finish_us for
  /// single-dispatch sessions; zeroed when unserved.
  double first_finish_us = 0.0;

  /// True when the request completed service (kOk/kRetried/kDeadlineMiss).
  [[nodiscard]] bool served() const {
    return status == RequestStatus::kOk ||
           status == RequestStatus::kRetried ||
           status == RequestStatus::kDeadlineMiss;
  }
  /// End-to-end latency from `request`'s arrival (the request this outcome
  /// is indexed like); meaningful only for served() outcomes (0 minus
  /// arrival otherwise -- check served() first).
  [[nodiscard]] double latency_us(const InferenceRequest& request) const {
    return finish_us - request.arrival_us;
  }
  [[nodiscard]] double queue_us(const InferenceRequest& request) const {
    return start_us - request.arrival_us;
  }
};

/// Per-instance utilization and availability accounting.
struct InstanceStats {
  int requests = 0;
  int batches = 0;
  double busy_us = 0.0;
  /// Dispatches on this instance killed by an outage window.
  int failed_batches = 0;
  /// Outage time inside the report's makespan (slowdown windows count as
  /// up -- they serve, just slowly).
  double down_us = 0.0;
  /// Fraction of the makespan this instance was up; 1 when no faults.
  double availability = 1.0;
};

/// The full serving run: per-request outcomes plus aggregates.
struct ServeReport {
  /// Outcomes indexed by request id (= arrival order).
  std::vector<RequestOutcome> outcomes;
  std::vector<InstanceStats> instances;
  /// Aggregates; latency percentiles live in the "serve.latency_us"
  /// histogram, batch sizes in "serve.batch_size".
  sim::StatRegistry stats;
  /// How pricing ran: mode, anchor spend, and (hybrid) the reconciliation
  /// samples with their max relative error.
  SurrogateAudit surrogate;
  /// First arrival to last completion.
  double makespan_us = 0.0;
  /// Served requests (kOk/kRetried/kDeadlineMiss) per second of makespan:
  /// raw delivery rate, deadline misses included.
  double throughput_rps = 0.0;
  /// Useful work per second of makespan: served requests that also met
  /// their deadline (kOk/kRetried). Equals throughput_rps when nothing is
  /// shed, failed, or late -- i.e. in every fault-free, deadline-free run.
  double goodput_rps = 0.0;
  /// Outcome counts indexed by RequestStatus; sums to outcomes.size().
  std::array<std::uint64_t, kRequestStatusCount> status_counts{};

  [[nodiscard]] std::uint64_t status_count(RequestStatus status) const {
    return status_counts[static_cast<std::size_t>(status)];
  }

  /// Latency percentile over SERVED requests only (the "serve.latency_us"
  /// histogram never records shed/failed outcomes, which have no finish).
  /// 0.0 when nothing was served, matching the Histogram empty contract.
  [[nodiscard]] double latency_percentile_us(double p) const;
};

/// Bit-strict serialization of every per-request field pricing and
/// dispatch produce for `report`, the run of `requests`: one line per
/// outcome with its index (the request id), status, attempts, instance,
/// batch_id, session steps (prefill_chunks + decode_steps of its request),
/// approx_ops, service_cycles, wave_latency_cycles, service_us, start_us,
/// finish_us and first_finish_us, doubles printed as exact hex floats
/// (%a). Two reports of one stream are byte-identical iff their
/// fingerprints match. Not named plain `fingerprint`:
/// perfbench/nova_perf.cpp keeps its own fingerprint(const ServeReport&)
/// and calls it unqualified, which a library overload would make ambiguous
/// through argument-dependent lookup.
[[nodiscard]] std::string outcome_fingerprint(
    const std::vector<InferenceRequest>& requests, const ServeReport& report);

/// Deterministic request-to-instance packing over a worker pool.
class BatchScheduler {
 public:
  explicit BatchScheduler(const ServeConfig& config);

  /// Serves `requests`. The stream contract -- sorted by arrival_us, ids
  /// 0..n-1, finite arrivals, coherent phase/kv_len -- is validated
  /// eagerly in every build type; a hand-built vector violating it aborts
  /// with a message naming the offending request instead of dispatching in
  /// a silently wrong order. Identical inputs give identical reports for
  /// every config.threads value, in every pricing mode.
  [[nodiscard]] ServeReport run(
      const std::vector<InferenceRequest>& requests) const;

 private:
  /// Prices every distinct step shape (index.shapes) and folds the results
  /// into the per-request aggregates of `outcomes`, with each request's
  /// prefill_chunks, and adds every session's step count to
  /// `total_steps`. Returns the shapes' costs, indexed by slot.
  [[nodiscard]] std::vector<ShapeCost> price_requests(
      const std::vector<InferenceRequest>& requests, const PlanIndex& index,
      std::vector<RequestOutcome>& outcomes, SurrogateAudit& audit,
      std::uint64_t& total_steps) const;

  /// The serial dispatch loop of both modes (whole-request and
  /// step-clocked continuous batching) over sessions of `total_steps`
  /// steps in all. Returns the last finish time.
  double dispatch(const std::vector<InferenceRequest>& requests,
                  const PlanIndex& index, const std::vector<ShapeCost>& costs,
                  std::uint64_t total_steps, ServeReport& report) const;

  ServeConfig config_;
};

}  // namespace nova::serve
