#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "accel/accelerator.hpp"
#include "approx/mlp_fitter.hpp"
#include "common/assert.hpp"
#include "serve/availability.hpp"
#include "serve/ready_queue.hpp"

namespace nova::serve {

namespace {

/// Eager stream-contract validation: the generators guarantee all of this,
/// but hand-built request vectors have violated it in practice, and a
/// violation does not crash -- it dispatches in a silently wrong order or
/// mis-prices a phase. Active in every build type (like NOVA_EXPECTS),
/// with a message naming the offending request.
void validate_stream(const std::vector<InferenceRequest>& requests) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& req = requests[i];
    const auto fail = [&](const char* what) {
      const std::string name(req.workload.name());
      std::fprintf(stderr,
                   "nova: BatchScheduler::run precondition violation: "
                   "request at position %zu (id %d, workload '%s', "
                   "arrival %g us): %s\n",
                   i, req.id, name.c_str(), req.arrival_us, what);
      std::abort();
    };
    if (req.id != static_cast<int>(i)) {
      fail("ids must be 0..n-1 in stream order (re-number after sorting)");
    }
    if (!std::isfinite(req.arrival_us) || req.arrival_us < 0.0) {
      fail("arrival_us must be finite and >= 0");
    }
    if (i > 0 && requests[i - 1].arrival_us > req.arrival_us) {
      fail("requests must be sorted by arrival_us (earlier request "
           "arrives later)");
    }
    if (req.seq_len < 1 || req.breakpoints < 2 ||
        req.breakpoints > kMaxBreakpoints) {
      fail("seq_len must be >= 1 and breakpoints in [2, kMaxBreakpoints]");
    }
    if (req.phase == pipeline::Phase::kDecode && req.kv_len < 1) {
      fail("decode requests need kv_len >= 1");
    }
    if (req.phase == pipeline::Phase::kPrefill && req.kv_len != 0) {
      fail("prefill requests must not carry a non-zero kv_len");
    }
    if (!std::isfinite(req.deadline_us) || req.deadline_us < 0.0) {
      fail("deadline_us must be finite and >= 0 (0 = no deadline)");
    }
    if (req.gen_steps < 0 || req.gen_steps > kMaxGenSteps) {
      fail("gen_steps must be in [0, kMaxGenSteps] (decode steps chained "
           "onto the request)");
    }
    if (!kv_chain_fits(req)) {
      fail("the decode chain overflows: seq_len (prefill) or kv_len "
           "(decode) plus gen_steps exceeds pipeline::max_graph_len(kDecode)");
    }
    if (!prompt_fits(req)) {
      fail("the prompt overflows its operator graph's counts: seq_len "
           "exceeds pipeline::max_graph_len(kPrefill)");
    }
  }
}

}  // namespace

double ServeReport::latency_percentile_us(double p) const {
  const auto* hist = stats.find_histogram("serve.latency_us");
  return hist == nullptr ? 0.0 : hist->percentile(p);
}

std::string outcome_fingerprint(const std::vector<InferenceRequest>& requests,
                                const ServeReport& report) {
  NOVA_EXPECTS(requests.size() == report.outcomes.size());
  std::string out;
  char buf[256];
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& outcome = report.outcomes[i];
    const int session_steps =
        outcome.prefill_chunks + decode_steps(requests[i]);
    std::snprintf(buf, sizeof(buf),
                  "%zu|%s|%d|%d|%d|%d|%lld|%lld|%d|%a|%a|%a|%a\n", i,
                  to_string(outcome.status), outcome.attempts,
                  outcome.instance, outcome.batch_id, session_steps,
                  static_cast<long long>(outcome.approx_ops),
                  static_cast<long long>(outcome.service_cycles),
                  outcome.wave_latency_cycles, outcome.service_us,
                  outcome.start_us, outcome.finish_us,
                  outcome.first_finish_us);
    out += buf;
  }
  return out;
}

BatchScheduler::BatchScheduler(const ServeConfig& config) : config_(config) {
  NOVA_EXPECTS(config.instances >= 1);
  NOVA_EXPECTS(config.threads >= 1);
  NOVA_EXPECTS(config.max_batch >= 1);
  NOVA_EXPECTS(config.sim_elements_cap >= 1);
  NOVA_EXPECTS(config.nova.accel_freq_mhz > 0.0);
  NOVA_EXPECTS(config.surrogate_anchors >= 2);
  NOVA_EXPECTS(config.surrogate_tol > 0.0);
  NOVA_EXPECTS(config.hybrid_samples >= 1);
  NOVA_EXPECTS(config.chunk_tokens >= 1);
  // Graph pricing counts fabric cycles at the host's clock and converts
  // the whole span at nova.accel_freq_mhz; a host/NOVA clock mismatch
  // would silently mis-scale the GEMM share of every latency, so the two
  // domains must agree (make_overlay(host).nova pairs them correctly).
  NOVA_EXPECTS(accel::make_accelerator(config.host).freq_mhz ==
               config.nova.accel_freq_mhz);
  validate(config.policy);
}

std::vector<ShapeCost> BatchScheduler::price_requests(
    const std::vector<InferenceRequest>& requests, const PlanIndex& index,
    std::vector<RequestOutcome>& outcomes, SurrogateAudit& audit,
    std::uint64_t& total_steps) const {
  // A request's price is a function of its shape alone (where wave timing
  // depends on the data, the calibration synthesizes that data from the
  // shape), so pricing is memoized per distinct shape; only the distinct
  // set ever touches a pricing path. The set spans every SESSION STEP: decode
  // steps are ordinary per-kv_len shapes of the request's pricing class
  // (exactly what the surrogate's per-class curves interpolate), and all
  // chunks of a prefill share its one full-sequence shape -- so a stream
  // of classic single-step requests yields the same distinct set (and the
  // same hybrid reconciliation sample) as the pre-session scheduler.
  const std::vector<ShapeKey>& distinct = index.shapes;

  // Pre-warm every PWL table the stream needs on this thread: training is
  // expensive and PwlLibrary::get serializes it, so warming first keeps
  // the workers out of each other's way (and out of the training path
  // entirely). One call per distinct shape, not per request.
  auto& library = approx::PwlLibrary::instance();
  for (const auto& shape : distinct) {
    (void)library.get(shape.function, shape.breakpoints);
  }

  PricerConfig pricer_config{config_.nova, config_.host, config_.seed,
                             config_.sim_elements_cap};
  pricer_config.fusion = config_.fusion;
  const ExactPricer pricer(pricer_config);
  audit.mode = config_.pricing;
  audit.distinct_shapes = distinct.size();
  audit.tolerance = config_.surrogate_tol;
  audit.fusion = config_.fusion;

  std::vector<ShapeCost> costs;
  if (config_.pricing == PricingMode::kExact) {
    costs = price_shapes(pricer, distinct, config_.threads);
  } else {
    const PricingSurrogate surrogate(pricer, distinct,
                                     config_.surrogate_anchors,
                                     config_.threads);
    audit.classes = surrogate.classes().size();
    audit.anchors_priced = surrogate.anchors_priced();
    costs.reserve(distinct.size());
    for (const auto& shape : distinct) {
      costs.push_back(surrogate.predict(shape));
    }
    if (config_.pricing == PricingMode::kHybrid) {
      // Deterministic reconciliation sample: k shapes spread evenly over
      // the shape-sorted distinct set (indices depend only on the set
      // size, never on threads or timing). Each is re-priced through the
      // exact path and compared on service cycles.
      const std::size_t k = std::min<std::size_t>(
          static_cast<std::size_t>(config_.hybrid_samples), distinct.size());
      std::vector<std::size_t> picks;
      picks.reserve(k);
      for (std::size_t s = 0; s < k; ++s) {
        picks.push_back(k == 1 ? 0
                               : s * (distinct.size() - 1) / (k - 1));
      }
      picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
      std::vector<ShapeKey> sampled;
      sampled.reserve(picks.size());
      for (const auto index : picks) sampled.push_back(distinct[index]);
      const auto exact = price_shapes(pricer, sampled, config_.threads);
      for (std::size_t s = 0; s < picks.size(); ++s) {
        SurrogateSample sample;
        sample.shape = sampled[s];
        sample.exact_cycles = exact[s].service_cycles;
        sample.surrogate_cycles = costs[picks[s]].service_cycles;
        sample.rel_error =
            std::abs(sample.surrogate_cycles - sample.exact_cycles) /
            std::max(sample.exact_cycles, 1.0);
        audit.max_rel_error =
            std::max(audit.max_rel_error, sample.rel_error);
        audit.samples.push_back(std::move(sample));
      }
      audit.within_tolerance = audit.max_rel_error <= audit.tolerance;
    }
  }

  // Fusion tallies for the audit: how many distinct shapes actually priced
  // a rewritten graph, and the best per-shape tuner win.
  for (const auto& cost : costs) {
    if (cost.fusion != pipeline::kFuseNone) ++audit.fused_shapes;
    audit.max_fusion_speedup =
        std::max(audit.max_fusion_speedup, cost.fusion_speedup);
  }

  // Fold the step costs into per-request aggregates, step by step in plan
  // order. A chunk's cycles are share * service_cycles -- the same product
  // continuous dispatch charges per chunk -- and a decode step's are its
  // shape's service_cycles (share 1.0), so a single-step plan reproduces
  // the pre-session outcome fields bit for bit (1.0 * x == x). One
  // inference runs each shape's ops once however it is sliced: the chunks
  // of a prefill share its shape (count it once), and every decode step is
  // a distinct kv_len (each counts).
  const double freq = config_.nova.accel_freq_mhz;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    auto& outcome = outcomes[i];
    const SessionLayout layout = session_layout(
        requests[i], config_.continuous, config_.chunk_tokens);
    const PlanSlots& plan = index.plans[i];
    outcome.prefill_chunks = layout.chunks;
    total_steps += static_cast<std::uint64_t>(layout.total_steps());
    double cycles = 0.0;
    std::int64_t ops = 0;
    if (layout.chunks > 0) {
      const ShapeCost& prefill = costs[plan.prefill];
      for (int c = 0; c < layout.chunks; ++c) {
        cycles += layout.share(c) * prefill.service_cycles;
      }
      ops += prefill.approx_ops;
    }
    for (int d = 0; d < layout.decode_steps; ++d) {
      const ShapeCost& cost =
          costs[plan.decode + static_cast<std::uint32_t>(d)];
      cycles += cost.service_cycles;
      ops += cost.approx_ops;
    }
    outcome.approx_ops = ops;
    outcome.service_cycles =
        static_cast<sim::Cycle>(std::llround(cycles));
    outcome.service_us = cycles / freq;
    outcome.wave_latency_cycles =
        costs[plan.slot(layout.chunks, 0)].wave_latency_cycles;
  }
  return costs;
}

double BatchScheduler::dispatch(const std::vector<InferenceRequest>& requests,
                                const PlanIndex& index,
                                const std::vector<ShapeCost>& costs,
                                std::uint64_t total_steps,
                                ServeReport& report) const {
  // The step-clocked event loop of both serving modes. A session pins to
  // the instance that completes its first dispatch unit (its KV cache lives
  // in that instance's memory) and every later unit dispatches there;
  // not-yet-started sessions may start anywhere with a free session slot.
  // Each iteration chooses the unit that can START earliest across the
  // fleet -- among each instance's pinned queue head and the FIFO head of
  // not-yet-started sessions -- breaking start-time ties toward the oldest
  // (ready_us, id) unit, so backlogged prefills cannot be starved by decode
  // trains and running sessions cannot be starved by arrivals (the slot cap
  // bounds how many sessions interleave per instance). A whole-request unit
  // is the session's whole plan, so no whole-mode session ever waits
  // pinned and its slot is claimed and freed inside one dispatch. The loop
  // is a pure function of the inputs; with an empty FaultPlan and default
  // FailurePolicy no fault branch below fires.
  const bool continuous = config_.continuous;
  std::vector<double> free_at(static_cast<std::size_t>(config_.instances),
                              0.0);
  std::vector<int> slots_used(static_cast<std::size_t>(config_.instances), 0);
  const int slot_cap = config_.max_batch;

  auto& batch_hist = report.stats.histogram("serve.batch_size");
  // One sample per successful dispatch, reserved once so the store never
  // regrows. A successful dispatch completes at least one unit and a killed
  // one records nothing, so whole mode records at most one sample per
  // request and continuous mode at most one per session step.
  batch_hist.reserve(continuous ? total_steps : requests.size());
  auto& backoff_acc = report.stats.accumulator("serve.backoff_us");
  const sim::StatId id_batches = report.stats.counter_id("serve.batches");
  const sim::StatId id_requests = report.stats.counter_id("serve.requests");
  const sim::StatId id_retries = report.stats.counter_id("serve.retries");
  // Step counters are continuous-only: whole mode never bumps them (an
  // interned, never-bumped counter renders nothing).
  const sim::StatId id_steps = report.stats.counter_id("serve.steps");
  const sim::StatId id_preempted =
      report.stats.counter_id("serve.preempted_steps");
  const double freq = config_.nova.accel_freq_mhz;
  const double cycle_us = 1.0 / freq;
  const FaultPlan& faults = config_.faults;
  const FailurePolicy& policy = config_.policy;

  // Ready units: per-instance queues of pinned sessions' next steps, each
  // a vector sorted by (ready_us, id), and one global queue of sessions
  // that have not completed a unit yet. A pinned queue holds at most one
  // entry per session holding one of its instance's slots.
  std::vector<std::vector<Pending>> pinned_q(
      static_cast<std::size_t>(config_.instances));
  ReadyQueue new_q(requests);
  const auto enqueue_pinned = [&](std::size_t j, const Pending& unit) {
    auto& queue = pinned_q[j];
    queue.insert(std::upper_bound(queue.begin(), queue.end(), unit), unit);
  };

  // Two tournament trees over the instances pick the dispatch candidates.
  // open_tree holds (availability, instance) for every instance with a free
  // session slot; pinned_tree holds (start_us, head ready_us, head id,
  // instance) for every instance with a nonempty pinned queue, whose
  // lexicographic min is the earliest start, ties to the oldest unit. Only
  // a dispatch on an instance moves its free_at, slot count or pinned
  // head, so refresh(j) after each dispatch on j keeps both exact; an empty
  // pinned leaf that stays empty (always, in whole mode) costs one load.
  using Candidate = std::tuple<double, double, int, int>;
  TournamentTree<std::pair<double, int>> open_tree(config_.instances);
  TournamentTree<Candidate> pinned_tree(config_.instances);
  const auto refresh = [&](int j) {
    const auto js = static_cast<std::size_t>(j);
    const double avail = faults.next_up_us(j, free_at[js]);
    if (slots_used[js] < slot_cap) {
      open_tree.set(j, {avail, j});
    } else {
      open_tree.clear(j);
    }
    if (pinned_q[js].empty()) {
      pinned_tree.clear(j);
      return;
    }
    const Pending& head = pinned_q[js].front();
    pinned_tree.set(j, Candidate{faults.next_up_us(
                                     j, std::max(avail, head.ready_us)),
                                 head.ready_us, head.id, j});
  };
  for (int j = 0; j < config_.instances; ++j) refresh(j);

  // The slot of the first plan step a unit dispatches, from its request's
  // two slots and the chunk count pricing recorded: the slot's shape is the
  // unit's fusion key, and its wave latency the unit's overlap credit.
  const auto slot_of = [&](const Pending& unit) {
    const auto i = static_cast<std::size_t>(unit.id);
    return index.plans[i].slot(report.outcomes[i].prefill_chunks, unit.step);
  };

  std::vector<Pending> batch;  // reused by every dispatch
  // Positions in the dispatching instance's pinned queue that the batch
  // took, ascending; reused by every dispatch.
  std::vector<std::size_t> taken;

  // Every live session owns exactly one Pending entry, in new_q or in a
  // pinned queue (then its instance has a pinned candidate).
  int batch_id = 0;
  double last_finish = 0.0;
  while (!new_q.empty() || !pinned_tree.empty()) {
    // Candidate A: the FIFO head of not-yet-started sessions on the
    // earliest-available instance with a free session slot. The walk
    // over new_q starts at that head; the fusion scan below continues it.
    auto nit = new_q.walk();
    std::optional<Candidate> cand_new;
    if (!nit.done() && !open_tree.empty()) {
      const auto [avail, j] = open_tree.min();
      const double start = faults.next_up_us(j, std::max(avail, nit->ready_us));
      cand_new = Candidate{start, nit->ready_us, nit->id, j};
    }
    // Candidate B: the earliest-starting pinned queue head. At least one
    // candidate always exists: either a session slot is free somewhere
    // (candidate A) or some session holds a slot, and a slot-holding
    // session always has its next step pending in its pinned queue.
    const bool use_new =
        cand_new && (pinned_tree.empty() || *cand_new < pinned_tree.min());
    const Candidate chosen = use_new ? *cand_new : pinned_tree.min();
    const int instance_index = std::get<3>(chosen);
    const auto instance = static_cast<std::size_t>(instance_index);
    const double start = std::get<0>(chosen);
    auto& queue = pinned_q[instance];
    const Pending head = use_new ? *nit : queue.front();
    const auto& head_req = requests[static_cast<std::size_t>(head.id)];
    auto& head_outcome = report.outcomes[static_cast<std::size_t>(head.id)];
    const double wait_us =
        start - (use_new ? head_req.arrival_us : head.ready_us);

    // Admission control runs once per session, on its first unit (any
    // attempt of it). Overload shedding drops best-effort first-attempt
    // work when the projected queue wait blows past the policy threshold;
    // deadline shedding drops sessions whose standalone finish already
    // misses their SLO. Once a session has state on an instance, shedding
    // it would throw the completed steps away; it runs to completion or to
    // kFailed.
    if (use_new &&
        (should_shed_overload(policy, wait_us, head_req.has_deadline(),
                              head.attempt) ||
         (policy.shed_on_deadline && head_req.has_deadline() &&
          start + head_outcome.service_us >
              head_req.arrival_us + head_req.deadline_us))) {
      head_outcome.status = RequestStatus::kShed;
      head_outcome.attempts = head.attempt;
      new_q.erase(head);
      continue;
    }

    // Fuse ready units behind the head: merge-scan both queues in
    // (ready_us, id) order, taking units whose first step shares the
    // head's PWL table AND phase, up to the (possibly overload-degraded)
    // batch cap. Prefill and decode never fuse: they share no wave shape,
    // so a mixed dispatch could not reuse the broadcast flit train the
    // overlap credit models. On a mismatch the whole-request FIFO run
    // stops, so its batch is a prefix of the queue; continuous batching
    // skips it, since step order inside one instant carries no FIFO
    // meaning at iteration granularity. Not-yet-started sessions fuse in
    // only while slots remain, and claim theirs on success. The scan stops
    // reading new_q once free_slots reaches 0: the count never rises inside
    // the scan, so every later new_q entry would be skipped anyway. Under
    // overload new_q holds the whole backlog, and walking it on every
    // dispatch would make the loop quadratic in the backlog.
    const int cap = degraded_max_batch(policy, config_.max_batch, wait_us);
    const ShapeKey& head_shape = index.shapes[slot_of(head)];
    batch.assign(1, head);
    // A new head claims its slot on success.
    int free_slots = slot_cap - slots_used[instance] - (use_new ? 1 : 0);
    std::size_t pit = 0;  // the scan's position in the pinned queue
    taken.clear();
    if (use_new) {  // step past the head, the front of its queue
      ++nit;
    } else {
      taken.push_back(pit++);
    }
    while (static_cast<int>(batch.size()) < cap) {
      const bool p_ok = pit < queue.size() && queue[pit].ready_us <= start;
      const bool n_ok =
          free_slots > 0 && !nit.done() && nit->ready_us <= start;
      if (!p_ok && !n_ok) break;
      const bool take_pinned = p_ok && (!n_ok || queue[pit] < *nit);
      const Pending cand = take_pinned ? queue[pit] : *nit;
      const std::size_t at = pit;
      if (take_pinned) {
        ++pit;
      } else {
        ++nit;
      }
      const ShapeKey& cshape = index.shapes[slot_of(cand)];
      if (cshape.function != head_shape.function ||
          cshape.breakpoints != head_shape.breakpoints ||
          cshape.phase != head_shape.phase) {
        if (continuous) continue;
        break;
      }
      if (take_pinned) {
        taken.push_back(at);
      } else {
        free_slots -= 1;
      }
      batch.push_back(cand);
    }
    // Not-yet-started members leave new_q one by one; the pinned queue is
    // compacted once, from the first position taken.
    for (const auto& member : batch) {
      if (report.outcomes[static_cast<std::size_t>(member.id)].instance < 0) {
        new_q.erase(member);
      }
    }
    if (!taken.empty()) {
      std::size_t kept = taken.front();
      for (std::size_t k = taken.front(), t = 0; k < queue.size(); ++k) {
        if (t < taken.size() && taken[t] == k) {
          ++t;
        } else {
          queue[kept++] = queue[k];
        }
      }
      queue.resize(kept);
    }
    const int batch_size = static_cast<int>(batch.size());

    // Batch service = sum of the units' standalone costs minus the
    // pipeline-overlap credit: fused members reuse the in-flight broadcast
    // train, so every member after the first saves the pipeline fill of its
    // first wave (wave_latency - 1 accelerator cycles). A whole-request unit
    // costs its folded service_us and starts at its plan's first step, whose
    // wave latency pricing recorded in the outcome; a step costs its share
    // of its shape's cycles, clock-converted. An active slowdown window
    // stretches the whole dispatch.
    double service_us = 0.0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const auto i = static_cast<std::size_t>(batch[k].id);
      const auto& outcome = report.outcomes[i];
      int wave_latency = outcome.wave_latency_cycles;
      if (continuous) {
        const ShapeCost& cost = costs[slot_of(batch[k])];
        service_us +=
            session_layout(requests[i], continuous, config_.chunk_tokens)
                .share(batch[k].step) *
            cost.service_cycles / freq;
        wave_latency = cost.wave_latency_cycles;
      } else {
        service_us += outcome.service_us;
      }
      if (k != 0) service_us -= std::max(0, wave_latency - 1) * cycle_us;
    }
    service_us = std::max(service_us, cycle_us);
    service_us *= faults.slowdown_at(instance_index, start);
    const double finish = start + service_us;
    auto& inst = report.instances[instance];

    // An outage window opening mid-service kills every unit in flight,
    // which retries after capped exponential backoff (or fails for good
    // once its attempts are spent); the instance sits out the window before
    // taking new work. Only the killed unit's work is lost: a pinned
    // session keeps its completed steps (its KV cache survives the window)
    // and re-queues just the killed step -- which is where continuous
    // batching's goodput-under-faults win comes from.
    if (const auto failed_at =
            faults.outage_in(instance_index, start, finish)) {
      for (const auto& member : batch) {
        auto& outcome = report.outcomes[static_cast<std::size_t>(member.id)];
        if (continuous) report.stats.bump(id_preempted);
        if (member.attempt > policy.max_retries) {
          outcome.status = RequestStatus::kFailed;
          outcome.attempts += member.attempt - 1;
          if (outcome.instance >= 0) {  // unserved: give the slot back
            slots_used[static_cast<std::size_t>(outcome.instance)] -= 1;
            outcome.instance = -1;
          }
        } else {
          const double backoff_us = retry_backoff_us(
              policy, member.attempt, member.id, config_.seed);
          backoff_acc.add(backoff_us);
          report.stats.bump(id_retries);
          const Pending retry{*failed_at + backoff_us, member.id,
                              member.attempt + 1, member.step};
          if (outcome.instance >= 0) {
            enqueue_pinned(instance, retry);
          } else {
            new_q.push(retry);
          }
        }
      }
      inst.failed_batches += 1;
      inst.busy_us += *failed_at - start;
      free_at[instance] = *failed_at;
      refresh(instance_index);
      ++batch_id;
      continue;
    }

    // Session state lives in the outcome fields it ends up in: attempts
    // counts 1 + the retries of completed units, instance is the pinned
    // instance, start_us and first_finish_us are set by the first unit.
    int completed = 0;
    for (const auto& member : batch) {
      auto& outcome = report.outcomes[static_cast<std::size_t>(member.id)];
      const auto& req = requests[static_cast<std::size_t>(member.id)];
      if (member.step == 0) {
        outcome.start_us = start;
        outcome.first_finish_us = finish;
      }
      outcome.attempts += member.attempt - 1;
      if (outcome.instance < 0) {
        outcome.instance = instance_index;
        slots_used[instance] += 1;
      }
      if (continuous) {
        report.stats.bump(id_steps);
        // The next step becomes ready the instant this one finishes.
        const int next_step = member.step + 1;
        if (next_step < outcome.prefill_chunks + decode_steps(req)) {
          enqueue_pinned(instance, Pending{finish, member.id, 1, next_step});
          continue;
        }
      }
      slots_used[instance] -= 1;
      completed += 1;
      outcome.batch_id = batch_id;
      outcome.finish_us = finish;
      if (req.has_deadline() && finish > req.arrival_us + req.deadline_us) {
        outcome.status = RequestStatus::kDeadlineMiss;
      } else if (outcome.attempts > 1) {
        outcome.status = RequestStatus::kRetried;
      } else {
        outcome.status = RequestStatus::kOk;
      }
    }
    inst.requests += completed;
    inst.batches += 1;
    inst.busy_us += service_us;
    batch_hist.record(static_cast<double>(batch_size));
    report.stats.bump(id_batches);
    report.stats.bump(id_requests, static_cast<std::uint64_t>(completed));

    free_at[instance] = finish;
    refresh(instance_index);
    last_finish = std::max(last_finish, finish);
    ++batch_id;
  }
  return last_finish;
}

ServeReport BatchScheduler::run(
    const std::vector<InferenceRequest>& requests) const {
  validate_stream(requests);
  ServeReport report;
  report.outcomes.resize(requests.size());
  report.instances.resize(static_cast<std::size_t>(config_.instances));
  report.surrogate.mode = config_.pricing;
  report.surrogate.tolerance = config_.surrogate_tol;
  if (requests.empty()) return report;

  // The plan index and the shape costs live in this block alone, so the
  // latency samples the aggregate pass reserves never share the peak with
  // them.
  double last_finish = 0.0;
  {
    // Phase 1: price every session step (exact, surrogate, or hybrid mode).
    const PlanIndex index = build_plan_index(requests);
    std::uint64_t total_steps = 0;
    const std::vector<ShapeCost> costs = price_requests(
        requests, index, report.outcomes, report.surrogate, total_steps);

    // Phase 2: serial deterministic dispatch, whole-request or step-clocked.
    last_finish = dispatch(requests, index, costs, total_steps, report);
  }

  // Aggregates, in request order for determinism. Latency and service
  // samples cover served requests only (shed/failed outcomes never
  // finished -- recording their zeros would drag every percentile down);
  // unserved outcomes have their service-side fields zeroed to enforce the
  // RequestOutcome unserved contract.
  auto& latency_hist = report.stats.histogram("serve.latency_us");
  sim::Histogram* ttft_hist =
      config_.continuous ? &report.stats.histogram("serve.ttft_us") : nullptr;
  latency_hist.reserve(report.outcomes.size());
  if (ttft_hist != nullptr) ttft_hist->reserve(report.outcomes.size());
  auto& service_acc = report.stats.accumulator("serve.service_us");
  auto& queue_acc = report.stats.accumulator("serve.queue_us");
  auto& attempts_acc = report.stats.accumulator("serve.attempts");
  std::uint64_t served = 0;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    auto& outcome = report.outcomes[i];
    const auto& req = requests[i];
    if (outcome.served()) {
      ++served;
      latency_hist.record(outcome.latency_us(req));
      service_acc.add(outcome.service_us);
      queue_acc.add(outcome.queue_us(req));
      if (ttft_hist != nullptr) {
        ttft_hist->record(outcome.first_finish_us - req.arrival_us);
      }
    } else {
      outcome.service_cycles = 0;
      outcome.wave_latency_cycles = 0;
      outcome.service_us = 0.0;
      outcome.start_us = 0.0;
      outcome.finish_us = 0.0;
      outcome.first_finish_us = 0.0;
    }
    attempts_acc.add(static_cast<double>(outcome.attempts));
    report.status_counts[static_cast<std::size_t>(outcome.status)] += 1;
  }
  report.makespan_us =
      std::max(0.0, last_finish - requests.front().arrival_us);
  const std::uint64_t on_time = report.status_count(RequestStatus::kOk) +
                                report.status_count(RequestStatus::kRetried);
  report.throughput_rps =
      report.makespan_us > 0.0
          ? static_cast<double>(served) * 1e6 / report.makespan_us
          : 0.0;
  report.goodput_rps =
      report.makespan_us > 0.0
          ? static_cast<double>(on_time) * 1e6 / report.makespan_us
          : 0.0;

  // Availability: outage time inside the serving interval, per instance.
  for (std::size_t j = 0; j < report.instances.size(); ++j) {
    auto& inst = report.instances[j];
    if (report.makespan_us > 0.0) {
      inst.down_us = config_.faults.downtime_in(
          static_cast<int>(j), requests.front().arrival_us, last_finish);
      inst.availability =
          std::max(0.0, 1.0 - inst.down_us / report.makespan_us);
    }
  }
  return report;
}

}  // namespace nova::serve
