// nova_perf: the benchmark program behind perfbench/run.py.
//
// Runs one `nova_sim --serve` workload through the library's public API
// the way cli::run_serve does -- generate the Poisson stream (and fault
// plan), warm the PWL tables, construct serve::BatchScheduler, run -- and
// prints one JSON line: the host-time split (setup_s, serve_s), a
// fingerprint of the report, and the rows run.py compares against the real
// nova_sim output.
//
// With --spans FILE it is the traced run instead. Every public call into a
// layer is wrapped in a span kept in memory; after BatchScheduler::run the
// run's pricing is replayed through the public pricing API (the mirror),
// the other pricing path is run over the same distinct shapes (the shadow,
// which gives every workload core/pipeline and surrogate numbers), and the
// spans are written to FILE when the run ends. summary.py turns them into
// per-layer metrics.
//
// Accepts the subset of nova_sim flags the workloads use; every other
// setting is nova_sim's default.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/accelerator.hpp"
#include "approx/mlp_fitter.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/overlay.hpp"
#include "serve/faults.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "serve/surrogate.hpp"

#ifndef NOVA_PERF_BUILD_TYPE
#define NOVA_PERF_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
#define NOVA_PERF_COMPILER "clang " __clang_version__
#else
#define NOVA_PERF_COMPILER "gcc " __VERSION__
#endif

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The nova_sim flags a workload may set; defaults are nova_sim's.
struct Args {
  int requests = 256;
  int instances = 2;
  int threads = 1;
  std::string pricing = "exact";
  std::string fusion = "off";
  bool continuous = false;
  int max_steps = 0;
  bool decode = false;
  bool faults = false;
  double mtbf_us = 20000.0;
  double mttr_us = 2000.0;
  std::uint64_t seed = 42;
  /// Traced run: where the spans go. Empty = untraced.
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const auto int_flag = [&](int lo, int& out) {
      const char* v = value();
      if (v == nullptr || !nova::parse_full(std::string(v), out) || out < lo) {
        error = flag + " needs an integer >= " + std::to_string(lo);
        return false;
      }
      return true;
    };
    const auto double_flag = [&](double& out) {
      const char* v = value();
      if (v == nullptr || !nova::parse_full(std::string(v), out) ||
          !(out > 0.0)) {
        error = flag + " needs a positive number";
        return false;
      }
      return true;
    };
    const auto text_flag = [&](std::string& out) {
      const char* v = value();
      if (v == nullptr) {
        error = flag + " needs a value";
        return false;
      }
      out = v;
      return true;
    };
    bool ok = true;
    if (flag == "--serve") {
      // Implied: nova_perf only serves.
    } else if (flag == "--requests") {
      ok = int_flag(1, args.requests);
    } else if (flag == "--instances") {
      ok = int_flag(1, args.instances);
    } else if (flag == "--threads") {
      ok = int_flag(1, args.threads);
    } else if (flag == "--pricing") {
      ok = text_flag(args.pricing);
    } else if (flag == "--fusion") {
      ok = text_flag(args.fusion);
    } else if (flag == "--continuous") {
      args.continuous = true;
    } else if (flag == "--max-steps") {
      ok = int_flag(0, args.max_steps);
    } else if (flag == "--decode") {
      args.decode = true;
    } else if (flag == "--faults") {
      args.faults = true;
    } else if (flag == "--mtbf") {
      args.faults = true;
      ok = double_flag(args.mtbf_us);
    } else if (flag == "--mttr") {
      args.faults = true;
      ok = double_flag(args.mttr_us);
    } else if (flag == "--seed") {
      const char* v = value();
      ok = v != nullptr && nova::parse_full(std::string(v), args.seed);
      if (!ok) error = "--seed needs a non-negative integer";
    } else if (flag == "--spans") {
      ok = text_flag(args.spans_path);
    } else {
      error = "unknown flag '" + flag + "'";
      return false;
    }
    if (!ok) return false;
  }
  if (args.fusion != "off") {
    error = "only --fusion off is benchmarked";
    return false;
  }
  return true;
}

/// In-memory span recorder. A disabled trace records nothing, so the
/// untraced run pays one branch per scope.
class Trace {
 public:
  struct Span {
    const char* name = "";
    int id = 0;
    int parent = -1;
    int thread = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// Times one call from construction to destruction.
  class Scope {
   public:
    Scope(Trace& trace, const char* name, int parent = -1, int thread = 0)
        : trace_(trace), span_{name, -1, parent, thread, 0.0, 0.0} {
      if (!trace_.enabled_) return;
      span_.id = trace_.next_id_.fetch_add(1);
      span_.start_s = trace_.now();
    }
    ~Scope() {
      if (!trace_.enabled_) return;
      span_.end_s = trace_.now();
      const std::lock_guard<std::mutex> lock(trace_.mutex_);
      trace_.spans_.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] int id() const { return span_.id; }

   private:
    Trace& trace_;
    Span span_;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Writes one JSON object per span, in id order.
  bool write(const std::string& path) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::sort(spans_.begin(), spans_.end(),
              [](const Span& a, const Span& b) { return a.id < b.id; });
    for (const auto& span : spans_) {
      std::fprintf(out,
                   "{\"name\": \"%s\", \"id\": %d, \"parent\": %d, "
                   "\"thread\": %d, \"start\": %.9f, \"end\": %.9f}\n",
                   span.name, span.id, span.parent, span.thread, span.start_s,
                   span.end_s);
    }
    return std::fclose(out) == 0;
  }

 private:
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::atomic<int> next_id_{0};
  std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// FNV-1a over 64-bit words: the report fingerprint.
class Fingerprint {
 public:
  void add(std::uint64_t word) {
    hash_ ^= word;
    hash_ *= 1099511628211ULL;
  }
  void add(double value) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof(word));
    add(word);
  }
  void add(int value) { add(static_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Status counts; each outcome's status, instance, batch id, attempts,
/// start and finish; the dispatch counters; the makespan.
std::uint64_t fingerprint(const nova::serve::ServeReport& report) {
  Fingerprint fp;
  for (const auto count : report.status_counts) fp.add(count);
  for (const auto& outcome : report.outcomes) {
    fp.add(static_cast<int>(outcome.status));
    fp.add(outcome.instance);
    fp.add(outcome.batch_id);
    fp.add(outcome.attempts);
    fp.add(outcome.start_us);
    fp.add(outcome.finish_us);
  }
  for (const char* name : {"serve.batches", "serve.requests", "serve.steps",
                           "serve.preempted_steps", "serve.retries"}) {
    fp.add(report.stats.counter(name));
  }
  fp.add(report.makespan_us);
  return fp.value();
}

/// Dispatched batch members: requests in whole mode, session steps in
/// continuous mode.
std::uint64_t dispatched_steps(const nova::serve::ServeReport& report) {
  const auto* hist = report.stats.find_histogram("serve.batch_size");
  return hist == nullptr ? 0 : static_cast<std::uint64_t>(hist->sum());
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Runs `calibrate` then `price_calibrated` on every shape over `threads`
/// workers, one span per call. Results are indexed like `shapes`.
std::vector<nova::serve::ShapeCost> exact_pool(
    Trace& trace, int parent, const nova::serve::ExactPricer& pricer,
    const std::vector<nova::serve::ShapeKey>& shapes, int threads) {
  std::vector<nova::serve::ShapeCost> costs(shapes.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&](int worker) {
    for (std::size_t i = next.fetch_add(1); i < shapes.size();
         i = next.fetch_add(1)) {
      nova::serve::Calibration calibration;
      {
        const Trace::Scope span(trace, "core.calibrate", parent, worker);
        calibration = pricer.calibrate(shapes[i]);
      }
      const Trace::Scope span(trace, "pipeline.walk", parent, worker);
      costs[i] = pricer.price_calibrated(shapes[i], calibration);
    }
  };
  {
    std::vector<std::jthread> pool;
    for (int w = 1; w < threads; ++w) pool.emplace_back(work, w);
    work(0);
  }
  return costs;
}

/// What the traced replay measured besides its spans.
struct Replay {
  std::size_t distinct_shapes = 0;
  std::uint64_t plan_steps = 0;
  std::size_t anchors = 0;
  double max_rel_error = 0.0;
  /// Hybrid only: the replayed reconciliation samples equal the report's.
  bool hybrid_matches = true;
};

/// Replays the run's pricing through the public API (see file comment).
Replay replay_pricing(
    Trace& trace, const nova::serve::ServeConfig& config,
    const std::vector<nova::serve::InferenceRequest>& requests,
    const nova::serve::ServeReport& report) {
  using nova::serve::PricingMode;
  const Trace::Scope root(trace, "replay");
  Replay replay;

  std::set<nova::serve::ShapeKey> distinct_set;
  {
    const Trace::Scope span(trace, "serve.plan", root.id());
    for (const auto& request : requests) {
      const auto plan = nova::serve::build_session_plan(
          request, config.continuous, config.chunk_tokens);
      replay.plan_steps += plan.steps.size();
      for (const auto& step : plan.steps) distinct_set.insert(step.shape);
    }
  }
  const std::vector<nova::serve::ShapeKey> distinct(distinct_set.begin(),
                                                    distinct_set.end());
  replay.distinct_shapes = distinct.size();

  nova::serve::PricerConfig pricer_config{config.nova, config.host,
                                          config.seed, config.sim_elements_cap};
  pricer_config.fusion = config.fusion;
  const nova::serve::ExactPricer pricer(pricer_config);

  const auto run_surrogate = [&](int parent) {
    std::optional<nova::serve::PricingSurrogate> surrogate;
    {
      const Trace::Scope span(trace, "serve.surrogate.fit", parent);
      surrogate.emplace(pricer, distinct, config.surrogate_anchors,
                        config.threads);
    }
    replay.anchors = surrogate->anchors_priced();
    std::vector<nova::serve::ShapeCost> costs;
    costs.reserve(distinct.size());
    const Trace::Scope span(trace, "serve.surrogate.predict", parent);
    for (const auto& shape : distinct) {
      costs.push_back(surrogate->predict(shape));
    }
    return costs;
  };

  std::vector<nova::serve::ShapeCost> exact;
  std::vector<nova::serve::ShapeCost> predicted;
  {
    const Trace::Scope mirror(trace, "pricing.mirror", root.id());
    if (config.pricing == PricingMode::kExact) {
      exact = exact_pool(trace, mirror.id(), pricer, distinct, config.threads);
    } else {
      predicted = run_surrogate(mirror.id());
    }
    if (config.pricing == PricingMode::kHybrid) {
      // The scheduler's reconciliation sample: k shapes spread evenly over
      // the sorted distinct set, re-priced exactly.
      const Trace::Scope span(trace, "serve.surrogate.reconcile", mirror.id());
      const std::size_t k = std::min<std::size_t>(
          static_cast<std::size_t>(config.hybrid_samples), distinct.size());
      std::vector<std::size_t> picks;
      for (std::size_t s = 0; s < k; ++s) {
        picks.push_back(k == 1 ? 0 : s * (distinct.size() - 1) / (k - 1));
      }
      picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
      std::vector<nova::serve::ShapeKey> sampled;
      for (const auto index : picks) sampled.push_back(distinct[index]);
      const auto sample_costs =
          nova::serve::price_shapes(pricer, sampled, config.threads);
      const auto& audit = report.surrogate.samples;
      replay.hybrid_matches = audit.size() == picks.size();
      for (std::size_t s = 0; replay.hybrid_matches && s < picks.size();
           ++s) {
        replay.hybrid_matches =
            audit[s].shape == sampled[s] &&
            audit[s].exact_cycles == sample_costs[s].service_cycles &&
            audit[s].surrogate_cycles == predicted[picks[s]].service_cycles;
      }
    }
  }
  {
    const Trace::Scope shadow(trace, "pricing.shadow", root.id());
    if (config.pricing == PricingMode::kExact) {
      predicted = run_surrogate(shadow.id());
    } else {
      exact = exact_pool(trace, shadow.id(), pricer, distinct, config.threads);
    }
  }
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    const double truth = exact[i].service_cycles;
    replay.max_rel_error =
        std::max(replay.max_rel_error,
                 std::abs(predicted[i].service_cycles - truth) /
                     std::max(truth, 1.0));
  }
  return replay;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef NDEBUG
  constexpr bool asserts_off = true;
#else
  constexpr bool asserts_off = false;
#endif
  if (!asserts_off || std::strcmp(NOVA_PERF_BUILD_TYPE, "Release") != 0) {
    // Without NDEBUG the verifier re-checks every priced graph: a
    // different program from the one users run.
    std::fprintf(stderr,
                 "nova_perf: refusing to time a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 NOVA_PERF_BUILD_TYPE);
    return 3;
  }
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) {
    std::fprintf(stderr, "nova_perf: %s\n", error.c_str());
    return 2;
  }
  const auto pricing = nova::serve::pricing_mode_from_string(args.pricing);
  if (!pricing) {
    std::fprintf(stderr, "nova_perf: unknown pricing mode '%s'\n",
                 args.pricing.c_str());
    return 2;
  }
  Trace trace(!args.spans_path.empty());
  const auto start = Clock::now();

  // Set-up, in cli::run_serve's order with nova_sim's defaults.
  const auto host = *nova::accel::host_by_name("tpuv4");
  nova::serve::TrafficProfile profile;
  if (args.decode) profile.decode_fraction = 1.0;
  profile.max_steps = args.max_steps;
  std::vector<nova::serve::InferenceRequest> requests;
  {
    const Trace::Scope span(trace, "serve.generate");
    requests = nova::serve::generate_poisson(args.requests, profile, args.seed);
  }
  nova::serve::ServeConfig config;
  config.nova = nova::core::make_overlay(host).nova;
  config.host = host;
  config.instances = args.instances;
  config.threads = args.threads;
  config.seed = args.seed;
  config.pricing = *pricing;
  config.continuous = args.continuous;
  if (args.faults) {
    const Trace::Scope span(trace, "serve.faults");
    nova::serve::FaultProfile fault_profile;
    fault_profile.mtbf_us = args.mtbf_us;
    fault_profile.mttr_us = args.mttr_us;
    const double horizon_us = 2.0 * requests.back().arrival_us +
                              4.0 * (args.mtbf_us + args.mttr_us);
    config.faults = nova::serve::draw_fault_plan(
        fault_profile, args.instances, horizon_us, args.seed);
  }
  std::set<std::pair<nova::approx::NonLinearFn, int>> tables;
  for (const auto& request : requests) {
    tables.emplace(request.function, request.breakpoints);
  }
  for (const auto& [fn, breakpoints] : tables) {
    const Trace::Scope span(trace, "approx.pwl_train");
    (void)nova::approx::PwlLibrary::instance().get(fn, breakpoints);
  }
  std::optional<nova::serve::BatchScheduler> scheduler;
  {
    const Trace::Scope span(trace, "serve.scheduler.init");
    scheduler.emplace(config);
  }
  const auto serve_start = Clock::now();
  nova::serve::ServeReport report;
  {
    const Trace::Scope span(trace, "serve.run");
    report = scheduler->run(requests);
  }
  const auto serve_end = Clock::now();

  std::string out = "{";
  const auto field = [&out](const char* key, const std::string& value) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + value;
  };
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", seconds_between(start, serve_start));
  field("setup_s", buf);
  std::snprintf(buf, sizeof(buf), "%.9f",
                seconds_between(serve_start, serve_end));
  field("serve_s", buf);
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fingerprint(report));
  field("fingerprint", json_string(buf));
  field("throughput", json_string(nova::Table::num(report.throughput_rps, 1)));
  field("p99", json_string(
                   nova::Table::num(report.latency_percentile_us(99.0), 3)));
  std::string status = "{";
  for (int s = 0; s < nova::serve::kRequestStatusCount; ++s) {
    const auto which = static_cast<nova::serve::RequestStatus>(s);
    if (s > 0) status += ", ";
    status += json_string(nova::serve::to_string(which)) + ": " +
              std::to_string(report.status_count(which));
  }
  field("status", status + "}");
  field("within_tolerance",
        report.surrogate.within_tolerance ? "true" : "false");
  field("distinct_shapes", std::to_string(report.surrogate.distinct_shapes));
  field("batches", std::to_string(report.stats.counter("serve.batches")));
  field("steps", std::to_string(dispatched_steps(report)));
  const auto* batch_hist = report.stats.find_histogram("serve.batch_size");
  std::snprintf(buf, sizeof(buf), "%.6f",
                batch_hist == nullptr ? 0.0 : batch_hist->mean());
  field("mean_batch", buf);
  field("retries", std::to_string(report.stats.counter("serve.retries")));
  field("preempted_steps",
        std::to_string(report.stats.counter("serve.preempted_steps")));
  field("tables", std::to_string(tables.size()));
  field("build_type", json_string(NOVA_PERF_BUILD_TYPE));
  field("compiler", json_string(NOVA_PERF_COMPILER));

  if (trace.enabled()) {
    const Replay replay = replay_pricing(trace, config, requests, report);
    field("replay_distinct_shapes", std::to_string(replay.distinct_shapes));
    field("plan_steps", std::to_string(replay.plan_steps));
    field("anchors", std::to_string(replay.anchors));
    std::snprintf(buf, sizeof(buf), "%.9g", replay.max_rel_error);
    field("max_rel_error", buf);
    field("hybrid_matches", replay.hybrid_matches ? "true" : "false");
    if (!trace.write(args.spans_path)) {
      std::fprintf(stderr, "nova_perf: cannot write spans to '%s'\n",
                   args.spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}
