// Surrogate-priced admission: replaces per-shape cycle-accurate pricing
// with interpolation over a handful of cycle-accurate anchor runs.
//
// The exact pricing path (ExactPricer, extracted from BatchScheduler) has
// two halves per *distinct* request shape: a cycle-accurate core::SimSession
// measurement that CALIBRATES the deployment (steady-state elements/cycle
// and wave-fill latency), and a PipelineExecutor walk that prices the whole
// inference from the calibration. Where the deployment's flit train lands
// within one accelerator cycle -- every Table II deployment -- the
// calibration is a constant of (deployment, PWL table, single- or
// multi-wave), so ExactPricer measures it once per table and every other
// shape costs only its graph walk. Elsewhere a wave's latency depends on
// which tags its data selects, and each shape still runs its own
// SimSession over a stream synthesized from its shape seed.
//
// The calibration parameters vary smoothly in seq/kv_len for a fixed
// (workload, host, phase, function, breakpoints) class -- the service-cycle
// curve itself does NOT (wave-count quantization makes it a staircase, so
// chord-interpolating it would err by a full wave step near every riser).
// PricingSurrogate therefore runs the calibration only at a small
// set of log-spaced anchor lengths per class -- in parallel on the worker
// pool, each anchor calibrated by the same ExactPricer::calibrate the exact
// path uses -- fits piecewise-linear curves (approx::InterpCurve) through the
// measured calibration parameters, and prices every other shape by walking
// its real operator graph with the interpolated calibration. The walk
// applies the exact wave quantization, so the staircase is reproduced
// rather than chorded across, and a prediction AT an anchor length is
// bit-equal to exact pricing (nodal interpolation returns the measured
// calibration unchanged). Where exact pricing runs a SimSession per shape,
// admission cost drops from O(cycle-accurate sim) to O(graph walk) per
// distinct shape; inside the one-cycle regime both cost a graph walk.
//
// Three modes (ServeConfig::pricing):
//   exact     -- every distinct shape through ExactPricer (the old path).
//   surrogate -- anchors through ExactPricer, everything else interpolated.
//   hybrid    -- surrogate predictions everywhere, plus a deterministic
//                sample of distinct shapes re-priced exactly and reconciled
//                against the surrogate within a relative tolerance; drift
//                is reported in the SurrogateAudit and turned into a
//                non-zero exit by the CLI/bench drivers (the same contract
//                as the PR-6 verifier hooks).
//
// All three modes are byte-identical across worker-thread counts: anchors
// and samples land in pre-sized slots claimed off an atomic counter, and
// curve fitting / interpolation run serially after the pool joins.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "approx/functions.hpp"
#include "approx/interp.hpp"
#include "core/vector_unit.hpp"
#include "hwmodel/vector_unit_cost.hpp"
#include "pipeline/fusion.hpp"
#include "pipeline/op_graph.hpp"
#include "workload/bert.hpp"

namespace nova::serve {

/// How BatchScheduler prices request shapes (see file comment).
enum class PricingMode { kExact, kSurrogate, kHybrid };

[[nodiscard]] const char* to_string(PricingMode mode);

/// Resolves "exact" / "surrogate" / "hybrid"; nullopt for anything else
/// (CLI flags funnel through this so the accepted spellings cannot drift).
[[nodiscard]] std::optional<PricingMode> pricing_mode_from_string(
    const std::string& name);

/// The full pricing identity of one request shape: everything the exact
/// path's input synthesis and graph construction depend on. Ordering is the
/// field-wise lexicographic one, in declaration order, used for
/// deterministic grouping; std::hash<ShapeKey> (end of file) keys unordered
/// lookups. Trivially copyable and 24 bytes.
struct ShapeKey {
  workload::WorkloadName workload;
  int seq_len = 128;
  approx::NonLinearFn function = approx::NonLinearFn::kGelu;
  int breakpoints = 16;
  pipeline::Phase phase = pipeline::Phase::kPrefill;
  int kv_len = 0;

  /// The axis service cost varies along within a class: seq_len for
  /// prefill, kv_len for decode.
  [[nodiscard]] int length() const {
    return phase == pipeline::Phase::kDecode ? kv_len : seq_len;
  }

  friend auto operator<=>(const ShapeKey&, const ShapeKey&) = default;
};

/// What pricing one shape yields (the fields of a SessionCost before its
/// steps are folded and clock-converted).
struct ShapeCost {
  std::int64_t approx_ops = 0;
  double service_cycles = 0.0;
  int wave_latency_cycles = 0;
  /// The fusion mask the priced graph was actually rewritten with:
  /// kFuseNone when pricing walked the builder graph untouched (fusion off,
  /// no pattern matched, or the tuner kept the baseline), the winning /
  /// applied mask otherwise.
  pipeline::FusionSet fusion = pipeline::kFuseNone;
  /// Unfused-span / priced-span for this shape; 1.0 except in auto mode,
  /// where the tuner measures the baseline anyway (never < 1.0: the tuner
  /// cannot pick a slower rewrite).
  double fusion_speedup = 1.0;
};

/// The deployment parameters exact pricing depends on (a subset of
/// ServeConfig, split out so the pricer does not depend on the scheduler).
struct PricerConfig {
  core::NovaConfig nova;
  hw::AcceleratorKind host = hw::AcceleratorKind::kTpuV4;
  /// Base seed for per-shape input synthesis (see ExactPricer::calibrate).
  std::uint64_t seed = 42;
  /// Elements per router simulated in a per-shape calibration run.
  int sim_elements_cap = 8192;
  /// How the graph walk prices each shape's operator graph (fusion.hpp):
  /// off walks the builder graph untouched, on applies every rewrite pass,
  /// auto prices all 8 masks and takes the argmin span. Part of the
  /// deployment, not the shape: the per-shape memoization in the scheduler
  /// stays keyed on ShapeKey alone, and doubles as the tuner's winner
  /// cache -- each distinct (host x shape x phase x kv_len) point is tuned
  /// at most once per run.
  pipeline::FusionMode fusion = pipeline::FusionMode::kOff;
};

/// What the cycle-accurate half of pricing measures for one shape: the
/// deployment's steady-state vector throughput and pipeline-fill latency
/// under that shape's synthesized input stream. Everything else in a
/// shape's cost is a deterministic graph walk over these two numbers.
struct Calibration {
  /// Steady-state elements retired per accelerator cycle.
  double elems_per_cycle = 0.0;
  /// First-wave latency (accel cycles); fill = wave_latency_cycles - 1.
  int wave_latency_cycles = 1;
};

/// The cycle-accurate pricing path: core::SimSession measures the
/// deployment's steady-state wave rate for the shape's PWL table, then a
/// PipelineExecutor walk of the shape's operator graph prices the whole
/// inference overlap-aware.
///
/// Thread-safe: any number of threads may price shapes concurrently. The
/// mutable state is a per-table timing memo and a session counter. A memo
/// entry is filled under a lock on the table's first calibration, from
/// fixed input streams (no seed), so it is a pure function of (deployment,
/// table) and the same whichever worker fills it; results never depend on
/// the thread count or the calibration order.
class ExactPricer {
 public:
  explicit ExactPricer(const PricerConfig& config);
  ExactPricer(const ExactPricer&) = delete;
  ExactPricer& operator=(const ExactPricer&) = delete;

  /// calibrate() then price_calibrated(): the full exact path.
  [[nodiscard]] ShapeCost price(const ShapeKey& shape) const;

  /// The cycle-accurate half alone (the part the surrogate replaces with
  /// interpolation). On a table's first use, one guard wave decides whether
  /// this deployment's whole flit train lands within one accelerator cycle;
  /// if so, that wave and one two-wave run are the table's single-wave and
  /// multi-wave calibrations, and every shape of that table gets the one
  /// for its wave count. Otherwise each shape runs its own SimSession over
  /// up to sim_elements_cap elements per router synthesized from
  /// (seed, shape).
  [[nodiscard]] Calibration calibrate(const ShapeKey& shape) const;

  /// The cheap half alone: prices `shape` by walking its operator graph
  /// with the given calibration -- no simulation. price(s) is identical to
  /// price_calibrated(s, calibrate(s)) bit for bit.
  [[nodiscard]] ShapeCost price_calibrated(
      const ShapeKey& shape, const Calibration& calibration) const;

  [[nodiscard]] const PricerConfig& config() const { return config_; }

  /// SimSession runs this pricer has made: memo fills, guard waves and
  /// per-shape calibrations. A work counter for tests; it is kept out of
  /// every report and fingerprint.
  [[nodiscard]] std::uint64_t sim_sessions() const {
    return sim_sessions_.load(std::memory_order_relaxed);
  }

 private:
  /// What a table's first calibration learned about this deployment.
  struct TableTiming {
    /// Every wave on any data takes the minimum two accelerator cycles, so
    /// the two calibrations below cover every shape of the table.
    bool one_cycle_train = false;
    Calibration single_wave;
    Calibration multi_wave;
  };

  [[nodiscard]] Calibration calibrate_graph(
      const ShapeKey& shape, const pipeline::OpGraph& graph) const;
  [[nodiscard]] TableTiming table_timing(const ShapeKey& shape,
                                         const approx::PwlTable& table) const;
  [[nodiscard]] Calibration simulate(
      const approx::PwlTable& table,
      const std::vector<std::vector<double>>& inputs) const;
  [[nodiscard]] ShapeCost walk_graph(const ShapeKey& shape,
                                     const pipeline::OpGraph& graph,
                                     const Calibration& calibration) const;

  PricerConfig config_;
  mutable std::atomic<std::uint64_t> sim_sessions_{0};
  mutable std::mutex memo_mutex_;
  /// Keyed by PWL table: (function, breakpoints). Guarded by memo_mutex_.
  mutable std::map<std::pair<approx::NonLinearFn, int>, TableTiming> memo_;
};

/// Prices `shapes` through `pricer` on up to `threads` workers. Results are
/// indexed like `shapes` and independent of the thread count (slots are
/// claimed off an atomic counter; each lands in its own index). The PWL
/// tables the shapes need must be pre-warmed by the caller so workers stay
/// out of the serialized training path.
[[nodiscard]] std::vector<ShapeCost> price_shapes(
    const ExactPricer& pricer, const std::vector<ShapeKey>& shapes,
    int threads);

/// Calibrates `shapes` through `pricer` on up to `threads` workers, with
/// the same indexing / determinism / pre-warming contract as price_shapes.
[[nodiscard]] std::vector<Calibration> calibrate_shapes(
    const ExactPricer& pricer, const std::vector<ShapeKey>& shapes,
    int threads);

/// The calibration-interpolating cost model over (workload, host, phase,
/// function, breakpoints) classes: PWL curves through cycle-accurately
/// measured calibration anchors in seq/kv_len, applied through the exact
/// path's own graph walk (see file comment).
class PricingSurrogate {
 public:
  /// A pricing class: every shape field except the length axis. The host
  /// is fixed by the pricer's config, so it is implicit here.
  struct ClassKey {
    workload::WorkloadName workload;
    approx::NonLinearFn function = approx::NonLinearFn::kGelu;
    int breakpoints = 16;
    pipeline::Phase phase = pipeline::Phase::kPrefill;

    friend auto operator<=>(const ClassKey&, const ClassKey&) = default;
  };

  /// One cycle-accurately calibrated anchor shape of a class.
  struct Anchor {
    int length = 0;
    Calibration calibration;
  };

  /// The fitted calibration curves of one class, plus the anchors they
  /// interpolate.
  struct ClassCurve {
    ClassKey key;
    std::vector<Anchor> anchors;
    /// Distinct observed lengths this class covers in the stream.
    int distinct_lengths = 0;
    /// True when every observed length is an anchor (interpolation never
    /// runs; the surrogate is bit-equal to exact pricing for this class).
    bool anchored_exactly = false;
    approx::InterpCurve elems_per_cycle;
    approx::InterpCurve wave_latency;
  };

  /// Builds curves for every class present in `shapes` (typically the
  /// distinct shapes of a request stream). Per class, up to `max_anchors`
  /// anchor lengths are chosen log-spaced over the observed length range --
  /// always from the observed lengths themselves and always including the
  /// extremes, so classes with few distinct lengths are anchored exactly.
  /// Anchors are calibrated on up to `threads` workers; the result is
  /// independent of the thread count. `pricer` must outlive the surrogate
  /// (predictions walk graphs through it).
  PricingSurrogate(const ExactPricer& pricer,
                   const std::vector<ShapeKey>& shapes, int max_anchors,
                   int threads);

  /// Cost of `shape`, whose class must have been seen at build time: the
  /// exact path's graph walk under the class curves' interpolated
  /// calibration. No cycle-accurate simulation ever runs here.
  [[nodiscard]] ShapeCost predict(const ShapeKey& shape) const;

  /// Fitted classes, ordered by ClassKey (deterministic).
  [[nodiscard]] const std::vector<ClassCurve>& classes() const {
    return classes_;
  }
  /// Anchor calibrations (ExactPricer::calibrate calls) the build made
  /// across all classes.
  [[nodiscard]] std::size_t anchors_priced() const { return anchors_priced_; }

 private:
  const ExactPricer* pricer_;
  std::vector<ClassCurve> classes_;  // sorted by key
  std::size_t anchors_priced_ = 0;
};

/// One hybrid-mode reconciliation sample: a distinct shape re-priced
/// exactly and compared against its surrogate prediction.
struct SurrogateSample {
  ShapeKey shape;
  double exact_cycles = 0.0;
  double surrogate_cycles = 0.0;
  /// |surrogate - exact| / exact on service cycles.
  double rel_error = 0.0;
};

/// How a priced stream was admitted: which mode ran, how much exact work
/// the surrogate spent, and (hybrid) how well it reconciled.
struct SurrogateAudit {
  PricingMode mode = PricingMode::kExact;
  std::size_t distinct_shapes = 0;
  std::size_t classes = 0;
  std::size_t anchors_priced = 0;
  /// Fusion mode the graph walks priced under (ServeConfig::fusion).
  pipeline::FusionMode fusion = pipeline::FusionMode::kOff;
  /// Distinct shapes whose priced graph was actually rewritten (a non-empty
  /// ShapeCost::fusion mask). 0 whenever fusion is off.
  std::size_t fused_shapes = 0;
  /// Largest per-shape tuner speedup (unfused span / priced span) across
  /// the distinct set; 1.0 outside auto mode.
  double max_fusion_speedup = 1.0;
  /// Relative service-cycle tolerance hybrid reconciles within.
  double tolerance = 0.0;
  /// Hybrid reconciliation samples, in distinct-shape order.
  std::vector<SurrogateSample> samples;
  double max_rel_error = 0.0;
  /// False when any hybrid sample drifted past the tolerance; callers turn
  /// this into a non-zero exit. Exact and surrogate modes keep it true.
  bool within_tolerance = true;
};

}  // namespace nova::serve

/// Hashes every field of a ShapeKey: the two lengths fill one word, the
/// table identity (breakpoints, workload, function, phase) another, and a
/// 64-bit finalizer mixes them, so keys that differ in kv_len alone spread
/// over the buckets.
template <>
struct std::hash<nova::serve::ShapeKey> {
  std::size_t operator()(const nova::serve::ShapeKey& key) const noexcept {
    const std::uint64_t lengths =
        std::uint64_t{static_cast<std::uint32_t>(key.seq_len)} << 32 |
        static_cast<std::uint32_t>(key.kv_len);
    const std::uint64_t table =
        std::uint64_t{static_cast<std::uint32_t>(key.breakpoints)} << 32 |
        std::uint64_t{std::hash<nova::workload::WorkloadName>{}(key.workload)}
            << 16 |
        static_cast<std::uint64_t>(key.function) << 8 |
        static_cast<std::uint64_t>(key.phase);
    // Fold the two words together, then MurmurHash3's fmix64 finalizer.
    std::uint64_t h = lengths ^ (table * 0x9e3779b97f4a7c15ULL);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};
