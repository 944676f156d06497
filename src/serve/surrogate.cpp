#include "serve/surrogate.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <ranges>
#include <thread>
#include <utility>

#include "accel/accelerator.hpp"
#include "approx/mlp_fitter.hpp"
#include "common/assert.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "core/sim_session.hpp"
#include "pipeline/executor.hpp"
#include "workload/bert.hpp"

namespace nova::serve {

namespace {

/// Input-synthesis seed for one request shape, used where a wave's timing
/// depends on its data (the flit train spans accelerator cycles): FNV-1a
/// over the shape fields mixed with the base seed, so an identical shape
/// prices from identical inputs in every stream, regardless of what other
/// requests ride along. Phase and kv_len are part of the shape: a decode
/// step and a prefill at the same seq_len are different work.
std::uint64_t shape_seed(std::uint64_t base, const ShapeKey& shape) {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ base;
  const auto mix = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const char c : shape.workload.name()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  mix(static_cast<std::uint64_t>(shape.seq_len));
  mix(static_cast<std::uint64_t>(shape.function));
  mix(static_cast<std::uint64_t>(shape.breakpoints));
  mix(static_cast<std::uint64_t>(shape.phase));
  mix(static_cast<std::uint64_t>(shape.kv_len));
  return h;
}

}  // namespace

const char* to_string(PricingMode mode) {
  switch (mode) {
    case PricingMode::kExact: return "exact";
    case PricingMode::kSurrogate: return "surrogate";
    case PricingMode::kHybrid: return "hybrid";
  }
  return "?";
}

std::optional<PricingMode> pricing_mode_from_string(const std::string& name) {
  if (name == "exact") return PricingMode::kExact;
  if (name == "surrogate") return PricingMode::kSurrogate;
  if (name == "hybrid") return PricingMode::kHybrid;
  return std::nullopt;
}

ExactPricer::ExactPricer(const PricerConfig& config) : config_(config) {
  NOVA_EXPECTS(config.sim_elements_cap >= 1);
  NOVA_EXPECTS(config.nova.routers >= 1);
  NOVA_EXPECTS(config.nova.accel_freq_mhz > 0.0);
}

namespace {

/// The request's work: the operator graph of one inference of its workload
/// -- the full-sequence prefill graph, or one decode step against its KV
/// cache.
pipeline::OpGraph shape_graph(const ShapeKey& shape) {
  const auto model = shape.workload.entry().make(shape.seq_len);
  // The builders run the full verifier sweep on the graph they return.
  return shape.phase == pipeline::Phase::kDecode
             ? pipeline::build_decode_graph(model, shape.kv_len)
             : pipeline::build_graph(model);
}

/// The smallest link word whose lookup address is `address`, if any. The
/// comparator bank's address never decreases as the word grows, so the
/// first word at or past `address` either selects it or shows that the
/// quantized boundaries leave no word inside that segment.
std::optional<Word16> first_word_at(const approx::PwlTable& table,
                                    int address) {
  using Raw = Word16::storage_type;
  const auto raws = std::views::iota(
      std::int32_t{std::numeric_limits<Raw>::min()},
      std::int32_t{std::numeric_limits<Raw>::max()} + 1);
  const auto first = std::ranges::partition_point(raws, [&](std::int32_t raw) {
    return table.lookup_address(Word16::from_raw(raw)) < address;
  });
  if (first == raws.end()) return std::nullopt;
  const Word16 word = Word16::from_raw(*first);
  if (table.lookup_address(word) != address) return std::nullopt;
  return word;
}

}  // namespace

Calibration ExactPricer::simulate(
    const approx::PwlTable& table,
    const std::vector<std::vector<double>>& inputs) const {
  sim_sessions_.fetch_add(1, std::memory_order_relaxed);
  core::SimSession session(config_.nova, table, inputs);
  const auto result = session.run();

  // Steady-state wave rate of this deployment: once the two-stage
  // pipeline is filled, waves retire at a constant per-wave rate,
  // measured here net of the fill latency. This calibrates the graph
  // walk's vector resource, replacing the ideal one-element-per-neuron
  // assumption with the simulated reality.
  const double cycles = static_cast<double>(result.accel_cycles);
  const auto waves_sim = static_cast<double>(result.waves);
  const double fill = static_cast<double>(result.wave_latency_cycles - 1);
  const double per_wave = waves_sim > 1.0
                              ? (cycles - 1.0 - fill) / (waves_sim - 1.0)
                              : std::max(cycles, 1.0);
  const double elems_per_wave =
      static_cast<double>(config_.nova.routers) *
      static_cast<double>(config_.nova.neurons_per_router);
  return Calibration{elems_per_wave / std::max(per_wave, 1e-9),
                     result.wave_latency_cycles};
}

ExactPricer::TableTiming ExactPricer::table_timing(
    const ShapeKey& shape, const approx::PwlTable& table) const {
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  const auto [entry, inserted] =
      memo_.try_emplace({shape.function, shape.breakpoints});
  TableTiming& timing = entry->second;
  if (!inserted) return timing;

  // The guard wave: every router looks up an address carried by the
  // train's last flit, tag m-1. Flits are injected in tag order, so router
  // R-1 seeing flit m-1 is the last observation of any train. If this wave
  // takes two accelerator cycles -- the minimum: issue at tick k, MAC at
  // k+1 -- the whole train lands within one cycle, and so does every wave
  // on any data. Both calibrations are then measured, not derived, on the
  // same fixed stream: one wave and two waves of N elements per router.
  const int m =
      core::make_schedule(table, config_.nova.pairs_per_flit)
          .noc_clock_multiplier;
  const std::optional<Word16> last_tag = first_word_at(table, m - 1);
  if (!last_tag.has_value()) return timing;
  const auto wave = static_cast<std::size_t>(config_.nova.neurons_per_router);
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(config_.nova.routers),
      std::vector<double>(wave, last_tag->to_double()));
  const Calibration single_wave = simulate(table, inputs);
  if (single_wave.wave_latency_cycles != 2) return timing;
  for (auto& stream : inputs) stream.resize(2 * wave, last_tag->to_double());
  timing.single_wave = single_wave;
  timing.multi_wave = simulate(table, inputs);
  timing.one_cycle_train = true;
  return timing;
}

Calibration ExactPricer::calibrate_graph(const ShapeKey& shape,
                                         const pipeline::OpGraph& graph) const {
  auto& library = approx::PwlLibrary::instance();
  const auto& table = library.get(shape.function, shape.breakpoints);

  // The cycle-accurate slice: measures how fast THIS deployment actually
  // streams elements through the NOVA unit, over up to sim_elements_cap
  // elements per router; more than N of them span several waves.
  const std::int64_t total_ops = graph.total_approx_ops();
  const std::int64_t per_router =
      (total_ops + config_.nova.routers - 1) / config_.nova.routers;
  const std::int64_t simulated =
      std::min<std::int64_t>(per_router, config_.sim_elements_cap);

  if (simulated > 0) {
    const TableTiming timing = table_timing(shape, table);
    if (timing.one_cycle_train) {
      return simulated <= config_.nova.neurons_per_router
                 ? timing.single_wave
                 : timing.multi_wave;
    }
  }

  // Outside the one-cycle regime a wave's latency depends on which tags
  // its data selects: simulate this shape's own synthesized input stream.
  const auto domain = table.domain();
  Rng rng(shape_seed(config_.seed, shape));
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(config_.nova.routers));
  for (auto& stream : inputs) {
    stream.reserve(static_cast<std::size_t>(simulated));
    for (std::int64_t i = 0; i < simulated; ++i) {
      stream.push_back(rng.uniform(domain.lo, domain.hi));
    }
  }
  return simulate(table, inputs);
}

ShapeCost ExactPricer::walk_graph(const ShapeKey& shape,
                                  const pipeline::OpGraph& graph,
                                  const Calibration& calibration) const {
  // Price the whole inference from the operator graph: GEMMs on the host
  // fabric, non-linear waves on the calibrated NOVA rate, double-buffered
  // overlap between the two streams. Wave-count quantization (the ceil on
  // waves per vector node) happens in here, which is why the surrogate
  // interpolates calibrations and re-walks, never the quantized cost.
  pipeline::ExecutorConfig exec_config;
  exec_config.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc,
                                                 shape.breakpoints};
  exec_config.overlap = true;
  exec_config.vector_elems_per_cycle = calibration.elems_per_cycle;
  exec_config.vector_fill_cycles = static_cast<sim::Cycle>(
      std::max(1, calibration.wave_latency_cycles - 1));
  const pipeline::PipelineExecutor executor(
      accel::make_accelerator(config_.host), exec_config);

  ShapeCost cost;
  cost.approx_ops = graph.total_approx_ops();
  cost.wave_latency_cycles = calibration.wave_latency_cycles;
  switch (config_.fusion) {
    case pipeline::FusionMode::kOff:
      // The pre-fusion path, bit for bit: the builder graph, untouched.
      cost.service_cycles =
          static_cast<double>(executor.execute(graph).span_cycles);
      break;
    case pipeline::FusionMode::kOn: {
      // Every pass, unconditionally. apply_fusion re-verifies after each
      // rewriting pass, so a non-conservative rewrite aborts here instead
      // of admitting requests at a wrong price.
      auto rewritten = graph;
      const int rewrites = pipeline::apply_fusion(rewritten, pipeline::kFuseAll);
      cost.fusion = rewrites > 0 ? pipeline::kFuseAll : pipeline::kFuseNone;
      cost.service_cycles =
          static_cast<double>(executor.execute(rewritten).span_cycles);
      break;
    }
    case pipeline::FusionMode::kAuto: {
      // All 8 masks under THIS shape's calibrated executor; the scheduler's
      // per-ShapeKey memoization means each distinct point is tuned once.
      const auto tuning = pipeline::tune_fusion(executor, graph);
      cost.fusion = tuning.best;
      cost.fusion_speedup = tuning.speedup();
      cost.service_cycles = static_cast<double>(tuning.best_span);
      break;
    }
  }
  return cost;
}

ShapeCost ExactPricer::price(const ShapeKey& shape) const {
  const auto graph = shape_graph(shape);
  return walk_graph(shape, graph, calibrate_graph(shape, graph));
}

Calibration ExactPricer::calibrate(const ShapeKey& shape) const {
  return calibrate_graph(shape, shape_graph(shape));
}

ShapeCost ExactPricer::price_calibrated(const ShapeKey& shape,
                                        const Calibration& calibration) const {
  return walk_graph(shape, shape_graph(shape), calibration);
}

namespace {

/// Shared worker-pool shape for the per-shape batch helpers: workers claim
/// indices off a shared counter; each result lands in its own pre-sized
/// slot, so the interleaving cannot affect the outcome.
template <typename Result, typename PerShape>
std::vector<Result> map_shapes(std::size_t count, int threads,
                               const PerShape& per_shape) {
  NOVA_EXPECTS(threads >= 1);
  std::vector<Result> results(count);
  const auto fill_slot = [&](std::size_t i) { results[i] = per_shape(i); };
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fill_slot(i);
    return results;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        fill_slot(i);
      }
    });
  }
  for (auto& worker : pool) worker.join();
  return results;
}

}  // namespace

std::vector<ShapeCost> price_shapes(const ExactPricer& pricer,
                                    const std::vector<ShapeKey>& shapes,
                                    int threads) {
  return map_shapes<ShapeCost>(
      shapes.size(), threads,
      [&](std::size_t i) { return pricer.price(shapes[i]); });
}

std::vector<Calibration> calibrate_shapes(const ExactPricer& pricer,
                                          const std::vector<ShapeKey>& shapes,
                                          int threads) {
  return map_shapes<Calibration>(
      shapes.size(), threads,
      [&](std::size_t i) { return pricer.calibrate(shapes[i]); });
}

namespace {

/// Log-spaced anchor selection over the sorted distinct observed lengths:
/// always the extremes, and in between the observed length nearest (in log
/// space) to each geometric target. Selecting from the *observed* lengths
/// -- not an abstract grid -- means a class with at most `max_anchors`
/// distinct lengths is anchored exactly, and no anchor run is ever spent
/// on a shape the stream does not contain.
std::vector<int> pick_anchor_lengths(const std::vector<int>& lengths,
                                     int max_anchors) {
  NOVA_ASSERT(!lengths.empty());
  if (static_cast<int>(lengths.size()) <= max_anchors) return lengths;
  const double lo = std::log(static_cast<double>(lengths.front()));
  const double hi = std::log(static_cast<double>(lengths.back()));
  std::vector<int> picked;
  picked.reserve(static_cast<std::size_t>(max_anchors));
  for (int a = 0; a < max_anchors; ++a) {
    const double target =
        lo + (hi - lo) * static_cast<double>(a) /
                 static_cast<double>(max_anchors - 1);
    // Nearest observed length in log space (ties: the smaller length).
    std::size_t best = 0;
    double best_dist = std::abs(std::log(static_cast<double>(lengths[0])) -
                                target);
    for (std::size_t i = 1; i < lengths.size(); ++i) {
      const double dist =
          std::abs(std::log(static_cast<double>(lengths[i])) - target);
      if (dist < best_dist) {
        best = i;
        best_dist = dist;
      }
    }
    picked.push_back(lengths[best]);
  }
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

/// Reassembles the ShapeKey of one anchor: decode anchors follow the
/// generator convention (seq_len == 1, volume on kv_len), prefill anchors
/// carry the length as seq_len with no cache.
ShapeKey anchor_shape(const PricingSurrogate::ClassKey& key, int length) {
  ShapeKey shape;
  shape.workload = key.workload;
  shape.function = key.function;
  shape.breakpoints = key.breakpoints;
  shape.phase = key.phase;
  if (key.phase == pipeline::Phase::kDecode) {
    shape.seq_len = 1;
    shape.kv_len = length;
  } else {
    shape.seq_len = length;
    shape.kv_len = 0;
  }
  return shape;
}

}  // namespace

PricingSurrogate::PricingSurrogate(const ExactPricer& pricer,
                                   const std::vector<ShapeKey>& shapes,
                                   int max_anchors, int threads)
    : pricer_(&pricer) {
  NOVA_EXPECTS(max_anchors >= 2);
  NOVA_EXPECTS(threads >= 1);

  // Group the stream's shapes into classes; the map keeps class order (and
  // therefore every downstream loop) deterministic.
  std::map<ClassKey, std::vector<int>> lengths_by_class;
  for (const auto& shape : shapes) {
    NOVA_EXPECTS(shape.length() >= 1);
    lengths_by_class[ClassKey{shape.workload, shape.function,
                              shape.breakpoints, shape.phase}]
        .push_back(shape.length());
  }

  // Pick anchors per class, then flatten into one task list so the worker
  // pool load-balances across classes of different anchor counts.
  std::vector<ShapeKey> anchor_shapes;
  std::vector<std::pair<std::size_t, int>> anchor_slots;  // (class, length)
  for (auto& [key, lengths] : lengths_by_class) {
    std::sort(lengths.begin(), lengths.end());
    lengths.erase(std::unique(lengths.begin(), lengths.end()),
                  lengths.end());
    const auto anchor_lengths = pick_anchor_lengths(lengths, max_anchors);

    ClassCurve curve;
    curve.key = key;
    curve.distinct_lengths = static_cast<int>(lengths.size());
    curve.anchored_exactly = anchor_lengths.size() == lengths.size();
    for (const int length : anchor_lengths) {
      anchor_slots.emplace_back(classes_.size(), length);
      anchor_shapes.push_back(anchor_shape(key, length));
    }
    classes_.push_back(std::move(curve));
  }

  const auto calibrations = calibrate_shapes(pricer, anchor_shapes, threads);
  anchors_priced_ = calibrations.size();

  for (std::size_t i = 0; i < anchor_slots.size(); ++i) {
    auto& curve = classes_[anchor_slots[i].first];
    curve.anchors.push_back(
        Anchor{anchor_slots[i].second, calibrations[i]});
  }
  // Plain (not monotone-clamped) fits: the measured throughput and fill
  // latency carry no monotonicity contract, and clamping would alter nodal
  // values -- breaking the bit-equal-at-anchors guarantee.
  for (auto& curve : classes_) {
    std::vector<double> xs, elems, waves;
    xs.reserve(curve.anchors.size());
    for (const auto& anchor : curve.anchors) {
      xs.push_back(static_cast<double>(anchor.length));
      elems.push_back(anchor.calibration.elems_per_cycle);
      waves.push_back(
          static_cast<double>(anchor.calibration.wave_latency_cycles));
    }
    curve.elems_per_cycle = approx::InterpCurve::fit(xs, elems);
    curve.wave_latency = approx::InterpCurve::fit(std::move(xs),
                                                  std::move(waves));
  }
}

ShapeCost PricingSurrogate::predict(const ShapeKey& shape) const {
  const ClassKey key{shape.workload, shape.function, shape.breakpoints,
                     shape.phase};
  const auto it = std::lower_bound(
      classes_.begin(), classes_.end(), key,
      [](const ClassCurve& curve, const ClassKey& k) {
        return curve.key < k;
      });
  NOVA_EXPECTS(it != classes_.end() && it->key == key);
  const auto x = static_cast<double>(shape.length());
  Calibration calibration;
  calibration.elems_per_cycle = it->elems_per_cycle.eval(x);
  calibration.wave_latency_cycles =
      static_cast<int>(std::llround(it->wave_latency.eval(x)));
  return pricer_->price_calibrated(shape, calibration);
}

}  // namespace nova::serve
