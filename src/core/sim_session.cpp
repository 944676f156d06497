#include "core/sim_session.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/fixed_point.hpp"

namespace nova::core {

namespace {

int derive_hops_per_noc_cycle(const NovaConfig& config) {
  // Physical SMART bypass depth, judged at the accelerator (lookup) clock:
  // the repeated line is wave-pipelined, so consecutive flits of the train
  // are in flight simultaneously and each must clear the line within the
  // lookup (accelerator) cycle -- the criterion behind the paper's
  // "10 routers at 1.5 GHz" bound and its 2-cycle latency for every
  // Table II deployment. The m-times-faster NoC clock sequences launches;
  // it does not shorten the combinational reach budget.
  if (config.max_hops_per_cycle > 0) return config.max_hops_per_cycle;
  return std::max(1, hw::max_hops_per_cycle(hw::tech22(),
                                            config.accel_freq_mhz,
                                            config.spacing_mm));
}

}  // namespace

SimSession::SimSession(const NovaConfig& config,
                       const approx::PwlTable& table,
                       const std::vector<std::vector<double>>& inputs)
    : config_(config),
      table_(table),
      inputs_(inputs),
      schedule_(make_schedule(table, config.pairs_per_flit)),
      hops_per_noc_cycle_(derive_hops_per_noc_cycle(config)),
      accel_domain_(engine_.add_domain("accel", 1)),
      noc_domain_(engine_.add_domain("noc", schedule_.noc_clock_multiplier)),
      id_pair_captures_(result_.stats.counter_id("unit.pair_captures")),
      id_mac_ops_(result_.stats.counter_id("unit.mac_ops")),
      id_comparator_ops_(result_.stats.counter_id("unit.comparator_ops")),
      id_waves_(result_.stats.counter_id("unit.waves")),
      line_(noc::LineNocConfig{config.routers, hops_per_noc_cycle_},
            &result_.stats),
      cursor_(inputs.size(), 0) {
  NOVA_EXPECTS(static_cast<int>(inputs.size()) == config_.routers);
  NOVA_EXPECTS(config_.neurons_per_router >= 1);

  routes_.resize(static_cast<std::size_t>(table_.breakpoints()));
  for (std::size_t a = 0; a < routes_.size(); ++a) {
    const int address = static_cast<int>(a);
    routes_[a] = Route{schedule_.tag_of(address), schedule_.slot_of(address)};
  }

  const std::size_t routers = inputs_.size();
  std::size_t longest = 0;
  result_.outputs.resize(routers);
  for (std::size_t r = 0; r < routers; ++r) {
    result_.outputs[r].resize(inputs_[r].size());
    unissued_ += inputs_[r].size();
    longest = std::max(longest, inputs_[r].size());
  }
  // No wave holds more than a full wave or the longest stream per router.
  stride_ = std::min(longest,
                     static_cast<std::size_t>(config_.neurons_per_router));
  const auto m = static_cast<std::size_t>(schedule_.noc_clock_multiplier);
  wave_x_.resize(routers * stride_);
  wave_slope_.resize(routers * stride_);
  wave_bias_.resize(routers * stride_);
  wave_size_.resize(routers);
  captures_.resize(routers * m * stride_);
  bucket_size_.resize(routers * m);

  line_.set_sink(this);
  // The wave-issue callback advertises quiescence once the pipeline stages
  // are empty and the streams are consumed, so the engine can fast-forward
  // a drained session.
  engine_.add_callback(
      accel_domain_, [this](sim::Cycle now) { accel_tick(now); },
      [this] { return pipeline_idle(); });
  engine_.add_component(noc_domain_, line_);
}

bool SimSession::pipeline_idle() const {
  return !wave_in_flight_ && unissued_ == 0;
}

bool SimSession::drained() const { return pipeline_idle() && line_.idle(); }

void SimSession::on_observation(int router, const noc::Flit& flit,
                                sim::Cycle /*noc_now*/) {
  const auto m = static_cast<std::size_t>(schedule_.noc_clock_multiplier);
  const std::size_t bucket = static_cast<std::size_t>(router) * m +
                             static_cast<std::size_t>(flit.tag());
  // One bucket per tag, captured whole on the tag's first observation:
  // every entry in it selects its pair from this flit. An empty bucket --
  // no wave in flight, no entry of this tag, or already captured -- ignores
  // the flit. (Flit trains repeat identical pairs each wave, so a leftover
  // in-flight flit from the previous train delivers the same data the
  // current train would.)
  int& size = bucket_size_[bucket];
  if (size == 0) return;
  const Capture* const captures = &captures_[bucket * stride_];
  for (int k = 0; k < size; ++k) {
    const auto i = static_cast<std::size_t>(captures[k].entry);
    const noc::SlopeBiasPair& pair = flit.pair(captures[k].slot);
    wave_slope_[i] = pair.slope;
    wave_bias_[i] = pair.bias;
  }
  size = 0;
  --pending_buckets_;
}

void SimSession::issue_wave(sim::Cycle now) {
  const auto m = static_cast<std::size_t>(schedule_.noc_clock_multiplier);
  const auto per_wave = static_cast<std::size_t>(config_.neurons_per_router);
  std::uint64_t elements = 0;
  for (std::size_t r = 0; r < inputs_.size(); ++r) {
    const std::vector<double>& stream = inputs_[r];
    const std::size_t start = cursor_[r];
    const std::size_t take = std::min(stream.size() - start, per_wave);
    cursor_[r] = start + take;
    wave_size_[r] = static_cast<int>(take);
    elements += take;
    const std::size_t base = r * stride_;
    // Every bucket is empty here: the previous wave was fully captured.
    int* const sizes = &bucket_size_[r * m];
    Capture* const captures = &captures_[r * m * stride_];
    for (std::size_t i = 0; i < take; ++i) {
      const Word16 xq = Word16::from_double(stream[start + i]);
      const Route route =
          routes_[static_cast<std::size_t>(table_.lookup_address(xq))];
      wave_x_[base + i] = xq;
      const auto t = static_cast<std::size_t>(route.tag);
      captures[t * stride_ + static_cast<std::size_t>(sizes[t]++)] =
          Capture{static_cast<int>(base + i), route.slot};
    }
    for (std::size_t t = 0; t < m; ++t) {
      pending_buckets_ += sizes[t] != 0 ? 1 : 0;
    }
  }
  unissued_ -= elements;
  wave_elements_ = elements;
  wave_in_flight_ = true;
  issued_at_ = now;
  for (const auto& flit : schedule_.flits) line_.inject(flit);
  result_.stats.bump(id_comparator_ops_, elements);
  result_.stats.bump(id_waves_);
}

void SimSession::execute_wave(sim::Cycle now) {
  for (std::size_t r = 0; r < inputs_.size(); ++r) {
    const auto size = static_cast<std::size_t>(wave_size_[r]);
    if (size == 0) continue;
    const std::size_t base = r * stride_;
    const Word16* const x = &wave_x_[base];
    const Word16* const slope = &wave_slope_[base];
    const Word16* const bias = &wave_bias_[base];
    // The wave holds the `size` stream elements just behind the cursor.
    double* const out = &result_.outputs[r][cursor_[r] - size];
    for (std::size_t i = 0; i < size; ++i) {
      out[i] = Word16::mac(slope[i], x[i], bias[i]).to_double();
    }
  }
  // The wave's pairs were all captured by the time it entered this stage;
  // flush both per-wave aggregates with one bump each.
  result_.stats.bump(id_mac_ops_, wave_elements_);
  result_.stats.bump(id_pair_captures_, wave_elements_);
  result_.wave_latency_cycles = static_cast<int>(now - issued_at_) + 1;
  last_mac_cycle_ = now;
  any_mac_done_ = true;
  wave_in_flight_ = false;
}

// Accelerator-clock phase: MAC, then wave issue.
void SimSession::accel_tick(sim::Cycle now) {
  // A wave whose pairs are all captured enters the MAC stage and executes
  // this cycle, which frees the lookup stage for the next wave.
  if (wave_in_flight_ && pending_buckets_ == 0) execute_wave(now);
  // Issue the next wave: comparators fire and the mapper launches the flit
  // train (one flit per NoC cycle).
  if (!wave_in_flight_ && unissued_ != 0) issue_wave(now);
}

ApproxResult SimSession::run() {
  NOVA_EXPECTS(!ran_);
  ran_ = true;

  // Run until the pipeline drains. Guard bound: every wave needs at most
  // (broadcast latency + 2) accelerator cycles even fully serialized.
  const std::size_t total_elems = unissued_;
  const int m = schedule_.noc_clock_multiplier;
  const sim::Cycle guard =
      16 + 4 * (static_cast<sim::Cycle>(total_elems) /
                    static_cast<std::size_t>(config_.neurons_per_router) +
                2) *
               static_cast<sim::Cycle>(
                   m + config_.routers / std::max(1, hops_per_noc_cycle_) + 2);
  while (!drained()) {
    NOVA_ASSERT(engine_.cycles(accel_domain_) < guard);
    engine_.run_base_cycles(1);
  }
  result_.accel_cycles = any_mac_done_ ? last_mac_cycle_ + 1 : 0;
  result_.noc_cycles = engine_.cycles(noc_domain_);
  return std::move(result_);
}

}  // namespace nova::core
