#include "noc/line_noc.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace nova::noc {

LineNoc::LineNoc(const LineNocConfig& config, sim::StatRegistry* stats)
    : config_(config), stats_(stats) {
  NOVA_EXPECTS(config.routers >= 1);
  NOVA_EXPECTS(config.max_hops_per_cycle >= 1);
  if (stats_ != nullptr) {
    id_observations_ = stats_->counter_id("noc.observations");
    id_segment_traversals_ = stats_->counter_id("noc.segment_traversals");
    id_register_latches_ = stats_->counter_id("noc.register_latches");
    id_flits_injected_ = stats_->counter_id("noc.flits_injected");
  }
}

void LineNoc::inject(Flit flit) { inject_queue_.push_back(std::move(flit)); }

void LineNoc::advance(Wavefront& wave, sim::Cycle now, TickDeltas& deltas) {
  // The flit propagates through up to max_hops_per_cycle routers this cycle;
  // each router on the path observes it (local tag-matching logic snoops the
  // bypass datapath).
  const int reach = std::min(wave.frontier + config_.max_hops_per_cycle,
                             config_.routers);
  if (sink_ != nullptr) {
    for (int j = wave.frontier; j < reach; ++j) {
      sink_->on_observation(j, wave.flit, now);
    }
  }
  const auto visited = static_cast<std::uint64_t>(reach - wave.frontier);
  deltas.observations += visited;
  // Wire segments traversed this cycle: injector->r0 counts as one segment
  // only for the first hop of the line; between routers j-1 and j for the
  // rest. Segment count equals routers visited this cycle.
  deltas.segment_traversals += visited;
  wave.frontier = reach;
  if (wave.frontier < config_.routers) {
    // Latches into the input register of the next router to continue on the
    // following cycle.
    deltas.register_latches += 1;
  }
}

void LineNoc::tick(sim::Cycle now) {
  // In-flight wavefronts continue first (they occupy downstream segments);
  // then one queued flit may enter the line.
  TickDeltas deltas;
  for (auto& wave : in_flight_) advance(wave, now, deltas);
  while (!in_flight_.empty() &&
         in_flight_.front().frontier >= config_.routers) {
    in_flight_.pop_front();
  }
  if (!inject_queue_.empty()) {
    Wavefront wave{std::move(inject_queue_.front()), 0};
    inject_queue_.pop_front();
    deltas.flits_injected += 1;
    advance(wave, now, deltas);
    if (wave.frontier < config_.routers) {
      in_flight_.push_back(std::move(wave));
    }
  }
  if (stats_ != nullptr) {
    // One flush per counter per tick, not one bump per event.
    if (deltas.observations != 0) {
      stats_->bump(id_observations_, deltas.observations);
      stats_->bump(id_segment_traversals_, deltas.segment_traversals);
    }
    if (deltas.register_latches != 0) {
      stats_->bump(id_register_latches_, deltas.register_latches);
    }
    if (deltas.flits_injected != 0) {
      stats_->bump(id_flits_injected_, deltas.flits_injected);
    }
  }
}

}  // namespace nova::noc
