#include "noc/line_noc.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace nova::noc {

LineNoc::LineNoc(const LineNocConfig& config) : config_(config) {
  NOVA_EXPECTS(config.routers >= 1);
  NOVA_EXPECTS(config.max_hops_per_cycle >= 1);
}

void LineNoc::inject(Flit flit) { inject_queue_.push_back(std::move(flit)); }

void LineNoc::advance(Wavefront& wave, sim::Cycle now) {
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
  counts_.observations += visited;
  // Wire segments traversed this cycle: injector->r0 counts as one segment
  // only for the first hop of the line; between routers j-1 and j for the
  // rest. Segment count equals routers visited this cycle.
  counts_.segment_traversals += visited;
  wave.frontier = reach;
  if (wave.frontier < config_.routers) {
    // Latches into the input register of the next router to continue on the
    // following cycle.
    counts_.register_latches += 1;
  }
}

void LineNoc::tick(sim::Cycle now) {
  // In-flight wavefronts continue first (they occupy downstream segments);
  // then one queued flit may enter the line.
  for (auto& wave : in_flight_) advance(wave, now);
  while (!in_flight_.empty() &&
         in_flight_.front().frontier >= config_.routers) {
    in_flight_.pop_front();
  }
  if (!inject_queue_.empty()) {
    Wavefront wave{std::move(inject_queue_.front()), 0};
    inject_queue_.pop_front();
    counts_.flits_injected += 1;
    advance(wave, now);
    if (wave.frontier < config_.routers) {
      in_flight_.push_back(std::move(wave));
    }
  }
}

}  // namespace nova::noc
