#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/assert.hpp"

namespace nova::sim {

double Histogram::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Histogram::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::percentile(double p) const {
  NOVA_EXPECTS(p >= 0.0 && p <= 100.0);
  if (samples_.empty()) return 0.0;
  // Nearest-rank: the smallest sample with at least p% of the mass at or
  // below it, selected in place -- the same order statistic a full sort
  // would put at that index.
  const auto n = samples_.size();
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(static_cast<std::size_t>(rank) - 1, n - 1);
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(index);
  std::nth_element(samples_.begin(), nth, samples_.end());
  return *nth;
}

StatId StatRegistry::counter_id(const std::string& name) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return StatId(it->second);
  const auto index = static_cast<std::uint32_t>(counter_values_.size());
  counter_index_.emplace(name, index);
  counter_values_.push_back(0);
  return StatId(index);
}

Accumulator& StatRegistry::accumulator(const std::string& name) {
  return accumulators_[name];
}

Histogram& StatRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

const Histogram* StatRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t StatRegistry::counter(const std::string& name) const {
  const auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : counter_values_[it->second];
}

double StatRegistry::sum(const std::string& name) const {
  const auto it = accumulators_.find(name);
  return it == accumulators_.end() ? 0.0 : it->second.sum;
}

std::uint64_t StatRegistry::sample_count(const std::string& name) const {
  const auto it = accumulators_.find(name);
  return it == accumulators_.end() ? 0 : it->second.n;
}

double StatRegistry::mean(const std::string& name) const {
  const auto it = accumulators_.find(name);
  if (it == accumulators_.end() || it->second.n == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.n);
}

}  // namespace nova::sim
