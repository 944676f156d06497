#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/assert.hpp"

namespace nova::sim {

void Histogram::record(double value) {
  samples_.push_back(value);
  sum_ += value;
}

double Histogram::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Histogram::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
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

void Histogram::clear() {
  samples_.clear();
  sum_ = 0.0;
}

StatId StatRegistry::counter_id(const std::string& name) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return StatId(it->second);
  const auto index = static_cast<std::uint32_t>(counter_values_.size());
  counter_index_.emplace(name, index);
  counter_values_.push_back(0);
  return StatId(index);
}

void StatRegistry::bump(const std::string& name, std::uint64_t delta) {
  bump(counter_id(name), delta);
}

void StatRegistry::sample(const std::string& name, double value) {
  accumulators_[name].add(value);
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

void StatRegistry::clear() {
  // Issued StatIds must survive a clear, so the intern table stays and only
  // the values reset.
  std::fill(counter_values_.begin(), counter_values_.end(), 0);
  accumulators_.clear();
  histograms_.clear();
}

Table StatRegistry::to_table(const std::string& title) const {
  Table t(title);
  t.set_header({"stat", "value", "samples"});
  for (const auto& [name, index] : counter_index_) {
    // Interning alone (counter_id with no bump) adds no row; the rendered
    // table depends only on what was counted, not on which face counted it.
    if (counter_values_[index] == 0) continue;
    t.add_row({name, std::to_string(counter_values_[index]), "-"});
  }
  for (const auto& [name, acc] : accumulators_) {
    if (acc.n == 0) continue;  // resolved by accumulator() but never added to
    t.add_row({name + " (mean)", Table::num(mean(name), 4),
               std::to_string(acc.n)});
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string n = std::to_string(hist.count());
    t.add_row({name + " (p50)", Table::num(hist.percentile(50.0), 4), n});
    t.add_row({name + " (p95)", Table::num(hist.percentile(95.0), 4), n});
    t.add_row({name + " (p99)", Table::num(hist.percentile(99.0), 4), n});
    t.add_row({name + " (max)", Table::num(hist.max(), 4), n});
  }
  return t;
}

}  // namespace nova::sim
