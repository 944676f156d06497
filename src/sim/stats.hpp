// Named counters, accumulators and histograms of the serving layer's run
// report. The hardware models return their operation counts as plain fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace nova::sim {

/// A sample distribution with percentile queries: the latency-recording
/// primitive of the serving layer. Stores raw samples (the populations
/// here -- request latencies, batch sizes -- are bounded by request count,
/// so exact percentiles are affordable and reproducible).
///
/// Empty-histogram contract: count() == 0 and sum() == 0.0, and both
/// order statistics -- max() and percentile(p) -- return 0.0 (there is no
/// sample to report; callers that need to distinguish "no samples" from
/// "samples at zero" must check count() first). The contract is
/// deliberately a documented return, not an assertion: a report may read
/// a histogram that was registered but never recorded.
class Histogram {
 public:
  /// Defined here, not in stats.cpp: the serve loop records a sample per
  /// dispatch and per served request.
  void record(double value) {
    samples_.push_back(value);
    sum_ += value;
  }

  [[nodiscard]] std::uint64_t count() const {
    return static_cast<std::uint64_t>(samples_.size());
  }
  [[nodiscard]] double sum() const { return sum_; }
  /// Mean of the samples; 0.0 when empty.
  [[nodiscard]] double mean() const;
  /// Largest sample; 0.0 when empty (see the empty-histogram contract).
  [[nodiscard]] double max() const;

  /// Nearest-rank percentile, `p` in [0, 100]; 0.0 when empty (see the
  /// empty-histogram contract). Selects the sample in linear time and
  /// reorders the stored samples to do it, so concurrent calls on one
  /// histogram race even though the method is const.
  [[nodiscard]] double percentile(double p) const;

  /// Reserves room for `n` samples, so a caller that knows its sample
  /// count records without regrowing the store.
  void reserve(std::size_t n) { samples_.reserve(n); }

 private:
  /// In record order until percentile() partially reorders them; no query
  /// depends on the order.
  mutable std::vector<double> samples_;
  double sum_ = 0.0;
};

/// Sum and count of a sampled quantity: the registry's accumulator (a
/// mean without the stored samples of a Histogram).
struct Accumulator {
  double sum = 0.0;
  std::uint64_t n = 0;

  void add(double value) {
    sum += value;
    n += 1;
  }
};

/// Pre-resolved handle to a StatRegistry counter: a dense index interned
/// once on a cold path (typically a constructor), then bumped with a single
/// vector add on hot paths -- no string hashing or map walk per event.
/// Valid only for the registry that issued it.
class StatId {
 public:
  StatId() = default;

  [[nodiscard]] constexpr bool operator==(const StatId&) const = default;

 private:
  friend class StatRegistry;
  explicit constexpr StatId(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = 0;
};

/// A registry of named counters (monotonic), accumulators (sum + count,
/// for means), and histograms (distributions with percentiles). Lookup by
/// name creates on first use so instrumentation sites stay one-liners.
///
/// Counters are written through interned ids (counter_id once, then
/// bump(StatId)): the name resolves to an index into a dense value vector,
/// so a bump is one add with no per-event string work. Reports read them
/// back by name.
class StatRegistry {
 public:
  /// Interns `name` and returns its dense handle; idempotent (the same name
  /// always maps to the same id). Cold path: call once, keep the id.
  [[nodiscard]] StatId counter_id(const std::string& name);

  /// Increments the interned counter by `delta`. The hot-path bump: one
  /// bounds check and one add.
  void bump(StatId id, std::uint64_t delta = 1) {
    NOVA_EXPECTS(id.index_ < counter_values_.size());
    counter_values_[id.index_] += delta;
  }

  /// Returns accumulator `name`, creating it empty on first use. Resolve
  /// the name once, then add() per event -- no string work per sample; the
  /// registry never drops an accumulator, so the reference stays valid.
  Accumulator& accumulator(const std::string& name);

  /// Returns histogram `name`, creating it on first use.
  Histogram& histogram(const std::string& name);
  /// Read-only lookup; null when no such histogram was recorded.
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name) const;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] double mean(const std::string& name) const;
  [[nodiscard]] double sum(const std::string& name) const;
  [[nodiscard]] std::uint64_t sample_count(const std::string& name) const;

 private:
  /// Name -> dense index.
  std::map<std::string, std::uint32_t> counter_index_;
  std::vector<std::uint64_t> counter_values_;
  std::map<std::string, Accumulator> accumulators_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace nova::sim
