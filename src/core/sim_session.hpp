// SimSession: one cycle-accurate run of the NOVA vector unit, with every
// piece of per-run state (engine, line NoC, pipeline waves, cursors,
// statistics) owned by the session object instead of living in the body of
// NovaVectorUnit::approximate.
//
// The extraction exists for the serving layer: a NovaVectorUnit is a pure
// description of a deployment, and any number of SimSessions over the same
// unit (or the same PwlTable) may run concurrently on independent threads --
// nothing in here touches shared mutable state. Callers must keep the table
// and input streams alive for the session's lifetime and must not share one
// session between threads; a session is single-shot (construct, run once,
// read the result).
//
// Hot-path structure (this is the simulator's innermost loop, and therefore
// the serving layer's per-request cost):
//   * The session attaches to the LineNoc as a noc::CaptureSink -- one
//     virtual call per router observation, no std::function hop.
//   * Each wave is issued with a tag-indexed capture plan: entries are
//     appended to a per-(router, tag) bucket at issue time, so an
//     observation captures exactly its matching entries instead of scanning
//     every pending address on every flit. Buckets have room for a full
//     wave, so placing an entry needs no counting pass first.
//   * The wave lives in session-owned flat buffers sized once for a full
//     wave, router-major, so issuing a wave allocates nothing.
//   * A lookup address maps to its (tag, slot) through a per-address table
//     built at construction: no division by the clock multiplier per
//     element.
//   * The MAC stage reads structure-of-arrays operands and writes each
//     output by index into its pre-sized stream, a loop the compiler can
//     vectorize.
//   * Statistic counters are interned once (sim::StatId) and bumped as
//     per-wave aggregates, not once per element event.
#pragma once

#include <cstdint>
#include <vector>

#include "core/vector_unit.hpp"
#include "noc/line_noc.hpp"

namespace nova::core {

/// One reentrant, single-shot simulation of a NOVA deployment approximating
/// `table` over per-router input streams.
class SimSession final : private noc::CaptureSink {
 public:
  /// `table` and `inputs` are borrowed for the session's lifetime.
  /// inputs.size() must equal config.routers.
  SimSession(const NovaConfig& config, const approx::PwlTable& table,
             const std::vector<std::vector<double>>& inputs);

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  /// Runs the pipeline to drain and returns the batch result. Single-shot:
  /// calling run() twice is a contract violation.
  [[nodiscard]] ApproxResult run();

 private:
  /// Where a lookup address sits in the flit train: tag = address mod m
  /// selects the flit, slot = address div m the pair inside it.
  struct Route {
    int tag = 0;
    int slot = 0;
  };

  /// One entry waiting for its pair: absolute entry index and the slot it
  /// selects in the flit carrying its tag.
  struct Capture {
    int entry = 0;
    int slot = 0;
  };

  /// noc::CaptureSink: router `router` sees `flit` on the line.
  void on_observation(int router, const noc::Flit& flit,
                      sim::Cycle noc_now) override;
  void accel_tick(sim::Cycle now);
  /// Comparators of the next wave fire and the flit train is launched.
  void issue_wave(sim::Cycle now);
  /// The MAC stage: y = slope * x + bias for every entry of the wave.
  void execute_wave(sim::Cycle now);
  /// Quiescence of the accelerator-side pipeline stages (the engine's idle
  /// fast-forward hook for the wave-issue callback).
  [[nodiscard]] bool pipeline_idle() const;
  [[nodiscard]] bool drained() const;

  NovaConfig config_;
  const approx::PwlTable& table_;                 // borrowed
  const std::vector<std::vector<double>>& inputs_;  // borrowed

  BroadcastSchedule schedule_;
  int hops_per_noc_cycle_ = 1;
  sim::Engine engine_;
  int accel_domain_ = 0;
  int noc_domain_ = 0;
  ApproxResult result_;
  sim::StatId id_pair_captures_;
  sim::StatId id_mac_ops_;
  sim::StatId id_comparator_ops_;
  sim::StatId id_waves_;
  noc::LineNoc line_;

  /// Indexed by lookup address; read-only after construction.
  std::vector<Route> routes_;
  /// Next unissued element of each router's stream.
  std::vector<std::size_t> cursor_;
  std::size_t unissued_ = 0;

  // The in-flight wave (issued, capturing, then MAC), in buffers reused by
  // every wave. Per entry, router-major with stride_ entries per router:
  std::size_t stride_ = 0;
  std::vector<Word16> wave_x_;
  std::vector<Word16> wave_slope_;
  std::vector<Word16> wave_bias_;
  /// Per router: entries in this wave.
  std::vector<int> wave_size_;
  /// The capture plan: one bucket per (router, tag), bucket b holding
  /// captures_[b * stride_ .. b * stride_ + bucket_size_[b]). A bucket is
  /// captured whole on the first observation of its tag, which empties it,
  /// so every bucket is empty again once a wave completes.
  std::vector<Capture> captures_;
  std::vector<int> bucket_size_;
  /// Non-empty buckets of the in-flight wave; zero means all pairs are in.
  int pending_buckets_ = 0;
  std::uint64_t wave_elements_ = 0;
  bool wave_in_flight_ = false;
  sim::Cycle issued_at_ = 0;

  sim::Cycle last_mac_cycle_ = 0;
  bool any_mac_done_ = false;
  bool ran_ = false;
};

}  // namespace nova::core
