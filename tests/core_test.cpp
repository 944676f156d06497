// Tests for the NOVA core: mapper schedules (tag/slot layout, clock
// multiplier), cycle-accurate vector-unit behavior (correctness against the
// functional PWL evaluation, latency, throughput, pipelining), overlay
// configuration, energy accounting, the pinned SimSession / calibration
// goldens, and the calibration memo's differential property suite.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "approx/fit.hpp"
#include "approx/mlp_fitter.hpp"
#include "core/mapper.hpp"
#include "core/overlay.hpp"
#include "core/sim_session.hpp"
#include "core/vector_unit.hpp"
#include "common/rng.hpp"
#include "pipeline/op_graph.hpp"
#include "serve/surrogate.hpp"
#include "workload/bert.hpp"

namespace nova::core {
namespace {

using approx::NonLinearFn;
using approx::PwlTable;

const PwlTable& gelu16() {
  static const PwlTable table = approx::fit_mlp(NonLinearFn::kGelu, 16);
  return table;
}

TEST(Mapper, SixteenBreakpointsNeedTwoFlitsAtDoubleClock) {
  const auto schedule = make_schedule(gelu16(), 8);
  EXPECT_EQ(schedule.noc_clock_multiplier, 2);
  ASSERT_EQ(schedule.flits.size(), 2u);
  EXPECT_EQ(schedule.flits[0].tag(), 0);
  EXPECT_EQ(schedule.flits[1].tag(), 1);
  EXPECT_EQ(schedule.flits[0].bits(), 257);
}

TEST(Mapper, EightBreakpointsFitOneFlit) {
  const PwlTable table = approx::fit_uniform(NonLinearFn::kTanh, 8);
  const auto schedule = make_schedule(table, 8);
  EXPECT_EQ(schedule.noc_clock_multiplier, 1);
  EXPECT_EQ(schedule.flits.size(), 1u);
}

TEST(Mapper, TagIsAddressLsbForTwoFlits) {
  const auto schedule = make_schedule(gelu16(), 8);
  for (int addr = 0; addr < 16; ++addr) {
    EXPECT_EQ(schedule.tag_of(addr), addr % 2);
    EXPECT_EQ(schedule.slot_of(addr), addr / 2);
  }
}

TEST(Mapper, FlitLayoutRecoversEveryPair) {
  // Address A's pair must sit in flit (A mod m) slot (A div m).
  const auto& table = gelu16();
  const auto schedule = make_schedule(table, 8);
  for (int addr = 0; addr < table.breakpoints(); ++addr) {
    const auto expect = table.quantized_pair(addr);
    const auto& flit = schedule.flits[static_cast<std::size_t>(
        schedule.tag_of(addr))];
    const auto got = flit.pair(schedule.slot_of(addr));
    EXPECT_EQ(got.slope.raw(), expect.slope.raw()) << "address " << addr;
    EXPECT_EQ(got.bias.raw(), expect.bias.raw()) << "address " << addr;
  }
}

TEST(Mapper, CheckMappingMatchesPaperScalability) {
  const auto check = check_mapping(hw::tech22(), 10, 1.0, 1500.0, 2);
  EXPECT_TRUE(check.single_cycle_lookup);
  EXPECT_EQ(check.max_hops_per_cycle, 10);
  const auto too_long = check_mapping(hw::tech22(), 16, 1.0, 1500.0, 2);
  EXPECT_FALSE(too_long.single_cycle_lookup);
  EXPECT_GT(too_long.broadcast_accel_cycles, 1);
}

NovaConfig small_config() {
  NovaConfig cfg;
  cfg.routers = 4;
  cfg.neurons_per_router = 8;
  cfg.pairs_per_flit = 8;
  cfg.accel_freq_mhz = 1400.0;
  return cfg;
}

TEST(VectorUnit, OutputsMatchFunctionalFixedPointEvaluation) {
  // The cycle-accurate simulation must agree bit-for-bit with the
  // functional eval_fixed path: same comparator, same pairs, same MAC.
  const auto& table = gelu16();
  NovaVectorUnit unit(small_config());
  Rng rng(7);
  std::vector<std::vector<double>> inputs(4);
  for (auto& stream : inputs) {
    for (int i = 0; i < 37; ++i) stream.push_back(rng.uniform(-8.0, 8.0));
  }
  const auto result = unit.approximate(table, inputs);
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    ASSERT_EQ(result.outputs[r].size(), inputs[r].size());
    for (std::size_t i = 0; i < inputs[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(result.outputs[r][i],
                       table.eval_fixed(inputs[r][i]))
          << "router " << r << " elem " << i;
    }
  }
}

TEST(VectorUnit, SingleWaveHasTwoCycleLatency) {
  // One wave (<= neurons per router): lookup cycle + MAC cycle, matching
  // the NN-LUT baseline walkthrough in the paper.
  NovaVectorUnit unit(small_config());
  const std::vector<std::vector<double>> inputs{{0.5}, {1.0}, {-2.0}, {3.0}};
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.wave_latency_cycles, 2);
  EXPECT_EQ(result.accel_cycles, 2u);
}

TEST(VectorUnit, ThroughputIsOneWavePerCycle) {
  // W waves, fully pipelined: W + 1 accelerator cycles.
  NovaConfig cfg = small_config();
  NovaVectorUnit unit(cfg);
  const int waves = 10;
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(cfg.routers));
  Rng rng(9);
  for (auto& stream : inputs) {
    for (int i = 0; i < waves * cfg.neurons_per_router; ++i) {
      stream.push_back(rng.uniform(-4.0, 4.0));
    }
  }
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.accel_cycles, static_cast<sim::Cycle>(waves + 1));
}

TEST(VectorUnit, NocRunsAtTwiceTheAccelClockFor16Breakpoints) {
  NovaVectorUnit unit(small_config());
  const std::vector<std::vector<double>> inputs{{0.5}, {1.0}, {-2.0}, {3.0}};
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.noc_cycles, 2 * result.accel_cycles);
  // Two flits injected for the single wave.
  EXPECT_EQ(result.stats.counter("noc.flits_injected"), 2u);
}

TEST(VectorUnit, OperationCountsAreExact) {
  NovaConfig cfg = small_config();
  NovaVectorUnit unit(cfg);
  std::vector<std::vector<double>> inputs(4);
  Rng rng(11);
  int total = 0;
  for (auto& stream : inputs) {
    for (int i = 0; i < 20; ++i) {
      stream.push_back(rng.uniform(-4.0, 4.0));
      ++total;
    }
  }
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.stats.counter("unit.comparator_ops"),
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(result.stats.counter("unit.mac_ops"),
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(result.stats.counter("unit.pair_captures"),
            static_cast<std::uint64_t>(total));
}

TEST(VectorUnit, UnevenStreamsDrainCorrectly) {
  NovaVectorUnit unit(small_config());
  std::vector<std::vector<double>> inputs{{0.1, 0.2, 0.3}, {}, {-1.0}, {2.0, -2.0}};
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.outputs[0].size(), 3u);
  EXPECT_TRUE(result.outputs[1].empty());
  EXPECT_EQ(result.outputs[2].size(), 1u);
  EXPECT_EQ(result.outputs[3].size(), 2u);
}

TEST(VectorUnit, EmptyBatchCompletesInZeroCycles) {
  NovaVectorUnit unit(small_config());
  const std::vector<std::vector<double>> inputs(4);
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.accel_cycles, 0u);
}

TEST(VectorUnit, MappingCheckFlagsOversizedDeployments) {
  NovaConfig cfg = small_config();
  cfg.routers = 24;  // beyond the 10-router single-cycle reach
  cfg.accel_freq_mhz = 1500.0;
  NovaVectorUnit unit(cfg);
  const auto check = unit.mapping_check(gelu16());
  EXPECT_FALSE(check.single_cycle_lookup);
}

TEST(Overlay, PaperConfigsForEveryHost) {
  for (const auto host :
       {hw::AcceleratorKind::kReact, hw::AcceleratorKind::kTpuV3,
        hw::AcceleratorKind::kTpuV4, hw::AcceleratorKind::kJetsonNvdla}) {
    const auto overlay = make_overlay(host);
    EXPECT_EQ(overlay.host, host);
    EXPECT_FALSE(overlay.attachment.empty());
    EXPECT_EQ(overlay.nova.routers, overlay.cost_config.units);
    EXPECT_EQ(overlay.nova.neurons_per_router,
              overlay.cost_config.neurons_per_unit);
  }
  // Spot-check Table II numbers.
  const auto react = make_overlay(hw::AcceleratorKind::kReact);
  EXPECT_EQ(react.nova.routers, 10);
  EXPECT_EQ(react.nova.neurons_per_router, 256);
  EXPECT_DOUBLE_EQ(react.nova.accel_freq_mhz, 240.0);
  const auto tpu4 = make_overlay(hw::AcceleratorKind::kTpuV4);
  EXPECT_EQ(tpu4.nova.routers, 8);
  EXPECT_EQ(tpu4.nova.neurons_per_router, 128);
}

TEST(Overlay, EnergyAccountsForEveryCountedOperation) {
  NovaConfig cfg = small_config();
  NovaVectorUnit unit(cfg);
  std::vector<std::vector<double>> inputs(4);
  Rng rng(13);
  for (auto& stream : inputs) {
    for (int i = 0; i < 16; ++i) stream.push_back(rng.uniform(-4.0, 4.0));
  }
  const auto result = unit.approximate(gelu16(), inputs);
  const auto energy = estimate_energy(hw::tech22(), cfg, 16, result);
  EXPECT_GT(energy.comparator_pj, 0.0);
  EXPECT_GT(energy.mac_pj, 0.0);
  EXPECT_GT(energy.wire_pj, 0.0);
  EXPECT_GT(energy.select_pj, 0.0);
  EXPECT_NEAR(energy.total_pj(),
              energy.comparator_pj + energy.select_pj + energy.mac_pj +
                  energy.wire_pj + energy.register_pj,
              1e-9);
}

TEST(Overlay, EnergyGrowsLinearlyWithWork) {
  NovaConfig cfg = small_config();
  NovaVectorUnit unit(cfg);
  Rng rng(15);
  auto make_inputs = [&rng, &cfg](int per_router) {
    std::vector<std::vector<double>> inputs(
        static_cast<std::size_t>(cfg.routers));
    for (auto& stream : inputs) {
      for (int i = 0; i < per_router; ++i) {
        stream.push_back(rng.uniform(-4.0, 4.0));
      }
    }
    return inputs;
  };
  const auto small = unit.approximate(gelu16(), make_inputs(8));
  const auto large = unit.approximate(gelu16(), make_inputs(80));
  const double e_small =
      estimate_energy(hw::tech22(), cfg, 16, small).total_pj();
  const double e_large =
      estimate_energy(hw::tech22(), cfg, 16, large).total_pj();
  EXPECT_NEAR(e_large / e_small, 10.0, 1.5);
}

// SimSession differential + golden suite. Every Table II deployment (and
// two with a short SMART reach) runs tables over {8, 16, 32, 64}
// breakpoints x four functions on seeded ragged streams: one router empty,
// partial last waves, and inputs far outside the fit domain so the link word
// saturates. Outputs must equal PwlTable::eval_fixed bit for bit; the cycle
// counts and all eight counters fold into one FNV-1a hash per deployment,
// pinned so that any change to simulated timing or statistics fails here.

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr const char* kSessionCounters[] = {
    "unit.pair_captures",     "unit.mac_ops",
    "unit.comparator_ops",    "unit.waves",
    "noc.observations",       "noc.segment_traversals",
    "noc.register_latches",   "noc.flits_injected"};

/// The 16 golden tables, fitted without MLP training: uniform and adaptive
/// boundaries alternate across the grid.
const std::vector<PwlTable>& golden_tables() {
  static const std::vector<PwlTable> tables = [] {
    std::vector<PwlTable> out;
    int k = 0;
    for (const auto fn : {NonLinearFn::kGelu, NonLinearFn::kExp,
                          NonLinearFn::kReciprocal, NonLinearFn::kRsqrt}) {
      for (const int bp : {8, 16, 32, 64}) {
        out.push_back(k++ % 2 == 0 ? approx::fit_uniform(fn, bp)
                                   : approx::fit_adaptive(fn, bp));
      }
      ++k;  // shift the alternation so each function gets both fitters
    }
    return out;
  }();
  return tables;
}

std::vector<std::vector<double>> ragged_streams(const NovaConfig& cfg,
                                                const PwlTable& table,
                                                std::uint64_t seed) {
  Rng rng(seed);
  const auto routers = static_cast<std::size_t>(cfg.routers);
  const auto n = static_cast<std::uint64_t>(cfg.neurons_per_router);
  const approx::Domain d = table.domain();
  std::vector<std::vector<double>> inputs(routers);
  const std::size_t empty = rng.next_below(routers);
  for (std::size_t r = 0; r < routers; ++r) {
    if (r == empty) continue;
    const std::uint64_t len = 1 + rng.next_below(3 * n);
    for (std::uint64_t i = 0; i < len; ++i) {
      double x = 0.0;
      switch (rng.next_below(16)) {
        case 0:  // saturates the Q6.10 word
          x = rng.next_below(2) == 0 ? -1e6 : 1e6;
          break;
        case 1:  // lands exactly on a comparator boundary
          x = table.boundaries()[rng.next_below(table.boundaries().size())];
          break;
        case 2:
          x = rng.uniform(-40.0, 40.0);
          break;
        default:
          x = rng.uniform(d.lo - 0.25 * d.width(), d.hi + 0.25 * d.width());
      }
      inputs[r].push_back(x);
    }
  }
  return inputs;
}

struct GoldenHost {
  hw::AcceleratorKind host;
  const char* name;
  /// SMART bypass override; a short reach stretches the broadcast over
  /// several accelerator cycles, so flits of one train are still in flight
  /// when the next wave issues.
  int max_hops_per_cycle;
  std::uint64_t hash;
};

void PrintTo(const GoldenHost& param, std::ostream* os) { *os << param.name; }

class SimSessionGolden : public ::testing::TestWithParam<GoldenHost> {};

TEST_P(SimSessionGolden, OutputsMatchEvalFixedAndTimingMatchesPins) {
  const GoldenHost& param = GetParam();
  NovaConfig cfg = make_overlay(param.host).nova;
  cfg.max_hops_per_cycle = param.max_hops_per_cycle;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::uint64_t seed = 0x901d;
  for (const PwlTable& table : golden_tables()) {
    const auto inputs = ragged_streams(cfg, table, seed++);
    SimSession session(cfg, table, inputs);
    const ApproxResult result = session.run();
    ASSERT_EQ(result.outputs.size(), inputs.size());
    std::size_t mismatches = 0;
    std::string first;
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      ASSERT_EQ(result.outputs[r].size(), inputs[r].size());
      for (std::size_t i = 0; i < inputs[r].size(); ++i) {
        const double want = table.eval_fixed(inputs[r][i]);
        if (std::bit_cast<std::uint64_t>(result.outputs[r][i]) !=
            std::bit_cast<std::uint64_t>(want)) {
          if (mismatches++ == 0) {
            first = "router " + std::to_string(r) + " elem " +
                    std::to_string(i) + " x=" + std::to_string(inputs[r][i]);
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << table.label() << " bp=" << table.breakpoints()
                              << ", first at " << first;
    hash = fnv1a(hash, result.accel_cycles);
    hash = fnv1a(hash, result.noc_cycles);
    hash = fnv1a(hash, static_cast<std::uint64_t>(result.wave_latency_cycles));
    for (const char* counter : kSessionCounters) {
      hash = fnv1a(hash, result.stats.counter(counter));
    }
  }
  char got[32];
  std::snprintf(got, sizeof got, "0x%016llx",
                static_cast<unsigned long long>(hash));
  EXPECT_EQ(hash, param.hash) << param.name << " timing/statistics hash is "
                              << got;
}

INSTANTIATE_TEST_SUITE_P(
    TableII, SimSessionGolden,
    ::testing::Values(
        GoldenHost{hw::AcceleratorKind::kReact, "react", 0,
                   0x2b013f139c3e1e10ULL},
        GoldenHost{hw::AcceleratorKind::kTpuV3, "tpuv3", 0,
                   0xf1fbd441e32b673dULL},
        GoldenHost{hw::AcceleratorKind::kTpuV4, "tpuv4", 0,
                   0xc8dcd1913e08bde9ULL},
        GoldenHost{hw::AcceleratorKind::kJetsonNvdla, "nvdla", 0,
                   0xee4afa71ff47bdb7ULL},
        GoldenHost{hw::AcceleratorKind::kReact, "react_slow_line", 3,
                   0xcb7f1f3f02c2cd5bULL},
        GoldenHost{hw::AcceleratorKind::kTpuV4, "tpuv4_slow_line", 2,
                   0xab5749ce01a3ef9dULL}),
    [](const ::testing::TestParamInfo<GoldenHost>& info) {
      return std::string(info.param.name);
    });

TEST(CalibrationGolden, ExactPricerCalibrationsArePinned) {
  // The serving layer's use of SimSession: elements/cycle (printed %a, so
  // every bit counts) and wave latency for prefill and decode shapes, on the
  // benchmark's tpuv4 deployment (one wave per cycle) and on the same
  // deployment with a 2-hop line (multi-cycle broadcast, fractional rate).
  serve::PricerConfig config;
  config.nova = make_overlay(hw::AcceleratorKind::kTpuV4).nova;
  config.host = hw::AcceleratorKind::kTpuV4;
  config.seed = 7;
  serve::PricerConfig slow = config;
  slow.nova.max_hops_per_cycle = 2;
  const serve::ExactPricer fast_pricer(config);
  const serve::ExactPricer slow_pricer(slow);
  struct Pin {
    const serve::ExactPricer& pricer;
    serve::ShapeKey shape;
    const char* expect;
  };
  const auto prefill = [](const char* name, int seq, NonLinearFn fn) {
    serve::ShapeKey key;
    key.workload = workload::WorkloadName::parse(name).value();
    key.seq_len = seq;
    key.function = fn;
    return key;
  };
  const auto decode = [](const char* name, int seq, int kv,
                         NonLinearFn fn, int breakpoints = 16) {
    serve::ShapeKey key;
    key.workload = workload::WorkloadName::parse(name).value();
    key.seq_len = seq;
    key.function = fn;
    key.breakpoints = breakpoints;
    key.phase = pipeline::Phase::kDecode;
    key.kv_len = kv;
    return key;
  };
  const Pin pins[] = {
      {fast_pricer, prefill("bert-tiny", 128, NonLinearFn::kGelu),
       "0x1p+10/2"},
      {fast_pricer, prefill("bert-mini", 512, NonLinearFn::kExp),
       "0x1p+10/2"},
      {fast_pricer, decode("bert-tiny", 128, 37, NonLinearFn::kExp),
       "0x1p+10/2"},
      {fast_pricer, decode("bert-mini", 128, 1000, NonLinearFn::kGelu),
       "0x1p+10/2"},
      {slow_pricer, prefill("bert-tiny", 128, NonLinearFn::kGelu),
       "0x1.5555555555555p+8/4"},
      {slow_pricer, prefill("bert-mini", 512, NonLinearFn::kExp),
       "0x1.5555555555555p+8/4"},
      {slow_pricer, decode("bert-tiny", 128, 37, NonLinearFn::kExp),
       "0x1.5555555555555p+8/4"},
      {slow_pricer, decode("bert-mini", 128, 1000, NonLinearFn::kGelu),
       "0x1.5555555555555p+8/4"},
      {fast_pricer, decode("bert-tiny", 128, 300, NonLinearFn::kExp, 32),
       "0x1p+10/2"},
      {slow_pricer, decode("bert-tiny", 128, 300, NonLinearFn::kExp, 32),
       "0x1p+9/3"},
  };
  for (const Pin& pin : pins) {
    const serve::Calibration c = pin.pricer.calibrate(pin.shape);
    char got[64];
    std::snprintf(got, sizeof got, "%a/%d", c.elems_per_cycle,
                  c.wave_latency_cycles);
    EXPECT_STREQ(got, pin.expect)
        << pin.shape.workload.name() << " seq " << pin.shape.seq_len
        << " kv "
        << pin.shape.kv_len;
  }
}

// Calibration differential property suite. ExactPricer::calibrate may
// answer from a per-table memo only where timing cannot depend on the input
// values; the reference below is the per-shape path, copied from the
// pricer: a SimSession over a stream synthesized from shape_seed, then the
// steady-state wave-rate math. A seeded sweep far outside Table II (1 to
// 512 routers, a SMART reach down to one hop, 1-64 pairs per flit, 2-64
// breakpoints, caps and shapes around 1, N, N+1 and 2N+1 elements per
// router) must match it bit for bit. Wherever one wave whose every router
// looks up the train's last tag takes the minimum 2 cycles, constant,
// last-tag and uniform streams must all calibrate alike; and the sweep must
// hold deployments where they do not, so a memo without that guard fails.

/// The pricer's input-synthesis seed: FNV-1a over the shape fields mixed
/// with the base seed.
std::uint64_t reference_shape_seed(std::uint64_t base,
                                   const serve::ShapeKey& shape) {
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

std::string calibration_text(const serve::Calibration& c) {
  char text[64];
  std::snprintf(text, sizeof text, "%a/%d", c.elems_per_cycle,
                c.wave_latency_cycles);
  return text;
}

/// One session's steady-state elements per cycle net of the fill latency,
/// and its wave latency.
std::string simulate_streams(const NovaConfig& cfg, const PwlTable& table,
                             const std::vector<std::vector<double>>& inputs) {
  SimSession session(cfg, table, inputs);
  const ApproxResult result = session.run();
  const double cycles = static_cast<double>(result.accel_cycles);
  const auto waves = static_cast<double>(result.stats.counter("unit.waves"));
  const double fill = static_cast<double>(result.wave_latency_cycles - 1);
  const double per_wave = waves > 1.0 ? (cycles - 1.0 - fill) / (waves - 1.0)
                                      : std::max(cycles, 1.0);
  const double elems_per_wave = static_cast<double>(cfg.routers) *
                                static_cast<double>(cfg.neurons_per_router);
  return calibration_text(
      serve::Calibration{elems_per_wave / std::max(per_wave, 1e-9),
                         result.wave_latency_cycles});
}

std::vector<std::vector<double>> constant_streams(const NovaConfig& cfg,
                                                  std::int64_t length,
                                                  double value) {
  return std::vector<std::vector<double>>(
      static_cast<std::size_t>(cfg.routers),
      std::vector<double>(static_cast<std::size_t>(length), value));
}

std::vector<std::vector<double>> uniform_streams(const NovaConfig& cfg,
                                                 std::int64_t length,
                                                 approx::Domain domain,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(cfg.routers));
  for (auto& stream : inputs) {
    for (std::int64_t i = 0; i < length; ++i) {
      stream.push_back(rng.uniform(domain.lo, domain.hi));
    }
  }
  return inputs;
}

/// The per-shape path: `simulated` elements per router of the shape's own
/// seeded stream.
std::string reference_calibrate(const serve::PricerConfig& config,
                                 const serve::ShapeKey& shape,
                                 std::int64_t simulated) {
  const PwlTable& table =
      approx::PwlLibrary::instance().get(shape.function, shape.breakpoints);
  return simulate_streams(
      config.nova, table,
      uniform_streams(config.nova, simulated, table.domain(),
                      reference_shape_seed(config.seed, shape)));
}

std::int64_t per_router_ops(const serve::ShapeKey& shape, int routers) {
  const auto model =
      workload::by_name(std::string(shape.workload.name()), shape.seq_len);
  const auto graph = shape.phase == pipeline::Phase::kDecode
                         ? pipeline::build_decode_graph(*model, shape.kv_len)
                         : pipeline::build_graph(*model);
  return (graph.total_approx_ops() + routers - 1) / routers;
}

/// First link word (scanning every word) whose lookup address is `address`.
std::optional<double> word_at_address(const PwlTable& table, int address) {
  for (std::int64_t raw = -32768; raw <= 32767; ++raw) {
    const Word16 word = Word16::from_raw(raw);
    if (table.lookup_address(word) == address) return word.to_double();
  }
  return std::nullopt;
}

TEST(CalibrationProperty, MatchesPerShapeReferenceOverSeededSweep) {
  const NonLinearFn functions[] = {NonLinearFn::kGelu, NonLinearFn::kExp,
                                   NonLinearFn::kTanh, NonLinearFn::kSigmoid};
  const int pairs_per_flit[] = {1, 2, 3, 8, 64};
  const int breakpoints[] = {2, 3, 5, 8, 16, 33, 64};
  Rng rng(0xca11b);
  const auto pick = [&rng](const auto& values) {
    return values[rng.next_below(std::size(values))];
  };
  int checked = 0;
  int guarded = 0;
  int unguarded = 0;
  int disagreeing = 0;
  for (const auto host :
       {hw::AcceleratorKind::kReact, hw::AcceleratorKind::kTpuV3,
        hw::AcceleratorKind::kTpuV4, hw::AcceleratorKind::kJetsonNvdla}) {
    const NovaConfig table_ii = make_overlay(host).nova;
    for (const int routers : {table_ii.routers, 1, 2, 9, 11, 16, 40, 128,
                              512}) {
      for (const int hops : {0, 1, 2, 3}) {
        NovaConfig cfg = table_ii;
        cfg.routers = routers;
        cfg.max_hops_per_cycle = hops;
        cfg.pairs_per_flit = pick(pairs_per_flit);
        const NonLinearFn fn = pick(functions);
        const int bp = pick(breakpoints);
        const PwlTable& table = approx::PwlLibrary::instance().get(fn, bp);
        const int n = cfg.neurons_per_router;
        const std::string where =
            std::string(hw::to_string(host)) + " routers " +
            std::to_string(routers) + " hops " + std::to_string(hops) +
            " ppf " + std::to_string(cfg.pairs_per_flit) + " " +
            approx::to_string(fn) + "/" + std::to_string(bp);

        serve::ShapeKey decode;
        decode.workload = workload::WorkloadName::parse("bert-tiny").value();
        decode.seq_len = 1;
        decode.function = fn;
        decode.breakpoints = bp;
        decode.phase = pipeline::Phase::kDecode;
        decode.kv_len = 1;
        serve::ShapeKey long_decode = decode;
        long_decode.kv_len = 1 + static_cast<int>(rng.next_below(2000));
        serve::ShapeKey prefill = decode;
        prefill.phase = pipeline::Phase::kPrefill;
        prefill.seq_len = 1 + static_cast<int>(rng.next_below(32));
        prefill.kv_len = 0;

        // Check 1: the pricer equals the per-shape reference, for caps
        // that cut shapes at 1, N, N+1 and 2N+1 elements per router and
        // one drawn cap the shapes fall on either side of.
        std::map<std::int64_t, std::string> priced_by_length;
        for (const int cap :
             {1, n, n + 1, 2 * n + 1,
              2 + static_cast<int>(rng.next_below(
                      static_cast<std::uint64_t>(3 * n))),
             }) {
          serve::PricerConfig config;
          config.nova = cfg;
          config.host = host;
          config.seed = rng.next_u64();
          config.sim_elements_cap = cap;
          const serve::ExactPricer pricer(config);
          for (const auto& shape : {decode, long_decode, prefill}) {
            const std::int64_t simulated = std::min<std::int64_t>(
                per_router_ops(shape, routers), cap);
            const std::string got = calibration_text(pricer.calibrate(shape));
            EXPECT_EQ(got, reference_calibrate(config, shape, simulated))
                << where << " cap " << cap << " seq " << shape.seq_len
                << " kv " << shape.kv_len;
            priced_by_length.emplace(simulated, got);
            ++checked;
          }
        }

        // Check 2: streams of every length above, in full.
        const int m = (bp + cfg.pairs_per_flit - 1) / cfg.pairs_per_flit;
        const std::optional<double> last_tag = word_at_address(table, m - 1);
        const bool one_cycle_train =
            last_tag.has_value() &&
            [&] {
              const auto inputs = constant_streams(cfg, n, *last_tag);
              SimSession session(cfg, table, inputs);
              return session.run().wave_latency_cycles == 2;
            }();
        ++(one_cycle_train ? guarded : unguarded);
        bool disagree = false;
        const approx::Domain d = table.domain();
        for (const auto& [length, priced] : priced_by_length) {
          std::vector<std::vector<std::vector<double>>> streams = {
              constant_streams(cfg, length, d.lo),
              constant_streams(cfg, length, d.hi),
              constant_streams(cfg, length, 0.5 * (d.lo + d.hi)),
              uniform_streams(cfg, length, d, rng.next_u64())};
          if (last_tag) streams.push_back(constant_streams(cfg, length,
                                                           *last_tag));
          std::string first;
          for (const auto& inputs : streams) {
            const std::string got = simulate_streams(cfg, table, inputs);
            if (first.empty()) first = got;
            disagree |= got != first;
            if (one_cycle_train) {
              EXPECT_EQ(got, priced) << where << " length " << length;
            }
          }
        }
        disagreeing += disagree ? 1 : 0;
      }
    }
  }
  // The guard must have something to reject: timing that moves with the
  // data in some deployments, none of which may be memoized.
  EXPECT_GT(guarded, 0);
  EXPECT_GT(unguarded, 0);
  EXPECT_GT(disagreeing, 0);
  std::printf("%d calibrations checked; %d one-cycle deployment tables, %d "
              "not (%d with data-dependent timing)\n",
              checked, guarded, unguarded, disagreeing);
}

}  // namespace
}  // namespace nova::core
