// Ablation: the paper fixes the link at 8 slope/bias pairs per flit
// (257 bits). This sweep varies pairs-per-flit for 16 breakpoints and shows
// the trade the README's "Substitutions and calibration" calls out: wider
// links lower the required NoC clock multiplier but cost proportionally more
// wires/registers; narrower links push the multiplier (and clock) up.
#include <cstdio>

#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/overlay.hpp"
#include "core/vector_unit.hpp"

int main() {
  using namespace nova;
  using namespace nova::core;

  std::puts("Ablation: broadcast width (pairs per flit) at 16 breakpoints, "
            "TPU-v4-like deployment\n");

  const auto& table_fit = approx::PwlLibrary::instance().get(
      approx::NonLinearFn::kGelu, 16);

  Rng rng(5);
  std::vector<std::vector<double>> inputs(8);
  for (auto& stream : inputs) {
    for (int i = 0; i < 128 * 8; ++i) stream.push_back(rng.uniform(-8.0, 8.0));
  }

  Table out("Broadcast width ablation");
  out.set_header({"pairs/flit", "link bits", "NoC mult", "NoC MHz",
                  "wave latency", "batch cycles", "sim energy (nJ)"});
  for (const int pairs : {2, 4, 8, 16}) {
    NovaConfig cfg;
    cfg.routers = 8;
    cfg.neurons_per_router = 128;
    cfg.pairs_per_flit = pairs;
    cfg.accel_freq_mhz = 1400.0;
    NovaVectorUnit unit(cfg);
    const auto result = unit.approximate(table_fit, inputs);
    const auto energy = estimate_energy(hw::tech22(), cfg, 16, result);
    const auto schedule = make_schedule(table_fit, pairs);
    out.add_row({std::to_string(pairs), std::to_string(32 * pairs + 1),
                 std::to_string(schedule.noc_clock_multiplier),
                 Table::num(1400.0 * schedule.noc_clock_multiplier, 0),
                 std::to_string(result.wave_latency_cycles),
                 std::to_string(result.accel_cycles),
                 Table::num(energy.total_pj() / 1000.0, 2)});
  }
  out.print();

  std::puts("\nReading: the paper's 8-pair/257-bit point keeps the NoC at "
            "2x clock for 16 breakpoints; halving the width doubles the "
            "required multiplier (4x clock at 2.8->5.6 GHz would fail "
            "timing), while doubling it pays ~2x wire/register energy per "
            "flit for no latency gain.");
  return 0;
}
