// Quickstart: approximate GeLU on a NOVA vector unit in ~30 lines.
//
//   1. Train the PWL breakpoints at "compile time" (NN-LUT-style MLP fit).
//   2. Deploy a NOVA NoC (here: the TPU-v4-like Table II configuration).
//   3. Stream PE outputs through it and read back approximated activations
//      with cycle and energy accounting.
#include <cstdio>

#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "core/overlay.hpp"

int main() {
  using namespace nova;

  // 1. Compile-time breakpoint training: 16 segments for GeLU.
  const approx::PwlTable& gelu =
      approx::PwlLibrary::instance().get(approx::NonLinearFn::kGelu, 16);
  std::printf("trained GeLU table: %d breakpoints, max |error| %.4f\n",
              gelu.breakpoints(), gelu.max_abs_error());

  // 2. Deploy NOVA: 8 routers x 128 neurons at 1.4 GHz (TPU-v4-like).
  core::NovaConfig config;
  config.routers = 8;
  config.neurons_per_router = 128;
  core::NovaVectorUnit unit(config);
  const auto check = unit.mapping_check(gelu);
  std::printf("mapper: NoC at %.0f MHz (x%d), single-cycle lookup: %s\n",
              check.noc_freq_mhz,
              static_cast<int>(check.noc_freq_mhz / config.accel_freq_mhz),
              check.single_cycle_lookup ? "yes" : "no");

  // 3. Approximate a batch of PE outputs.
  Rng rng(42);
  std::vector<std::vector<double>> activations(8);
  for (auto& stream : activations) {
    for (int i = 0; i < 1024; ++i) stream.push_back(rng.normal(0.0, 2.5));
  }
  const auto result = unit.approximate(gelu, activations);
  const auto energy = core::estimate_energy(hw::tech22(), config, 16, result);

  std::printf("approximated %llu elements in %llu accelerator cycles "
              "(latency %d cycles/wave)\n",
              static_cast<unsigned long long>(result.mac_ops),
              static_cast<unsigned long long>(result.accel_cycles),
              result.wave_latency_cycles);
  std::printf("energy: %.2f nJ total (%.3f pJ/element)\n",
              energy.total_pj() / 1e3,
              energy.total_pj() / static_cast<double>(result.mac_ops));
  std::printf("sample: gelu(%.3f) ~ %.4f (exact %.4f)\n", activations[0][0],
              result.outputs[0][0], gelu.exact(activations[0][0]));
  return 0;
}
