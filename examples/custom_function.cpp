// Mapping a user-defined non-linear function onto NOVA: the library is not
// limited to the paper's operator set. Here a "mish" activation
// (x * tanh(softplus(x))) -- which NOVA never saw -- is fit three ways
// (uniform, curvature-adaptive, MLP-trained breakpoints), quantized to the
// Q6.10 link format, scheduled by the mapper, and executed on the
// cycle-accurate unit.
#include <cmath>
#include <cstdio>

#include "approx/fit.hpp"
#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/vector_unit.hpp"

int main() {
  using namespace nova;

  const approx::ScalarFn mish = [](double x) {
    const double sp = x > 20.0 ? x : std::log1p(std::exp(x));
    return x * std::tanh(sp);
  };
  const approx::Domain domain{-6.0, 6.0};

  std::puts("Mapping a custom activation (mish) onto NOVA\n");

  Table fits("Fit quality, 16 breakpoints");
  fits.set_header({"fitter", "max |err|", "mean |err|"});
  const auto uniform = approx::fit_uniform(mish, "mish", 16, domain);
  const auto adaptive = approx::fit_adaptive(mish, "mish", 16, domain);
  const auto mlp = approx::fit_mlp(mish, "mish", 16, domain);
  fits.add_row({"uniform", Table::num(uniform.max_abs_error(), 5),
                Table::num(uniform.mean_abs_error(), 5)});
  fits.add_row({"curvature-adaptive", Table::num(adaptive.max_abs_error(), 5),
                Table::num(adaptive.mean_abs_error(), 5)});
  fits.add_row({"MLP-trained (NN-LUT style)",
                Table::num(mlp.max_abs_error(), 5),
                Table::num(mlp.mean_abs_error(), 5)});
  fits.print();

  // Deploy on a 4-router NOVA line and execute.
  core::NovaConfig cfg;
  cfg.routers = 4;
  cfg.neurons_per_router = 64;
  core::NovaVectorUnit unit(cfg);
  const auto schedule = core::make_schedule(mlp, cfg.pairs_per_flit);
  std::printf("\nmapper: %zu flits per train, NoC clock x%d\n",
              schedule.flits.size(), schedule.noc_clock_multiplier);

  Rng rng(11);
  std::vector<std::vector<double>> inputs(4);
  for (auto& stream : inputs) {
    for (int i = 0; i < 256; ++i) stream.push_back(rng.uniform(-6.0, 6.0));
  }
  const auto result = unit.approximate(mlp, inputs);

  double worst = 0.0;
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    for (std::size_t i = 0; i < inputs[r].size(); ++i) {
      worst = std::max(worst, std::abs(result.outputs[r][i] -
                                       mish(inputs[r][i])));
    }
  }
  std::printf("executed %llu mish lookups in %llu cycles; max |err| vs "
              "exact (incl. Q6.10 quantization): %.5f\n",
              static_cast<unsigned long long>(result.mac_ops),
              static_cast<unsigned long long>(result.accel_cycles), worst);
  std::printf("sample: mish(%.3f) ~ %.4f (exact %.4f)\n", inputs[0][0],
              result.outputs[0][0], mish(inputs[0][0]));
  return 0;
}
