// Google-benchmark microbenchmarks of the library's hot kernels: PWL
// evaluation (double and fixed-point), comparator address generation,
// NN-LUT-style softmax, the cycle-accurate NOVA NoC simulation itself, and
// the SCALE-Sim-like analytic model.
#include <benchmark/benchmark.h>

#include "accel/systolic.hpp"
#include "approx/mlp_fitter.hpp"
#include "approx/softmax.hpp"
#include "common/rng.hpp"
#include "core/vector_unit.hpp"
#include "lut/lut_unit.hpp"

namespace {

using namespace nova;

const approx::PwlTable& gelu16() {
  static const approx::PwlTable table =
      approx::fit_mlp(approx::NonLinearFn::kGelu, 16);
  return table;
}

void BM_PwlEvalDouble(benchmark::State& state) {
  const auto& table = gelu16();
  Rng rng(1);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.uniform(-8.0, 8.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.eval(xs[i++ & 1023]));
  }
}
BENCHMARK(BM_PwlEvalDouble);

void BM_PwlEvalFixed(benchmark::State& state) {
  const auto& table = gelu16();
  Rng rng(2);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.uniform(-8.0, 8.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.eval_fixed(xs[i++ & 1023]));
  }
}
BENCHMARK(BM_PwlEvalFixed);

void BM_LookupAddress(benchmark::State& state) {
  const auto& table = gelu16();
  Rng rng(3);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.uniform(-8.0, 8.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup_address(xs[i++ & 1023]));
  }
}
BENCHMARK(BM_LookupAddress);

void BM_SoftmaxPwl(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto& lib = approx::PwlLibrary::instance();
  const auto& exp_t = lib.get(approx::NonLinearFn::kExp, 16);
  const auto& rec_t = lib.get(approx::NonLinearFn::kReciprocal, 16);
  Rng rng(4);
  std::vector<float> in(n), out(n);
  for (auto& v : in) v = static_cast<float>(rng.normal(0.0, 2.0));
  for (auto _ : state) {
    approx::softmax_pwl(in, out, exp_t, rec_t);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SoftmaxPwl)->Arg(128)->Arg(1024);

void BM_NovaUnitSimulation(benchmark::State& state) {
  core::NovaConfig cfg;
  cfg.routers = 8;
  cfg.neurons_per_router = 128;
  core::NovaVectorUnit unit(cfg);
  Rng rng(5);
  std::vector<std::vector<double>> inputs(8);
  for (auto& stream : inputs) {
    for (int i = 0; i < 1024; ++i) stream.push_back(rng.uniform(-8.0, 8.0));
  }
  for (auto _ : state) {
    auto result = unit.approximate(gelu16(), inputs);
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8 * 1024);
}
BENCHMARK(BM_NovaUnitSimulation);

void BM_LutUnitSimulation(benchmark::State& state) {
  lut::LutConfig cfg;
  cfg.units = 8;
  cfg.neurons_per_unit = 128;
  lut::LutVectorUnit unit(cfg);
  Rng rng(6);
  std::vector<std::vector<double>> inputs(8);
  for (auto& stream : inputs) {
    for (int i = 0; i < 1024; ++i) stream.push_back(rng.uniform(-8.0, 8.0));
  }
  for (auto _ : state) {
    auto result = unit.approximate(gelu16(), inputs);
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8 * 1024);
}
BENCHMARK(BM_LutUnitSimulation);

void BM_SystolicWorkloadModel(benchmark::State& state) {
  const auto wl = workload::model_workload(workload::roberta_base(1024));
  const accel::SystolicConfig cfg{128, 128,
                                  accel::Dataflow::kWeightStationary};
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel::workload_cycles(cfg, wl));
  }
}
BENCHMARK(BM_SystolicWorkloadModel);

// tanh at 4, 16 and 64 breakpoints: one padded block of hidden units, the
// serve tables' size, and many blocks.
void BM_MlpBreakpointTraining(benchmark::State& state) {
  const int breakpoints = static_cast<int>(state.range(0));
  approx::MlpFitOptions options;
  options.iterations = 500;  // truncated fit; measures trainer throughput
  for (auto _ : state) {
    auto table = approx::fit_mlp(approx::NonLinearFn::kTanh, breakpoints,
                                 approx::default_domain(approx::NonLinearFn::kTanh),
                                 options);
    benchmark::DoNotOptimize(&table);
  }
}
BENCHMARK(BM_MlpBreakpointTraining)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
