// Runs a real attention layer end to end with NOVA in the loop:
//
//   * builds a BERT-tiny-shaped encoder layer with random weights,
//   * computes Q*K^T scores on the "accelerator" (plain matmuls standing in
//     for the MXU),
//   * executes every softmax through the cycle-accurate NOVA vector unit
//     (exp + reciprocal PWL tables broadcast over the line NoC),
//   * compares against exact softmax attention, and reports the cycle and
//     energy cost of the non-linear work plus the whole-model Fig 8-style
//     estimate for the TPU-v4 deployment.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "accel/accelerator.hpp"
#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "core/overlay.hpp"
#include "nn/tensor.hpp"

int main() {
  using namespace nova;

  const int seq = 64, dim = 128;  // BERT-tiny head: H=128, A=2 -> d_head 64
  Rng rng(7);

  // Random Q, K, V standing in for trained projections.
  nn::Tensor q = nn::Tensor::randn({seq, dim}, rng, 0.3);
  nn::Tensor k = nn::Tensor::randn({seq, dim}, rng, 0.3);
  nn::Tensor v = nn::Tensor::randn({seq, dim}, rng, 0.5);

  // Scores on the host fabric.
  nn::Tensor scores = nn::matmul_nt(q, k);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
  for (auto& s : scores.flat()) s *= scale;

  // NOVA overlay (TPU-v4-like) executes the softmax non-linearities:
  // exp of the max-shifted scores, then the reciprocal of each row sum.
  const auto overlay = core::make_overlay(hw::AcceleratorKind::kTpuV4);
  core::NovaVectorUnit unit(overlay.nova);
  auto& lib = approx::PwlLibrary::instance();
  const auto& exp_t = lib.get(approx::NonLinearFn::kExp, 16);
  const auto& rec_t = lib.get(approx::NonLinearFn::kReciprocal, 16);

  // Distribute the seq*seq exp lookups across the 8 routers row by row.
  std::vector<std::vector<double>> exp_in(
      static_cast<std::size_t>(overlay.nova.routers));
  std::vector<float> row_max(static_cast<std::size_t>(seq));
  for (int r = 0; r < seq; ++r) {
    float mx = scores.at(r, 0);
    for (int c = 1; c < seq; ++c) mx = std::max(mx, scores.at(r, c));
    row_max[static_cast<std::size_t>(r)] = mx;
    for (int c = 0; c < seq; ++c) {
      exp_in[static_cast<std::size_t>(r % overlay.nova.routers)].push_back(
          static_cast<double>(scores.at(r, c)) - mx);
    }
  }
  const auto exp_result = unit.approximate(exp_t, exp_in);

  // Reassemble rows, normalize via the PWL reciprocal, apply to V.
  nn::Tensor attn({seq, seq});
  std::vector<std::size_t> cursor(exp_in.size(), 0);
  for (int r = 0; r < seq; ++r) {
    const auto router = static_cast<std::size_t>(r % overlay.nova.routers);
    double sum = 0.0;
    for (int c = 0; c < seq; ++c) {
      const double e =
          std::max(0.0, exp_result.outputs[router][cursor[router] + c]);
      attn.at(r, c) = static_cast<float>(e);
      sum += e;
    }
    cursor[router] += static_cast<std::size_t>(seq);
    int shifts = 0;
    double reduced = sum;
    while (reduced > rec_t.domain().hi) {
      reduced *= 0.5;
      ++shifts;
    }
    reduced = std::max(reduced, rec_t.domain().lo);
    const double inv = rec_t.eval_fixed(reduced) * std::ldexp(1.0, -shifts);
    for (int c = 0; c < seq; ++c) {
      attn.at(r, c) = static_cast<float>(attn.at(r, c) * inv);
    }
  }
  nn::Tensor context = nn::matmul(attn, v);

  // Exact reference.
  nn::Tensor attn_exact({seq, seq});
  for (int r = 0; r < seq; ++r) {
    double sum = 0.0;
    for (int c = 0; c < seq; ++c) {
      const double e = std::exp(static_cast<double>(scores.at(r, c)) -
                                row_max[static_cast<std::size_t>(r)]);
      attn_exact.at(r, c) = static_cast<float>(e);
      sum += e;
    }
    for (int c = 0; c < seq; ++c) {
      attn_exact.at(r, c) = static_cast<float>(attn_exact.at(r, c) / sum);
    }
  }
  nn::Tensor context_exact = nn::matmul(attn_exact, v);

  double worst = 0.0, worst_ctx = 0.0;
  for (std::size_t i = 0; i < attn.numel(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(attn.flat()[i]) -
                                     attn_exact.flat()[i]));
  }
  for (std::size_t i = 0; i < context.numel(); ++i) {
    worst_ctx = std::max(
        worst_ctx, std::abs(static_cast<double>(context.flat()[i]) -
                            context_exact.flat()[i]));
  }

  const auto energy =
      core::estimate_energy(hw::tech22(), overlay.nova, 16, exp_result);
  std::printf("attention %dx%d on NOVA (TPU-v4 overlay, 8 routers):\n", seq,
              seq);
  std::printf("  exp lookups: %llu in %llu accel cycles; broadcast energy "
              "%.2f nJ\n",
              static_cast<unsigned long long>(exp_result.mac_ops),
              static_cast<unsigned long long>(exp_result.accel_cycles),
              energy.total_pj() / 1e3);
  std::printf("  max |attn - exact| = %.5f, max |context - exact| = %.5f\n",
              worst, worst_ctx);

  // Whole-model view (Fig 8 machinery) for BERT-tiny on this host.
  const auto accel = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
  const auto wl = workload::model_workload(workload::bert_tiny(1024));
  const auto nova_run = accel::evaluate_inference(
      accel, wl, accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16});
  const auto lut_run = accel::evaluate_inference(
      accel, wl, accel::ApproximatorChoice{hw::UnitKind::kPerNeuronLut, 16});
  std::printf("BERT-tiny (seq 1024) on TPU-v4: runtime %.3f ms; "
              "approximator energy NOVA %.4f mJ vs per-neuron LUT %.4f mJ "
              "(%.2fx)\n",
              nova_run.runtime_ms, nova_run.approx_energy_mj,
              lut_run.approx_energy_mj,
              lut_run.approx_energy_mj / nova_run.approx_energy_mj);
  return 0;
}
