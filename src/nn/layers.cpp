#include "nn/layers.hpp"

#include <cmath>

namespace nova::nn {

Dense::Dense(ParamSet& params, int in, int out, Rng& rng) {
  // He-style scaling keeps activations in range for ReLU/GeLU stacks.
  const double stddev = std::sqrt(2.0 / in);
  w_ = params.add(Tensor::randn({in, out}, rng, stddev));
  b_ = params.add(Tensor::zeros({out}));
}

Var Dense::forward(const Var& x) const {
  return add_rowvec_op(matmul_op(x, w_), b_);
}

Conv2d::Conv2d(ParamSet& params, const Conv2dSpec& spec, Rng& rng)
    : spec_(spec) {
  const int fan_in = spec.in_channels * spec.kernel * spec.kernel;
  const double stddev = std::sqrt(2.0 / fan_in);
  w_ = params.add(Tensor::randn({spec.out_channels, fan_in}, rng, stddev));
  b_ = params.add(Tensor::zeros({spec.out_channels}));
}

Var Conv2d::forward(const Var& x) const {
  return conv2d_op(x, w_, b_, spec_);
}

SeparableConv2d::SeparableConv2d(ParamSet& params, int channels,
                                 int out_channels, Rng& rng)
    : channels_(channels) {
  const double dw_std = std::sqrt(2.0 / 9.0);
  dw_w_ = params.add(Tensor::randn({channels, 9}, rng, dw_std));
  dw_b_ = params.add(Tensor::zeros({channels}));
  pw_spec_ = Conv2dSpec{channels, out_channels, /*kernel=*/1, /*stride=*/1,
                        /*pad=*/0};
  const double pw_std = std::sqrt(2.0 / channels);
  pw_w_ = params.add(Tensor::randn({out_channels, channels}, rng, pw_std));
  pw_b_ = params.add(Tensor::zeros({out_channels}));
}

Var SeparableConv2d::forward(const Var& x) const {
  const Var dw = relu_op(
      depthwise_conv2d_op(x, dw_w_, dw_b_, /*kernel=*/3, /*stride=*/1,
                          /*pad=*/1));
  return conv2d_op(dw, pw_w_, pw_b_, pw_spec_);
}

LayerNorm::LayerNorm(ParamSet& params, int dim) {
  Tensor ones({dim});
  ones.fill(1.0f);
  gain_ = params.add(std::move(ones));
  bias_ = params.add(Tensor::zeros({dim}));
}

Var LayerNorm::forward(const Var& x) const {
  return layernorm_rows_op(x, gain_, bias_);
}

Embedding::Embedding(ParamSet& params, int vocab, int dim, int max_len,
                     Rng& rng)
    : dim_(dim) {
  table_ = params.add(Tensor::randn({vocab, dim}, rng, 0.5));
  positions_ = params.add(Tensor::randn({max_len, dim}, rng, 0.1));
}

Var Embedding::forward(const std::vector<int>& ids) const {
  const int s = static_cast<int>(ids.size());
  const Var tok = embedding_op(table_, ids);
  // Positional rows 0..s-1 added via slice of the positional table.
  std::vector<int> pos(ids.size());
  for (int i = 0; i < s; ++i) pos[static_cast<std::size_t>(i)] = i;
  const Var pe = embedding_op(positions_, std::move(pos));
  return add_op(tok, pe);
}

}  // namespace nova::nn
