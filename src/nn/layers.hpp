// Parameterized layers: thin wrappers owning parameter Vars and providing
// forward() graph builders. Layers register their parameters with a
// ParamSet so the optimizer can iterate them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/autograd.hpp"

namespace nova::nn {

/// The collection of trainable parameters of a model.
class ParamSet {
 public:
  Var add(Tensor init) {
    params_.push_back(make_param(std::move(init)));
    return params_.back();
  }
  [[nodiscard]] const std::vector<Var>& all() const { return params_; }
  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (const auto& p : params_) n += p->value.numel();
    return n;
  }
  void zero_grads() {
    for (const auto& p : params_) {
      p->ensure_grad();
      p->grad.fill(0.0f);
    }
  }

 private:
  std::vector<Var> params_;
};

/// Fully-connected layer y = x W + b for x of shape (m, in).
class Dense {
 public:
  Dense(ParamSet& params, int in, int out, Rng& rng);
  [[nodiscard]] Var forward(const Var& x) const;

 private:
  Var w_, b_;
};

/// Standard convolution on CHW inputs.
class Conv2d {
 public:
  Conv2d(ParamSet& params, const Conv2dSpec& spec, Rng& rng);
  [[nodiscard]] Var forward(const Var& x) const;
  [[nodiscard]] const Conv2dSpec& spec() const { return spec_; }

 private:
  Conv2dSpec spec_;
  Var w_, b_;
};

/// Depthwise separable block: depthwise 3x3 + pointwise 1x1 (MobileNet v1's
/// building block).
class SeparableConv2d {
 public:
  SeparableConv2d(ParamSet& params, int channels, int out_channels,
                  Rng& rng);
  [[nodiscard]] Var forward(const Var& x) const;

 private:
  int channels_;
  Var dw_w_, dw_b_;  // depthwise 3x3
  Conv2dSpec pw_spec_;
  Var pw_w_, pw_b_;  // pointwise 1x1
};

/// Learnable layer normalization over the last dimension of (m, n) inputs.
class LayerNorm {
 public:
  LayerNorm(ParamSet& params, int dim);
  [[nodiscard]] Var forward(const Var& x) const;

 private:
  Var gain_, bias_;
};

/// Token embedding with additive learned positional embedding.
class Embedding {
 public:
  Embedding(ParamSet& params, int vocab, int dim, int max_len, Rng& rng);
  [[nodiscard]] Var forward(const std::vector<int>& ids) const;

 private:
  Var table_, positions_;
  int dim_ = 0;
};

}  // namespace nova::nn
