#include "nn/tensor.hpp"

#include <numeric>

namespace nova::nn {

namespace {

std::size_t shape_numel(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (const int d : shape) {
    NOVA_EXPECTS(d > 0);
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(std::vector<int> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  NOVA_EXPECTS(data_.size() == shape_numel(shape_));
}

Tensor Tensor::zeros(std::vector<int> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::randn(std::vector<int> shape, Rng& rng, double stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

int Tensor::dim(int i) const {
  NOVA_EXPECTS(i >= 0 && i < rank());
  return shape_[static_cast<std::size_t>(i)];
}

float& Tensor::at(int r, int c) {
  NOVA_EXPECTS(rank() == 2);
  NOVA_EXPECTS(r >= 0 && r < dim(0) && c >= 0 && c < dim(1));
  return data_[static_cast<std::size_t>(r) * dim(1) + c];
}

float Tensor::at(int r, int c) const {
  NOVA_EXPECTS(rank() == 2);
  NOVA_EXPECTS(r >= 0 && r < dim(0) && c >= 0 && c < dim(1));
  return data_[static_cast<std::size_t>(r) * dim(1) + c];
}

Tensor Tensor::reshaped(std::vector<int> shape) const {
  NOVA_EXPECTS(shape_numel(shape) == numel());
  return Tensor(std::move(shape), data_);
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  NOVA_EXPECTS(a.rank() == 2 && b.rank() == 2);
  NOVA_EXPECTS(a.dim(1) == b.dim(0));
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const auto* pa = a.flat().data();
  const auto* pb = b.flat().data();
  auto* pc = c.flat().data();
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float av = pa[static_cast<std::size_t>(i) * k + p];
      if (av == 0.0f) continue;
      const auto* brow = pb + static_cast<std::size_t>(p) * n;
      auto* crow = pc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  NOVA_EXPECTS(a.rank() == 2 && b.rank() == 2);
  NOVA_EXPECTS(a.dim(0) == b.dim(0));
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const auto* pa = a.flat().data();
  const auto* pb = b.flat().data();
  auto* pc = c.flat().data();
  for (int p = 0; p < k; ++p) {
    const auto* arow = pa + static_cast<std::size_t>(p) * m;
    const auto* brow = pb + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      auto* crow = pc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  NOVA_EXPECTS(a.rank() == 2 && b.rank() == 2);
  NOVA_EXPECTS(a.dim(1) == b.dim(1));
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  const auto* pa = a.flat().data();
  const auto* pb = b.flat().data();
  auto* pc = c.flat().data();
  for (int i = 0; i < m; ++i) {
    const auto* arow = pa + static_cast<std::size_t>(i) * k;
    auto* crow = pc + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const auto* brow = pb + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
  return c;
}

Tensor transpose2d(const Tensor& a) {
  NOVA_EXPECTS(a.rank() == 2);
  const int m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

}  // namespace nova::nn
