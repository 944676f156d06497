// Dense row-major float tensor: the storage type of the minimal NN engine
// used for the paper's Table I accuracy study (training small models from
// scratch and swapping exact softmax/GeLU for the PWL-approximated ones).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace nova::nn {

/// Row-major dense tensor of floats. Rank <= 4 in practice. Shapes are
/// immutable after construction (use reshape() for a view-copy).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape);
  Tensor(std::vector<int> shape, std::vector<float> data);

  [[nodiscard]] static Tensor zeros(std::vector<int> shape);
  /// He/Glorot-style gaussian init with the given standard deviation.
  [[nodiscard]] static Tensor randn(std::vector<int> shape, Rng& rng,
                                    double stddev);

  [[nodiscard]] const std::vector<int>& shape() const { return shape_; }
  [[nodiscard]] int dim(int i) const;
  [[nodiscard]] int rank() const { return static_cast<int>(shape_.size()); }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }

  [[nodiscard]] std::span<float> flat() { return data_; }
  [[nodiscard]] std::span<const float> flat() const { return data_; }

  /// 2-D accessors (checked).
  [[nodiscard]] float& at(int r, int c);
  [[nodiscard]] float at(int r, int c) const;

  /// Returns a copy with a new shape of identical numel.
  [[nodiscard]] Tensor reshaped(std::vector<int> shape) const;

  void fill(float v);

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

/// C = A(m,k) * B(k,n), allocating the result.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T * B where A is (k,m): avoids materializing the transpose.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A * B^T where B is (n,k).
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// 2-D transpose copy.
[[nodiscard]] Tensor transpose2d(const Tensor& a);

}  // namespace nova::nn
