// Synthetic dataset generators standing in for MNIST / CIFAR-10 / SST-2-like
// corpora in the Table I accuracy study (README, "Substitutions and
// calibration").
// Each generator is procedural and fully deterministic from its seed.
#pragma once

#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace nova::nn {

/// One labeled image in CHW layout.
struct ImageSample {
  Tensor image;
  int label = 0;
};

struct ImageDataset {
  std::string name;
  std::vector<ImageSample> train;
  std::vector<ImageSample> test;
  int channels = 1;
  int height = 0;
  int width = 0;
  int classes = 0;
};

/// One labeled token sequence.
struct SeqSample {
  std::vector<int> tokens;
  int label = 0;
};

struct SeqDataset {
  std::string name;
  std::vector<SeqSample> train;
  std::vector<SeqSample> test;
  int vocab = 0;
  int max_len = 0;
  int classes = 0;
};

/// MNIST stand-in: 10 digit-like stroke prototypes rendered on a 12x12
/// canvas with per-sample jitter (translation, pixel noise, stroke dropout).
[[nodiscard]] ImageDataset make_synthetic_digits(int n_train, int n_test,
                                                 std::uint64_t seed);

/// CIFAR-10 stand-in: 3-channel 12x12 oriented-grating textures; each class
/// is an (orientation, frequency, color-bias) combination plus noise.
[[nodiscard]] ImageDataset make_texture_patches(int n_train, int n_test,
                                                int classes,
                                                std::uint64_t seed);

/// SST-2 stand-in: token sequences with positive/negative sentiment words,
/// neutral filler, and a negation token that flips the polarity of the
/// following word -- classification needs context, which exercises the
/// attention mechanism. Label = sign of net sentiment.
[[nodiscard]] SeqDataset make_token_sequences(int n_train, int n_test,
                                              int seq_len,
                                              std::uint64_t seed);

}  // namespace nova::nn
