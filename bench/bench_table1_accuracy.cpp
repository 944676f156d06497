// Reproduces Table I: "Post approximation accuracy comparison" -- models
// trained from scratch with exact non-linearities, then evaluated with the
// exact softmax vs the MLP-learned PWL softmax (16 breakpoints; the
// CIFAR-10 stand-in rows use 8, as in the paper), without retraining.
//
// Substitution (README, "Substitutions and calibration"): MNIST/CIFAR-10/
// SQuAD/SST-2 are replaced by procedural synthetic datasets of the same
// modality; the claim under test -- approximation costs ~no accuracy -- is a
// property of the approximator on the trained model's logit/attention
// distributions, which this preserves.
#include <cstdio>
#include <memory>

#include "common/table.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace nova;
using namespace nova::nn;

struct Row {
  std::string model;
  std::string paper_exact;
  std::string paper_approx;
  double exact_acc = 0.0;
  double approx_acc = 0.0;
};

Row run_image_row(const std::string& name, const std::string& paper_exact,
                  const std::string& paper_approx,
                  std::unique_ptr<ImageModel> model, const ImageDataset& ds,
                  const TrainOptions& opt, int breakpoints) {
  train_image_model(*model, ds.train, opt);
  Row row;
  row.model = name;
  row.paper_exact = paper_exact;
  row.paper_approx = paper_approx;
  row.exact_acc = eval_image_accuracy(*model, ds.test, Nonlinearity::exact());
  row.approx_acc =
      eval_image_accuracy(*model, ds.test, Nonlinearity::pwl(breakpoints));
  return row;
}

}  // namespace

int main() {
  std::puts("Table I reproduction: accuracy with exact vs approximated "
            "softmax (no retraining)");
  std::puts("Datasets are procedural stand-ins (README, \"Substitutions "
            "and calibration\"); paper columns quoted for shape "
            "comparison.\n");

  TrainOptions opt;
  opt.epochs = 8;
  opt.batch = 8;
  opt.learning_rate = 3e-3;

  std::vector<Row> rows;

  {
    Rng rng(101);
    const auto ds = make_synthetic_digits(1500, 300, 11);
    rows.push_back(run_image_row("MLP (digits ~ MNIST)", "97.31", "97.31",
                                 make_mlp_model(1, 12, 12, 10, rng), ds, opt,
                                 16));
  }
  {
    Rng rng(102);
    const auto ds = make_texture_patches(1200, 300, 10, 13);
    rows.push_back(run_image_row("CNN (textures ~ CIFAR-10)", "63.44",
                                 "63.44", make_cnn_model(3, 12, 12, 10, rng),
                                 ds, opt, 8));
  }
  {
    Rng rng(103);
    const auto ds = make_texture_patches(1200, 300, 10, 17);
    rows.push_back(run_image_row(
        "MobileNet-style (textures ~ CIFAR-10)", "68.56", "68.56",
        make_mobilenet_style_model(3, 12, 12, 10, rng), ds, opt, 8));
  }
  {
    Rng rng(104);
    const auto ds = make_texture_patches(1200, 300, 10, 19);
    rows.push_back(run_image_row("VGG-style (textures ~ CIFAR-10)", "88.30",
                                 "88.30",
                                 make_vgg_style_model(3, 12, 12, 10, rng),
                                 ds, opt, 8));
  }

  // Attention rows: encoder classifiers where PWL approximation also runs
  // inside every attention softmax and FFN GeLU.
  auto run_seq_row = [&](const std::string& name,
                         const std::string& paper_exact,
                         const std::string& paper_approx,
                         const nn::TransformerConfig& cfg,
                         std::uint64_t seed) {
    Rng rng(seed);
    const auto ds = make_token_sequences(1200, 300, cfg.max_len, seed + 1);
    nn::TransformerConfig full = cfg;
    full.vocab = ds.vocab;
    TransformerClassifier model(full, rng);
    TrainOptions seq_opt = opt;
    seq_opt.epochs = 10;
    train_seq_model(model, ds.train, seq_opt);
    Row row;
    row.model = name;
    row.paper_exact = paper_exact;
    row.paper_approx = paper_approx;
    row.exact_acc = eval_seq_accuracy(model, ds.test, Nonlinearity::exact());
    row.approx_acc = eval_seq_accuracy(model, ds.test, Nonlinearity::pwl(16));
    rows.push_back(row);
  };

  {
    nn::TransformerConfig cfg;
    cfg.max_len = 16;
    cfg.dim = 32;
    cfg.heads = 4;
    cfg.ffn_dim = 64;
    cfg.layers = 2;
    cfg.classes = 2;
    run_seq_row("Transformer-2L (seq ~ MobileBERT/SQuAD)", "89.30", "89.30",
                cfg, 105);
  }
  {
    nn::TransformerConfig cfg;
    cfg.max_len = 16;
    cfg.dim = 48;
    cfg.heads = 4;
    cfg.ffn_dim = 96;
    cfg.layers = 3;
    cfg.classes = 2;
    run_seq_row("Transformer-3L (seq ~ RoBERTa/SST-2)", "94.60", "94.40",
                cfg, 106);
  }

  Table table("Table I: post-approximation accuracy (%)");
  table.set_header({"model", "paper exact", "paper approx", "ours exact",
                    "ours approx", "delta"});
  for (const auto& row : rows) {
    table.add_row({row.model, row.paper_exact, row.paper_approx,
                   Table::num(row.exact_acc, 2), Table::num(row.approx_acc, 2),
                   Table::num(row.approx_acc - row.exact_acc, 2)});
  }
  table.print();

  std::puts("\nShape check: approximation deltas should be ~0 (paper: 0.0 "
            "everywhere except RoBERTa's -0.2).");
  return 0;
}
