// Shape-level transformer workload models: the five attention benchmarks of
// the paper's energy evaluation (Section V.F) -- MobileBERT-base,
// MobileBERT-tiny, RoBERTa, BERT-tiny, BERT-mini -- expressed as the GEMMs
// and non-linear operations of their encoder stacks. Energy/runtime depend
// only on these shapes, not on weights.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nova::workload {

/// Transformer encoder configuration. `bottleneck > 0` selects the
/// MobileBERT-style block: input/output bottleneck projections around the
/// attention body and `ffn_stacks` stacked feed-forward networks.
struct BertConfig {
  std::string name;
  int layers = 2;
  int hidden = 128;      ///< width of the attention body (intra-block size)
  int heads = 2;
  int ffn = 512;         ///< feed-forward inner width
  int seq_len = 128;
  int bottleneck = 0;    ///< MobileBERT inter-block width (0 = standard)
  int ffn_stacks = 1;    ///< MobileBERT stacked FFNs per layer

  /// Memberwise equality, so pipeline::OpGraph (which embeds its config)
  /// can compare rewritten graphs against originals.
  [[nodiscard]] bool operator==(const BertConfig&) const = default;
};

/// Table II / Section V.F model zoo (shapes follow the cited papers; the
/// two MobileBERT variants use the published bottleneck architecture).
[[nodiscard]] BertConfig bert_tiny(int seq_len);
[[nodiscard]] BertConfig bert_mini(int seq_len);
[[nodiscard]] BertConfig roberta_base(int seq_len);
[[nodiscard]] BertConfig mobilebert_base(int seq_len);
[[nodiscard]] BertConfig mobilebert_tiny(int seq_len);
/// All five, in the paper's Fig 8 order.
[[nodiscard]] std::vector<BertConfig> paper_benchmarks(int seq_len);

/// One row of the benchmark catalog: the canonical resolver name, an
/// optional accepted alias (nullptr when none), and the config factory.
/// by_name and the CLI's --list both read this table, so the printed
/// catalog can never drift from what actually resolves.
struct BenchmarkEntry {
  const char* name;
  const char* alias;
  BertConfig (*make)(int seq_len);
};

/// The resolvable model zoo, in the paper's Fig 8 order.
[[nodiscard]] std::span<const BenchmarkEntry> benchmark_catalog();

/// A workload name as a 1-byte handle into the catalog's seven accepted
/// spellings: the five canonical names and the two aliases. Spellings are
/// numbered in std::string order, so handles compare exactly as their
/// spellings do. An alias keeps its own spelling; it builds the same model
/// as its canonical name. parse() is the only way to a handle other than
/// the default, so every handle names a model that resolves.
class WorkloadName {
 public:
  /// "bert-tiny".
  constexpr WorkloadName() = default;

  /// The handle of `spelling`; nullopt when the catalog accepts no such
  /// name.
  [[nodiscard]] static std::optional<WorkloadName> parse(
      std::string_view spelling);

  /// The spelling this handle was parsed from.
  [[nodiscard]] std::string_view name() const;

  /// The catalog row the spelling resolves to.
  [[nodiscard]] const BenchmarkEntry& entry() const;

  friend constexpr auto operator<=>(WorkloadName, WorkloadName) = default;

 private:
  friend struct std::hash<WorkloadName>;

  explicit constexpr WorkloadName(std::uint8_t index) : index_(index) {}

  /// Position of the spelling in std::string order; 1 is "bert-tiny".
  std::uint8_t index_ = 1;
};

/// Resolves a benchmark by its canonical name (e.g. "bert-tiny",
/// "mobilebert-base"; "roberta" and "mobilebert" aliases accepted).
/// Returns nullopt when `name` matches no benchmark.
[[nodiscard]] std::optional<BertConfig> by_name(const std::string& name,
                                                int seq_len);

/// One GEMM: (m x k) * (k x n), executed `count` times per model inference.
struct GemmShape {
  std::string label;
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::int64_t count = 1;

  [[nodiscard]] std::int64_t macs() const { return m * k * n * count; }
};

/// Non-linear operation totals for one inference, in *approximator element
/// operations* (each is one lookup + one MAC on the vector unit; a softmax
/// over n elements costs 2n+1 of them: n exp, 1 reciprocal, n scale).
struct NonLinearProfile {
  std::int64_t softmax_rows = 0;
  std::int64_t softmax_row_len = 0;
  std::int64_t gelu_elements = 0;
  std::int64_t layernorm_rsqrt_ops = 0;

  /// Total element operations the vector unit must execute.
  [[nodiscard]] std::int64_t total_approx_ops() const {
    return softmax_rows * (2 * softmax_row_len + 1) + gelu_elements +
           layernorm_rsqrt_ops;
  }
};

/// The full per-inference workload of a model.
struct ModelWorkload {
  BertConfig config;
  std::vector<GemmShape> gemms;  ///< with per-inference counts
  NonLinearProfile nonlinear;

  [[nodiscard]] std::int64_t total_macs() const {
    std::int64_t total = 0;
    for (const auto& g : gemms) total += g.macs();
    return total;
  }
};

/// Expands a config into its encoder-stack GEMMs and non-linear totals.
///
/// This is a thin flattened view over the attention-pipeline operator
/// graph: model_workload(cfg) == pipeline::flatten(pipeline::build_graph(
/// cfg)), so the flat shape lists, the closed-form cycle model, and the
/// PipelineExecutor timelines all derive from one IR and stay consistent
/// by construction.
[[nodiscard]] ModelWorkload model_workload(const BertConfig& config);

}  // namespace nova::workload

/// Hashes the 1-byte handle itself: distinct spellings hash apart, an alias
/// from its canonical name too, so unordered containers can key on it.
template <>
struct std::hash<nova::workload::WorkloadName> {
  std::size_t operator()(nova::workload::WorkloadName name) const noexcept {
    return name.index_;
  }
};
