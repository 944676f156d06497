#include "workload/bert.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#include "pipeline/op_graph.hpp"

namespace nova::workload {

BertConfig bert_tiny(int seq_len) {
  // Turc et al. miniature BERT family: L=2, H=128, A=2, FF=512.
  return BertConfig{"BERT-tiny", 2, 128, 2, 512, seq_len, 0, 1};
}

BertConfig bert_mini(int seq_len) {
  // L=4, H=256, A=4, FF=1024.
  return BertConfig{"BERT-mini", 4, 256, 4, 1024, seq_len, 0, 1};
}

BertConfig roberta_base(int seq_len) {
  // RoBERTa-base: L=12, H=768, A=12, FF=3072.
  return BertConfig{"RoBERTa", 12, 768, 12, 3072, seq_len, 0, 1};
}

BertConfig mobilebert_base(int seq_len) {
  // MobileBERT (Sun et al.): 24 layers, 128-wide inter-block bottleneck,
  // 512-wide intra-block body, 4 heads, 4 stacked 512-wide FFNs.
  return BertConfig{"MobileBERT-base", 24, 512, 4, 512, seq_len, 128, 4};
}

BertConfig mobilebert_tiny(int seq_len) {
  // The compact MobileBERT variant: narrower 384-wide body, 96-wide
  // bottleneck, 4 heads, 2 stacked FFNs.
  return BertConfig{"MobileBERT-tiny", 24, 384, 4, 384, seq_len, 96, 2};
}

std::vector<BertConfig> paper_benchmarks(int seq_len) {
  return {mobilebert_base(seq_len), mobilebert_tiny(seq_len),
          roberta_base(seq_len), bert_tiny(seq_len), bert_mini(seq_len)};
}

namespace {

constexpr BenchmarkEntry kCatalog[] = {
    {"mobilebert-base", "mobilebert", mobilebert_base},
    {"mobilebert-tiny", nullptr, mobilebert_tiny},
    {"roberta", "roberta-base", roberta_base},
    {"bert-tiny", nullptr, bert_tiny},
    {"bert-mini", nullptr, bert_mini},
};

/// One accepted spelling and the catalog row it resolves to.
struct Spelling {
  std::string_view text;
  std::size_t row = 0;
};

constexpr std::size_t kSpellingCount = [] {
  std::size_t count = 0;
  for (const auto& entry : kCatalog) count += entry.alias == nullptr ? 1 : 2;
  return count;
}();

/// Every name and alias of the catalog in std::string order: the numbering
/// of WorkloadName.
constexpr auto kSpellings = [] {
  std::array<Spelling, kSpellingCount> spellings{};
  std::size_t next = 0;
  for (std::size_t row = 0; row < std::size(kCatalog); ++row) {
    spellings[next++] = {kCatalog[row].name, row};
    if (kCatalog[row].alias != nullptr) {
      spellings[next++] = {kCatalog[row].alias, row};
    }
  }
  std::sort(spellings.begin(), spellings.end(),
            [](const Spelling& a, const Spelling& b) {
              return a.text < b.text;
            });
  return spellings;
}();

static_assert(kSpellingCount <= 256, "WorkloadName holds one byte");

}  // namespace

std::span<const BenchmarkEntry> benchmark_catalog() { return kCatalog; }

std::optional<WorkloadName> WorkloadName::parse(std::string_view spelling) {
  static_assert(kSpellings[WorkloadName().index_].text == "bert-tiny");
  for (std::size_t i = 0; i < kSpellings.size(); ++i) {
    if (kSpellings[i].text == spelling) {
      return WorkloadName(static_cast<std::uint8_t>(i));
    }
  }
  return std::nullopt;
}

std::string_view WorkloadName::name() const { return kSpellings[index_].text; }

const BenchmarkEntry& WorkloadName::entry() const {
  return kCatalog[kSpellings[index_].row];
}

std::optional<BertConfig> by_name(const std::string& name, int seq_len) {
  const auto handle = WorkloadName::parse(name);
  if (!handle) return std::nullopt;
  return handle->entry().make(seq_len);
}

ModelWorkload model_workload(const BertConfig& config) {
  // The flat GEMM list and non-linear totals are a flattening of the
  // attention-pipeline operator graph -- one IR, three views (shapes,
  // closed-form cycles, executor timelines).
  return pipeline::flatten(pipeline::build_graph(config));
}

}  // namespace nova::workload
