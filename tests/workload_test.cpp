// Tests for the transformer workload models: configuration sanity, GEMM
// shape accounting, and non-linear operation counting.
#include <gtest/gtest.h>

#include <compare>
#include <string>
#include <type_traits>
#include <vector>

#include "workload/bert.hpp"

namespace nova::workload {
namespace {

TEST(Bert, PaperBenchmarkZooHasFiveModels) {
  const auto zoo = paper_benchmarks(1024);
  ASSERT_EQ(zoo.size(), 5u);
  EXPECT_EQ(zoo[0].name, "MobileBERT-base");
  EXPECT_EQ(zoo[4].name, "BERT-mini");
  for (const auto& cfg : zoo) EXPECT_EQ(cfg.seq_len, 1024);
}

TEST(Bert, ConfigsMatchPublishedShapes) {
  const auto tiny = bert_tiny(128);
  EXPECT_EQ(tiny.layers, 2);
  EXPECT_EQ(tiny.hidden, 128);
  EXPECT_EQ(tiny.heads, 2);
  EXPECT_EQ(tiny.ffn, 512);
  const auto roberta = roberta_base(128);
  EXPECT_EQ(roberta.layers, 12);
  EXPECT_EQ(roberta.hidden, 768);
  EXPECT_EQ(roberta.heads, 12);
  EXPECT_EQ(roberta.ffn, 3072);
  const auto mb = mobilebert_base(128);
  EXPECT_EQ(mb.layers, 24);
  EXPECT_GT(mb.bottleneck, 0);
  EXPECT_EQ(mb.ffn_stacks, 4);
}

TEST(Workload, BertTinyMacCountIsExact) {
  // Hand count for L=2, H=128, A=2, FF=512, S=16:
  //  qkv: 3*2 * 16*128*128 = 1,572,864
  //  proj: 2 * 16*128*128 = 524,288
  //  scores: 2*2 * 16*64*16 = 65,536
  //  context: 2*2 * 16*16*64 = 65,536
  //  ffn: 2 * (16*128*512 + 16*512*128) = 4,194,304
  const auto wl = model_workload(bert_tiny(16));
  EXPECT_EQ(wl.total_macs(), 1572864 + 524288 + 65536 + 65536 + 4194304);
}

TEST(Workload, SoftmaxRowAccountingFollowsHeadsAndLayers) {
  const auto wl = model_workload(bert_mini(64));
  // layers * heads * seq rows of length seq.
  EXPECT_EQ(wl.nonlinear.softmax_rows, 4 * 4 * 64);
  EXPECT_EQ(wl.nonlinear.softmax_row_len, 64);
}

TEST(Workload, GeluCountsScaleWithFfnStacks) {
  const auto base = model_workload(mobilebert_base(32));
  // 24 layers * 4 stacks * 32 * 512.
  EXPECT_EQ(base.nonlinear.gelu_elements, 24L * 4 * 32 * 512);
}

TEST(Workload, ApproxOpsFormula) {
  NonLinearProfile profile;
  profile.softmax_rows = 10;
  profile.softmax_row_len = 7;
  profile.gelu_elements = 100;
  profile.layernorm_rsqrt_ops = 5;
  // 10 * (2*7 + 1) + 100 + 5.
  EXPECT_EQ(profile.total_approx_ops(), 255);
}

TEST(Workload, MobileBertHasBottleneckGemms) {
  const auto wl = model_workload(mobilebert_base(128));
  bool found_in = false, found_out = false;
  for (const auto& g : wl.gemms) {
    if (g.label == "bottleneck-in") found_in = true;
    if (g.label == "bottleneck-out") found_out = true;
  }
  EXPECT_TRUE(found_in);
  EXPECT_TRUE(found_out);
  const auto std_wl = model_workload(bert_tiny(128));
  for (const auto& g : std_wl.gemms) {
    EXPECT_NE(g.label, "bottleneck-in");
  }
}

TEST(Workload, LongerSequencesGrowSoftmaxQuadratically) {
  const auto short_wl = model_workload(bert_tiny(128));
  const auto long_wl = model_workload(bert_tiny(256));
  const auto softmax_ops = [](const ModelWorkload& wl) {
    return wl.nonlinear.softmax_rows * (2 * wl.nonlinear.softmax_row_len + 1);
  };
  const double ratio = static_cast<double>(softmax_ops(long_wl)) /
                       static_cast<double>(softmax_ops(short_wl));
  EXPECT_NEAR(ratio, 4.0, 0.1);
}

TEST(Workload, RobertaDominatesBertTinyInMacs) {
  EXPECT_GT(model_workload(roberta_base(1024)).total_macs(),
            20 * model_workload(bert_tiny(1024)).total_macs());
}

TEST(Bert, ByNameResolvesEveryCatalogEntryAndAlias) {
  for (const auto& entry : benchmark_catalog()) {
    const auto config = by_name(entry.name, 64);
    ASSERT_TRUE(config.has_value()) << entry.name;
    EXPECT_EQ(config->seq_len, 64);
    EXPECT_EQ(config->name, entry.make(64).name);
    if (entry.alias != nullptr) {
      const auto aliased = by_name(entry.alias, 64);
      ASSERT_TRUE(aliased.has_value()) << entry.alias;
      EXPECT_EQ(aliased->name, config->name);
    }
  }
  EXPECT_FALSE(by_name("no-such-model", 64).has_value());
  EXPECT_FALSE(by_name("", 64).has_value());
}

/// Every name and alias of the catalog.
std::vector<std::string> catalog_spellings() {
  std::vector<std::string> spellings;
  for (const auto& entry : benchmark_catalog()) {
    spellings.emplace_back(entry.name);
    if (entry.alias != nullptr) spellings.emplace_back(entry.alias);
  }
  return spellings;
}

TEST(WorkloadName, EverySpellingRoundTrips) {
  const auto spellings = catalog_spellings();
  ASSERT_EQ(spellings.size(), 7u);  // five names, two aliases
  for (const auto& entry : benchmark_catalog()) {
    for (const char* spelling : {entry.name, entry.alias}) {
      if (spelling == nullptr) continue;
      const auto handle = WorkloadName::parse(spelling);
      ASSERT_TRUE(handle.has_value()) << spelling;
      EXPECT_EQ(handle->name(), spelling);
      // An alias resolves to its canonical row.
      EXPECT_STREQ(handle->entry().name, entry.name) << spelling;
      EXPECT_EQ(handle->entry().make(64), entry.make(64)) << spelling;
    }
  }
  for (const char* unknown :
       {"", "bert", "BERT-tiny", "bert-large", "bert-tiny ", "roberta-"}) {
    EXPECT_FALSE(WorkloadName::parse(unknown).has_value()) << unknown;
  }
}

TEST(WorkloadName, OrdersLikeItsSpelling) {
  const auto spellings = catalog_spellings();
  int pairs = 0;
  for (const auto& a : spellings) {
    for (const auto& b : spellings) {
      const auto ha = WorkloadName::parse(a).value();
      const auto hb = WorkloadName::parse(b).value();
      EXPECT_EQ(ha <=> hb, a <=> b) << a << " vs " << b;
      EXPECT_EQ(ha == hb, a == b) << a << " vs " << b;
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 49);
}

TEST(WorkloadName, DefaultsToBertTinyInOneByte) {
  EXPECT_EQ(WorkloadName().name(), "bert-tiny");
  EXPECT_EQ(WorkloadName(), WorkloadName::parse("bert-tiny").value());
  EXPECT_EQ(sizeof(WorkloadName), 1u);
  EXPECT_TRUE(std::is_trivially_copyable_v<WorkloadName>);
}

}  // namespace
}  // namespace nova::workload
