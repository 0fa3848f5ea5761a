// Integration tests: full pipeline from generated relations through
// bucketing to mined rules.

#include <algorithm>

#include <gtest/gtest.h>

#include "bucketing/error_bounds.h"
#include "datagen/bank.h"
#include "datagen/correlation.h"
#include "datagen/retail.h"
#include "datagen/table_generator.h"
#include "reference/miner.h"
#include "rules/miner.h"

namespace optrules::rules {
namespace {

storage::Relation PlantedRelation(int64_t rows, uint64_t seed) {
  datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = 2;
  config.num_boolean = 2;
  datagen::PlantedRule rule;
  rule.numeric_attr = 0;
  rule.boolean_attr = 0;
  rule.lo = 300000.0;
  rule.hi = 500000.0;  // 20% of Uniform(0, 1e6)
  rule.prob_inside = 0.8;
  rule.prob_outside = 0.1;
  config.planted_rules.push_back(rule);
  Rng rng(seed);
  return datagen::GenerateTable(config, rng);
}

TEST(MinerTest, RecoversPlantedOptimizedConfidenceRule) {
  const storage::Relation relation = PlantedRelation(60000, 1);
  MinerOptions options;
  options.num_buckets = 200;
  options.min_support = 0.10;
  options.min_confidence = 0.5;
  Miner miner(&relation, options);
  Result<std::vector<MinedRule>> rules = miner.MinePair("num0", "bool0");
  ASSERT_TRUE(rules.ok());
  const MinedRule& confidence_rule = rules.value()[0];
  ASSERT_TRUE(confidence_rule.found);
  EXPECT_EQ(confidence_rule.kind, RuleKind::kOptimizedConfidence);
  // The mined range should sit inside the planted band (within bucket
  // granularity) and have confidence near 0.8.
  EXPECT_GT(confidence_rule.confidence, 0.7);
  EXPECT_GE(confidence_rule.range_lo, 300000.0 - 30000.0);
  EXPECT_LE(confidence_rule.range_hi, 500000.0 + 30000.0);
  EXPECT_GE(confidence_rule.support, 0.10);
}

TEST(MinerTest, RecoversPlantedOptimizedSupportRule) {
  const storage::Relation relation = PlantedRelation(60000, 2);
  MinerOptions options;
  options.num_buckets = 200;
  options.min_support = 0.05;
  options.min_confidence = 0.6;
  Miner miner(&relation, options);
  Result<std::vector<MinedRule>> rules = miner.MinePair("num0", "bool0");
  ASSERT_TRUE(rules.ok());
  const MinedRule& support_rule = rules.value()[1];
  ASSERT_TRUE(support_rule.found);
  EXPECT_EQ(support_rule.kind, RuleKind::kOptimizedSupport);
  EXPECT_GE(support_rule.confidence, 0.6);
  // Should capture roughly the planted band's support (20%).
  EXPECT_GT(support_rule.support, 0.12);
  EXPECT_LT(support_rule.support, 0.30);
}

TEST(MinerTest, ApproximationWithinErrorBounds) {
  // Compare the bucketized optimum against the finest-grained optimum and
  // check the Section 3.4 error band (with sampling slack).
  const storage::Relation relation = PlantedRelation(40000, 3);
  // "Exact": mine with one bucket per distinct-ish value.
  MinerOptions fine;
  fine.num_buckets = 5000;
  fine.min_support = 0.10;
  Miner fine_miner(&relation, fine);
  const MinedRule fine_rule =
      fine_miner.MinePair("num0", "bool0").value()[0];
  ASSERT_TRUE(fine_rule.found);

  MinerOptions coarse;
  coarse.num_buckets = 100;
  coarse.min_support = 0.10;
  Miner coarse_miner(&relation, coarse);
  const MinedRule coarse_rule =
      coarse_miner.MinePair("num0", "bool0").value()[0];
  ASSERT_TRUE(coarse_rule.found);

  const bucketing::ApproxErrorBounds bounds =
      bucketing::BucketApproximationBounds(fine_rule.support,
                                           fine_rule.confidence, 100);
  // Allow sampling-induced slack of one extra bucket on each side.
  const double slack = 2.0 / 100.0;
  EXPECT_GE(coarse_rule.confidence, bounds.confidence_lo - slack);
  EXPECT_GE(coarse_rule.support, bounds.support_lo - slack);
}

TEST(MinerTest, MineAllCoversEveryPair) {
  const storage::Relation relation = PlantedRelation(5000, 4);
  MinerOptions options;
  options.num_buckets = 50;
  Miner miner(&relation, options);
  const std::vector<MinedRule> all = miner.MineAll();
  // 2 numeric x 2 boolean x 2 kinds.
  EXPECT_EQ(all.size(), 8u);
  for (const MinedRule& rule : all) {
    EXPECT_FALSE(rule.numeric_attr.empty());
    EXPECT_FALSE(rule.boolean_attr.empty());
  }
}

TEST(MinerTest, UnknownAttributesAreNotFoundErrors) {
  const storage::Relation relation = PlantedRelation(100, 5);
  Miner miner(&relation, MinerOptions{});
  EXPECT_EQ(miner.MinePair("nope", "bool0").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(miner.MinePair("num0", "nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      miner.MineGeneralized("num0", {"nope"}, "bool0").status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(
      miner.MineMaximumAverageRange("num0", "nope", 0.1).status().code(),
      StatusCode::kNotFound);
}

TEST(MinerTest, DeterministicForSameSeed) {
  const storage::Relation relation = PlantedRelation(20000, 6);
  MinerOptions options;
  options.num_buckets = 100;
  options.seed = 777;
  Miner a(&relation, options);
  Miner b(&relation, options);
  const MinedRule rule_a = a.MinePair("num0", "bool0").value()[0];
  const MinedRule rule_b = b.MinePair("num0", "bool0").value()[0];
  EXPECT_EQ(rule_a.range_lo, rule_b.range_lo);
  EXPECT_EQ(rule_a.range_hi, rule_b.range_hi);
  EXPECT_EQ(rule_a.support_count, rule_b.support_count);
}

TEST(MinerTest, GeneralizedRuleRestrictsToCondition) {
  // Retail: (TotalSpend in I) ^ (Pizza ^ Coke) => Potato has much higher
  // confidence than without the condition.
  datagen::RetailConfig config;
  config.num_transactions = 60000;
  Rng rng(7);
  const storage::Relation retail = datagen::GenerateRetail(config, rng);
  MinerOptions options;
  options.num_buckets = 100;
  options.min_support = 0.01;
  options.min_confidence = 0.4;
  Miner miner(&retail, options);

  Result<std::vector<MinedRule>> generalized =
      miner.MineGeneralized("TotalSpend", {"Pizza", "Coke"}, "Potato");
  ASSERT_TRUE(generalized.ok());
  const MinedRule& conf_rule = generalized.value()[0];
  ASSERT_TRUE(conf_rule.found);
  EXPECT_EQ(conf_rule.presumptive_condition, "Pizza=yes ^ Coke=yes");
  EXPECT_GT(conf_rule.confidence, 0.45);

  Result<std::vector<MinedRule>> plain =
      miner.MinePair("TotalSpend", "Potato");
  ASSERT_TRUE(plain.ok());
  // Unconditioned support rule at the same confidence threshold finds
  // nothing or something with far less confidence at ample support.
  const MinedRule& plain_conf = plain.value()[0];
  if (plain_conf.found) {
    EXPECT_LT(plain_conf.confidence, conf_rule.confidence);
  }
}

TEST(MinerTest, GeneralizedRuleWithEmptyConditionMatchesPlain) {
  const storage::Relation relation = PlantedRelation(20000, 8);
  MinerOptions options;
  options.num_buckets = 100;
  Miner miner(&relation, options);
  const MinedRule plain = miner.MinePair("num0", "bool0").value()[0];
  const MinedRule general =
      miner.MineGeneralized("num0", {}, "bool0").value()[0];
  ASSERT_EQ(plain.found, general.found);
  // Same optimum statistics (bucket boundaries may differ slightly due to
  // independent sampling, so compare loosely).
  EXPECT_NEAR(plain.confidence, general.confidence, 0.05);
  EXPECT_NEAR(plain.support, general.support, 0.05);
}

TEST(MinerTest, BankAverageRangesFindRichBand) {
  datagen::BankConfig config;
  config.num_customers = 60000;
  Rng rng(9);
  const storage::Relation bank = datagen::GenerateBankCustomers(config, rng);
  MinerOptions options;
  options.num_buckets = 200;
  Miner miner(&bank, options);

  // Section 5, Example 5.2: max-average range of SavingAccount over
  // CheckingAccount with at least 10% support.
  Result<MinedAggregateRange> avg_range =
      miner.MineMaximumAverageRange("CheckingAccount", "SavingAccount", 0.1);
  ASSERT_TRUE(avg_range.ok());
  ASSERT_TRUE(avg_range.value().found);
  EXPECT_GE(avg_range.value().support, 0.1);
  // The rich checking band is [1000, 3000]; the mined range must overlap.
  EXPECT_LT(avg_range.value().range_lo, config.rich_checking_hi);
  EXPECT_GT(avg_range.value().range_hi, config.rich_checking_lo);
  EXPECT_GT(avg_range.value().average, config.base_saving_mean);

  // Example 5.3: max-support range with a high average threshold.
  Result<MinedAggregateRange> support_range = miner.MineMaximumSupportRange(
      "CheckingAccount", "SavingAccount", config.base_saving_mean * 1.2);
  ASSERT_TRUE(support_range.ok());
  ASSERT_TRUE(support_range.value().found);
  EXPECT_GE(support_range.value().average, config.base_saving_mean * 1.2);
}

class MinerBucketizerTest : public testing::TestWithParam<Bucketizer> {};

TEST_P(MinerBucketizerTest, AllStrategiesRecoverThePlantedRule) {
  const storage::Relation relation = PlantedRelation(40000, 77);
  MinerOptions options;
  options.num_buckets = 200;
  options.min_support = 0.10;
  options.bucketizer = GetParam();
  Miner miner(&relation, options);
  const MinedRule rule = miner.MinePair("num0", "bool0").value()[0];
  ASSERT_TRUE(rule.found);
  EXPECT_GT(rule.confidence, 0.7);
  EXPECT_GE(rule.range_lo, 300000.0 - 30000.0);
  EXPECT_LE(rule.range_hi, 500000.0 + 30000.0);
}

INSTANTIATE_TEST_SUITE_P(Strategies, MinerBucketizerTest,
                         testing::Values(Bucketizer::kSampling,
                                         Bucketizer::kGkSketch,
                                         Bucketizer::kExactSort));

TEST(MinerTest, ExactSortAndGkAreDeterministicAcrossSeeds) {
  // Unlike sampling, the exact and sketch bucketizers must ignore the
  // seed entirely.
  const storage::Relation relation = PlantedRelation(20000, 78);
  for (const Bucketizer bucketizer :
       {Bucketizer::kExactSort, Bucketizer::kGkSketch}) {
    MinerOptions options;
    options.num_buckets = 100;
    options.bucketizer = bucketizer;
    options.seed = 1;
    Miner a(&relation, options);
    options.seed = 999;
    Miner b(&relation, options);
    const MinedRule rule_a = a.MinePair("num0", "bool0").value()[0];
    const MinedRule rule_b = b.MinePair("num0", "bool0").value()[0];
    EXPECT_EQ(rule_a.range_lo, rule_b.range_lo);
    EXPECT_EQ(rule_a.support_count, rule_b.support_count);
  }
}

TEST(MinerTest, ToStringRendersRules) {
  const storage::Relation relation = PlantedRelation(20000, 10);
  MinerOptions options;
  options.num_buckets = 100;
  options.min_support = 0.1;
  Miner miner(&relation, options);
  const MinedRule rule = miner.MinePair("num0", "bool0").value()[0];
  ASSERT_TRUE(rule.found);
  const std::string text = rule.ToString();
  EXPECT_NE(text.find("num0"), std::string::npos);
  EXPECT_NE(text.find("bool0"), std::string::npos);
  EXPECT_NE(text.find("support"), std::string::npos);

  MinedRule missing;
  missing.numeric_attr = "a";
  missing.boolean_attr = "b";
  EXPECT_NE(missing.ToString().find("no ample range"), std::string::npos);
}

}  // namespace
}  // namespace optrules::rules
