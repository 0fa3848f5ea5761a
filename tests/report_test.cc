// Tests for interestingness measures and report rendering.

#include <cmath>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "datagen/table_generator.h"
#include "reference/miner.h"
#include "report/interestingness.h"
#include "report/report.h"
#include "rules/miner.h"

namespace optrules::report {
namespace {

rules::MinedRule MakeRule(double support, double confidence) {
  rules::MinedRule rule;
  rule.found = true;
  rule.kind = rules::RuleKind::kOptimizedConfidence;
  rule.numeric_attr = "num0";
  rule.boolean_attr = "bool0";
  rule.range_lo = 10.0;
  rule.range_hi = 20.0;
  rule.support = support;
  rule.confidence = confidence;
  return rule;
}

TEST(InterestingnessTest, LiftAgainstBaseRate) {
  const RuleMeasures m = ComputeMeasures(MakeRule(0.2, 0.8), 0.4);
  EXPECT_DOUBLE_EQ(m.lift, 2.0);
  // leverage = supp*conf - supp*base = 0.16 - 0.08.
  EXPECT_NEAR(m.leverage, 0.08, 1e-12);
  // conviction = (1-0.4)/(1-0.8) = 3.
  EXPECT_DOUBLE_EQ(m.conviction, 3.0);
  EXPECT_GT(m.gini_gain, 0.0);
}

TEST(InterestingnessTest, UninformativeRuleHasUnitLift) {
  const RuleMeasures m = ComputeMeasures(MakeRule(0.5, 0.3), 0.3);
  EXPECT_DOUBLE_EQ(m.lift, 1.0);
  EXPECT_NEAR(m.leverage, 0.0, 1e-12);
  EXPECT_NEAR(m.gini_gain, 0.0, 1e-12);
}

TEST(InterestingnessTest, PerfectConfidenceHasInfiniteConviction) {
  const RuleMeasures m = ComputeMeasures(MakeRule(0.1, 1.0), 0.3);
  EXPECT_TRUE(std::isinf(m.conviction));
}

storage::Relation PlantedRelation(uint64_t seed) {
  datagen::TableConfig config;
  config.num_rows = 30000;
  config.num_numeric = 2;
  config.num_boolean = 2;
  datagen::PlantedRule planted;
  planted.numeric_attr = 0;
  planted.boolean_attr = 0;
  planted.lo = 200000.0;
  planted.hi = 400000.0;
  planted.prob_inside = 0.8;
  planted.prob_outside = 0.1;
  config.planted_rules.push_back(planted);
  Rng rng(seed);
  return datagen::GenerateTable(config, rng);
}

TEST(RankingTest, PlantedRuleRanksFirst) {
  const storage::Relation relation = PlantedRelation(1);
  rules::MinerOptions options;
  options.num_buckets = 100;
  options.min_support = 0.05;
  rules::Miner miner(&relation, options);
  const std::vector<RankedRule> ranked =
      RankByLift(miner.MineAll(), relation);
  ASSERT_FALSE(ranked.empty());
  // The planted (num0 => bool0) association dominates the noise pairs.
  EXPECT_EQ(ranked[0].rule.numeric_attr, "num0");
  EXPECT_EQ(ranked[0].rule.boolean_attr, "bool0");
  EXPECT_GT(ranked[0].measures.lift, 2.0);
  // Lift ordering is non-increasing.
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].measures.lift, ranked[i].measures.lift);
  }
}

TEST(RankingTest, DropsNotFoundRules) {
  rules::MinedRule missing;
  missing.found = false;
  const storage::Relation relation = PlantedRelation(2);
  const std::vector<RankedRule> ranked = RankByLift({missing}, relation);
  EXPECT_TRUE(ranked.empty());
}

TEST(ReportTest, MarkdownContainsRuleRows) {
  const storage::Relation relation = PlantedRelation(3);
  rules::MinerOptions options;
  options.num_buckets = 100;
  rules::Miner miner(&relation, options);
  const std::vector<RankedRule> ranked =
      RankByLift(miner.MineAll(), relation);
  const std::string markdown = ToMarkdown(ranked);
  EXPECT_NE(markdown.find("| rule |"), std::string::npos);
  EXPECT_NE(markdown.find("num0 => bool0"), std::string::npos);
  EXPECT_NE(markdown.find("opt-confidence"), std::string::npos);
}

TEST(ReportTest, CsvHasHeaderAndRows) {
  const storage::Relation relation = PlantedRelation(4);
  rules::MinerOptions options;
  options.num_buckets = 100;
  rules::Miner miner(&relation, options);
  const std::vector<RankedRule> ranked =
      RankByLift(miner.MineAll(), relation);
  const std::string csv = ToCsv(ranked);
  // Header + one line per ranked rule.
  size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, ranked.size() + 1);
  EXPECT_EQ(csv.find("numeric_attr,boolean_attr"), 0u);
}

TEST(ReportTest, NanEndpointsRenderAsUnboundedEdges) {
  // A bucket whose only values were NaN survives compaction (u_i > 0), so
  // a rule spanning it can carry NaN endpoints; reports must render those
  // as the unbounded edges, never as "nan".
  rules::MinedRule rule = MakeRule(0.2, 0.8);
  rule.range_lo = std::nan("");
  rule.range_hi = std::nan("");
  RankedRule ranked;
  ranked.rule = rule;
  const std::string markdown = ToMarkdown({ranked});
  EXPECT_EQ(markdown.find("nan"), std::string::npos);
  EXPECT_NE(markdown.find("[-inf, inf]"), std::string::npos);
  const std::string csv = ToCsv({ranked});
  EXPECT_EQ(csv.find("nan"), std::string::npos);
  EXPECT_NE(csv.find("-inf,inf"), std::string::npos);
}

TEST(ReportTest, WriteTextFileRoundTrip) {
  const std::string path = testing::TempDir() + "/report.md";
  ASSERT_TRUE(WriteTextFile("hello report\n", path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "hello report");
  std::remove(path.c_str());
}

TEST(ReportTest, WriteTextFileFailsOnBadPath) {
  EXPECT_EQ(WriteTextFile("x", "/no/such/dir/report.md").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace optrules::report
