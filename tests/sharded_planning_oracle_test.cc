// Oracle test of the sharded sampling plan: MiningEngine gathers the
// pre-drawn Algorithm 3.1 sample rows of every planned (set, attribute)
// slot in one row-sharded pass, overwriting each slot's row indices in
// place. Every shard's start position must be fixed before any shard
// writes, or shards read values as row indices. Here kSampling engines
// over a NaN-laden PagedFile -- with a capacity-0 and the default buffer
// pool, at every thread-pool size, at row counts on both sides of the
// shard layout's edges, with masked region sets registered -- must plan
// the boundaries of the in-memory engine, answer exactly like it and the
// legacy Miner, and read the file exactly twice. Tables are drawn from
// OPTRULES_FUZZ_SEED (tests/fuzz_seed.h).

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datagen/table_generator.h"
#include "dist/partitioned_table.h"
#include "fuzz_seed.h"
#include "reference/miner.h"
#include "rules/miner.h"
#include "storage/columnar_batch.h"
#include "storage/paged_file.h"

namespace optrules::rules {
namespace {

/// Row counts around the 8192-row shard unit: one row, one short of a
/// shard, exactly one, one over, three shards plus a remainder, and a
/// multi-shard table.
constexpr int64_t kRowCounts[] = {1, 8191, 8192, 8193, 3 * 8192 + 17, 40000};
constexpr int kThreadCounts[] = {0, 1, 2, 3, 4, 8};  // 0 = no pool

storage::Relation NanLadenTable(int64_t rows, uint64_t seed) {
  datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = 3;
  config.num_boolean = 2;
  Rng rng(seed);
  storage::Relation relation = datagen::GenerateTable(config, rng);
  // num2, the average target, stays NaN-free: a NaN target value makes
  // its bucket's sum NaN, and the averages compared should be numbers.
  for (int a = 0; a < 2; ++a) {
    std::vector<double>& column = relation.MutableNumericColumn(a);
    const auto step = static_cast<size_t>(3 + rng.NextBounded(9));
    for (size_t row = rng.NextBounded(step); row < column.size();
         row += step) {
      column[row] = std::nan("");
    }
  }
  return relation;
}

MinerOptions Options() {
  MinerOptions options;
  options.num_buckets = 40;
  options.min_support = 0.05;
  options.min_confidence = 0.3;
  return options;
}

/// Every answer of one session: base boundaries (engines only; the
/// legacy Miner keeps its own, so its answers pin them), all pairs, a
/// generalized rule, an average range and a rectangular region.
struct Answers {
  std::vector<bucketing::BucketBoundaries> boundaries;
  std::vector<MinedRule> all_pairs;
  std::vector<MinedRule> generalized;
  MinedAggregateRange average;
  MinedRegion region;
};

Answers MineEngine(MiningEngine& engine) {
  EXPECT_TRUE(engine.RequestGeneralized({"bool0"}).ok());
  EXPECT_TRUE(engine.RequestAverageTarget("num2").ok());
  EXPECT_TRUE(engine.RequestRegionPair("num0", "num1", 6, 4).ok());
  Answers answers;
  answers.all_pairs = engine.MineAllPairs();
  answers.boundaries = engine.boundaries();
  answers.generalized =
      engine.MineGeneralized("num1", {"bool0"}, "bool1").value();
  answers.average = engine.MineMaximumAverageRange("num0", "num2", 0.1).value();
  answers.region = engine.MineOptimizedRegion("num0", "num1", "bool1").value();
  EXPECT_EQ(engine.counting_scans(), 1);
  return answers;
}

Answers MineLegacy(const storage::Relation& relation) {
  Miner legacy(&relation, Options());
  Answers answers;
  answers.all_pairs = legacy.MineAll();
  answers.generalized =
      legacy.MineGeneralized("num1", {"bool0"}, "bool1").value();
  answers.average = legacy.MineMaximumAverageRange("num0", "num2", 0.1).value();
  answers.region =
      legacy.MineOptimizedRegion("num0", "num1", "bool1", 6, 4).value();
  return answers;
}

void ExpectSameRules(const std::vector<MinedRule>& a,
                     const std::vector<MinedRule>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].found, b[i].found);
    EXPECT_EQ(a[i].range_lo, b[i].range_lo);
    EXPECT_EQ(a[i].range_hi, b[i].range_hi);
    EXPECT_EQ(a[i].support_count, b[i].support_count);
    EXPECT_EQ(a[i].hit_count, b[i].hit_count);
    EXPECT_EQ(a[i].support, b[i].support);
    EXPECT_EQ(a[i].confidence, b[i].confidence);
  }
}

void ExpectSameRegionRule(const region::RegionRule& a,
                          const region::RegionRule& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.x1, b.x1);
  EXPECT_EQ(a.x2, b.x2);
  EXPECT_EQ(a.y1, b.y1);
  EXPECT_EQ(a.y2, b.y2);
  EXPECT_EQ(a.support_count, b.support_count);
  EXPECT_EQ(a.hit_count, b.hit_count);
}

/// `exact_average`: false when one side summed on row shards and the
/// other serially -- the compensated sums may then differ in the last
/// ulp (bucketing/parallel_count.h), so the average is compared to 4 ulp.
void ExpectSameAnswers(const Answers& got, const Answers& want,
                       bool exact_average) {
  if (!want.boundaries.empty()) {
    ASSERT_EQ(got.boundaries.size(), want.boundaries.size());
    for (size_t a = 0; a < got.boundaries.size(); ++a) {
      EXPECT_EQ(got.boundaries[a].cut_points(),
                want.boundaries[a].cut_points())
          << "num" << a;
    }
  }
  ExpectSameRules(got.all_pairs, want.all_pairs);
  ExpectSameRules(got.generalized, want.generalized);
  EXPECT_EQ(got.average.found, want.average.found);
  EXPECT_EQ(got.average.range_lo, want.average.range_lo);
  EXPECT_EQ(got.average.range_hi, want.average.range_hi);
  EXPECT_EQ(got.average.support_count, want.average.support_count);
  if (exact_average) {
    EXPECT_EQ(got.average.average, want.average.average);
  } else {
    EXPECT_DOUBLE_EQ(got.average.average, want.average.average);
  }
  EXPECT_EQ(got.region.total_tuples, want.region.total_tuples);
  ExpectSameRegionRule(got.region.confidence_rectangle,
                       want.region.confidence_rectangle);
  ExpectSameRegionRule(got.region.support_rectangle,
                       want.region.support_rectangle);
  EXPECT_EQ(got.region.xmonotone_gain.gain, want.region.xmonotone_gain.gain);
}

TEST(ShardedPlanningOracleTest, PagedEnginesMatchInMemoryAndLegacy) {
  const uint64_t seed = testfuzz::FuzzSeed(1501);
  for (const int64_t rows : kRowCounts) {
    SCOPED_TRACE(testing::Message() << "rows=" << rows);
    const storage::Relation relation =
        NanLadenTable(rows, seed + static_cast<uint64_t>(rows));
    const std::string path =
        testing::TempDir() + "/sharded_plan_" + std::to_string(rows) + ".optr";
    ASSERT_TRUE(storage::WriteRelationToFile(relation, path).ok());
    const Answers legacy = MineLegacy(relation);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      MiningEngine memory_engine(&relation, Options(), pool.get());
      const Answers memory = MineEngine(memory_engine);
      ExpectSameAnswers(memory, legacy, pool == nullptr);
      for (storage::BufferPool* cache :
           {static_cast<storage::BufferPool*>(nullptr),
            storage::BufferPool::Default()}) {
        SCOPED_TRACE(cache == nullptr ? "capacity-0 pool" : "default pool");
        auto source = storage::PagedFileBatchSource::Open(path, 1000, cache);
        ASSERT_TRUE(source.ok()) << source.status().ToString();
        MiningEngine engine(source.value().get(), relation.schema(),
                            Options(), pool.get());
        ExpectSameAnswers(MineEngine(engine), memory, true);
        EXPECT_EQ(source.value()->scans_started(), 2);  // plan + count
      }
    }
    std::remove(path.c_str());
  }
}

TEST(ShardedPlanningOracleTest, OnePartitionTableMatchesSingleFile) {
  // Round-robin K = 1 keeps the row order, so the partitioned engine's
  // serial planning pass draws and gathers the very same sample.
  const uint64_t seed = testfuzz::FuzzSeed(1502);
  for (const int64_t rows : {int64_t{8193}, int64_t{40000}}) {
    SCOPED_TRACE(testing::Message() << "rows=" << rows);
    const storage::Relation relation = NanLadenTable(rows, seed);
    const std::string root = testing::TempDir() + "/sharded_plan_k1";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    const std::string path = root + "/table.optr";
    ASSERT_TRUE(storage::WriteRelationToFile(relation, path).ok());
    dist::PartitionOptions partitioning;
    partitioning.num_partitions = 1;
    auto table = dist::PartitionRelation(relation, root + "/parts",
                                         partitioning);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ThreadPool pool(4);
    auto source = storage::PagedFileBatchSource::Open(path);
    ASSERT_TRUE(source.ok());
    MiningEngine file_engine(source.value().get(), relation.schema(),
                             Options(), &pool);
    MiningEngine partitioned_engine(&table.value(), Options());
    ExpectSameAnswers(MineEngine(partitioned_engine), MineEngine(file_engine),
                      false);
    std::filesystem::remove_all(root);
  }
}

}  // namespace
}  // namespace optrules::rules
