// Tests for bucket boundaries, samplers, counting, parallelism, and the
// Section 3.4 error bounds.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "bucketing/equidepth_sampler.h"
#include "bucketing/equiwidth.h"
#include "bucketing/error_bounds.h"
#include "bucketing/parallel_count.h"
#include "bucketing/sort_bucketizer.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "storage/paged_file.h"
#include "storage/columnar_batch.h"

namespace optrules::bucketing {
namespace {

std::vector<double> RandomValues(int64_t n, uint64_t seed, double lo = 0.0,
                                 double hi = 1000.0) {
  Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(n));
  for (double& v : values) v = rng.NextUniform(lo, hi);
  return values;
}

// --------------------------------------------------------- boundaries ----

TEST(BoundariesTest, LocateRespectsHalfOpenIntervals) {
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({10.0, 20.0});
  EXPECT_EQ(b.num_buckets(), 3);
  EXPECT_EQ(b.Locate(-5.0), 0);
  EXPECT_EQ(b.Locate(10.0), 0);   // bucket 0 is (-inf, 10]
  EXPECT_EQ(b.Locate(10.5), 1);
  EXPECT_EQ(b.Locate(20.0), 1);   // bucket 1 is (10, 20]
  EXPECT_EQ(b.Locate(20.0001), 2);
  EXPECT_EQ(b.Locate(1e300), 2);
}

TEST(BoundariesTest, EdgesAndInfinities) {
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({1.0, 2.0});
  EXPECT_TRUE(std::isinf(b.LowerEdge(0)));
  EXPECT_DOUBLE_EQ(b.UpperEdge(0), 1.0);
  EXPECT_DOUBLE_EQ(b.LowerEdge(1), 1.0);
  EXPECT_DOUBLE_EQ(b.UpperEdge(1), 2.0);
  EXPECT_TRUE(std::isinf(b.UpperEdge(2)));
}

TEST(BoundariesTest, SingleBucketCoversEverything) {
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({});
  EXPECT_EQ(b.num_buckets(), 1);
  EXPECT_EQ(b.Locate(-1e308), 0);
  EXPECT_EQ(b.Locate(1e308), 0);
}

TEST(BoundariesTest, FromSortedValuesGivesExactEquiDepth) {
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 0.0);
  const BucketBoundaries b = BucketBoundaries::FromSortedValues(values, 10);
  EXPECT_EQ(b.num_buckets(), 10);
  std::vector<int64_t> counts(10, 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];
  for (int64_t c : counts) EXPECT_EQ(c, 100);
}

// -------------------------------------------------------- exact depth ----

TEST(SortBucketizerTest, ExactEquiDepthOnShuffledInput) {
  std::vector<double> values = RandomValues(10000, 21);
  const BucketBoundaries b = ExactEquiDepthBoundaries(values, 100);
  std::vector<int64_t> counts(100, 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  // All buckets within one tuple of perfectly equal depth (ties aside).
  EXPECT_GE(*lo, 99);
  EXPECT_LE(*hi, 101);
}

TEST(SortBucketizerTest, HeavyTiesYieldEmptyBucketsNotWrongCounts) {
  std::vector<double> values(1000, 42.0);  // all identical
  const BucketBoundaries b = ExactEquiDepthBoundaries(values, 10);
  std::vector<int64_t> counts(static_cast<size_t>(b.num_buckets()), 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}),
            1000);
  // Every tuple must land in exactly one bucket.
  int nonzero = 0;
  for (int64_t c : counts) nonzero += c > 0 ? 1 : 0;
  EXPECT_EQ(nonzero, 1);
}

// ------------------------------------------------------------ sampler ----

struct SamplerCase {
  int64_t n;
  int num_buckets;
  uint64_t seed;
};

class SamplerDepthTest : public testing::TestWithParam<SamplerCase> {};

TEST_P(SamplerDepthTest, BucketsAreAlmostEquiDepth) {
  const SamplerCase& param = GetParam();
  const std::vector<double> values = RandomValues(param.n, param.seed);
  SamplerOptions options;
  options.num_buckets = param.num_buckets;
  options.sample_per_bucket = 40;
  Rng rng(param.seed + 1);
  const BucketBoundaries b =
      BuildEquiDepthBoundaries(values, options, rng);
  std::vector<int64_t> counts(static_cast<size_t>(b.num_buckets()), 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];

  const double expected =
      static_cast<double>(param.n) / param.num_buckets;
  // Section 3.2: with S/M = 40 a relative deviation of 50% has probability
  // < 0.3 per bucket; across buckets we allow a small number of outliers
  // but no gross distortion.
  int gross = 0;
  for (int64_t c : counts) {
    if (std::abs(static_cast<double>(c) - expected) > expected) ++gross;
  }
  EXPECT_LE(gross, param.num_buckets / 10);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}),
            param.n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SamplerDepthTest,
    testing::Values(SamplerCase{20000, 10, 1}, SamplerCase{50000, 100, 2},
                    SamplerCase{100000, 1000, 3},
                    SamplerCase{5000, 50, 4}));

TEST(SamplerTest, EmptyInputYieldsSingleBucket) {
  SamplerOptions options;
  options.num_buckets = 16;
  Rng rng(5);
  const BucketBoundaries b =
      BuildEquiDepthBoundaries(std::vector<double>{}, options, rng);
  EXPECT_EQ(b.num_buckets(), 1);
}

// -------------------------------------------------------- sample rows ----

std::vector<double> DrawRows(int64_t num_rows, int64_t sample_size,
                             uint64_t seed) {
  SamplerOptions options;
  options.num_buckets = 1;
  options.sample_per_bucket = sample_size;
  std::vector<double> rows(
      static_cast<size_t>(SampleRowCount(options, num_rows)));
  Rng rng(seed);
  DrawSampleRows(num_rows, rng, rows);
  return rows;
}

TEST(SampleRowsTest, AscendingInRangeAndMinOfSAndN) {
  for (const int64_t n : {int64_t{1}, int64_t{2}, int64_t{999},
                          int64_t{1000}, int64_t{1001}, int64_t{50000}}) {
    for (const int64_t s : {int64_t{1}, int64_t{7}, int64_t{1000}}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " s=" << s);
      const std::vector<double> rows = DrawRows(n, s, 40);
      ASSERT_EQ(static_cast<int64_t>(rows.size()), std::min(s, n));
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
      for (const double row : rows) {
        EXPECT_EQ(row, std::floor(row));
        EXPECT_GE(row, 0.0);
        EXPECT_LT(row, static_cast<double>(n));
      }
    }
  }
}

TEST(SampleRowsTest, SampleOfAtLeastNTakesEveryRow) {
  // S >= N takes every row once, so any seed plans the exact equi-depth
  // cuts of the input.
  EXPECT_EQ(DrawRows(1, 40, 1), std::vector<double>{0.0});
  const std::vector<double> rows = DrawRows(300, 400, 2);
  std::vector<double> every(300);
  std::iota(every.begin(), every.end(), 0.0);
  EXPECT_EQ(rows, every);

  const std::vector<double> values = RandomValues(300, 30);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const BucketBoundaries exact = BucketBoundaries::FromSortedValues(sorted, 7);
  SamplerOptions options;
  options.num_buckets = 7;
  options.sample_per_bucket = 60;  // S = 420 > N = 300
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    EXPECT_EQ(BuildEquiDepthBoundaries(values, options, rng).cut_points(),
              exact.cut_points())
        << seed;
  }
}

TEST(SampleRowsTest, CutsNeverOutnumberTheSample) {
  // Every cut point is a sampled value, so a sample of distinct values can
  // never yield more distinct cuts than it holds values: min(S, N) - 1.
  constexpr int64_t kSample = 50;
  for (const int64_t n : {int64_t{49}, kSample, int64_t{51}, int64_t{10000}}) {
    const std::vector<double> values = RandomValues(n, 32);
    std::vector<double> sample = DrawRows(n, kSample, 31);
    for (double& row : sample) row = values[static_cast<size_t>(row)];
    const BucketBoundaries b = BoundariesFromSample(sample, 1000);
    const std::set<double> distinct(b.cut_points().begin(),
                                    b.cut_points().end());
    EXPECT_LE(static_cast<int64_t>(distinct.size()), kSample - 1) << n;
    if (n <= kSample) {
      EXPECT_EQ(static_cast<int64_t>(distinct.size()), n - 1) << n;
    }
  }
}

TEST(SampleRowsTest, EmptySampleYieldsSingleBucket) {
  std::vector<double> sample;
  const BucketBoundaries b = BoundariesFromSample(sample, 16);
  EXPECT_EQ(b.num_buckets(), 1);
  EXPECT_EQ(b.Locate(-1e308), 0);
  EXPECT_EQ(b.Locate(1e308), 0);
  std::vector<double> all_nan(5, std::nan(""));
  EXPECT_EQ(BoundariesFromSample(all_nan, 16).num_buckets(), 1);
}

TEST(SampleRowsTest, DeterministicPerSeedAndDiffersAcrossSeeds) {
  EXPECT_EQ(DrawRows(20000, 400, 34), DrawRows(20000, 400, 34));
  EXPECT_NE(DrawRows(20000, 400, 34), DrawRows(20000, 400, 35));
  const std::vector<double> values = RandomValues(20000, 33);
  SamplerOptions options;
  options.num_buckets = 10;
  const auto plan = [&](uint64_t seed) {
    Rng rng(seed);
    return BuildEquiDepthBoundaries(values, options, rng).cut_points();
  };
  EXPECT_EQ(plan(34), plan(34));
  EXPECT_NE(plan(34), plan(35));
}

TEST(SampleRowsTest, HugeTableNeedsNoTableSizedBuffer) {
  // N = 2^40 rows: the draw is O(S) in time and memory, and row indices
  // stay exact integers below N.
  constexpr int64_t kRows = int64_t{1} << 40;
  const std::vector<double> rows = DrawRows(kRows, 4000, 41);
  ASSERT_EQ(rows.size(), 4000u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_GE(rows.front(), 0.0);
  EXPECT_LT(rows.back(), static_cast<double>(kRows));
  for (const double row : rows) EXPECT_EQ(row, std::floor(row));
  // Spread over the whole range, not bunched at one end.
  EXPECT_LT(rows.front(), static_cast<double>(kRows) / 100);
  EXPECT_GT(rows.back(), static_cast<double>(kRows) / 100 * 99);
}

TEST(SampleRowsTest, RowsAreCoarselyUniform) {
  // Chi-square over 20 equal row ranges: 19 degrees of freedom, whose
  // 0.999 quantile is 43.8.
  constexpr int kBins = 20;
  constexpr int64_t kRows = 1000003;
  for (const uint64_t seed : {50u, 51u, 52u}) {
    const std::vector<double> rows = DrawRows(kRows, 100000, seed);
    std::vector<int64_t> bins(kBins, 0);
    for (const double row : rows) {
      ++bins[static_cast<size_t>(static_cast<int64_t>(row) * kBins / kRows)];
    }
    const double expected = static_cast<double>(rows.size()) / kBins;
    double chi2 = 0.0;
    for (const int64_t count : bins) {
      const double d = static_cast<double>(count) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 43.8) << seed;
  }
}

TEST(SampleRowsTest, GatheredBatchScanDepthWithinHundredPercent) {
  // Sample rows gathered by one sequential batch scan must produce
  // *almost equi-depth* buckets -- every depth within +-100% of N/M --
  // and exactly the boundaries random access over the column plans.
  storage::Relation relation(storage::Schema::Synthetic(1, 1));
  Rng data_rng(6);
  for (int i = 0; i < 50000; ++i) {
    const double v = data_rng.NextUniform(0.0, 1.0);
    const uint8_t flag = 0;
    relation.AppendRow(std::span<const double>(&v, 1),
                       std::span<const uint8_t>(&flag, 1));
  }
  SamplerOptions options;
  options.num_buckets = 100;
  storage::RelationBatchSource source(&relation, 1000);
  std::vector<double> sample(
      static_cast<size_t>(SampleRowCount(options, source.NumTuples())));
  Rng rng(7);
  DrawSampleRows(source.NumTuples(), rng, sample);
  const SampleSlot slot{0, sample};
  EXPECT_EQ(GatherSampleValues(source, {&slot, 1}, nullptr), 0);
  EXPECT_EQ(source.scans_started(), 1);
  const BucketBoundaries b = BoundariesFromSample(sample, options.num_buckets);
  Rng random_access_rng(7);
  EXPECT_EQ(b.cut_points(),
            BuildEquiDepthBoundaries(relation.NumericColumn(0), options,
                                     random_access_rng)
                .cut_points());
  EXPECT_EQ(b.num_buckets(), 100);
  std::vector<int64_t> counts(100, 0);
  for (double v : relation.NumericColumn(0)) {
    ++counts[static_cast<size_t>(b.Locate(v))];
  }
  const double expected = 500.0;
  for (int64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected);  // +-100%
  }
}

TEST(SampleRowsTest, ShardedGatherMatchesSerialGatherAndScansOnce) {
  // Two slots over different columns with duplicate rows (S > N / 2 with
  // replacement), gathered serially and on row shards of several pools.
  const int64_t n = 3 * 8192 + 17;
  storage::Relation relation(storage::Schema::Synthetic(2, 1));
  for (int64_t i = 0; i < n; ++i) {
    const double numeric[] = {static_cast<double>(i), -static_cast<double>(i)};
    const uint8_t flag = 0;
    relation.AppendRow(numeric, std::span<const uint8_t>(&flag, 1));
  }
  const std::vector<double> rows_a = DrawRows(n, 20000, 60);
  const std::vector<double> rows_b = DrawRows(n, 5000, 61);
  for (const int threads : {0, 1, 3, 4}) {
    SCOPED_TRACE(threads);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    storage::RelationBatchSource source(&relation, 1000);
    std::vector<double> a = rows_a;
    std::vector<double> b = rows_b;
    const SampleSlot slots[] = {{0, a}, {1, b}};
    EXPECT_EQ(GatherSampleValues(source, slots, pool.get()),
              threads > 0 ? RowShardCount(n) : 0);
    EXPECT_EQ(source.scans_started(), 1);
    EXPECT_EQ(a, rows_a);  // column 0 holds the row index itself
    for (size_t j = 0; j < b.size(); ++j) EXPECT_EQ(b[j], -rows_b[j]);
  }
}

// ---------------------------------------------------------- equiwidth ----

TEST(EquiWidthTest, CutsAreEvenlySpaced) {
  const std::vector<double> values = {0.0, 100.0, 37.0, 58.0};
  const BucketBoundaries b = EquiWidthBoundaries(values, 4);
  ASSERT_EQ(b.num_buckets(), 4);
  EXPECT_DOUBLE_EQ(b.cut_points()[0], 25.0);
  EXPECT_DOUBLE_EQ(b.cut_points()[1], 50.0);
  EXPECT_DOUBLE_EQ(b.cut_points()[2], 75.0);
}

TEST(EquiWidthTest, SkewedDataConcentratesInFewBuckets) {
  // Lognormal data: equi-width puts nearly everything in the first bucket,
  // which is exactly why the paper prefers equi-depth (footnote 3).
  Rng rng(8);
  std::vector<double> values(20000);
  for (double& v : values) v = std::exp(3.0 * rng.NextGaussian());
  const BucketBoundaries b = EquiWidthBoundaries(values, 100);
  std::vector<int64_t> counts(100, 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];
  EXPECT_GT(counts[0], 19000);
}

// ------------------------------------------------------------ counting ----

TEST(CountingTest, MatchesBruteForce) {
  const std::vector<double> values = RandomValues(5000, 9);
  Rng rng(10);
  std::vector<uint8_t> target(values.size());
  for (auto& t : target) t = rng.NextBernoulli(0.3) ? 1 : 0;
  const BucketBoundaries b =
      BucketBoundaries::FromCutPoints({250.0, 500.0, 750.0});
  const BucketCounts counts = CountBuckets(values, target, b);

  ASSERT_EQ(counts.num_buckets(), 4);
  ASSERT_EQ(counts.num_targets(), 1);
  std::vector<int64_t> u(4, 0);
  std::vector<int64_t> v(4, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    const auto bucket = static_cast<size_t>(b.Locate(values[i]));
    ++u[bucket];
    if (target[i]) ++v[bucket];
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(counts.u[static_cast<size_t>(i)], u[static_cast<size_t>(i)]);
    EXPECT_EQ(counts.v[0][static_cast<size_t>(i)],
              v[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(counts.total_tuples, 5000);
}

TEST(CountingTest, MinMaxTracksObservedValues) {
  const std::vector<double> values = {1.0, 9.0, 11.0, 19.0, 5.0};
  const std::vector<uint8_t> target = {0, 0, 0, 0, 0};
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({10.0});
  const BucketCounts counts = CountBuckets(values, target, b);
  EXPECT_DOUBLE_EQ(counts.min_value[0], 1.0);
  EXPECT_DOUBLE_EQ(counts.max_value[0], 9.0);
  EXPECT_DOUBLE_EQ(counts.min_value[1], 11.0);
  EXPECT_DOUBLE_EQ(counts.max_value[1], 19.0);
}

TEST(CountingTest, MultipleTargetsCountedInOnePass) {
  const std::vector<double> values = RandomValues(2000, 11);
  Rng rng(12);
  std::vector<uint8_t> t1(values.size());
  std::vector<uint8_t> t2(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    t1[i] = rng.NextBernoulli(0.2) ? 1 : 0;
    t2[i] = rng.NextBernoulli(0.7) ? 1 : 0;
  }
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({500.0});
  const std::vector<uint8_t>* targets[] = {&t1, &t2};
  const BucketCounts counts = CountBuckets(values, targets, b);
  ASSERT_EQ(counts.num_targets(), 2);
  int64_t total_t2 = counts.v[1][0] + counts.v[1][1];
  int64_t expected_t2 = 0;
  for (uint8_t x : t2) expected_t2 += x;
  EXPECT_EQ(total_t2, expected_t2);
}

TEST(CountingTest, ConditionalCountsRestrictToC1) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  const std::vector<uint8_t> c1 = {1, 0, 1, 1};
  const std::vector<uint8_t> c2 = {1, 1, 0, 1};
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({2.5});
  const BucketCounts counts = CountBucketsConditional(values, c1, c2, b);
  // Bucket 0 holds rows {1.0, 2.0}; only row 0 meets C1, and it meets C2.
  EXPECT_EQ(counts.u[0], 1);
  EXPECT_EQ(counts.v[0][0], 1);
  // Bucket 1 holds rows {3.0, 4.0}; both meet C1, row 3 meets C2.
  EXPECT_EQ(counts.u[1], 2);
  EXPECT_EQ(counts.v[0][1], 1);
  // Support denominator stays the full table.
  EXPECT_EQ(counts.total_tuples, 4);
}

TEST(CountingTest, BatchCountingMatchesColumnCounting) {
  storage::Relation relation(storage::Schema::Synthetic(2, 2));
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    const double numeric[] = {rng.NextUniform(0, 100),
                              rng.NextUniform(0, 100)};
    const uint8_t boolean[] = {
        static_cast<uint8_t>(rng.NextBernoulli(0.5) ? 1 : 0),
        static_cast<uint8_t>(rng.NextBernoulli(0.1) ? 1 : 0)};
    relation.AppendRow(numeric, boolean);
  }
  const BucketBoundaries b =
      BucketBoundaries::FromCutPoints({25.0, 50.0, 75.0});
  const std::vector<uint8_t>* targets[] = {&relation.BooleanColumn(0),
                                           &relation.BooleanColumn(1)};
  const BucketCounts columnar =
      CountBuckets(relation.NumericColumn(1), targets, b);
  // The batch path: a one-channel plan over one scan of the relation.
  MultiCountSpec spec;
  spec.num_targets = 2;
  CountChannel channel;
  channel.column = 1;
  channel.boundaries = &b;
  spec.channels.push_back(channel);
  MultiCountPlan plan(std::move(spec));
  storage::RelationBatchSource source(&relation, 256);
  ExecuteMultiCount(source, &plan, nullptr);
  EXPECT_EQ(source.scans_started(), 1);
  const BucketCounts& batched = plan.counts(0);
  EXPECT_EQ(batched.u, columnar.u);
  EXPECT_EQ(batched.v, columnar.v);
  EXPECT_EQ(batched.total_tuples, columnar.total_tuples);
}

TEST(CountingTest, CompactRemovesEmptyBuckets) {
  const std::vector<double> values = {1.0, 30.0};
  const std::vector<uint8_t> target = {1, 0};
  const BucketBoundaries b =
      BucketBoundaries::FromCutPoints({10.0, 20.0, 40.0});
  BucketCounts counts = CountBuckets(values, target, b);
  ASSERT_EQ(counts.num_buckets(), 4);
  CompactEmptyBuckets(&counts);
  ASSERT_EQ(counts.num_buckets(), 2);
  EXPECT_EQ(counts.u[0], 1);
  EXPECT_EQ(counts.v[0][0], 1);
  EXPECT_DOUBLE_EQ(counts.min_value[1], 30.0);
  EXPECT_EQ(counts.total_tuples, 2);
}

TEST(CountingTest, BucketSumsAccumulateTarget) {
  const std::vector<double> values = {1.0, 2.0, 11.0, 12.0};
  const std::vector<double> target = {10.0, 20.0, 5.0, 7.0};
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({10.0});
  BucketSums sums = CountBucketSums(values, target, b);
  EXPECT_EQ(sums.u[0], 2);
  EXPECT_DOUBLE_EQ(sums.sum[0], 30.0);
  EXPECT_EQ(sums.u[1], 2);
  EXPECT_DOUBLE_EQ(sums.sum[1], 12.0);

  // Compaction keeps parallel arrays aligned.
  const BucketBoundaries b3 =
      BucketBoundaries::FromCutPoints({10.0, 100.0});
  BucketSums sparse = CountBucketSums({{5.0}}, {{2.5}}, b3);
  CompactEmptyBuckets(&sparse);
  ASSERT_EQ(sparse.num_buckets(), 1);
  EXPECT_DOUBLE_EQ(sparse.sum[0], 2.5);
}

// ------------------------------------------------- sort-based on disk ----

TEST(SortBucketizerFileTest, NaiveAndVerticalSplitAgreeWithInMemory) {
  // Build a small table on disk, bucketize it three ways, and require that
  // all three boundary sets induce equal bucket counts.
  storage::Relation relation(storage::Schema::Synthetic(2, 1));
  Rng rng(16);
  for (int i = 0; i < 20000; ++i) {
    const double numeric[] = {rng.NextUniform(0, 1),
                              rng.NextGaussian() * 10.0};
    const uint8_t boolean[] = {0};
    relation.AppendRow(numeric, boolean);
  }
  const std::string table = testing::TempDir() + "/bucketize.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, table).ok());

  const int kBuckets = 50;
  const BucketBoundaries in_memory =
      ExactEquiDepthBoundaries(relation.NumericColumn(1), kBuckets);
  Result<BucketBoundaries> naive = NaiveSortBoundariesFromFile(
      table, 1, kBuckets, testing::TempDir() + "/sorted.optr", 1 << 16,
      testing::TempDir());
  ASSERT_TRUE(naive.ok());
  Result<BucketBoundaries> vertical = VerticalSplitSortBoundariesFromFile(
      table, 1, kBuckets, testing::TempDir() + "/split.bin", 1 << 16,
      testing::TempDir());
  ASSERT_TRUE(vertical.ok());

  auto depth_profile = [&](const BucketBoundaries& b) {
    std::vector<int64_t> counts(static_cast<size_t>(b.num_buckets()), 0);
    for (double v : relation.NumericColumn(1)) {
      ++counts[static_cast<size_t>(b.Locate(v))];
    }
    return counts;
  };
  EXPECT_EQ(depth_profile(naive.value()), depth_profile(in_memory));
  EXPECT_EQ(depth_profile(vertical.value()), depth_profile(in_memory));
  std::remove(table.c_str());
  std::remove((testing::TempDir() + "/sorted.optr").c_str());
  std::remove((testing::TempDir() + "/split.bin").c_str());
}

TEST(SortBucketizerFileTest, RejectsBadAttribute) {
  storage::Relation relation(storage::Schema::Synthetic(1, 1));
  const double v = 1.0;
  const uint8_t f = 0;
  relation.AppendRow(std::span<const double>(&v, 1),
                     std::span<const uint8_t>(&f, 1));
  const std::string table = testing::TempDir() + "/one.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, table).ok());
  EXPECT_FALSE(NaiveSortBoundariesFromFile(table, 5, 10,
                                           testing::TempDir() + "/x.optr",
                                           1 << 16, testing::TempDir())
                   .ok());
  std::remove(table.c_str());
}

TEST(SortBucketizerFileTest, TruncatedTableIsCorruption) {
  // A 1000-row table cut back to its first 256-row page must not yield
  // cut points ranked over the rows that survived.
  storage::Relation relation(storage::Schema::Synthetic(1, 1));
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>(i);
    const uint8_t f = 0;
    relation.AppendRow(std::span<const double>(&v, 1),
                       std::span<const uint8_t>(&f, 1));
  }
  const std::string table = testing::TempDir() + "/truncated.optr";
  storage::PagedFileWriterOptions options;
  options.rows_per_page = 256;
  ASSERT_TRUE(storage::WriteRelationToFile(relation, table, options).ok());
  Result<storage::PagedFileInfo> info = storage::ReadPagedFileInfo(table);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(::truncate(table.c_str(),
                       static_cast<off_t>(storage::kPagedFileHeaderBytes +
                                          info.value().page_stride())),
            0);
  EXPECT_EQ(NaiveSortBoundariesFromFile(table, 0, 4,
                                        testing::TempDir() + "/trunc.sorted",
                                        1 << 16, testing::TempDir())
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(VerticalSplitSortBoundariesFromFile(
                table, 0, 4, testing::TempDir() + "/trunc.split", 1 << 16,
                testing::TempDir())
                .status()
                .code(),
            StatusCode::kCorruption);
  std::remove(table.c_str());
  std::remove((testing::TempDir() + "/trunc.sorted").c_str());
  std::remove((testing::TempDir() + "/trunc.split").c_str());
}

std::vector<uint64_t> CutBits(const BucketBoundaries& b) {
  std::vector<uint64_t> bits;
  for (const double cut : b.cut_points()) {
    bits.push_back(std::bit_cast<uint64_t>(cut));
  }
  return bits;
}

TEST(SortBucketizerFileTest, NanAndTiesMatchExactBoundariesBitForBit) {
  // NaN belongs to no bucket: both disk bucketizers skip it and rank over
  // the finite values, exactly like the in-memory sort.
  const double nan = std::nan("");
  storage::Relation relation(storage::Schema::Synthetic(4, 1));
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double numeric[] = {
        rng.NextUniform(-50.0, 50.0),                            // NaN-free
        i % 3 == 0 ? nan : rng.NextGaussian() * 10.0,            // NaN-laden
        nan,                                                     // all-NaN
        static_cast<double>(rng.NextBounded(3)) * 0.25};         // heavy ties
    const uint8_t boolean[] = {static_cast<uint8_t>(i % 2)};
    relation.AppendRow(numeric, boolean);
  }
  const std::string table = testing::TempDir() + "/nan_ties.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, table).ok());
  for (int attr = 0; attr < 4; ++attr) {
    for (const int buckets : {8, 50}) {
      const std::vector<uint64_t> expected = CutBits(
          ExactEquiDepthBoundaries(relation.NumericColumn(attr), buckets));
      Result<BucketBoundaries> naive = NaiveSortBoundariesFromFile(
          table, attr, buckets, testing::TempDir() + "/nan_sorted.optr",
          1 << 14, testing::TempDir());
      ASSERT_TRUE(naive.ok()) << attr;
      EXPECT_EQ(CutBits(naive.value()), expected) << attr << " " << buckets;
      Result<BucketBoundaries> vertical = VerticalSplitSortBoundariesFromFile(
          table, attr, buckets, testing::TempDir() + "/nan_split.bin",
          1 << 14, testing::TempDir());
      ASSERT_TRUE(vertical.ok()) << attr;
      EXPECT_EQ(CutBits(vertical.value()), expected)
          << attr << " " << buckets;
    }
  }
  std::remove(table.c_str());
  std::remove((testing::TempDir() + "/nan_sorted.optr").c_str());
  std::remove((testing::TempDir() + "/nan_split.bin").c_str());
}

// -------------------------------------------------------- error bounds ----

TEST(ErrorBoundsTest, TableOneRows) {
  // Table I of the paper: support_opt = 30%, conf_opt = 70%.
  struct Row {
    int buckets;
    double supp_lo, supp_hi, conf_lo, conf_hi;
  };
  // conf bounds: c*ms/(ms+2) and min(1, c*ms/(ms-2)).
  const Row rows[] = {
      {10, 0.10, 0.50, 0.42, 1.00},
      {100, 0.28, 0.32, 0.65625, 0.75},
      {500, 0.296, 0.304, 0.690789, 0.709459},
      {1000, 0.298, 0.302, 0.695364, 0.704698},
  };
  for (const Row& row : rows) {
    const ApproxErrorBounds b =
        BucketApproximationBounds(0.30, 0.70, row.buckets);
    EXPECT_NEAR(b.support_lo, row.supp_lo, 1e-9) << row.buckets;
    EXPECT_NEAR(b.support_hi, row.supp_hi, 1e-9) << row.buckets;
    EXPECT_NEAR(b.confidence_lo, row.conf_lo, 1e-4) << row.buckets;
    EXPECT_NEAR(b.confidence_hi, row.conf_hi, 1e-4) << row.buckets;
  }
}

TEST(ErrorBoundsTest, RelativeBoundsMatchPaperFormulas) {
  EXPECT_NEAR(RelativeSupportErrorBound(0.3, 100), 2.0 / 30.0, 1e-12);
  EXPECT_NEAR(RelativeConfidenceErrorBound(0.3, 100), 2.0 / 28.0, 1e-12);
  EXPECT_TRUE(std::isinf(RelativeConfidenceErrorBound(0.3, 5)));
}

TEST(ErrorBoundsTest, BoundsShrinkWithMoreBuckets) {
  double prev_width = 2.0;
  for (int m : {10, 50, 100, 500, 1000}) {
    const ApproxErrorBounds b = BucketApproximationBounds(0.30, 0.70, m);
    const double width = b.confidence_hi - b.confidence_lo;
    EXPECT_LT(width, prev_width);
    prev_width = width;
    EXPECT_LE(b.support_lo, 0.30);
    EXPECT_GE(b.support_hi, 0.30);
    EXPECT_LE(b.confidence_lo, 0.70);
    EXPECT_GE(b.confidence_hi, 0.70);
  }
}

}  // namespace
}  // namespace optrules::bucketing
