// Differential fuzzing in three layers. First, the O(M) optimizers
// against the exhaustive oracles, over adversarial bucket-array families
// where ties and degenerate hulls are common: unit buckets, constant
// confidence, monotone ramps, alternating blocks, plateau-heavy arrays,
// and wide random mixes. Second, the one-scan MiningEngine against the
// legacy per-query Miner end to end, over randomized NaN-laden relations
// (plain, generalized, and aggregate queries) and over disk-resident
// paged files -- the library's central correctness argument, so it gets
// its own deep sweep beyond the per-module property tests. Third, the
// two-dimensional layer: grid channels against the row-at-a-time
// region::BuildGrid reference (random rectangular grids, NaN rates, and
// schemas; relations AND paged files, cached and capacity-0 pools)
// and engine region mining against Miner::MineOptimizedRegion bit for
// bit.
//
// Every fuzz stream honors OPTRULES_FUZZ_SEED (see fuzz_seed.h).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/ratio.h"
#include "common/rng.h"
#include "bucketing/parallel_count.h"
#include "bucketing/simd_kernels.h"
#include "bucketing/sort_bucketizer.h"
#include "common/thread_pool.h"
#include "datagen/table_generator.h"
#include "dist/coordinator.h"
#include "dist/fault_injection.h"
#include "dist/manifest.h"
#include "dist/partitioned_table.h"
#include "dist/scan_worker.h"
#include "fuzz_seed.h"
#include "reference/kernels.h"
#include "reference/miner.h"
#include "region/grid.h"
#include "rules/miner.h"
#include "rules/naive.h"
#include "rules/optimized_confidence.h"
#include "rules/optimized_support.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"
#include "storage/paged_file.h"

namespace optrules::rules {
namespace {

using testfuzz::FuzzSeed;

/// Alternates the page geometry across fuzz rounds so every paged-file
/// sweep covers auto-sized pages, tiny multi-page files with a partial
/// tail, and an odd page size with the same data.
storage::PagedFileWriterOptions FuzzFileFormat(int round) {
  storage::PagedFileWriterOptions options;
  if (round % 3 == 1) {
    options.rows_per_page = 64;  // force multiple pages + a partial tail
  } else if (round % 3 == 2) {
    options.rows_per_page = 200;
  }
  return options;
}

/// Rotates the page-cache configuration across paged fuzz rounds: no
/// shared cache (each source pages through its own capacity-0 pool), a
/// deliberately thrashing tiny pool, and a holds-everything large pool.
/// The pool (when any) must outlive every source opened against it.
std::unique_ptr<storage::BufferPool> FuzzPool(int round) {
  switch (round % 3) {
    case 0:
      return nullptr;  // the source's own capacity-0 pool
    case 1:
      return std::make_unique<storage::BufferPool>(size_t{1} << 14);
    default:
      return std::make_unique<storage::BufferPool>(
          storage::kDefaultBufferPoolBytes);
  }
}

struct Instance {
  std::vector<int64_t> u;
  std::vector<int64_t> v;
  int64_t total = 0;
};

enum class Family {
  kUnitBuckets,    // u_i = 1, v_i in {0, 1}: maximal tie density
  kConstantRate,   // v_i proportional to u_i: every range same confidence
  kMonotoneRamp,   // confidence ramps up across buckets
  kAlternating,    // blocks of all-hit / all-miss buckets
  kPlateaus,       // long runs of identical (u, v) pairs
  kRandomWide,     // u_i in [1, 1000], v_i uniform
};

Instance MakeInstance(Family family, int m, Rng& rng) {
  Instance instance;
  instance.u.resize(static_cast<size_t>(m));
  instance.v.resize(static_cast<size_t>(m));
  int64_t plateau_u = 1;
  int64_t plateau_v = 0;
  for (int i = 0; i < m; ++i) {
    int64_t u = 1;
    int64_t v = 0;
    switch (family) {
      case Family::kUnitBuckets:
        u = 1;
        v = rng.NextBernoulli(0.5) ? 1 : 0;
        break;
      case Family::kConstantRate:
        u = rng.NextInt(1, 6) * 2;
        v = u / 2;  // exactly 50% everywhere
        break;
      case Family::kMonotoneRamp:
        u = 10;
        v = (10 * i) / (m > 1 ? m - 1 : 1);
        break;
      case Family::kAlternating: {
        const bool hot = (i / 3) % 2 == 0;
        u = rng.NextInt(1, 5);
        v = hot ? u : 0;
        break;
      }
      case Family::kPlateaus:
        if (i % 7 == 0) {
          plateau_u = rng.NextInt(1, 8);
          plateau_v = rng.NextInt(0, plateau_u);
        }
        u = plateau_u;
        v = plateau_v;
        break;
      case Family::kRandomWide:
        u = rng.NextInt(1, 1000);
        v = rng.NextInt(0, u);
        break;
    }
    instance.u[static_cast<size_t>(i)] = u;
    instance.v[static_cast<size_t>(i)] = v;
    instance.total += u;
  }
  return instance;
}

bool SameConfidence(int64_t h1, int64_t s1, int64_t h2, int64_t s2) {
  return static_cast<__int128>(h1) * s2 == static_cast<__int128>(h2) * s1;
}

class DifferentialFuzzTest : public testing::TestWithParam<Family> {};

TEST_P(DifferentialFuzzTest, OptimizedConfidenceAgreesWithOracle) {
  const Family family = GetParam();
  Rng rng(FuzzSeed(static_cast<uint64_t>(family) * 1000 + 17));
  for (int round = 0; round < 120; ++round) {
    const int m = 1 + static_cast<int>(rng.NextBounded(60));
    const Instance instance = MakeInstance(family, m, rng);
    // Support thresholds spanning trivial to infeasible.
    const int64_t min_support =
        rng.NextInt(0, instance.total + 2);
    const RangeRule fast = OptimizedConfidenceRule(
        instance.u, instance.v, instance.total, min_support);
    const RangeRule naive = NaiveOptimizedConfidenceRule(
        instance.u, instance.v, instance.total, min_support);
    ASSERT_EQ(fast.found, naive.found)
        << "family " << static_cast<int>(family) << " round " << round;
    if (!fast.found) continue;
    ASSERT_TRUE(SameConfidence(fast.hit_count, fast.support_count,
                               naive.hit_count, naive.support_count))
        << "family " << static_cast<int>(family) << " round " << round
        << " m " << m << " minsup " << min_support;
    ASSERT_EQ(fast.support_count, naive.support_count)
        << "family " << static_cast<int>(family) << " round " << round;
  }
}

TEST_P(DifferentialFuzzTest, OptimizedSupportAgreesWithOracle) {
  const Family family = GetParam();
  Rng rng(FuzzSeed(static_cast<uint64_t>(family) * 1000 + 71));
  const Ratio thresholds[] = {Ratio(0, 1),   Ratio(1, 10), Ratio(1, 3),
                              Ratio(1, 2),   Ratio(2, 3),  Ratio(9, 10),
                              Ratio(1, 1)};
  for (int round = 0; round < 120; ++round) {
    const int m = 1 + static_cast<int>(rng.NextBounded(60));
    const Instance instance = MakeInstance(family, m, rng);
    const Ratio theta =
        thresholds[rng.NextBounded(std::size(thresholds))];
    const RangeRule fast = OptimizedSupportRule(instance.u, instance.v,
                                                instance.total, theta);
    const RangeRule naive = NaiveOptimizedSupportRule(
        instance.u, instance.v, instance.total, theta);
    ASSERT_EQ(fast.found, naive.found)
        << "family " << static_cast<int>(family) << " round " << round;
    if (!fast.found) continue;
    ASSERT_EQ(fast.support_count, naive.support_count)
        << "family " << static_cast<int>(family) << " round " << round
        << " m " << m << " theta " << theta.ToString();
    ASSERT_TRUE(theta.LessOrEqualTo(fast.hit_count, fast.support_count));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, DifferentialFuzzTest,
    testing::Values(Family::kUnitBuckets, Family::kConstantRate,
                    Family::kMonotoneRamp, Family::kAlternating,
                    Family::kPlateaus, Family::kRandomWide));

// Cross-invariant: the two optimized rules bound each other. If the
// optimized-confidence rule at min support S has confidence C, then the
// optimized-support rule at threshold C has support >= S.
TEST(DifferentialFuzzTest, DualityBetweenTheTwoOptimizations) {
  Rng rng(FuzzSeed(4242));
  for (int round = 0; round < 200; ++round) {
    const int m = 2 + static_cast<int>(rng.NextBounded(40));
    const Instance instance = MakeInstance(Family::kRandomWide, m, rng);
    const int64_t min_support = 1 + rng.NextInt(0, instance.total - 1);
    const RangeRule conf_rule = OptimizedConfidenceRule(
        instance.u, instance.v, instance.total, min_support);
    if (!conf_rule.found || conf_rule.support_count == 0) continue;
    const Ratio achieved(conf_rule.hit_count, conf_rule.support_count);
    const RangeRule supp_rule = OptimizedSupportRule(
        instance.u, instance.v, instance.total, achieved);
    ASSERT_TRUE(supp_rule.found) << "round " << round;
    EXPECT_GE(supp_rule.support_count, min_support) << "round " << round;
    EXPECT_GE(supp_rule.support_count, conf_rule.support_count)
        << "round " << round;
  }
}

// ------------------------- engine vs legacy end-to-end differential ----

/// Random table with NaNs injected into every numeric column at a random
/// per-column rate (0 .. ~20%), so empty buckets, NaN-only stretches, and
/// NaN-poisoned aggregate targets all occur.
storage::Relation RandomNanRelation(Rng& rng) {
  datagen::TableConfig config;
  config.num_rows = 500 + static_cast<int64_t>(rng.NextBounded(2500));
  config.num_numeric = 2 + static_cast<int>(rng.NextBounded(3));
  config.num_boolean = 1 + static_cast<int>(rng.NextBounded(3));
  storage::Relation relation = datagen::GenerateTable(config, rng);
  const double nan = std::nan("");
  for (int a = 0; a < config.num_numeric; ++a) {
    const double rate = 0.2 * rng.NextDouble();
    std::vector<double>& column = relation.MutableNumericColumn(a);
    for (double& value : column) {
      if (rng.NextBernoulli(rate)) value = nan;
    }
  }
  return relation;
}

void ExpectIdenticalRules(const std::vector<MinedRule>& a,
                          const std::vector<MinedRule>& b, int round) {
  ASSERT_EQ(a.size(), b.size()) << "round " << round;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].found, b[i].found) << "round " << round << " rule " << i;
    ASSERT_EQ(a[i].range_lo, b[i].range_lo) << "round " << round;
    ASSERT_EQ(a[i].range_hi, b[i].range_hi) << "round " << round;
    ASSERT_EQ(a[i].support_count, b[i].support_count) << "round " << round;
    ASSERT_EQ(a[i].hit_count, b[i].hit_count) << "round " << round;
    ASSERT_EQ(a[i].support, b[i].support) << "round " << round;
    ASSERT_EQ(a[i].confidence, b[i].confidence) << "round " << round;
    ASSERT_EQ(a[i].presumptive_condition, b[i].presumptive_condition)
        << "round " << round;
  }
}

void ExpectIdenticalAggregate(const MinedAggregateRange& a,
                              const MinedAggregateRange& b, int round) {
  ASSERT_EQ(a.found, b.found) << "round " << round;
  ASSERT_EQ(a.range_lo, b.range_lo) << "round " << round;
  ASSERT_EQ(a.range_hi, b.range_hi) << "round " << round;
  ASSERT_EQ(a.support_count, b.support_count) << "round " << round;
  ASSERT_EQ(a.support, b.support) << "round " << round;
  if (std::isnan(a.average) || std::isnan(b.average)) {
    ASSERT_TRUE(std::isnan(a.average) && std::isnan(b.average))
        << "round " << round;
  } else {
    ASSERT_EQ(a.average, b.average) << "round " << round;
  }
}

TEST(EngineDifferentialFuzzTest, NanLadenRelationsAllQueryKinds) {
  Rng rng(FuzzSeed(90210));
  for (int round = 0; round < 20; ++round) {
    const storage::Relation relation = RandomNanRelation(rng);
    const storage::Schema& schema = relation.schema();
    MinerOptions options;
    options.num_buckets = 20 + static_cast<int>(rng.NextBounded(60));
    options.sample_per_bucket = 8;
    options.min_support = 0.02 + 0.2 * rng.NextDouble();
    options.min_confidence = 0.3 + 0.5 * rng.NextDouble();
    options.seed = 1000 + static_cast<uint64_t>(round);

    Miner legacy(&relation, options);
    MiningEngine engine(&relation, options);
    ExpectIdenticalRules(engine.MineAllPairs(), legacy.MineAll(), round);

    // A random generalized query: condition = random Boolean subset.
    std::vector<std::string> condition;
    for (int b = 0; b < schema.num_boolean(); ++b) {
      if (rng.NextBernoulli(0.5)) condition.push_back(schema.BooleanName(b));
    }
    const std::string numeric =
        schema.NumericName(static_cast<int>(
            rng.NextBounded(static_cast<uint64_t>(schema.num_numeric()))));
    const std::string objective =
        schema.BooleanName(static_cast<int>(
            rng.NextBounded(static_cast<uint64_t>(schema.num_boolean()))));
    auto engine_generalized =
        engine.MineGeneralized(numeric, condition, objective);
    auto legacy_generalized =
        legacy.MineGeneralized(numeric, condition, objective);
    ASSERT_TRUE(engine_generalized.ok());
    ASSERT_TRUE(legacy_generalized.ok());
    ExpectIdenticalRules(engine_generalized.value(),
                         legacy_generalized.value(), round);

    // A random aggregate pair (range and target may coincide).
    const std::string range_attr =
        schema.NumericName(static_cast<int>(
            rng.NextBounded(static_cast<uint64_t>(schema.num_numeric()))));
    const std::string target_attr =
        schema.NumericName(static_cast<int>(
            rng.NextBounded(static_cast<uint64_t>(schema.num_numeric()))));
    const double min_support = 0.05 + 0.3 * rng.NextDouble();
    auto engine_average =
        engine.MineMaximumAverageRange(range_attr, target_attr, min_support);
    auto legacy_average =
        legacy.MineMaximumAverageRange(range_attr, target_attr, min_support);
    ASSERT_TRUE(engine_average.ok());
    ASSERT_TRUE(legacy_average.ok());
    ExpectIdenticalAggregate(engine_average.value(), legacy_average.value(),
                             round);
    const double min_average = 2e5 + 6e5 * rng.NextDouble();
    auto engine_support =
        engine.MineMaximumSupportRange(range_attr, target_attr, min_average);
    auto legacy_support =
        legacy.MineMaximumSupportRange(range_attr, target_attr, min_average);
    ASSERT_TRUE(engine_support.ok());
    ASSERT_TRUE(legacy_support.ok());
    ExpectIdenticalAggregate(engine_support.value(), legacy_support.value(),
                             round);
  }
}

TEST(EngineDifferentialFuzzTest, NanLadenPagedFilesMatchInMemoryEngine) {
  // The disk path exercises the page -> column transpose and NaN byte
  // round-tripping; GK boundaries are deterministic so file and memory
  // engines must agree bit for bit.
  Rng rng(FuzzSeed(60601));
  for (int round = 0; round < 6; ++round) {
    const storage::Relation relation = RandomNanRelation(rng);
    MinerOptions options;
    options.num_buckets = 16 + static_cast<int>(rng.NextBounded(48));
    options.bucketizer = Bucketizer::kGkSketch;
    const std::string path = testing::TempDir() + "/fuzz_nan_" +
                             std::to_string(round) + ".optr";
    ASSERT_TRUE(
        storage::WriteRelationToFile(relation, path, FuzzFileFormat(round))
            .ok());
    const std::unique_ptr<storage::BufferPool> pool = FuzzPool(round);
    auto source_or = storage::PagedFileBatchSource::Open(
        path, 128 + static_cast<int64_t>(rng.NextBounded(900)), pool.get());
    ASSERT_TRUE(source_or.ok());

    MiningEngine memory_engine(&relation, options);
    MiningEngine file_engine(source_or.value().get(), relation.schema(),
                             options);
    for (MiningEngine* engine : {&memory_engine, &file_engine}) {
      ASSERT_TRUE(engine->RequestGeneralized({}).ok());
      ASSERT_TRUE(
          engine->RequestAverageTarget(relation.schema().NumericName(0))
              .ok());
    }
    ExpectIdenticalRules(file_engine.MineAllPairs(),
                         memory_engine.MineAllPairs(), round);
    auto file_generalized = file_engine.MineGeneralized(
        relation.schema().NumericName(0), {},
        relation.schema().BooleanName(0));
    auto memory_generalized = memory_engine.MineGeneralized(
        relation.schema().NumericName(0), {},
        relation.schema().BooleanName(0));
    ASSERT_TRUE(file_generalized.ok());
    ASSERT_TRUE(memory_generalized.ok());
    ExpectIdenticalRules(file_generalized.value(),
                         memory_generalized.value(), round);
    auto file_average = file_engine.MineMaximumAverageRange(
        relation.schema().NumericName(1), relation.schema().NumericName(0),
        0.1);
    auto memory_average = memory_engine.MineMaximumAverageRange(
        relation.schema().NumericName(1), relation.schema().NumericName(0),
        0.1);
    ASSERT_TRUE(file_average.ok());
    ASSERT_TRUE(memory_average.ok());
    ExpectIdenticalAggregate(file_average.value(), memory_average.value(),
                             round);
    ASSERT_EQ(file_engine.counting_scans(), 1) << round;
    std::remove(path.c_str());
  }
}

TEST(EngineDifferentialFuzzTest, ForcedScalarReferenceArmMatchesSimd) {
  // OPTRULES_FORCE_SCALAR pins both the scalar locate kernels and the
  // reference (overlay + guarded) accumulation arm; a full mining session
  // must be bit-identical between that reference path and the dispatched
  // SIMD path. GK boundaries are deterministic, so any divergence is a
  // kernel bug, not sampling noise.
  struct ScopedForceScalar {
    explicit ScopedForceScalar(bool force) {
      bucketing::simd::SetForceScalarForTest(force);
    }
    ~ScopedForceScalar() { bucketing::simd::SetForceScalarForTest(false); }
  };
  Rng rng(FuzzSeed(51515));
  for (int round = 0; round < 5; ++round) {
    const storage::Relation relation = RandomNanRelation(rng);
    MinerOptions options;
    options.num_buckets = 16 + static_cast<int>(rng.NextBounded(48));
    options.bucketizer = Bucketizer::kGkSketch;
    const std::string average_target = relation.schema().NumericName(0);
    const std::string average_range = relation.schema().NumericName(1);

    std::vector<MinedRule> simd_rules;
    Result<MinedAggregateRange> simd_average =
        Status::InvalidArgument("unset");
    {
      ScopedForceScalar force(false);
      MiningEngine engine(&relation, options);
      ASSERT_TRUE(engine.RequestAverageTarget(average_target).ok());
      simd_rules = engine.MineAllPairs();
      simd_average =
          engine.MineMaximumAverageRange(average_range, average_target, 0.1);
    }
    std::vector<MinedRule> scalar_rules;
    Result<MinedAggregateRange> scalar_average =
        Status::InvalidArgument("unset");
    {
      ScopedForceScalar force(true);
      MiningEngine engine(&relation, options);
      ASSERT_TRUE(engine.RequestAverageTarget(average_target).ok());
      scalar_rules = engine.MineAllPairs();
      scalar_average =
          engine.MineMaximumAverageRange(average_range, average_target, 0.1);
    }
    ExpectIdenticalRules(simd_rules, scalar_rules, round);
    ASSERT_TRUE(simd_average.ok());
    ASSERT_TRUE(scalar_average.ok());
    ExpectIdenticalAggregate(simd_average.value(), scalar_average.value(),
                             round);
  }
}

TEST(EngineDifferentialFuzzTest, WideSchemaRoundTripsThroughPagedFiles) {
  // Randomized wide schemas (hundreds of numeric attributes, i.e. row
  // widths past the old 4096-byte AppendRow staging array) must survive
  // the disk round trip bit for bit, NaNs included.
  Rng rng(FuzzSeed(77077));
  for (int round = 0; round < 4; ++round) {
    const int num_numeric = 510 + static_cast<int>(rng.NextBounded(300));
    const int num_boolean = 1 + static_cast<int>(rng.NextBounded(8));
    const int64_t rows = 16 + static_cast<int64_t>(rng.NextBounded(48));
    const storage::Schema schema =
        storage::Schema::Synthetic(num_numeric, num_boolean);
    storage::Relation relation(schema);
    std::vector<double> numeric(static_cast<size_t>(num_numeric));
    std::vector<uint8_t> boolean(static_cast<size_t>(num_boolean));
    for (int64_t row = 0; row < rows; ++row) {
      for (double& value : numeric) {
        value = rng.NextBernoulli(0.05) ? std::nan("")
                                        : rng.NextDouble() * 1e6 - 5e5;
      }
      for (uint8_t& value : boolean) {
        value = rng.NextBernoulli(0.5) ? 1 : 0;
      }
      relation.AppendRow(numeric, boolean);
    }
    const std::string path = testing::TempDir() + "/fuzz_wide_" +
                             std::to_string(round) + ".optr";
    ASSERT_TRUE(
        storage::WriteRelationToFile(relation, path, FuzzFileFormat(round))
            .ok());
    auto read_or = storage::ReadRelationFromFile(path, schema);
    ASSERT_TRUE(read_or.ok());
    const storage::Relation& read = read_or.value();
    ASSERT_EQ(read.NumRows(), rows) << round;
    for (int64_t row = 0; row < rows; ++row) {
      for (int a = 0; a < num_numeric; ++a) {
        const double expected = relation.NumericValue(row, a);
        const double got = read.NumericValue(row, a);
        if (std::isnan(expected)) {
          ASSERT_TRUE(std::isnan(got)) << round;
        } else {
          ASSERT_EQ(got, expected) << round;
        }
      }
      for (int b = 0; b < num_boolean; ++b) {
        ASSERT_EQ(read.BooleanValue(row, b), relation.BooleanValue(row, b))
            << round;
      }
    }
    std::remove(path.c_str());
  }
}

// ----------------------- two-dimensional grid / region differential ----

void ExpectIdenticalRegionRule(const region::RegionRule& a,
                               const region::RegionRule& b, int round) {
  ASSERT_EQ(a.found, b.found) << "round " << round;
  ASSERT_EQ(a.x1, b.x1) << "round " << round;
  ASSERT_EQ(a.x2, b.x2) << "round " << round;
  ASSERT_EQ(a.y1, b.y1) << "round " << round;
  ASSERT_EQ(a.y2, b.y2) << "round " << round;
  ASSERT_EQ(a.support_count, b.support_count) << "round " << round;
  ASSERT_EQ(a.hit_count, b.hit_count) << "round " << round;
  ASSERT_EQ(a.support, b.support) << "round " << round;
  ASSERT_EQ(a.confidence, b.confidence) << "round " << round;
}

void ExpectIdenticalRegion(const Result<MinedRegion>& a_or,
                           const Result<MinedRegion>& b_or, int round) {
  ASSERT_TRUE(a_or.ok()) << "round " << round;
  ASSERT_TRUE(b_or.ok()) << "round " << round;
  const MinedRegion& a = a_or.value();
  const MinedRegion& b = b_or.value();
  ASSERT_EQ(a.found, b.found) << "round " << round;
  ASSERT_EQ(a.nx, b.nx) << "round " << round;
  ASSERT_EQ(a.ny, b.ny) << "round " << round;
  ASSERT_EQ(a.total_tuples, b.total_tuples) << "round " << round;
  ExpectIdenticalRegionRule(a.confidence_rectangle, b.confidence_rectangle,
                            round);
  ExpectIdenticalRegionRule(a.support_rectangle, b.support_rectangle, round);
  ASSERT_EQ(a.xmonotone_gain.found, b.xmonotone_gain.found)
      << "round " << round;
  ASSERT_EQ(a.xmonotone_gain.x_begin, b.xmonotone_gain.x_begin)
      << "round " << round;
  ASSERT_EQ(a.xmonotone_gain.column_ranges, b.xmonotone_gain.column_ranges)
      << "round " << round;
  ASSERT_EQ(a.xmonotone_gain.support_count, b.xmonotone_gain.support_count)
      << "round " << round;
  ASSERT_EQ(a.xmonotone_gain.hit_count, b.xmonotone_gain.hit_count)
      << "round " << round;
  ASSERT_EQ(a.xmonotone_gain.gain, b.xmonotone_gain.gain)
      << "round " << round;
}

void ExpectGridMatchesReference(const bucketing::GridBucketCounts& cells,
                                const storage::Relation& relation, int x_attr,
                                int y_attr,
                                const bucketing::BucketBoundaries& bx,
                                const bucketing::BucketBoundaries& by,
                                int round) {
  ASSERT_EQ(cells.nx, bx.num_buckets()) << "round " << round;
  ASSERT_EQ(cells.ny, by.num_buckets()) << "round " << round;
  ASSERT_EQ(cells.total_tuples, relation.NumRows()) << "round " << round;
  for (int t = 0; t < cells.num_targets(); ++t) {
    const region::GridCounts expected = region::BuildGrid(
        relation.NumericColumn(x_attr), relation.NumericColumn(y_attr),
        relation.BooleanColumn(t), bx, by);
    const region::GridCounts actual = region::FromGridBucketCounts(cells, t);
    ASSERT_EQ(actual.total_tuples(), expected.total_tuples())
        << "round " << round << " target " << t;
    for (int y = 0; y < cells.ny; ++y) {
      for (int x = 0; x < cells.nx; ++x) {
        ASSERT_EQ(actual.u(x, y), expected.u(x, y))
            << "round " << round << " cell " << x << "," << y;
        ASSERT_EQ(actual.v(x, y), expected.v(x, y))
            << "round " << round << " target " << t << " cell " << x << ","
            << y;
      }
    }
  }
}

TEST(RegionDifferentialFuzzTest, GridChannelMatchesBuildGridEverywhere) {
  // Random NaN-laden schemas and random RECTANGULAR grids (nx != ny,
  // random cut points, x may equal y), counted through the grid channel
  // over an in-memory relation, a paged file (cached and capacity-0), and a
  // pooled row-sharded scan -- every path must reproduce the
  // row-at-a-time BuildGrid reference cell for cell, for every Boolean
  // target.
  Rng rng(FuzzSeed(31337));
  for (int round = 0; round < 8; ++round) {
    const storage::Relation relation = RandomNanRelation(rng);
    const storage::Schema& schema = relation.schema();
    const int x_attr =
        static_cast<int>(rng.NextBounded(
            static_cast<uint64_t>(schema.num_numeric())));
    const int y_attr =
        static_cast<int>(rng.NextBounded(
            static_cast<uint64_t>(schema.num_numeric())));
    const auto random_boundaries = [&rng](int num_buckets) {
      std::vector<double> cuts;
      for (int i = 0; i < num_buckets - 1; ++i) {
        cuts.push_back(rng.NextUniform(0.0, 1e6));
      }
      std::sort(cuts.begin(), cuts.end());
      return bucketing::BucketBoundaries::FromCutPoints(std::move(cuts));
    };
    const auto bx =
        random_boundaries(1 + static_cast<int>(rng.NextBounded(40)));
    const auto by =
        random_boundaries(1 + static_cast<int>(rng.NextBounded(40)));

    const auto make_spec = [&] {
      bucketing::MultiCountSpec spec;
      spec.num_targets = schema.num_boolean();
      // A base channel on the x column shares its locate group with the
      // grid when the boundaries object matches.
      bucketing::CountChannel base;
      base.column = x_attr;
      base.boundaries = &bx;
      spec.channels.push_back(std::move(base));
      bucketing::GridChannel grid;
      grid.x_column = x_attr;
      grid.x_boundaries = &bx;
      grid.y_column = y_attr;
      grid.y_boundaries = &by;
      spec.grid_channels.push_back(grid);
      return spec;
    };

    // In-memory serial.
    {
      storage::RelationBatchSource source(&relation, 256);
      bucketing::MultiCountPlan plan(make_spec());
      bucketing::ExecuteMultiCount(source, &plan, nullptr);
      ExpectGridMatchesReference(plan.grid_counts(0), relation, x_attr,
                                 y_attr, bx, by, round);
    }
    // In-memory pooled (row-sharded grid Merge).
    {
      ThreadPool pool(3);
      storage::RelationBatchSource source(&relation, 256);
      bucketing::MultiCountPlan plan(make_spec());
      bucketing::ExecuteMultiCount(source, &plan, &pool);
      EXPECT_EQ(source.scans_started(), 1) << round;
      ExpectGridMatchesReference(plan.grid_counts(0), relation, x_attr,
                                 y_attr, bx, by, round);
    }
    // Paged file, over the round's pool and over a capacity-0 pool.
    const std::string path = testing::TempDir() + "/fuzz_grid_" +
                             std::to_string(round) + ".optr";
    ASSERT_TRUE(
        storage::WriteRelationToFile(relation, path, FuzzFileFormat(round))
            .ok());
    const std::unique_ptr<storage::BufferPool> file_pool = FuzzPool(round);
    for (storage::BufferPool* pool :
         {file_pool.get(), static_cast<storage::BufferPool*>(nullptr)}) {
      auto source_or = storage::PagedFileBatchSource::Open(
          path, 128 + static_cast<int64_t>(rng.NextBounded(400)), pool);
      ASSERT_TRUE(source_or.ok());
      bucketing::MultiCountPlan plan(make_spec());
      bucketing::ExecuteMultiCount(*source_or.value(), &plan, nullptr);
      ExpectGridMatchesReference(plan.grid_counts(0), relation, x_attr,
                                 y_attr, bx, by, round);
    }
    std::remove(path.c_str());
  }
}

TEST(RegionDifferentialFuzzTest, EngineRegionsMatchLegacyMiner) {
  // End to end: random schemas, NaN rates, grid resolutions, and
  // thresholds; MiningEngine::MineOptimizedRegion (grid channel inside
  // the one shared scan) against Miner::MineOptimizedRegion (private
  // BuildGrid pass), bit for bit -- while the same session also answers
  // the 1-D sweep from the same single scan.
  Rng rng(FuzzSeed(24601));
  for (int round = 0; round < 10; ++round) {
    const storage::Relation relation = RandomNanRelation(rng);
    const storage::Schema& schema = relation.schema();
    MinerOptions options;
    options.num_buckets = 16 + static_cast<int>(rng.NextBounded(60));
    options.region_grid_buckets = 2 + static_cast<int>(rng.NextBounded(30));
    options.sample_per_bucket = 8;
    options.min_support = 0.02 + 0.2 * rng.NextDouble();
    options.min_confidence = 0.3 + 0.5 * rng.NextDouble();
    options.seed = 5000 + static_cast<uint64_t>(round);

    const std::string x = schema.NumericName(static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(schema.num_numeric()))));
    const std::string y = schema.NumericName(static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(schema.num_numeric()))));
    const std::string target = schema.BooleanName(static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(schema.num_boolean()))));
    // Half the rounds request an explicit rectangular nx-by-ny grid (the
    // engine-level rectangular path); the rest use the square default.
    const bool rectangular = rng.NextBernoulli(0.5);
    const int nx = 2 + static_cast<int>(rng.NextBounded(28));
    const int ny = 2 + static_cast<int>(rng.NextBounded(28));

    Miner legacy(&relation, options);
    MiningEngine engine(&relation, options);
    if (rectangular) {
      ASSERT_TRUE(engine.RequestRegionPair(x, y, nx, ny).ok());
    } else {
      ASSERT_TRUE(engine.RequestRegionPair(x, y).ok());
    }
    ExpectIdenticalRules(engine.MineAllPairs(), legacy.MineAll(), round);
    ExpectIdenticalRegion(
        engine.MineOptimizedRegion(x, y, target),
        rectangular
            ? legacy.MineOptimizedRegion(x, y, target, nx, ny)
            : legacy.MineOptimizedRegion(x, y, target),
        round);
    ASSERT_EQ(engine.counting_scans(), 1) << round;
  }
}

TEST(RegionDifferentialFuzzTest, PagedEngineRegionsMatchMemoryEngine) {
  // Out-of-core 2-D mining: the paged-file engine (over the round's pool
  // AND a capacity-0 pool) must reproduce the in-memory engine's regions
  // bit for bit (GK boundaries keep planning deterministic across the
  // column and batch paths).
  Rng rng(FuzzSeed(11235));
  for (int round = 0; round < 5; ++round) {
    const storage::Relation relation = RandomNanRelation(rng);
    const storage::Schema& schema = relation.schema();
    MinerOptions options;
    options.num_buckets = 16 + static_cast<int>(rng.NextBounded(48));
    options.region_grid_buckets = 2 + static_cast<int>(rng.NextBounded(30));
    options.bucketizer = Bucketizer::kGkSketch;
    const std::string x = schema.NumericName(0);
    const std::string y =
        schema.NumericName(schema.num_numeric() > 1 ? 1 : 0);
    const std::string target = schema.BooleanName(0);

    MiningEngine memory_engine(&relation, options);
    ASSERT_TRUE(memory_engine.RequestRegionPair(x, y).ok());
    const auto expected = memory_engine.MineOptimizedRegion(x, y, target);

    const std::string path = testing::TempDir() + "/fuzz_region_" +
                             std::to_string(round) + ".optr";
    ASSERT_TRUE(
        storage::WriteRelationToFile(relation, path, FuzzFileFormat(round))
            .ok());
    const std::unique_ptr<storage::BufferPool> file_pool = FuzzPool(round);
    for (storage::BufferPool* pool :
         {file_pool.get(), static_cast<storage::BufferPool*>(nullptr)}) {
      auto source_or = storage::PagedFileBatchSource::Open(
          path, 128 + static_cast<int64_t>(rng.NextBounded(600)), pool);
      ASSERT_TRUE(source_or.ok());
      MiningEngine file_engine(source_or.value().get(), schema, options);
      ASSERT_TRUE(file_engine.RequestRegionPair(x, y).ok());
      ExpectIdenticalRegion(file_engine.MineOptimizedRegion(x, y, target),
                            expected, round);
      ASSERT_EQ(file_engine.counting_scans(), 1) << round;
    }
    std::remove(path.c_str());
  }
}

// ----------------------- partitioned / distributed scan differential ----

/// Bit-exact plan comparison: counts, grids, min/max, and the extracted
/// compensated sums.
void ExpectIdenticalPlans(const bucketing::MultiCountPlan& a,
                          const bucketing::MultiCountPlan& b, int round) {
  ASSERT_EQ(a.num_channels(), b.num_channels()) << "round " << round;
  ASSERT_EQ(a.num_grid_channels(), b.num_grid_channels())
      << "round " << round;
  for (int c = 0; c < a.num_channels(); ++c) {
    const bucketing::BucketCounts& ca = a.counts(c);
    const bucketing::BucketCounts& cb = b.counts(c);
    ASSERT_EQ(ca.total_tuples, cb.total_tuples)
        << "round " << round << " channel " << c;
    ASSERT_EQ(ca.u, cb.u) << "round " << round << " channel " << c;
    ASSERT_EQ(ca.v, cb.v) << "round " << round << " channel " << c;
    for (size_t bkt = 0; bkt < ca.min_value.size(); ++bkt) {
      ASSERT_EQ(std::isnan(ca.min_value[bkt]),
                std::isnan(cb.min_value[bkt]));
      if (!std::isnan(ca.min_value[bkt])) {
        ASSERT_EQ(ca.min_value[bkt], cb.min_value[bkt]);
        ASSERT_EQ(ca.max_value[bkt], cb.max_value[bkt]);
      }
    }
    const size_t num_sums =
        a.spec().channels[static_cast<size_t>(c)].sum_targets.size();
    for (size_t k = 0; k < num_sums; ++k) {
      const bucketing::BucketSums sa =
          a.MakeBucketSums(c, static_cast<int>(k));
      const bucketing::BucketSums sb =
          b.MakeBucketSums(c, static_cast<int>(k));
      ASSERT_EQ(sa.sum.size(), sb.sum.size());
      for (size_t bkt = 0; bkt < sa.sum.size(); ++bkt) {
        ASSERT_EQ(std::isnan(sa.sum[bkt]), std::isnan(sb.sum[bkt]));
        if (!std::isnan(sa.sum[bkt])) {
          ASSERT_EQ(sa.sum[bkt], sb.sum[bkt])
              << "round " << round << " channel " << c << " target " << k
              << " bucket " << bkt;
        }
      }
    }
  }
  for (int g = 0; g < a.num_grid_channels(); ++g) {
    const bucketing::GridBucketCounts& ga = a.grid_counts(g);
    const bucketing::GridBucketCounts& gb = b.grid_counts(g);
    ASSERT_EQ(ga.total_tuples, gb.total_tuples) << "round " << round;
    ASSERT_EQ(ga.u, gb.u) << "round " << round << " grid " << g;
    ASSERT_EQ(ga.v, gb.v) << "round " << round << " grid " << g;
  }
}

TEST(EngineDifferentialFuzzTest, SelectiveConditionPruningIsExact) {
  // Zone-map pruning under a rare, clustered condition: the condition
  // Boolean is true only inside a narrow random window, so almost every
  // page carries no true condition byte and every (conditional) unit of
  // the spec is provably dead there. The pooled scan must actually skip
  // pages AND still reproduce the unpruned in-memory reference bit for
  // bit -- skipped rows may contribute nothing but total_tuples.
  Rng rng(FuzzSeed(80808));
  int64_t pages_skipped = 0;
  for (int round = 0; round < 8; ++round) {
    storage::Relation relation = RandomNanRelation(rng);
    const int64_t rows = relation.NumRows();
    std::vector<uint8_t>& cond = relation.MutableBooleanColumn(0);
    const int64_t begin = static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(rows)));
    const int64_t end = std::min<int64_t>(
        rows, begin + 1 + static_cast<int64_t>(rng.NextBounded(200)));
    for (int64_t i = 0; i < rows; ++i) {
      if (i < begin || i >= end) cond[static_cast<size_t>(i)] = 0;
    }

    const storage::Schema& schema = relation.schema();
    const auto equi = [&relation](int a) {
      return bucketing::ExactEquiDepthBoundaries(relation.NumericColumn(a),
                                                 16);
    };
    std::vector<bucketing::BucketBoundaries> base;
    for (int a = 0; a < schema.num_numeric(); ++a) base.push_back(equi(a));
    bucketing::MultiCountSpec spec;
    spec.num_targets = schema.num_boolean();
    spec.conditions.push_back({0});
    for (int a = 0; a < schema.num_numeric(); ++a) {
      bucketing::CountChannel channel;
      channel.column = a;
      channel.boundaries = &base[static_cast<size_t>(a)];
      channel.condition = 0;
      spec.channels.push_back(std::move(channel));
    }
    bucketing::CountChannel summing;
    summing.column = 0;
    summing.boundaries = &base[0];
    summing.condition = 0;
    summing.count_targets = false;
    summing.sum_targets = {schema.num_numeric() > 1 ? 1 : 0};
    spec.channels.push_back(std::move(summing));

    storage::PagedFileWriterOptions file_options;
    file_options.rows_per_page = 64;  // many prunable pages per file
    const std::string path = testing::TempDir() + "/fuzz_prune_" +
                             std::to_string(round) + ".optr";
    ASSERT_TRUE(
        storage::WriteRelationToFile(relation, path, file_options).ok());

    const int64_t batch_rows =
        64 + static_cast<int64_t>(rng.NextBounded(500));

    bucketing::MultiCountPlan reference(spec);
    storage::RelationBatchSource in_memory(&relation, batch_rows);
    bucketing::ExecuteMultiCount(in_memory, &reference, nullptr);
    // Pruning runs over a shared cache and over a capacity-0 pool alike.
    storage::BufferPool cache(storage::kDefaultBufferPoolBytes);
    for (storage::BufferPool* pool :
         {&cache, static_cast<storage::BufferPool*>(nullptr)}) {
      auto paged_or =
          storage::PagedFileBatchSource::Open(path, batch_rows, pool);
      ASSERT_TRUE(paged_or.ok());
      bucketing::MultiCountPlan pruned(spec);
      bucketing::ExecuteMultiCount(*paged_or.value(), &pruned, nullptr);
      ExpectIdenticalPlans(pruned, reference, round);
      pages_skipped += paged_or.value()->SourceStats().pages_skipped;
    }
    std::remove(path.c_str());
  }
  // Across the sweep the clustered condition must have made pruning fire.
  EXPECT_GT(pages_skipped, 0);
}

/// Random mixed spec (per-attribute channels, a conditional channel, a
/// compensated-sum channel, and a rectangular grid whose axes may
/// coincide) plus the boundary storage it points into. Filled in place
/// by BuildRandomDistSpec -- spec holds pointers to base/grid_y, so the
/// holder must not move afterwards.
struct RandomDistSpec {
  std::vector<bucketing::BucketBoundaries> base;
  bucketing::BucketBoundaries grid_y =
      bucketing::BucketBoundaries::FromCutPoints({});
  bucketing::MultiCountSpec spec;
};

void BuildRandomDistSpec(Rng& rng, const storage::Schema& schema,
                         RandomDistSpec* out) {
  const auto random_boundaries = [&rng](int num_buckets) {
    std::vector<double> cuts;
    for (int i = 0; i < num_buckets - 1; ++i) {
      cuts.push_back(rng.NextUniform(-1e5, 9e5));
    }
    std::sort(cuts.begin(), cuts.end());
    return bucketing::BucketBoundaries::FromCutPoints(std::move(cuts));
  };
  for (int a = 0; a < schema.num_numeric(); ++a) {
    out->base.push_back(
        random_boundaries(2 + static_cast<int>(rng.NextBounded(30))));
  }
  out->grid_y = random_boundaries(2 + static_cast<int>(rng.NextBounded(20)));
  bucketing::MultiCountSpec& spec = out->spec;
  spec.num_targets = schema.num_boolean();
  spec.conditions.push_back({0});
  for (int a = 0; a < schema.num_numeric(); ++a) {
    bucketing::CountChannel channel;
    channel.column = a;
    channel.boundaries = &out->base[static_cast<size_t>(a)];
    spec.channels.push_back(std::move(channel));
  }
  bucketing::CountChannel conditional;
  conditional.column = static_cast<int>(
      rng.NextBounded(static_cast<uint64_t>(schema.num_numeric())));
  conditional.boundaries =
      &out->base[static_cast<size_t>(conditional.column)];
  conditional.condition = 0;
  spec.channels.push_back(std::move(conditional));
  bucketing::CountChannel summing;
  summing.column = 0;
  summing.boundaries = &out->base[0];
  summing.count_targets = false;
  summing.sum_targets = {schema.num_numeric() > 1 ? 1 : 0};
  spec.channels.push_back(std::move(summing));
  bucketing::GridChannel grid;
  grid.x_column = static_cast<int>(
      rng.NextBounded(static_cast<uint64_t>(schema.num_numeric())));
  grid.x_boundaries = &out->base[static_cast<size_t>(grid.x_column)];
  grid.y_column = static_cast<int>(
      rng.NextBounded(static_cast<uint64_t>(schema.num_numeric())));
  grid.y_boundaries = &out->grid_y;
  spec.grid_channels.push_back(grid);
}

TEST(DistDifferentialFuzzTest, PartitionedScanMatchesSingleRelation) {
  // Random NaN-laden schemas, random K, random partitioner, random worker
  // counts, in-process AND subprocess workers: the distributed scan must
  // reproduce the single-relation serial reference bit for bit -- counts,
  // rectangular grids, min/max, and the compensated per-bucket sums.
  Rng rng(FuzzSeed(55501));
  const bool have_workerd = !dist::ResolveWorkerdPath("").empty();
  for (int round = 0; round < 8; ++round) {
    const storage::Relation relation = RandomNanRelation(rng);
    const storage::Schema& schema = relation.schema();
    RandomDistSpec holder;
    BuildRandomDistSpec(rng, schema, &holder);
    const bucketing::MultiCountSpec& spec = holder.spec;

    // Single-relation serial reference.
    storage::RelationBatchSource reference_source(&relation);
    bucketing::MultiCountPlan reference(spec);
    bucketing::ExecuteMultiCount(reference_source, &reference, nullptr);

    dist::PartitionOptions partition_options;
    partition_options.num_partitions =
        1 + static_cast<int>(rng.NextBounded(8));
    partition_options.strategy = rng.NextBernoulli(0.5)
                                     ? dist::PartitionStrategy::kRoundRobin
                                     : dist::PartitionStrategy::kHash;
    partition_options.hash_seed = rng.Next64();
    const std::string dir = testing::TempDir() + "/fuzz_partition_" +
                            std::to_string(round);
    std::filesystem::remove_all(dir);
    auto table = dist::PartitionRelation(relation, dir, partition_options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();

    dist::DistributedScanOptions scan_options;
    scan_options.max_workers =
        static_cast<int>(rng.NextBounded(
            static_cast<uint64_t>(partition_options.num_partitions) + 1));
    scan_options.batch_rows = 64 + static_cast<int64_t>(rng.NextBounded(500));
    // Subprocess workers on alternating rounds (when the daemon binary is
    // available); both kinds must be bit-identical to the reference.
    if (have_workerd && round % 2 == 1) {
      scan_options.worker_kind = dist::WorkerKind::kSubprocess;
    }
    dist::DistributedScanCoordinator coordinator(&table.value(),
                                                 scan_options);
    bucketing::MultiCountPlan partitioned(spec);
    ASSERT_TRUE(coordinator.Execute(&partitioned).ok()) << "round " << round;
    ExpectIdenticalPlans(partitioned, reference, round);
    std::filesystem::remove_all(dir);
  }
}

/// Sets (or unsets, for nullptr) an environment variable for one scope
/// and restores the previous state on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const std::string& name, const char* value) : name_(name) {
    const char* old = std::getenv(name_.c_str());
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value == nullptr) {
      ::unsetenv(name_.c_str());
    } else {
      ::setenv(name_.c_str(), value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(DistDifferentialFuzzTest, FaultInjectedScanMatchesSingleRelation) {
  // The fault-tolerance differential: every round injects exactly one
  // random fault into an otherwise-random distributed scan and demands
  // the merged result stay bit-identical to the single-relation serial
  // reference. In-process rounds wrap the first roster worker in a
  // FaultInjectingScanWorker (random retryable status, sometimes marking
  // the transport broken so the respawn path runs); subprocess rounds
  // arm a token-gated daemon fault (crash, torn frame, garbage frame,
  // error frame, heartbeat-backed stall, or silent hang) that exactly
  // one forked daemon claims. A random worker count makes sure stealing
  // never changes bits.
  Rng rng(FuzzSeed(55502));
  const bool have_workerd = !dist::ResolveWorkerdPath("").empty();
  static const char* kDaemonFaults[] = {
      "crash-before-reply@0", "crash-mid-frame@0", "garbage-frame@0",
      "error-frame@0",        "stall:200@0",       "hang:5000@0",
  };
  int64_t total_retries = 0;
  for (int round = 0; round < 8; ++round) {
    const storage::Relation relation = RandomNanRelation(rng);
    const storage::Schema& schema = relation.schema();
    RandomDistSpec holder;
    BuildRandomDistSpec(rng, schema, &holder);

    // Single-relation serial reference.
    storage::RelationBatchSource reference_source(&relation);
    bucketing::MultiCountPlan reference(holder.spec);
    bucketing::ExecuteMultiCount(reference_source, &reference, nullptr);

    dist::PartitionOptions partition_options;
    partition_options.num_partitions =
        2 + static_cast<int>(rng.NextBounded(7));
    partition_options.strategy = rng.NextBernoulli(0.5)
                                     ? dist::PartitionStrategy::kRoundRobin
                                     : dist::PartitionStrategy::kHash;
    partition_options.hash_seed = rng.Next64();
    const std::string dir = testing::TempDir() + "/fuzz_fault_" +
                            std::to_string(round);
    std::filesystem::remove_all(dir);
    auto table = dist::PartitionRelation(relation, dir, partition_options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();

    dist::DistributedScanOptions scan_options;
    scan_options.max_workers = 1 + static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(partition_options.num_partitions)));
    scan_options.batch_rows = 64 + static_cast<int64_t>(rng.NextBounded(500));
    scan_options.liveness_timeout_ms = 500;  // kills hung daemons fast

    const bool subprocess_round = have_workerd && round % 2 == 1;
    std::optional<ScopedEnv> fault_env, token_env, counter_env;
    if (subprocess_round) {
      scan_options.worker_kind = dist::WorkerKind::kSubprocess;
      const char* fault = kDaemonFaults[rng.NextBounded(6)];
      const std::string token = dir + "_token";
      std::FILE* file = std::fopen(token.c_str(), "wb");
      ASSERT_NE(file, nullptr);
      std::fputs("token\n", file);
      std::fclose(file);
      fault_env.emplace("OPTRULES_WORKERD_FAULT", fault);
      token_env.emplace("OPTRULES_WORKERD_FAULT_TOKEN", token.c_str());
      counter_env.emplace("OPTRULES_WORKERD_FAULT_COUNTER", nullptr);
    } else {
      // No daemons this round; still scrub any inherited fault spec so
      // the round is a function of the fuzz seed alone.
      fault_env.emplace("OPTRULES_WORKERD_FAULT", nullptr);
      token_env.emplace("OPTRULES_WORKERD_FAULT_TOKEN", nullptr);
      counter_env.emplace("OPTRULES_WORKERD_FAULT_COUNTER", nullptr);
      dist::InjectedFault fault;
      fault.at_call = 0;
      switch (rng.NextBounded(3)) {
        case 0:
          fault.status = Status::IoError("injected transport failure");
          fault.mark_unhealthy = true;  // forces the respawn path
          break;
        case 1:
          fault.status = Status::Internal("injected worker failure");
          break;
        default:
          fault.status = Status::DeadlineExceeded("injected deadline");
          fault.mark_unhealthy = true;
          break;
      }
      auto built = std::make_shared<std::atomic<int>>(0);
      scan_options.worker_factory =
          [built, fault]() -> Result<std::unique_ptr<dist::ScanWorker>> {
        std::unique_ptr<dist::ScanWorker> inner =
            std::make_unique<dist::InProcessScanWorker>();
        if (built->fetch_add(1) == 0) {
          return std::unique_ptr<dist::ScanWorker>(
              std::make_unique<dist::FaultInjectingScanWorker>(
                  std::move(inner),
                  std::vector<dist::InjectedFault>{fault}));
        }
        return inner;
      };
    }

    dist::DistributedScanCoordinator coordinator(&table.value(),
                                                 scan_options);
    bucketing::MultiCountPlan partitioned(holder.spec);
    ASSERT_TRUE(coordinator.Execute(&partitioned).ok()) << "round " << round;
    ExpectIdenticalPlans(partitioned, reference, round);
    total_retries += coordinator.scan_stats().retries;
    std::filesystem::remove_all(dir);
    std::remove((dir + "_token").c_str());
  }
  // Across the sweep the injected faults must actually have exercised
  // the retry machinery (heartbeat-backed stalls legitimately do not).
  EXPECT_GT(total_retries, 0);
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::vector<std::string> TextLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// A manifest ReadManifest accepted must be internally consistent: every
/// per-section count agrees with the schema and partition list it decoded.
void ExpectManifestRevalidates(const dist::PartitionManifest& manifest,
                               int iteration) {
  const storage::Schema& schema = manifest.schema;
  const size_t partitions = manifest.partitions.size();
  EXPECT_GE(schema.num_attributes(), 1) << iteration;
  EXPECT_GE(partitions, 1u) << iteration;
  EXPECT_EQ(manifest.schema_hash, dist::SchemaHash(schema)) << iteration;
  EXPECT_EQ(manifest.numeric_stats.size(),
            static_cast<size_t>(schema.num_numeric()))
      << iteration;
  EXPECT_EQ(manifest.partition_numeric_stats.size(),
            partitions * static_cast<size_t>(schema.num_numeric()))
      << iteration;
  EXPECT_EQ(manifest.partition_boolean_stats.size(),
            partitions * static_cast<size_t>(schema.num_boolean()))
      << iteration;
  for (const dist::PartitionInfo& partition : manifest.partitions) {
    EXPECT_GE(partition.num_rows, 0) << iteration;
    EXPECT_FALSE(partition.file.empty()) << iteration;
  }
}

// The manifest is the one text format a partitioned table trusts from
// disk. Mutations of a real manifest -- bit flips, deleted lines,
// truncations, extensions and hostile section counts -- must decode to a
// Status or to a manifest whose counts re-validate; never a crash, and
// never an allocation sized by a hostile count (ASan reports both). A
// manifest without its per-partition stats sections is corrupt.
TEST(DistDifferentialFuzzTest, ManifestMutationsNeverCrash) {
  Rng rng(FuzzSeed(55503));
  const std::string dir = testing::TempDir() + "/fuzz_manifest_table";
  const std::string mutated_dir = testing::TempDir() + "/fuzz_manifest";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(mutated_dir);
  std::filesystem::create_directories(mutated_dir);
  dist::PartitionOptions options;
  options.num_partitions = 2 + static_cast<int>(rng.NextBounded(4));
  ASSERT_TRUE(
      dist::PartitionRelation(RandomNanRelation(rng), dir, options).ok());
  const std::string valid = ReadText(dir + "/" + dist::kManifestFileName);
  const std::vector<std::string> valid_lines = TextLines(valid);
  const std::string mutated_path =
      mutated_dir + "/" + dist::kManifestFileName;

  // Stripped of the per-partition sections: Corruption, not a manifest
  // that silently never prunes.
  std::vector<std::string> stripped;
  for (const std::string& line : valid_lines) {
    if (line.rfind("pnstat ", 0) == 0 || line.rfind("pn ", 0) == 0 ||
        line.rfind("pbstat ", 0) == 0 || line.rfind("pb ", 0) == 0) {
      continue;
    }
    stripped.push_back(line);
  }
  ASSERT_LT(stripped.size(), valid_lines.size());
  WriteText(mutated_path, JoinLines(stripped));
  EXPECT_EQ(dist::ReadManifest(mutated_dir).status().code(),
            StatusCode::kCorruption);

  static const char* kCountHeaders[] = {"attributes", "partitions", "stats",
                                        "pnstat", "pbstat"};
  static const char* kHostileCounts[] = {"2147483647", "-1", "0",
                                         "1000000000", "99999999999"};
  int accepted = 0;
  for (int iteration = 0; iteration < 600; ++iteration) {
    std::string text = valid;
    std::vector<std::string> lines = valid_lines;
    switch (rng.NextBounded(5)) {
      case 0: {  // bit flips
        const int flips = 1 + static_cast<int>(rng.NextBounded(4));
        for (int f = 0; f < flips; ++f) {
          const size_t at = rng.NextBounded(text.size());
          text[at] = static_cast<char>(
              text[at] ^ static_cast<char>(1u << rng.NextBounded(8)));
        }
        break;
      }
      case 1: {  // line deletions
        const int deletions = 1 + static_cast<int>(rng.NextBounded(3));
        for (int d = 0; d < deletions && !lines.empty(); ++d) {
          lines.erase(lines.begin() +
                      static_cast<std::ptrdiff_t>(
                          rng.NextBounded(lines.size())));
        }
        text = JoinLines(lines);
        break;
      }
      case 2:  // truncation
        text.resize(rng.NextBounded(text.size()));
        break;
      case 3: {  // extensions: a duplicated line, or trailing garbage
        if (rng.NextBernoulli(0.5)) {
          const size_t at = rng.NextBounded(lines.size());
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                       lines[rng.NextBounded(lines.size())]);
          text = JoinLines(lines);
        } else {
          const int extra = 1 + static_cast<int>(rng.NextBounded(64));
          for (int e = 0; e < extra; ++e) {
            text.push_back(static_cast<char>(rng.NextBounded(256)));
          }
        }
        break;
      }
      default: {  // a hostile count in one section header
        const std::string header = kCountHeaders[rng.NextBounded(5)];
        for (std::string& line : lines) {
          if (line.rfind(header + " ", 0) == 0) {
            line = header + " " + kHostileCounts[rng.NextBounded(5)];
            break;
          }
        }
        text = JoinLines(lines);
        break;
      }
    }
    WriteText(mutated_path, text);
    const Result<dist::PartitionManifest> read =
        dist::ReadManifest(mutated_dir);
    if (read.ok()) {
      ++accepted;
      ExpectManifestRevalidates(read.value(), iteration);
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
          << iteration << ": " << read.status().ToString();
    }
  }
  // Some mutations are benign (a flipped bit inside a stat payload or a
  // file name), so the accepting path runs too.
  EXPECT_GT(accepted, 0);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(mutated_dir);
}

}  // namespace
}  // namespace optrules::rules
