#include "reference/miner.h"

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "common/ratio.h"
#include "reference/kernels.h"
#include "rules/average_range.h"

namespace optrules::rules {

/// Cached per-numeric-attribute bucketing: boundaries are sampled once and
/// all Boolean targets counted in one scan; empty buckets are compacted.
struct Miner::AttributeBuckets {
  bucketing::BucketCounts counts;  // v has one entry per Boolean attribute
};

Miner::Miner(const storage::Relation* relation, MinerOptions options)
    : relation_(relation), options_(options) {
  OPTRULES_CHECK(relation != nullptr);
  OPTRULES_CHECK(options_.num_buckets >= 1);
  OPTRULES_CHECK(options_.sample_per_bucket >= 1);
  OPTRULES_CHECK(0.0 <= options_.min_support && options_.min_support <= 1.0);
  OPTRULES_CHECK(0.0 <= options_.min_confidence &&
                 options_.min_confidence <= 1.0);
  cache_.resize(static_cast<size_t>(relation->schema().num_numeric()));
}

Miner::~Miner() = default;

const Miner::AttributeBuckets& Miner::BucketsFor(int numeric_index) {
  auto& slot = cache_[static_cast<size_t>(numeric_index)];
  if (slot != nullptr) return *slot;

  const std::vector<double>& values =
      relation_->NumericColumn(numeric_index);
  const bucketing::BucketBoundaries boundaries = bucketing::BuildBoundaries(
      values, ToBoundaryPlan(options_), AttributeSalt(numeric_index));

  std::vector<const std::vector<uint8_t>*> targets;
  targets.reserve(static_cast<size_t>(relation_->schema().num_boolean()));
  for (int b = 0; b < relation_->schema().num_boolean(); ++b) {
    targets.push_back(&relation_->BooleanColumn(b));
  }
  auto buckets = std::make_unique<AttributeBuckets>();
  buckets->counts = bucketing::CountBuckets(values, targets, boundaries);
  bucketing::CompactEmptyBuckets(&buckets->counts);
  slot = std::move(buckets);
  return *slot;
}

Result<std::vector<MinedRule>> Miner::MinePair(
    const std::string& numeric_attr, const std::string& boolean_attr) {
  const Result<int> numeric_index =
      relation_->schema().NumericIndexOf(numeric_attr);
  if (!numeric_index.ok()) return numeric_index.status();
  const Result<int> boolean_index =
      relation_->schema().BooleanIndexOf(boolean_attr);
  if (!boolean_index.ok()) return boolean_index.status();

  const AttributeBuckets& buckets = BucketsFor(numeric_index.value());
  return EmitRulesForPair(buckets.counts, boolean_index.value(), options_,
                          numeric_attr, boolean_attr);
}

std::vector<MinedRule> Miner::MineAll() {
  std::vector<MinedRule> all;
  const storage::Schema& schema = relation_->schema();
  for (int a = 0; a < schema.num_numeric(); ++a) {
    for (int b = 0; b < schema.num_boolean(); ++b) {
      Result<std::vector<MinedRule>> pair =
          MinePair(schema.NumericName(a), schema.BooleanName(b));
      OPTRULES_CHECK(pair.ok());
      for (MinedRule& rule : pair.value()) {
        all.push_back(std::move(rule));
      }
    }
  }
  return all;
}

Result<std::vector<MinedRule>> Miner::MineGeneralized(
    const std::string& numeric_attr,
    const std::vector<std::string>& condition_attrs,
    const std::string& objective_attr) {
  const Result<int> numeric_index =
      relation_->schema().NumericIndexOf(numeric_attr);
  if (!numeric_index.ok()) return numeric_index.status();
  const Result<int> objective_index =
      relation_->schema().BooleanIndexOf(objective_attr);
  if (!objective_index.ok()) return objective_index.status();

  // Materialize the C1 mask (conjunction of the condition attributes).
  const int64_t n = relation_->NumRows();
  std::vector<uint8_t> c1(static_cast<size_t>(n), 1);
  for (const std::string& name : condition_attrs) {
    const Result<int> index = relation_->schema().BooleanIndexOf(name);
    if (!index.ok()) return index.status();
    const std::vector<uint8_t>& column =
        relation_->BooleanColumn(index.value());
    for (size_t row = 0; row < c1.size(); ++row) c1[row] &= column[row];
  }

  const std::vector<double>& values =
      relation_->NumericColumn(numeric_index.value());
  bucketing::BoundaryPlan plan = ToBoundaryPlan(options_);
  // Decorrelate from the plain per-pair bucketing.
  plan.seed += kGeneralizedSeedOffset;
  const bucketing::BucketBoundaries boundaries = bucketing::BuildBoundaries(
      values, plan, AttributeSalt(numeric_index.value()));
  bucketing::BucketCounts counts = bucketing::CountBucketsConditional(
      values, c1, relation_->BooleanColumn(objective_index.value()),
      boundaries);
  bucketing::CompactEmptyBuckets(&counts);

  std::vector<MinedRule> mined =
      EmitRulesForPair(counts, 0, options_, numeric_attr, objective_attr);
  const std::string condition_text = ConditionText(condition_attrs);
  for (MinedRule& rule : mined) {
    rule.presumptive_condition = condition_text;
  }
  return mined;
}

namespace {

/// Shared Section 5 setup: buckets of A with per-bucket sums of B.
Result<bucketing::BucketSums> BuildSums(const storage::Relation& relation,
                                        const MinerOptions& options,
                                        const std::string& range_attr,
                                        const std::string& target_attr) {
  const Result<int> a = relation.schema().NumericIndexOf(range_attr);
  if (!a.ok()) return a.status();
  const Result<int> b = relation.schema().NumericIndexOf(target_attr);
  if (!b.ok()) return b.status();
  const std::vector<double>& values = relation.NumericColumn(a.value());
  bucketing::BoundaryPlan plan = ToBoundaryPlan(options);
  // Decorrelate from the per-pair bucketing.
  plan.seed += kAggregateSeedOffset;
  const bucketing::BucketBoundaries boundaries = bucketing::BuildBoundaries(
      values, plan, AttributeSalt(a.value()));
  bucketing::BucketSums sums = bucketing::CountBucketSums(
      values, relation.NumericColumn(b.value()), boundaries);
  bucketing::CompactEmptyBuckets(&sums);
  return sums;
}

}  // namespace

Result<MinedAggregateRange> Miner::MineMaximumAverageRange(
    const std::string& range_attr, const std::string& target_attr,
    double min_support) {
  Result<bucketing::BucketSums> sums_or =
      BuildSums(*relation_, options_, range_attr, target_attr);
  if (!sums_or.ok()) return sums_or.status();
  const bucketing::BucketSums& sums = sums_or.value();
  RangeAggregate aggregate;
  if (!sums.u.empty()) {
    aggregate = MaximumAverageRange(
        sums.u, sums.sum, MinSupportCount(sums.total_tuples, min_support));
  }
  return ToMinedAggregate(sums, aggregate, range_attr, target_attr);
}

Result<MinedAggregateRange> Miner::MineMaximumSupportRange(
    const std::string& range_attr, const std::string& target_attr,
    double min_average) {
  Result<bucketing::BucketSums> sums_or =
      BuildSums(*relation_, options_, range_attr, target_attr);
  if (!sums_or.ok()) return sums_or.status();
  const bucketing::BucketSums& sums = sums_or.value();
  RangeAggregate aggregate;
  if (!sums.u.empty()) {
    aggregate = MaximumSupportRange(sums.u, sums.sum, min_average);
  }
  return ToMinedAggregate(sums, aggregate, range_attr, target_attr);
}

Result<MinedRegion> Miner::MineOptimizedRegion(
    const std::string& x_attr, const std::string& y_attr,
    const std::string& target_attr) {
  return MineOptimizedRegion(x_attr, y_attr, target_attr,
                             options_.region_grid_buckets,
                             options_.region_grid_buckets);
}

Result<MinedRegion> Miner::MineOptimizedRegion(
    const std::string& x_attr, const std::string& y_attr,
    const std::string& target_attr, int nx, int ny) {
  const storage::Schema& schema = relation_->schema();
  const Result<int> x = schema.NumericIndexOf(x_attr);
  if (!x.ok()) return x.status();
  const Result<int> y = schema.NumericIndexOf(y_attr);
  if (!y.ok()) return y.status();
  const Result<int> target = schema.BooleanIndexOf(target_attr);
  if (!target.ok()) return target.status();
  if (nx < 1 || ny < 1) {
    return Status::InvalidArgument("region grid shape must be >= 1x1");
  }

  // Same region boundary recipe as the engine: each axis bucketed at its
  // own count (nx / ny), seed decorrelated by kRegionSeedOffset,
  // per-attribute salts.
  bucketing::BoundaryPlan plan = ToBoundaryPlan(options_);
  plan.seed += kRegionSeedOffset;
  plan.num_buckets = nx;
  const bucketing::BucketBoundaries x_boundaries = bucketing::BuildBoundaries(
      relation_->NumericColumn(x.value()), plan, AttributeSalt(x.value()));
  plan.num_buckets = ny;
  const bucketing::BucketBoundaries y_boundaries = bucketing::BuildBoundaries(
      relation_->NumericColumn(y.value()), plan, AttributeSalt(y.value()));
  const region::GridCounts grid = region::BuildGrid(
      relation_->NumericColumn(x.value()), relation_->NumericColumn(y.value()),
      relation_->BooleanColumn(target.value()), x_boundaries, y_boundaries);
  return MineRegionFromGrid(grid, options_, x_attr, y_attr, target_attr);
}

}  // namespace optrules::rules
