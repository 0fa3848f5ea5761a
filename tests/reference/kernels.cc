#include "reference/kernels.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace optrules::bucketing {

namespace {

BucketCounts MakeEmptyCounts(int num_buckets, int num_targets) {
  BucketCounts counts;
  counts.u.assign(static_cast<size_t>(num_buckets), 0);
  counts.v.assign(static_cast<size_t>(num_targets),
                  std::vector<int64_t>(static_cast<size_t>(num_buckets), 0));
  counts.min_value.assign(static_cast<size_t>(num_buckets),
                          std::numeric_limits<double>::quiet_NaN());
  counts.max_value.assign(static_cast<size_t>(num_buckets),
                          std::numeric_limits<double>::quiet_NaN());
  return counts;
}

void UpdateMinMax(BucketCounts* counts, int bucket, double value) {
  if (std::isnan(value)) return;
  const auto b = static_cast<size_t>(bucket);
  double& lo = counts->min_value[b];
  double& hi = counts->max_value[b];
  if (std::isnan(lo) || value < lo) lo = value;
  if (std::isnan(hi) || value > hi) hi = value;
}

/// The plan's Neumaier-compensated accumulation, restated so the oracle's
/// extracted sums (running sum + compensation) match the plan bit for bit.
void NeumaierAdd(double value, double& sum, double& compensation) {
  const double next = sum + value;
  if (std::isfinite(next)) {
    if (std::abs(sum) >= std::abs(value)) {
      compensation += (sum - next) + value;
    } else {
      compensation += (value - next) + sum;
    }
  }
  sum = next;
}

}  // namespace

BucketCounts CountBuckets(
    std::span<const double> values,
    std::span<const std::vector<uint8_t>* const> targets,
    const BucketBoundaries& boundaries) {
  BucketCounts counts = MakeEmptyCounts(boundaries.num_buckets(),
                                        static_cast<int>(targets.size()));
  for (const std::vector<uint8_t>* target : targets) {
    OPTRULES_CHECK(target != nullptr);
    OPTRULES_CHECK(target->size() == values.size());
  }
  for (size_t row = 0; row < values.size(); ++row) {
    const int bucket = boundaries.Locate(values[row]);
    if (bucket == BucketBoundaries::kNoBucket) continue;  // NaN: no bucket
    ++counts.u[static_cast<size_t>(bucket)];
    UpdateMinMax(&counts, bucket, values[row]);
    for (size_t t = 0; t < targets.size(); ++t) {
      if ((*targets[t])[row] != 0) {
        ++counts.v[t][static_cast<size_t>(bucket)];
      }
    }
  }
  // NaN rows still count toward the support denominator N.
  counts.total_tuples = static_cast<int64_t>(values.size());
  return counts;
}

BucketCounts CountBuckets(std::span<const double> values,
                          const std::vector<uint8_t>& target,
                          const BucketBoundaries& boundaries) {
  const std::vector<uint8_t>* targets[] = {&target};
  return CountBuckets(values, targets, boundaries);
}

BucketCounts CountBucketsConditional(std::span<const double> values,
                                     std::span<const uint8_t> condition1,
                                     std::span<const uint8_t> condition2,
                                     const BucketBoundaries& boundaries) {
  OPTRULES_CHECK(condition1.size() == values.size());
  OPTRULES_CHECK(condition2.size() == values.size());
  BucketCounts counts = MakeEmptyCounts(boundaries.num_buckets(), 1);
  for (size_t row = 0; row < values.size(); ++row) {
    if (condition1[row] == 0) continue;
    const int bucket = boundaries.Locate(values[row]);
    if (bucket == BucketBoundaries::kNoBucket) continue;  // NaN: no bucket
    ++counts.u[static_cast<size_t>(bucket)];
    UpdateMinMax(&counts, bucket, values[row]);
    if (condition2[row] != 0) {
      ++counts.v[0][static_cast<size_t>(bucket)];
    }
  }
  // N stays the full table size: the support of a generalized rule is
  // measured against all tuples (Definition 2.2).
  counts.total_tuples = static_cast<int64_t>(values.size());
  return counts;
}

BucketSums CountBucketSums(std::span<const double> values,
                           std::span<const double> target,
                           const BucketBoundaries& boundaries) {
  OPTRULES_CHECK(target.size() == values.size());
  const int m = boundaries.num_buckets();
  BucketSums sums;
  sums.u.assign(static_cast<size_t>(m), 0);
  sums.sum.assign(static_cast<size_t>(m), 0.0);
  // Neumaier compensation terms, folded into sums.sum before returning so
  // this reference kernel is bit-identical to the compensated plan path.
  std::vector<double> comp(static_cast<size_t>(m), 0.0);
  sums.min_value.assign(static_cast<size_t>(m),
                        std::numeric_limits<double>::quiet_NaN());
  sums.max_value.assign(static_cast<size_t>(m),
                        std::numeric_limits<double>::quiet_NaN());
  for (size_t row = 0; row < values.size(); ++row) {
    const int located = boundaries.Locate(values[row]);
    if (located == BucketBoundaries::kNoBucket) continue;  // NaN: no bucket
    const auto bucket = static_cast<size_t>(located);
    ++sums.u[bucket];
    NeumaierAdd(target[row], sums.sum[bucket], comp[bucket]);
    double& lo = sums.min_value[bucket];
    double& hi = sums.max_value[bucket];
    if (std::isnan(lo) || values[row] < lo) lo = values[row];
    if (std::isnan(hi) || values[row] > hi) hi = values[row];
  }
  for (size_t b = 0; b < sums.sum.size(); ++b) sums.sum[b] += comp[b];
  // NaN rows still count toward the support denominator N.
  sums.total_tuples = static_cast<int64_t>(values.size());
  return sums;
}

}  // namespace optrules::bucketing

namespace optrules::region {

GridCounts BuildGrid(std::span<const double> x_values,
                     std::span<const double> y_values,
                     std::span<const uint8_t> target,
                     const bucketing::BucketBoundaries& x_boundaries,
                     const bucketing::BucketBoundaries& y_boundaries) {
  OPTRULES_CHECK(x_values.size() == y_values.size());
  OPTRULES_CHECK(x_values.size() == target.size());
  GridCounts grid(x_boundaries.num_buckets(), y_boundaries.num_buckets());
  for (size_t row = 0; row < x_values.size(); ++row) {
    const int x = x_boundaries.Locate(x_values[row]);
    const int y = y_boundaries.Locate(y_values[row]);
    // NaN coordinates belong to no cell but still count toward N (same
    // policy as the 1-D kernels).
    if (x == bucketing::BucketBoundaries::kNoBucket ||
        y == bucketing::BucketBoundaries::kNoBucket) {
      grid.AddMissing();
      continue;
    }
    grid.Add(x, y, target[row] != 0);
  }
  return grid;
}

}  // namespace optrules::region
