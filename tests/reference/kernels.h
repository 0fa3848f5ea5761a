// Test-only reference: the per-column counting kernels and the
// row-at-a-time 2-D grid builder that bucketing::MultiCountPlan replaced.
// Each kernel reads whole in-memory columns one row at a time, so it is
// the independently-simple oracle the shared multi-channel scan (plain,
// conditional, sum and grid channels) is tested bit-identical against,
// NaN rows included.

#ifndef OPTRULES_TESTS_REFERENCE_KERNELS_H_
#define OPTRULES_TESTS_REFERENCE_KERNELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "region/grid.h"

namespace optrules::bucketing {

/// Counts one in-memory column against one or more Boolean target columns.
/// Every target span must have the same length as `values`.
BucketCounts CountBuckets(std::span<const double> values,
                          std::span<const std::vector<uint8_t>* const> targets,
                          const BucketBoundaries& boundaries);

/// Convenience overload for a single target column.
BucketCounts CountBuckets(std::span<const double> values,
                          const std::vector<uint8_t>& target,
                          const BucketBoundaries& boundaries);

/// Generalized-rule counting (Section 4.3): u_i counts tuples meeting the
/// presumptive Boolean condition C1, v_i those meeting C1 and C2.
/// `condition1` / `condition2` are 0/1 masks over rows.
BucketCounts CountBucketsConditional(std::span<const double> values,
                                     std::span<const uint8_t> condition1,
                                     std::span<const uint8_t> condition2,
                                     const BucketBoundaries& boundaries);

/// Counts buckets of `values` (attribute A) while summing `target`
/// (attribute B) per bucket. Spans must be equal length.
BucketSums CountBucketSums(std::span<const double> values,
                           std::span<const double> target,
                           const BucketBoundaries& boundaries);

}  // namespace optrules::bucketing

namespace optrules::region {

/// Builds an nx-by-ny grid over two numeric columns and a Boolean target.
/// All spans must have equal length. A row with NaN in either column lands
/// in no cell but still counts toward total_tuples (the repo-wide NaN
/// policy, mirrored per axis pair).
GridCounts BuildGrid(std::span<const double> x_values,
                     std::span<const double> y_values,
                     std::span<const uint8_t> target,
                     const bucketing::BucketBoundaries& x_boundaries,
                     const bucketing::BucketBoundaries& y_boundaries);

}  // namespace optrules::region

#endif  // OPTRULES_TESTS_REFERENCE_KERNELS_H_
