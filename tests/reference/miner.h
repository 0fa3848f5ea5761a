// Test-only reference: the per-query miner that MiningEngine replaced.
// Each query buckets its attribute on its own (bucketing::BuildBoundaries
// over the in-memory column, the engine's seeds and salts) and counts it
// with the row-at-a-time kernels of reference/kernels.h, then emits through
// the engine's own emission code (rules/miner.h). The engine must match it
// bit for bit on every query kind: plain pairs, generalized rules, Section 5
// aggregates and 2-D regions, NaN-laden data included.

#ifndef OPTRULES_TESTS_REFERENCE_MINER_H_
#define OPTRULES_TESTS_REFERENCE_MINER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rules/miner.h"
#include "storage/relation.h"

namespace optrules::rules {

/// Per-query reference miner over an in-memory relation.
///
/// The relation must outlive the miner. Bucketings are computed lazily
/// per numeric attribute and cached, so MineAll() pays one sampling pass
/// and one counting pass per numeric attribute regardless of the number
/// of Boolean targets; generalized and aggregate queries re-count per
/// call.
class Miner {
 public:
  Miner(const storage::Relation* relation, MinerOptions options);
  ~Miner();  // out of line: AttributeBuckets is an incomplete type here

  /// Both optimized rules for the pair (numeric_attr, boolean_attr).
  /// Element 0 is the optimized-confidence rule, element 1 the
  /// optimized-support rule.
  Result<std::vector<MinedRule>> MinePair(const std::string& numeric_attr,
                                          const std::string& boolean_attr);

  /// Both optimized rules for every (numeric, Boolean) attribute pair.
  std::vector<MinedRule> MineAll();

  /// Generalized rules (Section 4.3):
  /// `(A in I) ^ C1 => C2` where C1 is the conjunction of
  /// `condition_attrs` being true. Counts u_i over tuples meeting C1 and
  /// v_i over tuples meeting C1 ^ C2; support stays relative to all
  /// tuples.
  Result<std::vector<MinedRule>> MineGeneralized(
      const std::string& numeric_attr,
      const std::vector<std::string>& condition_attrs,
      const std::string& objective_attr);

  /// Section 5: the range of `range_attr` with at least `min_support`
  /// support maximizing the average of `target_attr`.
  Result<MinedAggregateRange> MineMaximumAverageRange(
      const std::string& range_attr, const std::string& target_attr,
      double min_support);

  /// Section 5: the range of `range_attr` maximizing support subject to
  /// the average of `target_attr` being at least `min_average`.
  Result<MinedAggregateRange> MineMaximumSupportRange(
      const std::string& range_attr, const std::string& target_attr,
      double min_average);

  /// Two-dimensional optimized regions (Section 1.4): builds the
  /// region_grid_buckets^2 equi-depth grid over (x_attr, y_attr) with a
  /// private row-at-a-time counting pass (region::BuildGrid) and runs the
  /// same optimizers as the engine -- the independently-simple reference
  /// path MiningEngine::MineOptimizedRegion is tested bit-identical
  /// against.
  Result<MinedRegion> MineOptimizedRegion(const std::string& x_attr,
                                          const std::string& y_attr,
                                          const std::string& target_attr);

  /// Rectangular variant: an explicit nx-by-ny grid (the engine's
  /// RequestRegionPair(x, y, nx, ny) is tested bit-identical against
  /// this).
  Result<MinedRegion> MineOptimizedRegion(const std::string& x_attr,
                                          const std::string& y_attr,
                                          const std::string& target_attr,
                                          int nx, int ny);

  const MinerOptions& options() const { return options_; }

 private:
  struct AttributeBuckets;  // cached bucketing + counts per numeric attr

  /// Returns (building if needed) the cached bucket statistics of numeric
  /// attribute `numeric_index`.
  const AttributeBuckets& BucketsFor(int numeric_index);

  const storage::Relation* relation_;
  MinerOptions options_;
  std::vector<std::unique_ptr<AttributeBuckets>> cache_;
};

}  // namespace optrules::rules

#endif  // OPTRULES_TESTS_REFERENCE_MINER_H_
