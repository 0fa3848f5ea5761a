// The rule miner: the system of Section 1.3.
//
// MiningEngine is the batch-execution session. It plans equi-depth
// boundaries for EVERY numeric attribute up front, then accumulates
// BucketCounts for every (numeric, Boolean) attribute pair -- plus the
// conditional channels of registered generalized conditions (Section 4.3),
// the per-bucket sum channels of registered aggregate targets (Section 5)
// and the cell grids of registered region pairs (Section 1.4) -- in ONE
// shared columnar scan of the data (bucketing::MultiCountPlan over a
// storage::BatchSource, optionally row-sharded over a ThreadPool or fanned
// out over a partitioned table), and finally answers plain, generalized,
// aggregate, region and threshold-sweep queries from the cached channels.
// This is the paper's "complete set of optimized rules for all
// combinations of hundreds of numeric and Boolean attributes" path: the
// scan cost is paid once no matter how many queries are answered, in
// memory or on disk.
//
// The emission and seeding helpers at the end of this header are shared
// with the test-only per-query reference miner (tests/reference/miner.h),
// which the engine is tested bit-identical against on every query kind.

#ifndef OPTRULES_RULES_MINER_H_
#define OPTRULES_RULES_MINER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dist/coordinator.h"
#include "region/rectangle.h"
#include "region/xmonotone.h"
#include "rules/optimized_confidence.h"
#include "rules/rule.h"
#include "storage/columnar_batch.h"
#include "storage/relation.h"

namespace optrules::rules {

/// How equi-depth bucket boundaries are derived per numeric attribute
/// (shared dispatch lives in bucketing::BuildBoundaries).
using Bucketizer = bucketing::Bucketizer;

/// Mining parameters.
struct MinerOptions {
  int num_buckets = 1000;        ///< M of Algorithm 3.1
  int64_t sample_per_bucket = 40;  ///< S/M of Algorithm 3.1
  double min_support = 0.05;     ///< ampleness threshold (confidence rules)
  double min_confidence = 0.5;   ///< confidence threshold (support rules)
  uint64_t seed = 42;            ///< sampling seed
  Bucketizer bucketizer = Bucketizer::kSampling;
  /// Rank-error fraction for the GK bucketizer (ignored otherwise).
  double gk_epsilon = 0.0;  ///< 0 = auto: 1 / (4 * num_buckets)
  /// Per-axis bucket count of two-dimensional region grids (Section 1.4):
  /// each registered region pair is counted into a
  /// region_grid_buckets x region_grid_buckets equi-depth cell grid. Kept
  /// separate from num_buckets because the region optimizers are
  /// O(nx * ny^2) in the grid resolution.
  int region_grid_buckets = 32;
};

/// The bucketizer fields of `options` as a bucketing::BoundaryPlan.
bucketing::BoundaryPlan ToBoundaryPlan(const MinerOptions& options);

/// Which optimization a mined rule answers.
enum class RuleKind {
  kOptimizedConfidence,  ///< max confidence s.t. support >= min_support
  kOptimizedSupport,     ///< max support s.t. confidence >= min_confidence
};

/// A mined rule `(A in [range_lo, range_hi]) [ ^ C1 ] => C`, with its
/// measured statistics. Range endpoints are the observed attribute values
/// spanned by the chosen buckets.
struct MinedRule {
  bool found = false;
  RuleKind kind = RuleKind::kOptimizedConfidence;
  std::string numeric_attr;
  std::string boolean_attr;
  std::string presumptive_condition;  ///< extra C1 conjunct names, or empty
  double range_lo = 0.0;
  double range_hi = 0.0;
  int64_t support_count = 0;
  int64_t hit_count = 0;
  double support = 0.0;
  double confidence = 0.0;

  /// Human-readable one-line rendering of the rule.
  std::string ToString() const;
};

/// One (min_support, min_confidence) pair of a threshold sweep.
struct ThresholdSet {
  double min_support = 0.05;
  double min_confidence = 0.5;
};

/// The two-dimensional optimized regions mined for one
/// `(X, Y) in R => C` attribute triple (Section 1.4): both rectangle
/// optimizations plus the gain-optimized x-monotone region, all answered
/// from one nx-by-ny equi-depth grid over (X, Y). Bucket indices inside
/// the sub-results refer to that grid.
struct MinedRegion {
  bool found = false;  ///< any of the three searches found a region
  std::string x_attr;
  std::string y_attr;
  std::string target_attr;
  int nx = 0;
  int ny = 0;
  /// All tuples scanned (the support denominator), NaN rows included.
  int64_t total_tuples = 0;
  /// Max confidence s.t. support >= MinerOptions::min_support.
  region::RegionRule confidence_rectangle;
  /// Max support s.t. confidence >= MinerOptions::min_confidence.
  region::RegionRule support_rectangle;
  /// Max gain at theta = MinerOptions::min_confidence.
  region::XMonotoneRegion xmonotone_gain;

  /// Human-readable multi-line rendering.
  std::string ToString() const;
};

/// A mined Section 5 aggregate range for
/// `avg(B | A in [range_lo, range_hi])`.
struct MinedAggregateRange {
  bool found = false;
  std::string range_attr;   ///< A
  std::string target_attr;  ///< B
  double range_lo = 0.0;
  double range_hi = 0.0;
  int64_t support_count = 0;
  double support = 0.0;
  double average = 0.0;

  std::string ToString() const;
};

/// Batch-execution mining session: one shared counting scan for all
/// attribute pairs.
///
/// Construction is cheap; the first mining call (or an explicit
/// Prepare()) plans boundaries for every numeric attribute and runs the
/// single counting scan. All rule queries afterwards are O(M) on the
/// cached bucket arrays and never touch the data again, so
/// counting_scans() stays 1 for the lifetime of the session.
class MiningEngine {
 public:
  /// Engine over an in-memory relation (which must outlive the engine),
  /// read through a zero-copy RelationBatchSource like any other source.
  /// Boundaries use the same per-attribute seeds as every other source,
  /// so results match a PagedFile engine over the same rows bit-for-bit.
  MiningEngine(const storage::Relation* relation, MinerOptions options,
               ThreadPool* pool = nullptr);

  /// Engine over any batch source -- e.g. a disk-resident
  /// storage::PagedFileBatchSource. `schema` names the attributes and
  /// must match the source's attribute counts. Boundary planning costs
  /// one extra streaming pass (all attributes sampled/sketched at once);
  /// counting still costs exactly one scan.
  MiningEngine(storage::BatchSource* source, storage::Schema schema,
               MinerOptions options, ThreadPool* pool = nullptr);

  /// Engine over a partitioned table (src/dist/): boundary planning
  /// streams the partitions concatenated in manifest order (one pass),
  /// and every counting scan fans out through a
  /// DistributedScanCoordinator -- K physical partition scans, in-process
  /// or optrules_workerd subprocess workers, merged in fixed partition
  /// order into ONE logical scan, so counting_scans() stays 1 for a full
  /// mixed session exactly like the single-file paths. Results are a pure
  /// function of (table, options): the worker count and worker kind never
  /// change a single bit. Note that partitioning reorders rows, so the
  /// order-sensitive bucketizers (sampling, GK) plan boundaries over the
  /// partitioned order -- deterministic, but only guaranteed identical to
  /// a single-file session when the row order is preserved (round-robin
  /// K = 1) or the bucketizer is permutation-invariant (kExactSort).
  MiningEngine(const dist::PartitionedTable* table, MinerOptions options,
               dist::DistributedScanOptions dist_options = {});

  ~MiningEngine();
  MiningEngine(const MiningEngine&) = delete;
  MiningEngine& operator=(const MiningEngine&) = delete;

  /// Plans boundaries and runs the shared counting scan now (otherwise
  /// the first mining call does it). A failed scan is a fatal error here;
  /// sessions that want to handle scan failures -- e.g. a distributed
  /// session whose worker daemon binary or partition files may be missing
  /// -- call TryPrepare() first and get the Status instead.
  void Prepare();

  /// Prepare() with an error path: plans + scans, returning the first
  /// failure (no-op Ok when already prepared). On error the session stays
  /// unprepared and TryPrepare can be retried. The Result-returning Mine*
  /// calls prepare through here, so they report a failed first scan as
  /// their Status instead of aborting. Partition files are
  /// re-validated up front, so tables broken BEFORE the call fail softly;
  /// a partition vanishing in the middle of the scan itself remains
  /// fatal (readers have no mid-stream error channel).
  Status TryPrepare();

  /// Registers a generalized-rule presumptive condition (conjunction of
  /// Boolean attributes, Section 4.3) so the shared counting scan
  /// accumulates its conditional channels for every numeric attribute.
  /// MineGeneralized auto-registers, but registering every condition
  /// before the first mining call keeps counting_scans() at 1; a new
  /// condition after the scan costs one supplemental scan at once, which
  /// counts only the new channels. A failed supplemental scan returns its
  /// Status and leaves the registration pending: the next call that needs
  /// it retries the scan.
  Status RequestGeneralized(const std::vector<std::string>& condition_attrs);

  /// Registers a numeric attribute as a Section 5 aggregate target so the
  /// shared counting scan accumulates its per-bucket sums for every range
  /// attribute. Same pre-registration contract as RequestGeneralized.
  Status RequestAverageTarget(const std::string& target_attr);

  /// Registers a two-dimensional region pair (Section 1.4) so the shared
  /// counting scan scatters its region_grid_buckets^2 cell grid -- per-cell
  /// u plus one v plane per Boolean target -- as a grid channel of the same
  /// single scan. Same pre-registration contract as RequestGeneralized; a
  /// pair registered after the scan costs one supplemental scan.
  Status RequestRegionPair(const std::string& x_attr,
                           const std::string& y_attr);

  /// Rectangular per-request grid: like the overload above but with an
  /// explicit nx-by-ny cell resolution (the region optimizers are
  /// O(nx * ny^2), so a request can spend resolution on the axis that
  /// needs it). Pairs with different shapes coexist in one session; each
  /// axis plans its boundaries at that axis' bucket count.
  Status RequestRegionPair(const std::string& x_attr,
                           const std::string& y_attr, int nx, int ny);

  /// Both optimized rules for every (numeric, Boolean) attribute pair,
  /// in (numeric-major, Boolean-minor) order, confidence rule before
  /// support rule.
  std::vector<MinedRule> MineAllPairs();

  /// Threshold sweep from the same cached counts: the full MineAllPairs()
  /// output at each threshold set, concatenated in sweep order. The scan
  /// cost is paid once; every sweep entry is O(M) per pair.
  std::vector<MinedRule> MineAllPairs(std::span<const ThresholdSet> sweep);

  /// Both optimized rules for the pair, from the cached counts.
  Result<std::vector<MinedRule>> MinePair(const std::string& numeric_attr,
                                          const std::string& boolean_attr);

  /// Generalized rules (Section 4.3), answered from the cached
  /// conditional channels.
  Result<std::vector<MinedRule>> MineGeneralized(
      const std::string& numeric_attr,
      const std::vector<std::string>& condition_attrs,
      const std::string& objective_attr);

  /// Section 5 maximum-average range from the cached sum channels.
  Result<MinedAggregateRange> MineMaximumAverageRange(
      const std::string& range_attr, const std::string& target_attr,
      double min_support);

  /// Section 5 maximum-support range from the cached sum channels.
  Result<MinedAggregateRange> MineMaximumSupportRange(
      const std::string& range_attr, const std::string& target_attr,
      double min_average);

  /// Two-dimensional optimized regions (Section 1.4) for
  /// `(x_attr, y_attr) in R => target_attr`, answered from the cached grid
  /// channel of the shared counting scan: the optimized-confidence and
  /// optimized-support rectangles plus the max-gain x-monotone region.
  /// Auto-registers the pair (one supplemental scan when it was not
  /// pre-registered); any Boolean target can be queried against a
  /// registered pair at no extra scan.
  Result<MinedRegion> MineOptimizedRegion(const std::string& x_attr,
                                          const std::string& y_attr,
                                          const std::string& target_attr);

  /// Number of counting scans performed over the data so far (0 before
  /// Prepare, 1 after -- regardless of the number of pairs, generalized,
  /// aggregate, or sweep queries answered, as long as every condition /
  /// aggregate target was registered before the first mining call). For a
  /// partitioned engine this counts LOGICAL scans: one distributed scan =
  /// one, however many partitions it fanned out to.
  int64_t counting_scans() const { return counting_scans_; }

  /// Cache and pruning counters accumulated by this session's reads:
  /// buffer-pool hits/misses, zone-map-pruned pages, and manifest-pruned
  /// partitions. Single-source engines report their batch source's
  /// counters; partitioned engines add the distributed coordinator's
  /// (counting fan-outs) to the concatenating source's (boundary
  /// planning). In-memory relation engines report zeros. Purely
  /// diagnostic: pruning and caching never change a mined bit.
  storage::BatchSourceStats scan_stats() const;

  /// Pages the session's scans skipped via zone maps (scan_stats()).
  int64_t pages_skipped() const { return scan_stats().pages_skipped; }

  /// Partitions skipped wholesale via manifest stats (scan_stats()).
  int64_t partitions_skipped() const {
    return scan_stats().partitions_skipped;
  }

  /// Number of SlopePairContext (hull tree) builds so far: repeated
  /// aggregate queries on one (range, target) pair at different
  /// thresholds reuse the cached context, so this stays at one per pair
  /// (tests assert the reuse).
  int64_t hull_contexts_built() const { return hull_contexts_built_; }

  /// Base boundary set, one per numeric attribute (empty before Prepare).
  const std::vector<bucketing::BucketBoundaries>& boundaries() const {
    return boundaries_;
  }
  const storage::Schema& schema() const { return schema_; }
  const MinerOptions& options() const { return options_; }

 private:
  /// One boundary set to plan: numeric attributes bucketed into
  /// `num_buckets` buckets under the session seed + `seed_offset`. An
  /// empty `column_mask` plans every attribute; otherwise only attributes
  /// with column_mask[a] != 0 are planned (the rest get empty placeholder
  /// boundaries) -- the region set uses this so a wide schema does not
  /// pay per-attribute planning for a handful of registered grid axes.
  struct BoundarySetRequest {
    uint64_t seed_offset = 0;
    int num_buckets = 0;
    std::vector<uint8_t> column_mask;
  };
  /// A registered two-dimensional region pair (numeric column indices)
  /// with its grid resolution (nx need not equal ny).
  struct RegionPair {
    int x = 0;
    int y = 0;
    int nx = 0;
    int ny = 0;
    friend bool operator==(const RegionPair&, const RegionPair&) = default;
  };

  /// Plans one boundary set per request for every numeric attribute in
  /// ONE pass over the source for the whole request list. Sampling
  /// gathers its pre-drawn sample rows, row-sharded over the pool when
  /// the source has range readers; the deterministic bucketizers ignore
  /// seeds and are planned once per distinct bucket count, then copied.
  void PlanBoundarySets(
      std::span<const BoundarySetRequest> requests,
      std::span<std::vector<bucketing::BucketBoundaries>* const> out);
  /// The one counting-scan path. Plans, in one pass, the boundary sets
  /// (and region columns) the pending registrations still miss, then runs
  /// ONE scan over the base channels (first call only) plus every
  /// condition, sum target and region pair past the counted cursors. The
  /// cursors advance only when the scan succeeds, so a failed scan leaves
  /// its registrations pending for the next call to retry.
  Status RunCountingScan();
  /// Runs `plan` over exactly one logical scan of the session's data:
  /// ExecuteMultiCount over the source, or -- for a partitioned engine --
  /// a distributed fan-out merged in partition order (whose worker or
  /// partition failures surface as the returned Status).
  Status ExecuteCount(bucketing::MultiCountPlan* plan);
  /// Resolves + registers a condition; runs a supplemental scan when the
  /// session is already prepared and the condition is not yet counted.
  /// Returns the condition's index.
  Result<int> EnsureCondition(const std::vector<std::string>& names);
  /// Resolves + registers an aggregate target; supplemental scan when
  /// already prepared. Returns the target's sum-channel index.
  Result<int> EnsureSumTarget(const std::string& name);
  /// Resolves + registers a region pair at the given grid shape;
  /// supplemental scan when already prepared. Returns the pair's grid
  /// index.
  Result<int> EnsureRegionPair(const std::string& x_attr,
                               const std::string& y_attr, int nx, int ny);
  /// `index` of a registration whose counted cursor is `counted`, after
  /// running the supplemental scan when the session is already prepared
  /// and the registration is still pending.
  Result<int> Counted(size_t index, size_t counted);
  /// Index of the first registered pair over (x, y) columns regardless of
  /// grid shape, or -1.
  int FindRegionPair(int x, int y) const;
  /// Per distinct region bucket count, the mask of numeric columns some
  /// registered pair buckets at that count (x axes contribute their nx,
  /// y axes their ny).
  std::map<int, std::vector<uint8_t>> RegionColumnMasks() const;
  /// Boundaries of region axis `column` at `num_buckets` (must be
  /// planned).
  const bucketing::BucketBoundaries& RegionBoundary(int num_buckets,
                                                    int column) const;
  const bucketing::BucketSums& SumsFor(int range_attr, int k) const {
    return aggregate_sums_[static_cast<size_t>(range_attr)]
                          [static_cast<size_t>(k)];
  }
  /// Cached hull context of SumsFor(range_attr, k), built on first use.
  const SlopePairContext& HullContextFor(int range_attr, int k);

  std::unique_ptr<storage::BatchSource> owned_source_;
  storage::BatchSource* source_ = nullptr;
  /// Distributed session state (null for single-source engines): counting
  /// scans fan out through the session coordinator instead of
  /// ExecuteMultiCount. The coordinator persists so supplemental scans
  /// reuse its worker roster (no re-fork per scan) and its
  /// partition_scans() accounting spans the session.
  const dist::PartitionedTable* partitioned_ = nullptr;
  dist::DistributedScanOptions dist_options_;
  std::unique_ptr<dist::DistributedScanCoordinator> coordinator_;
  storage::Schema schema_;
  MinerOptions options_;
  ThreadPool* pool_ = nullptr;
  bool prepared_ = false;
  int64_t counting_scans_ = 0;
  int64_t hull_contexts_built_ = 0;
  /// Registered generalized conditions (resolved Boolean indices, in
  /// registration order), aggregate sum targets (numeric indices), and
  /// two-dimensional region pairs.
  std::vector<std::vector<int>> conditions_;
  std::vector<int> sum_targets_;
  std::vector<RegionPair> region_pairs_;
  /// How many of each registration list the scans so far have counted;
  /// entries past a cursor are pending for the next RunCountingScan.
  size_t conditions_counted_ = 0;
  size_t sum_targets_counted_ = 0;
  size_t region_pairs_counted_ = 0;
  /// Boundary sets: base per attribute, plus the decorrelated generalized
  /// / aggregate / region sets (planned only when the session uses them).
  std::vector<bucketing::BucketBoundaries> boundaries_;
  std::vector<bucketing::BucketBoundaries> generalized_boundaries_;
  std::vector<bucketing::BucketBoundaries> aggregate_boundaries_;
  /// Region boundary sets, one per distinct grid bucket count in use
  /// (rectangular pairs plan their x axis at nx and y axis at ny), each a
  /// per-attribute vector with placeholders for masked-out columns.
  std::map<int, std::vector<bucketing::BucketBoundaries>>
      region_boundaries_;
  /// Which columns each region set actually planned (a pending pair on an
  /// unplanned (count, column) re-plans that count's set).
  std::map<int, std::vector<uint8_t>> region_planned_;
  /// Compacted per-numeric-attribute counts (one v-row per Boolean attr).
  std::vector<bucketing::BucketCounts> counts_;
  /// generalized_counts_[condition][attr], compacted.
  std::vector<std::vector<bucketing::BucketCounts>> generalized_counts_;
  /// aggregate_sums_[attr][k]: sums of sum_targets_[k] over attr's
  /// aggregate buckets, compacted.
  std::vector<std::vector<bucketing::BucketSums>> aggregate_sums_;
  /// hull_contexts_[attr][k]: lazily built SlopePairContext over
  /// aggregate_sums_[attr][k], reused by every aggregate query on that
  /// pair regardless of threshold.
  std::vector<std::vector<std::unique_ptr<SlopePairContext>>>
      hull_contexts_;
  /// region_grids_[p]: cell grid of region_pairs_[p] (per-cell u plus one
  /// v plane per Boolean target; grids keep their empty cells -- the
  /// region miners handle u == 0 cells directly).
  std::vector<bucketing::GridBucketCounts> region_grids_;
};

// ------------------------------------------ shared emission and seeds ----
// One definition each, used by MiningEngine and by the test-only reference
// miner, so the two paths are bit-identical by construction.

/// Per-attribute salt decorrelating sampling seeds while keeping the whole
/// run reproducible.
uint64_t AttributeSalt(int numeric_index);

/// Seed offsets decorrelating the generalized (Section 4.3), aggregate
/// (Section 5), and region-grid (Section 1.4) bucketings from the plain
/// per-pair bucketing.
inline constexpr uint64_t kGeneralizedSeedOffset = 0x517c;
inline constexpr uint64_t kAggregateSeedOffset = 0xa4f;
inline constexpr uint64_t kRegionSeedOffset = 0x2d9b;

/// Renders a conjunction of Boolean attribute names as the rule's
/// presumptive-condition text ("a=yes ^ b=yes").
std::string ConditionText(const std::vector<std::string>& condition_attrs);

/// Runs both O(M) optimizers over one pair's compacted count arrays (v-row
/// `target_index`) and renders the results as MinedRules: element 0 the
/// optimized-confidence rule, element 1 the optimized-support rule.
std::vector<MinedRule> EmitRulesForPair(const bucketing::BucketCounts& counts,
                                        int target_index,
                                        const MinerOptions& options,
                                        const std::string& numeric_attr,
                                        const std::string& boolean_attr);

/// Assembles a Section 5 MinedAggregateRange from a compacted BucketSums
/// and an optimizer result.
MinedAggregateRange ToMinedAggregate(const bucketing::BucketSums& sums,
                                     const RangeAggregate& aggregate,
                                     const std::string& range_attr,
                                     const std::string& target_attr);

/// Runs both rectangle optimizers and the x-monotone gain DP over one
/// grid and assembles the MinedRegion (Section 1.4).
MinedRegion MineRegionFromGrid(const region::GridCounts& grid,
                               const MinerOptions& options,
                               const std::string& x_attr,
                               const std::string& y_attr,
                               const std::string& target_attr);

}  // namespace optrules::rules

#endif  // OPTRULES_RULES_MINER_H_
