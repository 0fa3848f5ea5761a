// Step 4 of Algorithm 3.1: one sequential pass assigning each tuple to its
// bucket and accumulating, per bucket, the tuple count u_i and per Boolean
// target the hit count v_i. Also tracks the observed min/max value per
// bucket so mined ranges can be reported in attribute units.

#ifndef OPTRULES_BUCKETING_COUNTING_H_
#define OPTRULES_BUCKETING_COUNTING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bucketing/boundaries.h"
#include "common/status.h"
#include "storage/columnar_batch.h"

namespace optrules::bucketing {

/// Per-bucket statistics for one numeric attribute and a set of Boolean
/// targets.
struct BucketCounts {
  /// u[i]: number of tuples in bucket i.
  std::vector<int64_t> u;
  /// v[t][i]: number of tuples in bucket i meeting Boolean target t.
  std::vector<std::vector<int64_t>> v;
  /// Observed minimum / maximum attribute value in each bucket (NaN when
  /// the bucket is empty, but empty buckets are usually compacted away).
  std::vector<double> min_value;
  std::vector<double> max_value;
  /// Total number of tuples scanned (the support denominator N).
  int64_t total_tuples = 0;

  int num_buckets() const { return static_cast<int>(u.size()); }
  int num_targets() const { return static_cast<int>(v.size()); }
};

/// Removes empty buckets in place (the rule algorithms require u_i >= 1).
/// Bucket order and all parallel arrays are preserved.
void CompactEmptyBuckets(BucketCounts* counts);

/// Smallest finite min_value over buckets [s, t] of `counts`; -infinity
/// when no bucket in the range observed a finite value. Rule emission uses
/// these instead of raw min_value/max_value so that buckets whose only
/// values were NaN (which survive compaction because u_i > 0) can never
/// propagate NaN endpoints into reported rules.
double RangeMinValue(const BucketCounts& counts, int s, int t);
/// Largest finite max_value over buckets [s, t]; +infinity when none.
double RangeMaxValue(const BucketCounts& counts, int s, int t);

/// Per-bucket statistics for the Section 5 average operator: tuple counts
/// of attribute A's buckets plus the per-bucket sum of target attribute B.
struct BucketSums {
  std::vector<int64_t> u;      ///< tuples per bucket
  std::vector<double> sum;     ///< sum of the target attribute per bucket
  std::vector<double> min_value;
  std::vector<double> max_value;
  int64_t total_tuples = 0;

  int num_buckets() const { return static_cast<int>(u.size()); }
};

/// One bucketed channel of a MultiCountPlan: a numeric column counted into
/// its bucket boundaries, optionally restricted to rows satisfying a
/// Boolean conjunction (generalized rules, Section 4.3) and optionally
/// accumulating per-bucket sums of other numeric columns (the Section 5
/// average operator). The plain all-pairs scan uses one unconditional
/// channel per numeric attribute.
struct CountChannel {
  /// Numeric column index of the batch this channel buckets.
  int column = 0;
  /// Bucket boundaries of the channel; must outlive the plan.
  const BucketBoundaries* boundaries = nullptr;
  /// Index into MultiCountSpec::conditions, or kUnconditional. Conditional
  /// channels count u/v/min/max only over rows satisfying the conjunction;
  /// total_tuples still counts every scanned row (support of a generalized
  /// rule is measured against all tuples, Definition 2.2).
  int condition = kUnconditional;
  /// When true the channel accumulates one v-row per Boolean target.
  bool count_targets = true;
  /// Numeric column indices whose per-bucket sums this channel tracks.
  std::vector<int> sum_targets;

  static constexpr int kUnconditional = -1;
};

/// One two-dimensional grid channel of a MultiCountPlan (the Section 1.4
/// region-rule extension): a pair of bucketed numeric columns scattered
/// into an Nx-by-Ny cell grid, accumulating per-cell tuple counts u and
/// one per-cell hit plane v per Boolean target. Both axes join the plan's
/// shared locate-group cache, so a grid channel whose columns are already
/// bucketed by other channels costs zero extra Locate passes.
struct GridChannel {
  int x_column = 0;
  const BucketBoundaries* x_boundaries = nullptr;  ///< Nx = num_buckets()
  int y_column = 0;
  const BucketBoundaries* y_boundaries = nullptr;  ///< Ny = num_buckets()
};

/// Per-cell statistics of one grid channel, row-major by y (cell (x, y) at
/// index y*nx + x) -- the flat-array twin of region::GridCounts. A row
/// whose x or y value is NaN lands in no cell but still counts toward
/// total_tuples (the repo-wide NaN policy, applied per axis pair).
struct GridBucketCounts {
  int nx = 0;
  int ny = 0;
  /// u[y*nx + x]: tuples in cell (x, y).
  std::vector<int64_t> u;
  /// v[t][y*nx + x]: tuples in cell (x, y) meeting Boolean target t.
  std::vector<std::vector<int64_t>> v;
  /// All tuples scanned (the support denominator N), NaN rows included.
  int64_t total_tuples = 0;

  int num_cells() const { return static_cast<int>(u.size()); }
  int num_targets() const { return static_cast<int>(v.size()); }
};

/// Per-phase wall-clock breakdown of a counting scan, accumulated by a
/// MultiCountPlan when a sink is attached via set_phase_times(). The three
/// phases partition the plan's own CPU work: point location (the shared
/// LocateBatch passes), condition-mask evaluation + compaction, and the
/// u/v/min-max/sum scatter passes. I/O wait is the caller's to measure
/// (the bench times its reader separately). Accumulation is not
/// synchronized -- attach a sink only to serially-executed plans.
struct ScanPhaseTimes {
  double locate_seconds = 0.0;
  double mask_seconds = 0.0;
  double scatter_seconds = 0.0;
};

/// Full shape of a multi-count scan: the 1-D channels, the 2-D grid
/// channels, the Boolean-conjunction condition table they reference, and
/// the number of Boolean targets every counting channel accumulates.
/// Sharded partial plans are built from the same spec so Merge() is exact
/// by construction.
struct MultiCountSpec {
  std::vector<CountChannel> channels;
  std::vector<GridChannel> grid_channels;
  /// Each condition is a conjunction of Boolean column indices (an empty
  /// conjunction is satisfied by every row).
  std::vector<std::vector<int>> conditions;
  /// Boolean targets per counting channel (the batch's Boolean arity).
  int num_targets = 0;
};

/// Counts EVERY channel of a spec -- plain, conditional, summing, and
/// two-dimensional grid -- in one shared scan: the columnar core of
/// Algorithm 3.1 step 4 generalized to the paper's "all combinations of
/// hundreds of numeric and Boolean attributes" workload, Section 4.3
/// generalized rules, the Section 5 average operator, and the Section 1.4
/// region grids. One plan instance accumulates a BucketCounts per channel
/// (each with one v-row per target) plus the channel's sum arrays and a
/// GridBucketCounts per grid channel; partial plans from sharded scans
/// Merge() exactly, so parallel execution is bit-identical to serial.
class MultiCountPlan {
 public:
  /// Plain all-pairs plan: one unconditional channel per numeric attribute
  /// (`boundaries[a]` describes attribute a's buckets; pointers must
  /// outlive the plan), each counting every Boolean target.
  MultiCountPlan(std::vector<const BucketBoundaries*> boundaries,
                 int num_targets);

  /// General plan over an explicit channel spec.
  explicit MultiCountPlan(MultiCountSpec spec);

  /// Accumulates one batch into every channel.
  void Accumulate(const storage::ColumnarBatch& batch);

  /// Adds `other`'s counts into this plan (other must have identical
  /// shape). Merge order is the caller's contract for determinism.
  void Merge(const MultiCountPlan& other);

  /// Accounts `rows` rows that the reader skipped because zone maps or
  /// partition stats proved them dead under DerivePruneSpec(spec()): such
  /// rows contribute ONLY to the support denominator (every channel's and
  /// grid's total_tuples), never to u/v/min-max/sums, so adding them here
  /// keeps pruned scans bit-identical to unpruned ones. Travels through
  /// AppendPartialState/Merge like any other count.
  void AddSkippedRows(int64_t rows);

  int num_channels() const { return static_cast<int>(counts_.size()); }
  int num_grid_channels() const { return static_cast<int>(grids_.size()); }
  int num_targets() const { return spec_.num_targets; }
  /// Rows scanned so far (every channel sees the same rows).
  int64_t total_tuples() const {
    return counts_.empty() ? 0 : counts_[0].total_tuples;
  }

  /// Per-channel counts accumulated so far. For conditional channels u/v
  /// cover only the satisfying rows (total_tuples covers all rows).
  const BucketCounts& counts(int channel) const {
    return counts_[static_cast<size_t>(channel)];
  }
  /// Moves channel `channel`'s counts out of the plan.
  BucketCounts TakeCounts(int channel);

  /// Per-cell counts of grid channel `grid_channel` accumulated so far.
  const GridBucketCounts& grid_counts(int grid_channel) const {
    return grids_[static_cast<size_t>(grid_channel)];
  }
  /// Moves grid channel `grid_channel`'s counts out of the plan.
  GridBucketCounts TakeGridCounts(int grid_channel);

  /// Assembles the Section 5 BucketSums view of channel `channel`'s k-th
  /// sum target (copies u/min/max; the channel keeps its state, so every
  /// sum target of a channel can be extracted).
  BucketSums MakeBucketSums(int channel, int k) const;

  /// Destructive MakeBucketSums: moves the k-th sum array out of the plan,
  /// and once every sum target of the channel has been taken the last take
  /// moves u/min/max too instead of deep-copying them. Extraction loops
  /// (the engine drains every (channel, k) exactly once per scan) stop
  /// reallocating; each (channel, k) may be taken at most once.
  BucketSums TakeBucketSums(int channel, int k);

  /// The spec the plan was built from (shared with sharded partials).
  const MultiCountSpec& spec() const { return spec_; }

  /// Attaches (or detaches, with nullptr) a per-phase timing sink the plan
  /// adds its locate / mask / scatter wall-clock into. Unsynchronized:
  /// only attach when the plan is accumulated serially.
  void set_phase_times(ScanPhaseTimes* times) { phase_times_ = times; }

  /// The currently attached timing sink (nullptr when detached).
  ScanPhaseTimes* phase_times() const { return phase_times_; }

  /// Appends the plan's accumulated state -- per-channel counts, grids,
  /// and the compensated (sum, compensation) pairs, bit-exact -- to `out`
  /// in a stable NATIVE-endian layout. This is the partial-plan payload
  /// of the distributed wire protocol: a worker serializes its partial,
  /// the coordinator loads it into a same-spec plan and Merge()s, so
  /// remote partials merge exactly like in-process ones (doubles travel
  /// as bit patterns; the format assumes one architecture across
  /// processes, and the magic word doubles as an endianness check).
  void AppendPartialState(std::vector<uint8_t>* out) const;

  /// Restores state written by AppendPartialState into this plan,
  /// overwriting its accumulators. The plan must have been built from the
  /// same spec (shape is validated); fails on truncation or mismatch.
  Status LoadPartialState(std::span<const uint8_t> bytes);

 private:
  /// One distinct (column, boundaries) pair shared by >= 1 channels, with
  /// the per-batch bucket-index cache every consumer reads.
  struct LocateGroup {
    int column = 0;
    const BucketBoundaries* boundaries = nullptr;
    std::vector<int32_t> buckets;  ///< written by PrepareBatch only
    /// kNoBucket entries in `buckets` (the batch's NaN rows for this
    /// column). Zero lets the scatter passes drop their per-row guard.
    int64_t no_bucket = 0;
  };

  /// Index of the locate group for (column, boundaries), creating it if
  /// this is the first channel to bucket that pair.
  size_t EnsureLocateGroup(int column, const BucketBoundaries* boundaries);

  // The three steps of Accumulate.
  /// Computes the per-row mask of every condition and locates every
  /// distinct (column, boundaries) pair ONCE into the shared bucket-index
  /// cache that all of its channels consume (C conditional channels over
  /// one generalized boundary set share one Locate pass).
  void PrepareBatch(const storage::ColumnarBatch& batch);
  /// Scatters channel `channel` of the prepared batch.
  void AccumulateChannel(const storage::ColumnarBatch& batch, int channel);
  /// Scatters grid channel `grid_channel` of the prepared batch.
  void AccumulateGridChannel(const storage::ColumnarBatch& batch,
                             int grid_channel);

  MultiCountSpec spec_;
  std::vector<BucketCounts> counts_;
  /// Per-grid-channel cell counts, aligned with spec_.grid_channels.
  std::vector<GridBucketCounts> grids_;
  /// Locate-group indices of each grid channel's two axes.
  std::vector<std::pair<size_t, size_t>> grid_groups_;
  /// sums_[channel][k][bucket]: per-bucket running sum of the channel's
  /// k-th sum target column, with sum_comp_ holding the matching Neumaier
  /// compensation terms. Every accumulation and merge is compensated, so
  /// the extracted sum (running + compensation) is exact to well below one
  /// ulp and, because the row-sharded executor fixes its shard layout
  /// independently of the pool size, bit-identical for any pool.
  std::vector<std::vector<std::vector<double>>> sums_;
  std::vector<std::vector<std::vector<double>>> sum_comp_;
  /// Sum targets already moved out via TakeBucketSums, per channel.
  std::vector<size_t> sums_taken_;
  /// Distinct (column, boundaries) pairs across all channels; each is
  /// located exactly once per batch by PrepareBatch.
  std::vector<LocateGroup> locate_groups_;
  /// channel -> index into locate_groups_.
  std::vector<size_t> channel_group_;
  /// Per-row index scratch reused across channels and batches: the
  /// reference arm's masked bucket indices of a conditional channel, or a
  /// grid channel's flat cell indices.
  std::vector<int32_t> scratch_;
  /// Per-condition row masks of the batch being accumulated (written by
  /// PrepareBatch, read-only during channel accumulation).
  std::vector<std::vector<uint8_t>> condition_masks_;
  /// Per-condition ascending row indices of the mask's satisfying rows
  /// (written by PrepareBatch). Conditional channels iterate these lists
  /// instead of testing a ~50/50 mask per row: the overlay path paid one
  /// branch mispredict per mask flip in EVERY scatter pass, the compacted
  /// list costs none while visiting rows in the same ascending order --
  /// so u/v/min-max and the Neumaier sum chains stay bit-identical.
  std::vector<std::vector<int32_t>> condition_rows_;
  /// Optional per-phase timing sink (unsynchronized; serial plans only).
  ScanPhaseTimes* phase_times_ = nullptr;
};

/// Content requirements that make a page/partition skippable for `spec`:
/// one ScanPruneSpec::Unit per 1-D channel (its bucketed column plus its
/// condition's conjunct columns -- a conditional channel accumulates
/// nothing where the conjunction is everywhere-false, an unconditional one
/// nothing where the column is all-NaN) and one per grid channel (both
/// axis columns; a row with either axis NaN lands in no cell). Install the
/// result on the BatchSource before a counting scan and add the readers'
/// pruned_rows() back via MultiCountPlan::AddSkippedRows.
storage::ScanPruneSpec DerivePruneSpec(const MultiCountSpec& spec);

/// Removes empty buckets from a BucketSums in place.
void CompactEmptyBuckets(BucketSums* sums);

/// NaN-safe range endpoints over BucketSums (see the BucketCounts
/// overloads above).
double RangeMinValue(const BucketSums& sums, int s, int t);
double RangeMaxValue(const BucketSums& sums, int s, int t);

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_COUNTING_H_
