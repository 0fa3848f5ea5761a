#include "bucketing/counting.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "bucketing/simd_kernels.h"
#include "common/bytes.h"
#include "common/timer.h"

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
  // NaN values belong to no bucket (Locate returns kNoBucket), so callers
  // never pass them here; the guard stays as a second line of defense so a
  // NaN can never become a range endpoint.
  if (std::isnan(value)) return;
  const auto b = static_cast<size_t>(bucket);
  double& lo = counts->min_value[b];
  double& hi = counts->max_value[b];
  if (std::isnan(lo) || value < lo) lo = value;
  if (std::isnan(hi) || value > hi) hi = value;
}

/// Shared core of the RangeMinValue overloads: first non-NaN min_value
/// scanning buckets [s, t] forward, -infinity when every bucket in the
/// range only ever saw NaN.
double RangeMinValueImpl(std::span<const double> min_value, int s, int t) {
  OPTRULES_CHECK(0 <= s && s <= t &&
                 t < static_cast<int>(min_value.size()));
  for (int b = s; b <= t; ++b) {
    const double lo = min_value[static_cast<size_t>(b)];
    if (!std::isnan(lo)) return lo;
  }
  return -std::numeric_limits<double>::infinity();
}

/// Shared core of the RangeMaxValue overloads: first non-NaN max_value
/// scanning buckets [s, t] backward, +infinity when none.
double RangeMaxValueImpl(std::span<const double> max_value, int s, int t) {
  OPTRULES_CHECK(0 <= s && s <= t &&
                 t < static_cast<int>(max_value.size()));
  for (int b = t; b >= s; --b) {
    const double hi = max_value[static_cast<size_t>(b)];
    if (!std::isnan(hi)) return hi;
  }
  return std::numeric_limits<double>::infinity();
}

/// Neumaier-compensated accumulation: folds `value` into the running
/// (sum, compensation) pair. The compensated total is sum + compensation,
/// exact to well below one ulp of the naive running sum, which is what
/// lets differently-sharded scans land on identical extracted sums. A
/// non-finite running sum skips the compensation update: the correction
/// terms would compute inf - inf = NaN and turn an honestly infinite (or
/// NaN) total into NaN on extraction.
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

/// The scatter passes of one channel over one batch, templated on the row
/// source so the hot loops compile guard- and indirection-free. kCompact
/// reads rows through `sel` (a compacted ascending index list; m is its
/// length) instead of scanning all m rows densely; kGuard keeps the
/// kNoBucket skip (needed only when the batch has NaN rows -- the caller
/// drops it when the locate pass reported none). Every variant visits the
/// surviving rows in the same ascending order as the guarded reference
/// arm, so u/v/min-max and the per-bucket Neumaier chains are
/// bit-identical across all four instantiations.
template <bool kCompact, bool kGuard>
void ChannelScatterPasses(const storage::ColumnarBatch& batch,
                          const CountChannel& channel, int num_targets,
                          std::span<const double> values,
                          const int32_t* buckets, const int32_t* sel,
                          size_t m, BucketCounts& counts,
                          std::vector<std::vector<double>>& sums,
                          std::vector<std::vector<double>>& comps) {
  // u-count + min/max pass. The ternary min/max form lowers to compares
  // plus conditional moves, where the reference's guarded stores paid a
  // (well-predicted but real) branch per row.
  for (size_t k = 0; k < m; ++k) {
    const size_t row = kCompact ? static_cast<size_t>(sel[k]) : k;
    const int32_t bucket = buckets[row];
    if constexpr (kGuard) {
      if (bucket == BucketBoundaries::kNoBucket) continue;
    }
    const auto b = static_cast<size_t>(bucket);
    ++counts.u[b];
    const double value = values[row];
    double& lo = counts.min_value[b];
    double& hi = counts.max_value[b];
    lo = (std::isnan(lo) || value < lo) ? value : lo;
    hi = (std::isnan(hi) || value > hi) ? value : hi;
  }
  // One v pass per Boolean target.
  if (channel.count_targets) {
    for (int t = 0; t < num_targets; ++t) {
      const std::span<const uint8_t> target = batch.boolean(t);
      std::vector<int64_t>& v = counts.v[static_cast<size_t>(t)];
      for (size_t k = 0; k < m; ++k) {
        const size_t row = kCompact ? static_cast<size_t>(sel[k]) : k;
        const int32_t bucket = buckets[row];
        if constexpr (kGuard) {
          if (bucket == BucketBoundaries::kNoBucket) continue;
        }
        v[static_cast<size_t>(bucket)] +=
            static_cast<int64_t>(target[row] != 0);
      }
    }
  }
  // One Neumaier-compensated sum pass per sum target (strictly sequential
  // scalar chain; row order fixed => bit-identical sums).
  for (size_t s = 0; s < channel.sum_targets.size(); ++s) {
    const std::span<const double> target =
        batch.numeric(channel.sum_targets[s]);
    std::vector<double>& sum = sums[s];
    std::vector<double>& comp = comps[s];
    for (size_t k = 0; k < m; ++k) {
      const size_t row = kCompact ? static_cast<size_t>(sel[k]) : k;
      const int32_t bucket = buckets[row];
      if constexpr (kGuard) {
        if (bucket == BucketBoundaries::kNoBucket) continue;
      }
      NeumaierAdd(target[row], sum[static_cast<size_t>(bucket)],
                  comp[static_cast<size_t>(bucket)]);
    }
  }
}

/// Shared core of the CompactEmptyBuckets overloads: compacts the rows
/// with u[read] != 0 to the front, calling move_row(write, read) for every
/// kept row that moves (u itself included), and returns the kept count for
/// the caller's resizes.
template <typename MoveRow>
size_t CompactByU(std::span<const int64_t> u, MoveRow&& move_row) {
  size_t write = 0;
  for (size_t read = 0; read < u.size(); ++read) {
    if (u[read] == 0) continue;
    if (write != read) move_row(write, read);
    ++write;
  }
  return write;
}

}  // namespace

void CompactEmptyBuckets(BucketCounts* counts) {
  OPTRULES_CHECK(counts != nullptr);
  const size_t kept = CompactByU(counts->u, [counts](size_t w, size_t r) {
    counts->u[w] = counts->u[r];
    counts->min_value[w] = counts->min_value[r];
    counts->max_value[w] = counts->max_value[r];
    for (auto& target : counts->v) target[w] = target[r];
  });
  counts->u.resize(kept);
  counts->min_value.resize(kept);
  counts->max_value.resize(kept);
  for (auto& target : counts->v) target.resize(kept);
}

double RangeMinValue(const BucketCounts& counts, int s, int t) {
  return RangeMinValueImpl(counts.min_value, s, t);
}

double RangeMaxValue(const BucketCounts& counts, int s, int t) {
  return RangeMaxValueImpl(counts.max_value, s, t);
}

MultiCountPlan::MultiCountPlan(
    std::vector<const BucketBoundaries*> boundaries, int num_targets) {
  OPTRULES_CHECK(num_targets >= 0);
  MultiCountSpec spec;
  spec.num_targets = num_targets;
  spec.channels.reserve(boundaries.size());
  for (size_t a = 0; a < boundaries.size(); ++a) {
    CountChannel channel;
    channel.column = static_cast<int>(a);
    channel.boundaries = boundaries[a];
    spec.channels.push_back(std::move(channel));
  }
  *this = MultiCountPlan(std::move(spec));
}

size_t MultiCountPlan::EnsureLocateGroup(int column,
                                         const BucketBoundaries* boundaries) {
  // Channels sharing a (column, boundaries) pair -- the C conditional
  // channels of a column, a sum channel riding on a base channel's
  // boundaries, or a grid axis over an already-bucketed column -- share
  // ONE locate group, so PrepareBatch locates the column exactly once per
  // batch for all of them. Boundaries identity is by pointer: the planners
  // hand the same BucketBoundaries object to every channel of a boundary
  // set.
  for (size_t g = 0; g < locate_groups_.size(); ++g) {
    if (locate_groups_[g].column == column &&
        locate_groups_[g].boundaries == boundaries) {
      return g;
    }
  }
  LocateGroup fresh;
  fresh.column = column;
  fresh.boundaries = boundaries;
  locate_groups_.push_back(std::move(fresh));
  return locate_groups_.size() - 1;
}

MultiCountPlan::MultiCountPlan(MultiCountSpec spec) : spec_(std::move(spec)) {
  OPTRULES_CHECK(spec_.num_targets >= 0);
  counts_.reserve(spec_.channels.size());
  sums_.reserve(spec_.channels.size());
  sum_comp_.reserve(spec_.channels.size());
  sums_taken_.assign(spec_.channels.size(), 0);
  channel_group_.reserve(spec_.channels.size());
  condition_masks_.resize(spec_.conditions.size());
  condition_rows_.resize(spec_.conditions.size());
  for (const CountChannel& channel : spec_.channels) {
    OPTRULES_CHECK(channel.boundaries != nullptr);
    OPTRULES_CHECK(channel.condition == CountChannel::kUnconditional ||
                   (0 <= channel.condition &&
                    channel.condition <
                        static_cast<int>(spec_.conditions.size())));
    counts_.push_back(
        MakeEmptyCounts(channel.boundaries->num_buckets(),
                        channel.count_targets ? spec_.num_targets : 0));
    sums_.emplace_back(
        channel.sum_targets.size(),
        std::vector<double>(
            static_cast<size_t>(channel.boundaries->num_buckets()), 0.0));
    sum_comp_.push_back(sums_.back());
    channel_group_.push_back(
        EnsureLocateGroup(channel.column, channel.boundaries));
  }
  grids_.reserve(spec_.grid_channels.size());
  grid_groups_.reserve(spec_.grid_channels.size());
  for (const GridChannel& channel : spec_.grid_channels) {
    OPTRULES_CHECK(channel.x_boundaries != nullptr);
    OPTRULES_CHECK(channel.y_boundaries != nullptr);
    GridBucketCounts grid;
    grid.nx = channel.x_boundaries->num_buckets();
    grid.ny = channel.y_boundaries->num_buckets();
    // The scatter pass folds (x, y) into one int32 cell index.
    OPTRULES_CHECK(static_cast<int64_t>(grid.nx) * grid.ny <=
                   std::numeric_limits<int32_t>::max());
    const auto cells =
        static_cast<size_t>(grid.nx) * static_cast<size_t>(grid.ny);
    grid.u.assign(cells, 0);
    grid.v.assign(static_cast<size_t>(spec_.num_targets),
                  std::vector<int64_t>(cells, 0));
    grids_.push_back(std::move(grid));
    grid_groups_.emplace_back(
        EnsureLocateGroup(channel.x_column, channel.x_boundaries),
        EnsureLocateGroup(channel.y_column, channel.y_boundaries));
  }
}

void MultiCountPlan::PrepareBatch(const storage::ColumnarBatch& batch) {
  const size_t rows = static_cast<size_t>(batch.num_rows());
  const simd::Kernels& kernels =
      simd::ForceScalar() ? simd::ScalarKernels() : simd::Active();
  WallTimer timer;
  for (size_t c = 0; c < spec_.conditions.size(); ++c) {
    std::vector<uint8_t>& mask = condition_masks_[c];
    mask.assign(rows, 1);
    for (const int column : spec_.conditions[c]) {
      const std::span<const uint8_t> condition = batch.boolean(column);
      kernels.mask_and(mask.data(), condition.data(), rows);
    }
    // Compact the mask to an ascending row-index list once, so every
    // conditional channel's scatter passes iterate only satisfying rows.
    std::vector<int32_t>& rows_list = condition_rows_[c];
    rows_list.resize(rows);
    const size_t kept =
        simd::CompactMaskIndices(mask.data(), rows, rows_list.data());
    rows_list.resize(kept);
  }
  if (phase_times_ != nullptr) {
    phase_times_->mask_seconds += timer.ElapsedSeconds();
    timer.Reset();
  }
  // Shared bucket-index cache: each distinct (column, boundaries) pair is
  // located once per batch, no matter how many channels consume it.
  for (LocateGroup& group : locate_groups_) {
    const std::span<const double> values = batch.numeric(group.column);
    group.buckets.resize(values.size());
    group.no_bucket =
        group.boundaries->LocateBatchWithKernels(kernels, values,
                                                 group.buckets);
  }
  if (phase_times_ != nullptr) {
    phase_times_->locate_seconds += timer.ElapsedSeconds();
  }
}

void MultiCountPlan::AccumulateChannel(const storage::ColumnarBatch& batch,
                                       int channel_index) {
  OPTRULES_CHECK(batch.num_boolean() == spec_.num_targets);
  const auto ci = static_cast<size_t>(channel_index);
  const CountChannel& channel = spec_.channels[ci];
  const std::span<const double> values = batch.numeric(channel.column);
  const size_t rows = values.size();
  BucketCounts& counts = counts_[ci];

  const LocateGroup& group = locate_groups_[channel_group_[ci]];
  const int32_t* buckets = group.buckets.data();
  WallTimer timer;

  if (!simd::ForceScalar()) {
    // Fast arm. Conditional channels iterate their compacted row-index
    // list (PrepareBatch) instead of overlaying a ~50/50 mask -- the
    // overlay cost one branch mispredict per mask flip in every scatter
    // pass. The kNoBucket guard is dropped entirely when the locate pass
    // saw no NaN in this column (the common case).
    const int32_t* sel = nullptr;
    size_t m = rows;
    if (channel.condition != CountChannel::kUnconditional) {
      const auto cond = static_cast<size_t>(channel.condition);
      OPTRULES_CHECK(condition_masks_[cond].size() == rows);
      sel = condition_rows_[cond].data();
      m = condition_rows_[cond].size();
    }
    const bool guard = group.no_bucket != 0;
    if (sel != nullptr) {
      if (guard) {
        ChannelScatterPasses<true, true>(batch, channel, spec_.num_targets,
                                         values, buckets, sel, m, counts,
                                         sums_[ci], sum_comp_[ci]);
      } else {
        ChannelScatterPasses<true, false>(batch, channel, spec_.num_targets,
                                          values, buckets, sel, m, counts,
                                          sums_[ci], sum_comp_[ci]);
      }
    } else if (guard) {
      ChannelScatterPasses<false, true>(batch, channel, spec_.num_targets,
                                        values, buckets, sel, m, counts,
                                        sums_[ci], sum_comp_[ci]);
    } else {
      ChannelScatterPasses<false, false>(batch, channel, spec_.num_targets,
                                         values, buckets, sel, m, counts,
                                         sums_[ci], sum_comp_[ci]);
    }
    counts.total_tuples += static_cast<int64_t>(rows);
    if (phase_times_ != nullptr) {
      phase_times_->scatter_seconds += timer.ElapsedSeconds();
    }
    return;
  }

  // Reference arm (OPTRULES_FORCE_SCALAR=1): the pre-SIMD guarded scatter,
  // kept verbatim as the bit-identity baseline the differential tests pin.
  // Conditional channels overlay the condition mask onto the shared cache
  // once (into scratch); the scatter passes below then treat
  // condition-failing rows exactly like NaN rows.
  if (channel.condition != CountChannel::kUnconditional) {
    const std::vector<uint8_t>& mask =
        condition_masks_[static_cast<size_t>(channel.condition)];
    OPTRULES_CHECK(mask.size() == rows);
    std::vector<int32_t>& masked = scratch_;
    masked.resize(rows);
    for (size_t row = 0; row < rows; ++row) {
      masked[row] =
          mask[row] != 0 ? buckets[row] : BucketBoundaries::kNoBucket;
    }
    buckets = masked.data();
  }

  // u-count pass (with min/max): the kNoBucket skip is the only
  // data-dependent branch and fires only for NaN / condition-failing rows.
  for (size_t row = 0; row < rows; ++row) {
    const int32_t bucket = buckets[row];
    if (bucket == BucketBoundaries::kNoBucket) continue;
    ++counts.u[static_cast<size_t>(bucket)];
    UpdateMinMax(&counts, bucket, values[row]);
  }
  // One v pass per Boolean target over the cached indices.
  if (channel.count_targets) {
    for (int t = 0; t < spec_.num_targets; ++t) {
      const std::span<const uint8_t> target = batch.boolean(t);
      std::vector<int64_t>& v = counts.v[static_cast<size_t>(t)];
      for (size_t row = 0; row < rows; ++row) {
        const int32_t bucket = buckets[row];
        if (bucket == BucketBoundaries::kNoBucket) continue;
        v[static_cast<size_t>(bucket)] +=
            static_cast<int64_t>(target[row] != 0);
      }
    }
  }
  // One Neumaier-compensated sum pass per sum target (row order fixed, so
  // the serial chain is bit-identical to the compensated reference kernel
  // in tests/reference/kernels.h).
  for (size_t k = 0; k < channel.sum_targets.size(); ++k) {
    const std::span<const double> target =
        batch.numeric(channel.sum_targets[k]);
    std::vector<double>& sum = sums_[ci][k];
    std::vector<double>& comp = sum_comp_[ci][k];
    for (size_t row = 0; row < rows; ++row) {
      const int32_t bucket = buckets[row];
      if (bucket == BucketBoundaries::kNoBucket) continue;
      NeumaierAdd(target[row], sum[static_cast<size_t>(bucket)],
                  comp[static_cast<size_t>(bucket)]);
    }
  }
  counts.total_tuples += static_cast<int64_t>(rows);
  if (phase_times_ != nullptr) {
    phase_times_->scatter_seconds += timer.ElapsedSeconds();
  }
}

void MultiCountPlan::AccumulateGridChannel(const storage::ColumnarBatch& batch,
                                           int grid_channel) {
  OPTRULES_CHECK(batch.num_boolean() == spec_.num_targets);
  const auto gi = static_cast<size_t>(grid_channel);
  GridBucketCounts& grid = grids_[gi];
  const std::vector<int32_t>& x_located =
      locate_groups_[grid_groups_[gi].first].buckets;
  const std::vector<int32_t>& y_located =
      locate_groups_[grid_groups_[gi].second].buckets;
  const size_t rows = static_cast<size_t>(batch.num_rows());
  OPTRULES_CHECK(x_located.size() == rows);  // both axis columns span
  OPTRULES_CHECK(y_located.size() == rows);  // every row of the batch

  WallTimer timer;
  // Fold the two cached axis indices into one flat cell index per row; a
  // NaN in EITHER axis (kNoBucket) sends the row to no cell, mirroring the
  // 1-D policy per axis pair. Axis indices are -1 or non-negative, so the
  // kernels' bitwise-or miss test is exactly the two-sided kNoBucket
  // check, on every arm.
  std::vector<int32_t>& cells = scratch_;
  cells.resize(rows);
  const simd::Kernels& kernels =
      simd::ForceScalar() ? simd::ScalarKernels() : simd::Active();
  kernels.fold_cells(x_located.data(), y_located.data(), rows, grid.nx,
                     cells.data());
  for (size_t row = 0; row < rows; ++row) {
    const int32_t cell = cells[row];
    if (cell == BucketBoundaries::kNoBucket) continue;
    ++grid.u[static_cast<size_t>(cell)];
  }
  for (int t = 0; t < spec_.num_targets; ++t) {
    const std::span<const uint8_t> target = batch.boolean(t);
    std::vector<int64_t>& v = grid.v[static_cast<size_t>(t)];
    for (size_t row = 0; row < rows; ++row) {
      const int32_t cell = cells[row];
      if (cell == BucketBoundaries::kNoBucket) continue;
      v[static_cast<size_t>(cell)] += static_cast<int64_t>(target[row] != 0);
    }
  }
  // NaN rows still count toward the support denominator N.
  grid.total_tuples += static_cast<int64_t>(rows);
  if (phase_times_ != nullptr) {
    phase_times_->scatter_seconds += timer.ElapsedSeconds();
  }
}

void MultiCountPlan::Accumulate(const storage::ColumnarBatch& batch) {
  PrepareBatch(batch);
  for (int channel = 0; channel < num_channels(); ++channel) {
    AccumulateChannel(batch, channel);
  }
  for (int grid = 0; grid < num_grid_channels(); ++grid) {
    AccumulateGridChannel(batch, grid);
  }
}

void MultiCountPlan::Merge(const MultiCountPlan& other) {
  OPTRULES_CHECK(other.num_channels() == num_channels());
  OPTRULES_CHECK(other.spec_.num_targets == spec_.num_targets);
  for (int channel = 0; channel < num_channels(); ++channel) {
    const auto ci = static_cast<size_t>(channel);
    BucketCounts& mine = counts_[ci];
    const BucketCounts& theirs = other.counts_[ci];
    OPTRULES_CHECK(theirs.num_buckets() == mine.num_buckets());
    OPTRULES_CHECK(theirs.num_targets() == mine.num_targets());
    for (int b = 0; b < mine.num_buckets(); ++b) {
      const auto bi = static_cast<size_t>(b);
      mine.u[bi] += theirs.u[bi];
      for (int t = 0; t < mine.num_targets(); ++t) {
        mine.v[static_cast<size_t>(t)][bi] +=
            theirs.v[static_cast<size_t>(t)][bi];
      }
      // The min and max merges are deliberately independent guards: u/v
      // and the two endpoints must stay mergeable even if a future update
      // touches only one of them.
      if (!std::isnan(theirs.min_value[bi]) &&
          (std::isnan(mine.min_value[bi]) ||
           theirs.min_value[bi] < mine.min_value[bi])) {
        mine.min_value[bi] = theirs.min_value[bi];
      }
      if (!std::isnan(theirs.max_value[bi]) &&
          (std::isnan(mine.max_value[bi]) ||
           theirs.max_value[bi] > mine.max_value[bi])) {
        mine.max_value[bi] = theirs.max_value[bi];
      }
    }
    OPTRULES_CHECK(other.sums_[ci].size() == sums_[ci].size());
    for (size_t k = 0; k < sums_[ci].size(); ++k) {
      std::vector<double>& mine_sum = sums_[ci][k];
      std::vector<double>& mine_comp = sum_comp_[ci][k];
      const std::vector<double>& their_sum = other.sums_[ci][k];
      const std::vector<double>& their_comp = other.sum_comp_[ci][k];
      for (size_t b = 0; b < mine_sum.size(); ++b) {
        // Compensated merge: fold the partial's running sum in with
        // Neumaier, then carry its compensation term over, so shard
        // borders introduce no fresh rounding.
        NeumaierAdd(their_sum[b], mine_sum[b], mine_comp[b]);
        mine_comp[b] += their_comp[b];
      }
    }
    mine.total_tuples += theirs.total_tuples;
  }
  OPTRULES_CHECK(other.num_grid_channels() == num_grid_channels());
  for (int g = 0; g < num_grid_channels(); ++g) {
    const auto gi = static_cast<size_t>(g);
    GridBucketCounts& mine = grids_[gi];
    const GridBucketCounts& theirs = other.grids_[gi];
    OPTRULES_CHECK(theirs.nx == mine.nx && theirs.ny == mine.ny);
    OPTRULES_CHECK(theirs.num_targets() == mine.num_targets());
    for (size_t cell = 0; cell < mine.u.size(); ++cell) {
      mine.u[cell] += theirs.u[cell];
    }
    for (int t = 0; t < mine.num_targets(); ++t) {
      const auto ti = static_cast<size_t>(t);
      for (size_t cell = 0; cell < mine.v[ti].size(); ++cell) {
        mine.v[ti][cell] += theirs.v[ti][cell];
      }
    }
    mine.total_tuples += theirs.total_tuples;
  }
}

void MultiCountPlan::AddSkippedRows(int64_t rows) {
  OPTRULES_CHECK(rows >= 0);
  for (BucketCounts& counts : counts_) counts.total_tuples += rows;
  for (GridBucketCounts& grid : grids_) grid.total_tuples += rows;
}

storage::ScanPruneSpec DerivePruneSpec(const MultiCountSpec& spec) {
  storage::ScanPruneSpec prune;
  prune.units.reserve(spec.channels.size() + spec.grid_channels.size());
  for (const CountChannel& channel : spec.channels) {
    storage::ScanPruneSpec::Unit unit;
    unit.numeric_columns.push_back(channel.column);
    if (channel.condition != CountChannel::kUnconditional) {
      unit.boolean_true =
          spec.conditions[static_cast<size_t>(channel.condition)];
    }
    prune.units.push_back(std::move(unit));
  }
  for (const GridChannel& grid : spec.grid_channels) {
    storage::ScanPruneSpec::Unit unit;
    unit.numeric_columns.push_back(grid.x_column);
    unit.numeric_columns.push_back(grid.y_column);
    prune.units.push_back(std::move(unit));
  }
  return prune;
}

BucketCounts MultiCountPlan::TakeCounts(int channel) {
  OPTRULES_CHECK(0 <= channel && channel < num_channels());
  return std::move(counts_[static_cast<size_t>(channel)]);
}

GridBucketCounts MultiCountPlan::TakeGridCounts(int grid_channel) {
  OPTRULES_CHECK(0 <= grid_channel && grid_channel < num_grid_channels());
  return std::move(grids_[static_cast<size_t>(grid_channel)]);
}

BucketSums MultiCountPlan::MakeBucketSums(int channel, int k) const {
  OPTRULES_CHECK(0 <= channel && channel < num_channels());
  const auto ci = static_cast<size_t>(channel);
  OPTRULES_CHECK(0 <= k && k < static_cast<int>(sums_[ci].size()));
  const BucketCounts& counts = counts_[ci];
  BucketSums sums;
  sums.u = counts.u;
  sums.sum = sums_[ci][static_cast<size_t>(k)];
  const std::vector<double>& comp = sum_comp_[ci][static_cast<size_t>(k)];
  // The extracted per-bucket sum is the compensated total.
  for (size_t b = 0; b < sums.sum.size(); ++b) sums.sum[b] += comp[b];
  sums.min_value = counts.min_value;
  sums.max_value = counts.max_value;
  sums.total_tuples = counts.total_tuples;
  return sums;
}

BucketSums MultiCountPlan::TakeBucketSums(int channel, int k) {
  OPTRULES_CHECK(0 <= channel && channel < num_channels());
  const auto ci = static_cast<size_t>(channel);
  OPTRULES_CHECK(0 <= k && k < static_cast<int>(sums_[ci].size()));
  std::vector<double>& source = sums_[ci][static_cast<size_t>(k)];
  BucketCounts& counts = counts_[ci];
  // A double take would silently hand out an empty sum array: the taken
  // counter catches takes past the channel's target count, and the size
  // equality catches re-taking a cleared k while others are outstanding.
  OPTRULES_CHECK(sums_taken_[ci] < sums_[ci].size());
  OPTRULES_CHECK(static_cast<int>(source.size()) == counts.num_buckets());
  BucketSums sums;
  sums.sum = std::move(source);
  source.clear();
  std::vector<double>& comp = sum_comp_[ci][static_cast<size_t>(k)];
  // The extracted per-bucket sum is the compensated total.
  for (size_t b = 0; b < sums.sum.size(); ++b) sums.sum[b] += comp[b];
  comp.clear();
  sums.total_tuples = counts.total_tuples;
  ++sums_taken_[ci];
  if (sums_taken_[ci] == sums_[ci].size()) {
    // Last outstanding sum target of the channel: move the parallel arrays
    // instead of deep-copying them.
    sums.u = std::move(counts.u);
    sums.min_value = std::move(counts.min_value);
    sums.max_value = std::move(counts.max_value);
    counts.u.clear();
    counts.min_value.clear();
    counts.max_value.clear();
  } else {
    sums.u = counts.u;
    sums.min_value = counts.min_value;
    sums.max_value = counts.max_value;
  }
  return sums;
}

namespace {

// ---- partial-plan wire payload (AppendPartialState / LoadPartialState) ----
//
// Layout: a magic + version word, then every accumulator array in spec
// order with a 64-bit element-count prefix (common/bytes.h primitives).
// Doubles are bit-copied, so a deserialized partial merges bit-identically
// to the in-process one. The encoding is native-endian: the distributed
// layer ships partials between processes of one architecture (pipes on one
// machine, or a homogeneous cluster), and the header word doubles as an
// endianness check.

constexpr uint32_t kPartialStateMagic = 0x4d435053;  // "MCPS"
constexpr uint32_t kPartialStateVersion = 1;

using bytes::AppendArray;
using bytes::AppendScalar;

}  // namespace

void MultiCountPlan::AppendPartialState(std::vector<uint8_t>* out) const {
  OPTRULES_CHECK(out != nullptr);
  AppendScalar(out, kPartialStateMagic);
  AppendScalar(out, kPartialStateVersion);
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(counts_.size()));
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(grids_.size()));
  for (size_t ci = 0; ci < counts_.size(); ++ci) {
    const BucketCounts& counts = counts_[ci];
    AppendScalar<int64_t>(out, counts.total_tuples);
    AppendArray(out, counts.u);
    AppendScalar<uint32_t>(out, static_cast<uint32_t>(counts.v.size()));
    for (const std::vector<int64_t>& v : counts.v) AppendArray(out, v);
    AppendArray(out, counts.min_value);
    AppendArray(out, counts.max_value);
    AppendScalar<uint32_t>(out, static_cast<uint32_t>(sums_[ci].size()));
    for (size_t k = 0; k < sums_[ci].size(); ++k) {
      AppendArray(out, sums_[ci][k]);
      AppendArray(out, sum_comp_[ci][k]);
    }
  }
  for (const GridBucketCounts& grid : grids_) {
    AppendScalar<int32_t>(out, grid.nx);
    AppendScalar<int32_t>(out, grid.ny);
    AppendScalar<int64_t>(out, grid.total_tuples);
    AppendArray(out, grid.u);
    AppendScalar<uint32_t>(out, static_cast<uint32_t>(grid.v.size()));
    for (const std::vector<int64_t>& v : grid.v) AppendArray(out, v);
  }
}

Status MultiCountPlan::LoadPartialState(std::span<const uint8_t> bytes) {
  bytes::ByteReader reader(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&magic));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&version));
  if (magic != kPartialStateMagic) {
    return Status::Corruption("bad partial plan state magic");
  }
  if (version != kPartialStateVersion) {
    return Status::Corruption("unsupported partial plan state version");
  }
  uint32_t num_channels = 0;
  uint32_t num_grids = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_channels));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_grids));
  if (num_channels != counts_.size() || num_grids != grids_.size()) {
    return Status::Corruption("partial plan state shape mismatch");
  }
  for (size_t ci = 0; ci < counts_.size(); ++ci) {
    BucketCounts& counts = counts_[ci];
    const auto buckets = static_cast<size_t>(counts.num_buckets());
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&counts.total_tuples));
    OPTRULES_RETURN_IF_ERROR(reader.ReadArrayExact(&counts.u, buckets));
    uint32_t num_targets = 0;
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_targets));
    if (num_targets != counts.v.size()) {
      return Status::Corruption("partial plan state shape mismatch");
    }
    for (std::vector<int64_t>& v : counts.v) {
      OPTRULES_RETURN_IF_ERROR(reader.ReadArrayExact(&v, buckets));
    }
    OPTRULES_RETURN_IF_ERROR(reader.ReadArrayExact(&counts.min_value, buckets));
    OPTRULES_RETURN_IF_ERROR(reader.ReadArrayExact(&counts.max_value, buckets));
    uint32_t num_sums = 0;
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_sums));
    if (num_sums != sums_[ci].size()) {
      return Status::Corruption("partial plan state shape mismatch");
    }
    for (size_t k = 0; k < sums_[ci].size(); ++k) {
      OPTRULES_RETURN_IF_ERROR(reader.ReadArrayExact(&sums_[ci][k], buckets));
      OPTRULES_RETURN_IF_ERROR(reader.ReadArrayExact(&sum_comp_[ci][k], buckets));
    }
  }
  for (GridBucketCounts& grid : grids_) {
    int32_t nx = 0;
    int32_t ny = 0;
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&nx));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&ny));
    if (nx != grid.nx || ny != grid.ny) {
      return Status::Corruption("partial plan state shape mismatch");
    }
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&grid.total_tuples));
    OPTRULES_RETURN_IF_ERROR(reader.ReadArrayExact(&grid.u, grid.u.size()));
    uint32_t num_targets = 0;
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_targets));
    if (num_targets != grid.v.size()) {
      return Status::Corruption("partial plan state shape mismatch");
    }
    for (std::vector<int64_t>& v : grid.v) {
      OPTRULES_RETURN_IF_ERROR(reader.ReadArrayExact(&v, v.size()));
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in partial plan state");
  }
  return Status::Ok();
}

double RangeMinValue(const BucketSums& sums, int s, int t) {
  return RangeMinValueImpl(sums.min_value, s, t);
}

double RangeMaxValue(const BucketSums& sums, int s, int t) {
  return RangeMaxValueImpl(sums.max_value, s, t);
}

void CompactEmptyBuckets(BucketSums* sums) {
  OPTRULES_CHECK(sums != nullptr);
  const size_t kept = CompactByU(sums->u, [sums](size_t w, size_t r) {
    sums->u[w] = sums->u[r];
    sums->sum[w] = sums->sum[r];
    sums->min_value[w] = sums->min_value[r];
    sums->max_value[w] = sums->max_value[r];
  });
  sums->u.resize(kept);
  sums->sum.resize(kept);
  sums->min_value.resize(kept);
  sums->max_value.resize(kept);
}

}  // namespace optrules::bucketing
