// Algorithm 3.2: parallel bucket counting.
//
// The tuples are partitioned over worker threads (the paper's "processor
// elements"); each worker counts its row shard into a private partial
// MultiCountPlan with no communication, and the coordinator merges the
// partials in shard order, so every pool size produces bit-identical
// results. Workers come from a reusable ThreadPool, and one call drives a
// whole MultiCountPlan -- every numeric attribute against every Boolean
// target -- through ONE shared scan of a BatchSource.

#ifndef OPTRULES_BUCKETING_PARALLEL_COUNT_H_
#define OPTRULES_BUCKETING_PARALLEL_COUNT_H_

#include <span>

#include "bucketing/counting.h"
#include "common/thread_pool.h"
#include "storage/columnar_batch.h"

namespace optrules::bucketing {

/// Number of contiguous row shards the pooled passes split a source of
/// `num_tuples` rows into. The layout is a pure function of the row count
/// -- NEVER of the pool size -- so partial results and their shard-order
/// merge are identical no matter how many workers execute them. Pools
/// larger than the shard count idle; pools smaller queue shards.
int RowShardCount(int64_t num_tuples);

/// Executes `plan` over exactly one scan of `source`, partitioned over
/// `pool` (pass nullptr for a serial scan).
///
/// Sources that support range readers (in-memory relations, PagedFiles)
/// are sharded by rows (RowShardCount): each worker accumulates a private
/// partial plan over a contiguous shard and the partials merge in shard
/// order, identically for ANY pool. Other sources are scanned serially. Either way the u/v counts, grid cells, and min/max are
/// bit-identical to a serial scan, and exactly one scan is accounted on
/// `source` (assertable via BatchSource::scans_started()). Per-bucket
/// double sum channels are Neumaier-compensated and bit-identical across
/// all pool sizes under row-sharding (the compensated merge still
/// reassociates at shard borders, so the last ulp can differ from the
/// nullptr-pool serial chain).
///
/// The pass installs DerivePruneSpec(plan->spec()) on the source for its
/// duration, so pooled PagedFile readers may skip zone-map-dead pages;
/// skipped rows are added back via MultiCountPlan::AddSkippedRows, keeping
/// pruned results bit-identical to unpruned ones.
void ExecuteMultiCount(storage::BatchSource& source, MultiCountPlan* plan,
                       ThreadPool* pool);

/// One column's Algorithm 3.1 sample in a GatherSampleValues pass.
struct SampleSlot {
  int column = 0;
  /// Enters holding ascending row indices as exact integers in
  /// [0, NumTuples()) (bucketing::DrawSampleRows); leaves holding the
  /// column's values at those rows, overwritten in place.
  std::span<double> values;
};

/// Replaces every slot's row indices with the values at those rows over
/// exactly one scan of `source`: row-sharded like ExecuteMultiCount when
/// there is a pool and the source has range readers (one
/// `bucketing.plan_shard` span per shard, under the caller's current
/// span), else one serial reader. The values never depend on the path.
/// Returns the number of shards, 0 for the serial path.
int GatherSampleValues(storage::BatchSource& source,
                       std::span<const SampleSlot> slots, ThreadPool* pool);

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_PARALLEL_COUNT_H_
