// PartitionedTable: a table split into K partition PagedFiles + manifest.
//
// The distribution unit of the one counting scan: a Partitioner splits a
// Relation / BatchSource / PagedFile / CSV into K partition files (round-
// robin or content-hash routing) under one directory with a manifest
// (schema hash, per-partition row counts, per-attribute min/max stats);
// workers then scan partitions independently and the coordinator merges
// their partial MultiCountPlans in fixed partition order. Partition files
// are plain PagedFiles, so the paged reader (whole-file or range-sharded)
// works on a partition unchanged.

#ifndef OPTRULES_DIST_PARTITIONED_TABLE_H_
#define OPTRULES_DIST_PARTITIONED_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/manifest.h"
#include "storage/columnar_batch.h"
#include "storage/relation.h"
#include "storage/scan_prune.h"
#include "storage/schema.h"

namespace optrules::dist {

/// How the partitioner routes rows to partitions.
enum class PartitionStrategy {
  /// Row i goes to partition i mod K. Deterministic and balanced; K = 1
  /// preserves the original row order exactly.
  kRoundRobin,
  /// Row goes to partition FNV1a(row bytes, seed) mod K: co-locates
  /// identical rows and stays stable under row reordering of the input.
  kHash,
};

/// Parameters of one partitioning run.
struct PartitionOptions {
  int num_partitions = 4;
  PartitionStrategy strategy = PartitionStrategy::kRoundRobin;
  /// Seed folded into the kHash row hash (ignored for round-robin).
  uint64_t hash_seed = 0x9e3779b97f4a7c15ull;
};

/// An opened partitioned table: the manifest plus its directory.
class PartitionedTable {
 public:
  /// Opens `dir`/MANIFEST.optm and validates that every partition file
  /// exists with the manifest's attribute counts and row count.
  static Result<PartitionedTable> Open(const std::string& dir);

  /// Re-runs Open's per-partition header validation against the current
  /// on-disk state. Scans CHECK-fail on a partition vanishing mid-read,
  /// so sessions that must fail softly (MiningEngine::TryPrepare) call
  /// this immediately before scanning.
  Status Validate() const;

  const std::string& dir() const { return dir_; }
  const PartitionManifest& manifest() const { return manifest_; }
  const storage::Schema& schema() const { return manifest_.schema; }
  int num_partitions() const { return manifest_.num_partitions(); }
  int64_t total_rows() const { return manifest_.total_rows(); }
  int64_t partition_rows(int p) const {
    return manifest_.partitions[static_cast<size_t>(p)].num_rows;
  }

  /// Absolute path of partition `p`'s PagedFile.
  std::string PartitionPath(int p) const;

  /// Opens one partition as a batch source (each call is an independent
  /// file handle, so concurrent workers never share reader state).
  Result<std::unique_ptr<storage::PagedFileBatchSource>> OpenPartition(
      int p, int64_t batch_rows = storage::kDefaultBatchRows) const;

 private:
  PartitionedTable(std::string dir, PartitionManifest manifest)
      : dir_(std::move(dir)), manifest_(std::move(manifest)) {}

  std::string dir_;
  PartitionManifest manifest_;
};

/// Streams `source` into a new partitioned table under `dir` (created if
/// missing; an existing manifest there is overwritten). One pass: each row
/// is serialized once into the fixed-width row layout and routed to its
/// partition writer; per-attribute min/max stats accumulate on the fly.
Result<PartitionedTable> PartitionBatchSource(storage::BatchSource& source,
                                              const storage::Schema& schema,
                                              const std::string& dir,
                                              const PartitionOptions& options);

/// Partitions an in-memory relation.
Result<PartitionedTable> PartitionRelation(const storage::Relation& relation,
                                           const std::string& dir,
                                           const PartitionOptions& options);

/// Partitions an existing single PagedFile (the "one machine, one file"
/// layout this subsystem grows out of).
Result<PartitionedTable> PartitionPagedFile(const std::string& paged_path,
                                            const storage::Schema& schema,
                                            const std::string& dir,
                                            const PartitionOptions& options);

/// Partitions a CSV file (header of name:kind fields; see storage/csv.h).
Result<PartitionedTable> PartitionCsv(const std::string& csv_path,
                                      const std::string& dir,
                                      const PartitionOptions& options);

/// True when the manifest's per-partition stats prove partition `p` dead
/// under `spec`: some listed numeric column is all-NaN there, or some
/// condition conjunct is all-false, for EVERY unit of the spec -- the
/// partition can contribute nothing but its row count. Tables written
/// before per-partition stats existed (has_partition_stats == false) are
/// never pruned. Used by the concatenating reader and the distributed
/// coordinator, which must agree on what "dead" means.
bool PartitionIsDead(const PartitionedTable& table,
                     const storage::ScanPruneSpec& spec, int p);

/// Sequential batch source over a whole partitioned table: partitions are
/// concatenated in manifest order (the same order the coordinator merges
/// partials). This is what boundary planning streams; counting goes
/// through the DistributedScanCoordinator instead, which accounts its
/// logical scans here via NoteScanStarted so `scans_started()` keeps
/// meaning "times the data was read" for partitioned sessions too.
///
/// An installed ScanPruneSpec flows two ways: partitions the manifest's
/// per-partition stats prove dead are skipped wholesale (accounted as
/// partitions_skipped + pruned rows), and the spec is re-installed on each
/// live partition's PagedFileBatchSource so its zone maps prune pages too.
/// SourceStats() aggregates the partition sources' cache and pruning
/// counters.
class PartitionedTableBatchSource : public storage::BatchSource {
 public:
  explicit PartitionedTableBatchSource(
      const PartitionedTable* table,
      int64_t batch_rows = storage::kDefaultBatchRows);

  int num_numeric() const override;
  int num_boolean() const override;
  int64_t NumTuples() const override;

  storage::BatchSourceStats SourceStats() const override {
    storage::BatchSourceStats stats;
    stats.cache_hits = cache_hits_.load();
    stats.cache_misses = cache_misses_.load();
    stats.pages_skipped = pages_skipped_.load();
    stats.partitions_skipped = partitions_skipped_.load();
    return stats;
  }

 protected:
  std::unique_ptr<storage::BatchReader> DoCreateReader() override;

 private:
  const PartitionedTable* table_;
  int64_t batch_rows_;
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> pages_skipped_{0};
  std::atomic<int64_t> partitions_skipped_{0};
};

}  // namespace optrules::dist

#endif  // OPTRULES_DIST_PARTITIONED_TABLE_H_
