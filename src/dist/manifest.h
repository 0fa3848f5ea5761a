// Partition manifest: the durable description of a PartitionedTable.
//
// A partitioned table is a directory of K partition PagedFiles plus one
// MANIFEST.optm text file recording the schema (and a hash of it, so a
// reader can refuse a manifest whose attribute list was edited out from
// under the data), the per-partition row counts, and NaN-safe per-numeric-
// attribute min/max statistics gathered while partitioning. The manifest
// is what lets a coordinator fan a scan out to workers that each open one
// partition file cold -- the idiom mirrors the header-page + per-file
// metadata layering of classic buffer/file managers.

#ifndef OPTRULES_DIST_MANIFEST_H_
#define OPTRULES_DIST_MANIFEST_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"

namespace optrules::dist {

/// File name of the manifest inside a partitioned-table directory.
inline constexpr const char* kManifestFileName = "MANIFEST.optm";

/// One partition of the table.
struct PartitionInfo {
  /// Partition file name, relative to the table directory.
  std::string file;
  int64_t num_rows = 0;
};

/// NaN-safe observed range of one numeric attribute across the whole
/// table: +/-infinity when the attribute never held a finite value.
struct AttributeStats {
  double min_value = std::numeric_limits<double>::infinity();
  double max_value = -std::numeric_limits<double>::infinity();
};

/// Observed 0/1 range of one Boolean attribute; the empty sentinel is
/// min > max (mirroring the zone-map convention), and max_value == 0
/// means "no true row".
struct BooleanStats {
  uint8_t min_value = 1;
  uint8_t max_value = 0;
};

/// The manifest contents of a partitioned table.
struct PartitionManifest {
  storage::Schema schema;
  /// SchemaHash(schema) at write time; re-validated on read.
  uint64_t schema_hash = 0;
  std::vector<PartitionInfo> partitions;
  /// Per numeric attribute, aligned with schema numeric indices.
  std::vector<AttributeStats> numeric_stats;
  /// Per-partition per-column stats -- the partition-granular twin of the
  /// v2 zone maps, letting a coordinator skip whole partitions a
  /// ScanPruneSpec proves dead. Mandatory: a manifest without them is
  /// corrupt.
  /// [p * num_numeric + c]; NaN values skipped, sentinel when all-NaN.
  std::vector<AttributeStats> partition_numeric_stats;
  /// [p * num_boolean + b].
  std::vector<BooleanStats> partition_boolean_stats;

  int num_partitions() const { return static_cast<int>(partitions.size()); }
  int64_t total_rows() const;

  const AttributeStats& PartitionNumeric(int p, int c) const {
    return partition_numeric_stats[static_cast<size_t>(
        p * schema.num_numeric() + c)];
  }
  const BooleanStats& PartitionBoolean(int p, int b) const {
    return partition_boolean_stats[static_cast<size_t>(
        p * schema.num_boolean() + b)];
  }
};

/// Order-sensitive FNV-1a hash over the schema's attribute names and
/// kinds; the manifest's integrity check for the schema block.
uint64_t SchemaHash(const storage::Schema& schema);

/// Writes `manifest` as `dir`/MANIFEST.optm (the schema hash is recomputed
/// from manifest.schema, so callers cannot persist a stale hash).
Status WriteManifest(const PartitionManifest& manifest,
                     const std::string& dir);

/// Reads and validates `dir`/MANIFEST.optm (magic line, schema hash,
/// per-section counts).
Result<PartitionManifest> ReadManifest(const std::string& dir);

}  // namespace optrules::dist

#endif  // OPTRULES_DIST_MANIFEST_H_
