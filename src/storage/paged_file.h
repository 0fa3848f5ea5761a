// Fixed-width binary table store: columnar pages plus a zone-map trailer.
//
// This is the out-of-core substrate: the paper's motivating setting is a
// database much larger than main memory, where sorting every numeric
// attribute is prohibitively expensive and a single sequential scan is the
// only affordable full-table access. PagedFile stores a table behind a
// 32-byte header in ONE on-disk format, and the reader scans it page by
// page through the BufferPool.
//
//   [magic u32][version=2][num_numeric u32][num_boolean u32][num_rows u64]
//   [rows_per_page u32][flags u32 = 1: zone-map trailer present]
//   page 0, page 1, ... (page_stride() bytes each, fixed stride)
//   zone-map trailer (see ZoneMapIndex)
//
// Each page holds rows_per_page rows split into per-column contiguous
// runs, so a scan can hand out column slices with zero transpose work:
//
//   [column-offset directory: (nn + nb) u32 entries, padded to 8 bytes]
//   [numeric column 0 run: rows_per_page doubles]
//   ...
//   [numeric column nn-1 run]
//   [boolean column 0 run: rows_per_page bytes]
//   ...
//   [boolean column nb-1 run]
//   [zero pad to 8-byte stride]
//
// The directory is redundant (offsets are derivable from the header) and
// exists as a per-page integrity check; readers validate it. The last page
// may hold fewer than rows_per_page rows; its unused tail bytes are written
// as zero and readers assert that, so stale buffer content can never leak
// into a file. Because the directory is padded to 8 bytes and pages start
// at 8-byte multiples from an 8-byte-aligned header end, every numeric run
// is 8-byte aligned inside a malloc'd page buffer.
//
// Version-1 (row-major) files and version-2 files without the zone-map
// flag are no longer read: ReadPagedFileInfo rejects them as Corruption,
// as it does a header whose counts overflow or whose row count the file's
// size cannot hold.

#ifndef OPTRULES_STORAGE_PAGED_FILE_H_
#define OPTRULES_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace optrules::storage {

/// Size of the PagedFile header in bytes.
inline constexpr size_t kPagedFileHeaderBytes = 32;

/// Options for PagedFileWriter::Create.
struct PagedFileWriterOptions {
  /// Rows per page; 0 = auto-size so a page's column payload is on the
  /// order of 1 MiB (clamped to [256, 65536]).
  uint32_t rows_per_page = 0;
};

/// Sequential writer of a PagedFile: stages one page at a time and
/// accumulates its per-column min/max (NaN-skipped) for the zone-map
/// trailer written by Close().
class PagedFileWriter {
 public:
  /// Creates/truncates `path` for a table with the given attribute counts.
  static Result<PagedFileWriter> Create(
      const std::string& path, int num_numeric, int num_boolean,
      const PagedFileWriterOptions& options = {});

  PagedFileWriter(PagedFileWriter&& other) noexcept;
  PagedFileWriter& operator=(PagedFileWriter&& other) noexcept;
  PagedFileWriter(const PagedFileWriter&) = delete;
  PagedFileWriter& operator=(const PagedFileWriter&) = delete;
  ~PagedFileWriter();

  /// Appends one row.
  Status AppendRow(std::span<const double> numeric_values,
                   std::span<const uint8_t> boolean_values);

  /// Appends one row serialized in the fixed-width row layout (doubles
  /// then boolean bytes, possibly unaligned); the writer scatters the
  /// fields into its page's column runs, so producers that hash or route on
  /// serialized row bytes (the partitioner) need no page awareness.
  Status AppendRawRow(const uint8_t* row);

  /// Flushes (zero-padding a partial last page), appends the zone-map
  /// trailer, patches the row count into
  /// the header, and closes the file. Must be called exactly once before
  /// destruction for a valid file.
  Status Close();

  /// Rows appended so far.
  int64_t NumRows() const { return num_rows_; }

 private:
  PagedFileWriter() = default;
  /// Writes the staged page (already zero-padded) and clears the payload
  /// region for the next page.
  Status FlushPage();
  /// Scatters one row into the staged page's column runs. The numeric
  /// values are read byte-wise, so they may be unaligned.
  Status AppendRowBytes(const uint8_t* numeric_bytes,
                        const uint8_t* boolean_values);
  /// Resets the staged page's zone-map accumulators to the empty sentinels
  /// (+inf/-inf, 1/0).
  void ResetZoneAccumulators();
  /// Appends the staged page's accumulated zone-map entry to the trailer
  /// image and resets the accumulators.
  void AppendZoneEntry();

  std::FILE* file_ = nullptr;
  std::string path_;
  int num_numeric_ = 0;
  int num_boolean_ = 0;
  int64_t num_rows_ = 0;
  std::vector<uint8_t> buffer_;  ///< one staged page
  uint32_t rows_per_page_ = 0;
  size_t directory_bytes_ = 0;
  size_t page_stride_ = 0;
  uint32_t row_in_page_ = 0;
  // Per-column zone-map accumulators of the page being staged, plus the
  // growing trailer image appended to the file in Close().
  std::vector<double> zone_min_;
  std::vector<double> zone_max_;
  std::vector<uint8_t> zone_bool_min_;
  std::vector<uint8_t> zone_bool_max_;
  std::vector<uint8_t> zone_trailer_;
};

/// Metadata of an open PagedFile, with the page geometry derived from the
/// header fields (the same formulas the writer used).
struct PagedFileInfo {
  int num_numeric = 0;
  int num_boolean = 0;
  int64_t num_rows = 0;
  size_t row_bytes = 0;  ///< logical row width (doubles then booleans)
  uint32_t rows_per_page = 0;

  size_t directory_bytes() const;
  /// Byte offset of numeric column `c`'s run inside a page.
  size_t numeric_run_offset(int c) const;
  /// Byte offset of boolean column `b`'s run inside a page.
  size_t boolean_run_offset(int b) const;
  /// Fixed on-disk size of every page (8-byte multiple).
  size_t page_stride() const;
  /// Number of pages covering num_rows.
  int64_t num_pages() const;
  /// Rows actually stored in page `page` (only the last may be partial).
  int64_t rows_in_page(int64_t page) const;
  /// Byte offset of the zone-map trailer (just past the last page).
  int64_t zone_map_offset() const;
  /// On-disk bytes of one page's zone-map entry (nn min/max double pairs
  /// followed by nb min/max byte pairs, packed).
  size_t zone_map_entry_bytes() const;
};

/// In-memory zone-map index of one file: per page and per column the
/// min/max over the stored values, with NaNs skipped. A page whose numeric
/// column saw only NaNs carries the empty sentinel (min = +inf > max =
/// -inf); Boolean min/max are 0/1 bytes, so max == 0 means "no true row in
/// this page". Scans prune pages with these, so the index is validated
/// structurally at load time (like the per-page offset directory) and can
/// be cross-checked against page content with ValidateZoneMapEntry.
struct ZoneMapIndex {
  int num_numeric = 0;
  int num_boolean = 0;
  int64_t num_pages = 0;
  /// [page * num_numeric + c]
  std::vector<double> numeric_min;
  std::vector<double> numeric_max;
  /// [page * num_boolean + b]
  std::vector<uint8_t> boolean_min;
  std::vector<uint8_t> boolean_max;

  double NumericMin(int64_t page, int c) const {
    return numeric_min[static_cast<size_t>(page * num_numeric + c)];
  }
  double NumericMax(int64_t page, int c) const {
    return numeric_max[static_cast<size_t>(page * num_numeric + c)];
  }
  uint8_t BooleanMin(int64_t page, int b) const {
    return boolean_min[static_cast<size_t>(page * num_boolean + b)];
  }
  uint8_t BooleanMax(int64_t page, int b) const {
    return boolean_max[static_cast<size_t>(page * num_boolean + b)];
  }
};

/// Loads and validates the zone-map trailer of `path` (info must come from
/// ReadPagedFileInfo on the same file). Fails with Corruption on a bad
/// trailer magic, a trailer whose size disagrees with the page count, NaN
/// bounds, inverted non-sentinel bounds, or non-0/1 Boolean bounds.
Result<ZoneMapIndex> ReadZoneMapIndex(const std::string& path,
                                      const PagedFileInfo& info);

/// Deep integrity check: recomputes page `page_index`'s zone-map entry
/// from the page image and compares it bit-exactly against the index.
Status ValidateZoneMapEntry(const PagedFileInfo& info,
                            const ZoneMapIndex& zones, int64_t page_index,
                            std::span<const uint8_t> page);

/// Validates one page image against the derived geometry: the stored
/// column-offset directory must match, and on a partial (last) page every
/// byte past the stored rows must be zero -- the writer's stale-byte
/// guarantee. `page.size()` must equal info.page_stride().
Status ValidateV2Page(const PagedFileInfo& info, int64_t page_index,
                      std::span<const uint8_t> page);

/// Reads and validates the header of `path`. Fails with Corruption on a
/// bad magic, a version other than 2, a missing zone-map flag, attribute or
/// row counts beyond int32/int64, zero columns, zero rows_per_page, or a
/// file size that disagrees with the header (pages + trailer).
Result<PagedFileInfo> ReadPagedFileInfo(const std::string& path);

/// Writes an entire in-memory relation to `path` in PagedFile format.
Status WriteRelationToFile(const Relation& relation, const std::string& path,
                           const PagedFileWriterOptions& options = {});

/// Loads an entire PagedFile into memory, cross-checking every page
/// against its zone-map entry. `schema` must match the stored attribute
/// counts; pass Schema::Synthetic(...) when names don't matter.
Result<Relation> ReadRelationFromFile(const std::string& path,
                                      const Schema& schema);

}  // namespace optrules::storage

#endif  // OPTRULES_STORAGE_PAGED_FILE_H_
