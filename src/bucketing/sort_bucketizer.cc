#include "bucketing/sort_bucketizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bucketing/equidepth_sampler.h"
#include "storage/columnar_batch.h"
#include "storage/external_sort.h"

namespace optrules::bucketing {

namespace {

/// Picks the equi-depth ranks out of a sorted sequence streamed value by
/// value.
class RankPicker {
 public:
  RankPicker(int64_t n, int num_buckets) {
    for (int i = 1; i < num_buckets && n > 0; ++i) {
      // The i*(n/M)-th smallest value (1-based) is stream index k-1,
      // matching BucketBoundaries::FromSortedValues.
      ranks_.push_back(std::max<int64_t>(
          0, std::min<int64_t>(n, i * n / num_buckets) - 1));
    }
  }

  void Accept(int64_t index, double value) {
    while (next_ < ranks_.size() && ranks_[next_] == index) {
      cuts_.push_back(value);
      ++next_;
    }
  }

  std::vector<double> TakeCuts() { return std::move(cuts_); }

 private:
  std::vector<int64_t> ranks_;
  size_t next_ = 0;
  std::vector<double> cuts_;
};

/// RecordSource over one scan of a PagedFile: packs every row whose
/// `key_attr` value is not NaN into one fixed-width record via
/// pack(batch, row, tid, out), where tid is the row's table position. NaN
/// belongs to no bucket, so NaN rows are never ranked -- the cut points
/// are ranked over the finite values, as ExactEquiDepthBoundaries does --
/// but every scanned row counts toward rows_scanned() for the short-table
/// guard.
template <typename Pack>
class BatchRecordSource final : public storage::RecordSource {
 public:
  BatchRecordSource(storage::BatchReader* reader, int key_attr,
                    size_t record_bytes, Pack pack)
      : reader_(reader),
        key_attr_(key_attr),
        record_bytes_(record_bytes),
        pack_(std::move(pack)) {}

  size_t ReadRecords(uint8_t* out, size_t max_records) override {
    size_t produced = 0;
    while (produced < max_records && !done_) {
      if (row_ == batch_.num_rows()) {
        row_ = 0;
        done_ = !reader_->Next(&batch_);
        continue;
      }
      const auto row = static_cast<size_t>(row_++);
      const int64_t tid = rows_scanned_++;
      if (std::isnan(batch_.numeric(key_attr_)[row])) continue;
      pack_(batch_, row, tid, out + produced * record_bytes_);
      ++produced;
    }
    return produced;
  }

  int64_t rows_scanned() const { return rows_scanned_; }

 private:
  storage::BatchReader* reader_;
  int key_attr_;
  size_t record_bytes_;
  Pack pack_;
  storage::ColumnarBatch batch_;
  int64_t row_ = 0;  ///< next row of batch_
  int64_t rows_scanned_ = 0;
  bool done_ = false;
};

/// Opens `table_path` for one scan and validates `numeric_attr`.
Result<std::unique_ptr<storage::PagedFileBatchSource>> OpenTable(
    const std::string& table_path, int numeric_attr) {
  Result<std::unique_ptr<storage::PagedFileBatchSource>> source =
      storage::PagedFileBatchSource::Open(table_path);
  if (source.ok() && (numeric_attr < 0 ||
                      numeric_attr >= source.value()->num_numeric())) {
    return Status::InvalidArgument("numeric_attr out of range");
  }
  return source;
}

/// The reader ends early on a short page read; cut points ranked against
/// the rows that survived would then be silently wrong.
Status CheckAllRowsScanned(int64_t rows_scanned,
                           const storage::BatchSource& source,
                           const std::string& table_path) {
  if (rows_scanned == source.NumTuples()) return Status::Ok();
  return Status::Corruption("table holds fewer rows than its header: " +
                            table_path);
}

/// Derives exact equi-depth boundaries from the `num_records` sorted
/// fixed-width records of `sorted_path` with one sequential read.
Result<BucketBoundaries> CutsFromSortedFile(const std::string& sorted_path,
                                            size_t record_bytes,
                                            size_t key_offset,
                                            int64_t num_records,
                                            int num_buckets) {
  std::FILE* sorted = std::fopen(sorted_path.c_str(), "rb");
  if (sorted == nullptr) {
    return Status::IoError("cannot open: " + sorted_path);
  }
  RankPicker picker(num_records, num_buckets);
  constexpr size_t kBufferRecords = 4096;
  std::vector<uint8_t> buffer(record_bytes * kBufferRecords);
  int64_t index = 0;
  size_t got;
  while ((got = std::fread(buffer.data(), record_bytes, kBufferRecords,
                           sorted)) > 0) {
    for (size_t i = 0; i < got; ++i) {
      double value;
      std::memcpy(&value, buffer.data() + i * record_bytes + key_offset,
                  sizeof(double));
      picker.Accept(index, value);
      ++index;
    }
  }
  std::fclose(sorted);
  return BucketBoundaries::FromCutPoints(picker.TakeCuts());
}

}  // namespace

BucketBoundaries ExactEquiDepthBoundaries(std::span<const double> values,
                                          int num_buckets) {
  // The exact sort is Algorithm 3.1 with every row as the sample.
  std::vector<double> sample(values.begin(), values.end());
  return BoundariesFromSample(sample, num_buckets);
}

Result<BucketBoundaries> NaiveSortBoundariesFromFile(
    const std::string& table_path, int numeric_attr, int num_buckets,
    const std::string& sorted_path, size_t memory_budget_bytes,
    const std::string& temp_dir) {
  Result<std::unique_ptr<storage::PagedFileBatchSource>> source_or =
      OpenTable(table_path, numeric_attr);
  if (!source_or.ok()) return source_or.status();
  storage::PagedFileBatchSource& source = *source_or.value();

  // ExternalSort shuffles fixed-width whole-row records: the table is
  // scanned batch by batch straight into the run generator, each row
  // packed into the row layout (numeric doubles back to back, then
  // Boolean bytes) on the fly -- no row-major temporary rewrite. The
  // sorted output is a headerless file of those records.
  const size_t numeric_bytes =
      sizeof(double) * static_cast<size_t>(source.num_numeric());
  storage::ExternalSortOptions sort_options;
  sort_options.record_bytes =
      numeric_bytes + static_cast<size_t>(source.num_boolean());
  sort_options.key_offset =
      static_cast<size_t>(numeric_attr) * sizeof(double);
  sort_options.memory_budget_bytes = memory_budget_bytes;
  sort_options.temp_dir = temp_dir;
  std::unique_ptr<storage::BatchReader> reader = source.CreateReader();
  BatchRecordSource records(
      reader.get(), numeric_attr, sort_options.record_bytes,
      [numeric_bytes](const storage::ColumnarBatch& batch, size_t row,
                      int64_t /*tid*/, uint8_t* out) {
        for (int a = 0; a < batch.num_numeric(); ++a) {
          std::memcpy(out + sizeof(double) * static_cast<size_t>(a),
                      &batch.numeric(a)[row], sizeof(double));
        }
        for (int b = 0; b < batch.num_boolean(); ++b) {
          out[numeric_bytes + static_cast<size_t>(b)] = batch.boolean(b)[row];
        }
      });
  Result<storage::ExternalSortStats> sort_result =
      storage::ExternalSortRecords(records, sorted_path, sort_options);
  if (!sort_result.ok()) return sort_result.status();
  const Status scanned =
      CheckAllRowsScanned(records.rows_scanned(), source, table_path);
  if (!scanned.ok()) return scanned;
  return CutsFromSortedFile(sorted_path, sort_options.record_bytes,
                            sort_options.key_offset,
                            sort_result.value().num_records, num_buckets);
}

Result<BucketBoundaries> VerticalSplitSortBoundariesFromFile(
    const std::string& table_path, int numeric_attr, int num_buckets,
    const std::string& split_path, size_t memory_budget_bytes,
    const std::string& temp_dir) {
  Result<std::unique_ptr<storage::PagedFileBatchSource>> source_or =
      OpenTable(table_path, numeric_attr);
  if (!source_or.ok()) return source_or.status();
  storage::PagedFileBatchSource& source = *source_or.value();

  // Phase 1: vertical split -- project (value, tuple id) records.
  struct SplitRecord {
    double value;
    int64_t tid;
  };
  static_assert(sizeof(SplitRecord) == 16);
  int64_t num_records = 0;
  {
    std::unique_ptr<storage::BatchReader> reader = source.CreateReader();
    BatchRecordSource records(
        reader.get(), numeric_attr, sizeof(SplitRecord),
        [numeric_attr](const storage::ColumnarBatch& batch, size_t row,
                       int64_t tid, uint8_t* out) {
          const SplitRecord record{batch.numeric(numeric_attr)[row], tid};
          std::memcpy(out, &record, sizeof(record));
        });
    std::FILE* split = std::fopen(split_path.c_str(), "wb");
    if (split == nullptr) {
      return Status::IoError("cannot create: " + split_path);
    }
    std::vector<SplitRecord> buffer(8192);
    bool write_failed = false;
    size_t got;
    while (!write_failed &&
           (got = records.ReadRecords(
                reinterpret_cast<uint8_t*>(buffer.data()), buffer.size())) >
               0) {
      write_failed =
          std::fwrite(buffer.data(), sizeof(SplitRecord), got, split) != got;
      num_records += static_cast<int64_t>(got);
    }
    if (std::fclose(split) != 0 || write_failed) {
      return Status::IoError("split write failed: " + split_path);
    }
    const Status scanned =
        CheckAllRowsScanned(records.rows_scanned(), source, table_path);
    if (!scanned.ok()) return scanned;
  }

  // Phase 2: external sort of the narrow file by value.
  storage::ExternalSortOptions sort_options;
  sort_options.record_bytes = sizeof(SplitRecord);
  sort_options.key_offset = 0;
  sort_options.memory_budget_bytes = memory_budget_bytes;
  sort_options.temp_dir = temp_dir;
  const std::string sorted_split = split_path + ".sorted";
  Result<storage::ExternalSortStats> sort_result =
      storage::ExternalSort(split_path, sorted_split, sort_options);
  if (!sort_result.ok()) return sort_result.status();

  // Phase 3: pick equi-depth ranks from the sorted projection.
  Result<BucketBoundaries> boundaries =
      CutsFromSortedFile(sorted_split, sizeof(SplitRecord), 0, num_records,
                         num_buckets);
  std::remove(sorted_split.c_str());
  return boundaries;
}

}  // namespace optrules::bucketing
