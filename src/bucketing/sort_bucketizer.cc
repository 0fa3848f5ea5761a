#include "bucketing/sort_bucketizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "storage/external_sort.h"
#include "storage/paged_file.h"
#include "storage/tuple_stream.h"

namespace optrules::bucketing {

namespace {

/// Picks the equi-depth ranks out of a sorted sequence streamed value by
/// value.
class RankPicker {
 public:
  RankPicker(int64_t n, int num_buckets) : n_(n) {
    for (int i = 1; i < num_buckets && n > 0; ++i) {
      // The i*(n/M)-th smallest value (1-based) is stream index k-1,
      // matching BucketBoundaries::FromSortedValues.
      ranks_.push_back(std::max<int64_t>(
          0, std::min<int64_t>(n, i * n / num_buckets) - 1));
    }
  }

  void Accept(int64_t index, double value) {
    while (next_ < ranks_.size() &&
           ranks_[next_] == index) {
      cuts_.push_back(value);
      ++next_;
    }
  }

  std::vector<double> TakeCuts() { return std::move(cuts_); }

 private:
  int64_t n_;
  std::vector<int64_t> ranks_;
  size_t next_ = 0;
  std::vector<double> cuts_;
};

/// RecordSource that packs tuples streamed from a PagedFile into the
/// fixed-width row layout the external sort shuffles: numeric doubles back
/// to back, then boolean bytes.
class TupleRecordSource final : public storage::RecordSource {
 public:
  TupleRecordSource(storage::FileTupleStream* stream, int num_numeric,
                    int num_boolean)
      : stream_(stream),
        num_numeric_(num_numeric),
        num_boolean_(num_boolean),
        row_bytes_(sizeof(double) * static_cast<size_t>(num_numeric) +
                   static_cast<size_t>(num_boolean)) {}

  size_t ReadRecords(uint8_t* out, size_t max_records) override {
    size_t produced = 0;
    storage::TupleView tuple;
    while (produced < max_records && stream_->Next(&tuple)) {
      uint8_t* row = out + produced * row_bytes_;
      std::memcpy(row, tuple.numeric,
                  sizeof(double) * static_cast<size_t>(num_numeric_));
      std::memcpy(row + sizeof(double) * static_cast<size_t>(num_numeric_),
                  tuple.booleans, static_cast<size_t>(num_boolean_));
      ++produced;
    }
    return produced;
  }

 private:
  storage::FileTupleStream* stream_;
  int num_numeric_;
  int num_boolean_;
  size_t row_bytes_;
};

}  // namespace

BucketBoundaries ExactEquiDepthBoundaries(std::span<const double> values,
                                          int num_buckets) {
  OPTRULES_CHECK(num_buckets >= 1);
  std::vector<double> sorted;
  sorted.reserve(values.size());
  // NaN values belong to no bucket (the repo-wide NaN policy) and violate
  // std::sort's strict weak ordering; plan the depths over the finite
  // values only.
  for (const double value : values) {
    if (!std::isnan(value)) sorted.push_back(value);
  }
  std::sort(sorted.begin(), sorted.end());
  return BucketBoundaries::FromSortedValues(sorted, num_buckets);
}

Result<BucketBoundaries> NaiveSortBoundariesFromFile(
    const std::string& table_path, int numeric_attr, int num_buckets,
    const std::string& sorted_path, size_t memory_budget_bytes,
    const std::string& temp_dir) {
  Result<storage::PagedFileInfo> info_or =
      storage::ReadPagedFileInfo(table_path);
  if (!info_or.ok()) return info_or.status();
  const storage::PagedFileInfo& info = info_or.value();
  if (numeric_attr < 0 || numeric_attr >= info.num_numeric) {
    return Status::InvalidArgument("numeric_attr out of range");
  }

  // ExternalSort shuffles fixed-width whole-row records: the table is
  // streamed page by page straight into the run generator, each tuple
  // packed into the row layout on the fly -- no row-major temporary
  // rewrite. The sorted output is a headerless file of those records.
  storage::ExternalSortOptions sort_options;
  sort_options.record_bytes = info.row_bytes;
  sort_options.key_offset =
      static_cast<size_t>(numeric_attr) * sizeof(double);
  sort_options.memory_budget_bytes = memory_budget_bytes;
  sort_options.temp_dir = temp_dir;
  Result<std::unique_ptr<storage::FileTupleStream>> input_or =
      storage::FileTupleStream::Open(table_path);
  if (!input_or.ok()) return input_or.status();
  TupleRecordSource source(input_or.value().get(), info.num_numeric,
                           info.num_boolean);
  Result<storage::ExternalSortStats> sort_result =
      storage::ExternalSortRecords(source, sorted_path, sort_options);
  if (!sort_result.ok()) return sort_result.status();
  // The stream ends early on a short page read; cut points ranked against
  // the header's row count would then be silently wrong.
  if (sort_result.value().num_records != info.num_rows) {
    return Status::Corruption("table holds fewer rows than its header: " +
                              table_path);
  }

  std::FILE* sorted = std::fopen(sorted_path.c_str(), "rb");
  if (sorted == nullptr) {
    return Status::IoError("cannot open: " + sorted_path);
  }
  RankPicker picker(info.num_rows, num_buckets);
  std::vector<uint8_t> buffer(info.row_bytes * 4096);
  int64_t index = 0;
  size_t got;
  while ((got = std::fread(buffer.data(), info.row_bytes, 4096, sorted)) >
         0) {
    for (size_t i = 0; i < got; ++i) {
      double value;
      std::memcpy(&value,
                  buffer.data() + i * info.row_bytes + sort_options.key_offset,
                  sizeof(double));
      picker.Accept(index, value);
      ++index;
    }
  }
  std::fclose(sorted);
  return BucketBoundaries::FromCutPoints(picker.TakeCuts());
}

Result<BucketBoundaries> VerticalSplitSortBoundariesFromFile(
    const std::string& table_path, int numeric_attr, int num_buckets,
    const std::string& split_path, size_t memory_budget_bytes,
    const std::string& temp_dir) {
  Result<storage::PagedFileInfo> info_or =
      storage::ReadPagedFileInfo(table_path);
  if (!info_or.ok()) return info_or.status();
  const storage::PagedFileInfo& info = info_or.value();
  if (numeric_attr < 0 || numeric_attr >= info.num_numeric) {
    return Status::InvalidArgument("numeric_attr out of range");
  }

  // Phase 1: vertical split -- project (value, tuple id) records.
  struct SplitRecord {
    double value;
    int64_t tid;
  };
  static_assert(sizeof(SplitRecord) == 16);
  {
    Result<std::unique_ptr<storage::FileTupleStream>> stream_or =
        storage::FileTupleStream::Open(table_path);
    if (!stream_or.ok()) return stream_or.status();
    storage::FileTupleStream& stream = *stream_or.value();
    std::FILE* split = std::fopen(split_path.c_str(), "wb");
    if (split == nullptr) {
      return Status::IoError("cannot create: " + split_path);
    }
    std::vector<SplitRecord> buffer;
    buffer.reserve(8192);
    storage::TupleView view;
    int64_t tid = 0;
    bool write_failed = false;
    while (stream.Next(&view)) {
      buffer.push_back({view.numeric[numeric_attr], tid++});
      if (buffer.size() == buffer.capacity()) {
        if (std::fwrite(buffer.data(), sizeof(SplitRecord), buffer.size(),
                        split) != buffer.size()) {
          write_failed = true;
          break;
        }
        buffer.clear();
      }
    }
    if (!write_failed && !buffer.empty() &&
        std::fwrite(buffer.data(), sizeof(SplitRecord), buffer.size(),
                    split) != buffer.size()) {
      write_failed = true;
    }
    if (std::fclose(split) != 0 || write_failed) {
      return Status::IoError("split write failed: " + split_path);
    }
    // Same short-read guard as the naive path.
    if (tid != info.num_rows) {
      return Status::Corruption("table holds fewer rows than its header: " +
                                table_path);
    }
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
  std::FILE* sorted = std::fopen(sorted_split.c_str(), "rb");
  if (sorted == nullptr) {
    return Status::IoError("cannot open: " + sorted_split);
  }
  RankPicker picker(info.num_rows, num_buckets);
  std::vector<SplitRecord> buffer(8192);
  int64_t index = 0;
  size_t got;
  while ((got = std::fread(buffer.data(), sizeof(SplitRecord), buffer.size(),
                           sorted)) > 0) {
    for (size_t i = 0; i < got; ++i) {
      picker.Accept(index, buffer[i].value);
      ++index;
    }
  }
  std::fclose(sorted);
  std::remove(sorted_split.c_str());
  return BucketBoundaries::FromCutPoints(picker.TakeCuts());
}

}  // namespace optrules::bucketing
