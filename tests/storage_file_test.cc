// Tests for PagedFile, batch sources, and the external merge sort.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/columnar_batch.h"
#include "storage/external_sort.h"
#include "storage/paged_file.h"

namespace optrules::storage {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Relation RandomRelation(int64_t rows, int num_numeric, int num_boolean,
                        uint64_t seed) {
  Relation r(Schema::Synthetic(num_numeric, num_boolean));
  Rng rng(seed);
  std::vector<double> numeric(static_cast<size_t>(num_numeric));
  std::vector<uint8_t> boolean(static_cast<size_t>(num_boolean));
  for (int64_t i = 0; i < rows; ++i) {
    for (auto& x : numeric) x = rng.NextUniform(-100.0, 100.0);
    for (auto& b : boolean) b = rng.NextBernoulli(0.4) ? 1 : 0;
    r.AppendRow(numeric, boolean);
  }
  return r;
}

TEST(PagedFileTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.optr");
  const Relation original = RandomRelation(257, 3, 2, 1);
  ASSERT_TRUE(WriteRelationToFile(original, path).ok());

  Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().num_numeric, 3);
  EXPECT_EQ(info.value().num_boolean, 2);
  EXPECT_EQ(info.value().num_rows, 257);
  EXPECT_EQ(info.value().row_bytes, 26u);

  Result<Relation> loaded =
      ReadRelationFromFile(path, Schema::Synthetic(3, 2));
  ASSERT_TRUE(loaded.ok());
  const Relation& r = loaded.value();
  ASSERT_EQ(r.NumRows(), original.NumRows());
  for (int64_t row = 0; row < r.NumRows(); ++row) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(r.NumericValue(row, c),
                       original.NumericValue(row, c));
    }
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(r.BooleanValue(row, c), original.BooleanValue(row, c));
    }
  }
  std::remove(path.c_str());
}

TEST(PagedFileTest, EmptyTableRoundTrip) {
  const std::string path = TempPath("empty.optr");
  ASSERT_TRUE(
      WriteRelationToFile(Relation(Schema::Synthetic(1, 1)), path).ok());
  Result<Relation> loaded =
      ReadRelationFromFile(path, Schema::Synthetic(1, 1));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumRows(), 0);
  std::remove(path.c_str());
}

TEST(PagedFileTest, SchemaMismatchRejected) {
  const std::string path = TempPath("mismatch.optr");
  ASSERT_TRUE(WriteRelationToFile(RandomRelation(5, 2, 1, 2), path).ok());
  EXPECT_EQ(
      ReadRelationFromFile(path, Schema::Synthetic(1, 1)).status().code(),
      StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAllBytes(const std::string& path, std::span<const uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // An empty span's data() may be null, which fwrite must never receive.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

template <typename T>
void Poke(std::vector<uint8_t>* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

TEST(PagedFileTest, BadHeaderIsCorruption) {
  const std::string path = TempPath("badheader.optr");
  const char junk[64] = "this is not a paged file at all.................";
  WriteAllBytes(path, std::span<const uint8_t>(
                          reinterpret_cast<const uint8_t*>(junk),
                          sizeof(junk)));
  EXPECT_EQ(ReadPagedFileInfo(path).status().code(),
            StatusCode::kCorruption);

  // Counts beyond int32 (attributes) or int64 (rows) must not be cast into
  // negative values.
  ASSERT_TRUE(WriteRelationToFile(RandomRelation(10, 2, 1, 2), path).ok());
  const std::vector<uint8_t> valid = ReadAllBytes(path);
  struct Patch {
    size_t offset;
    uint64_t value;
    size_t width;
  };
  for (const Patch& patch : {Patch{8, 0x80000000u, 4},
                             Patch{12, 0x80000000u, 4},
                             Patch{16, uint64_t{1} << 63, 8}}) {
    SCOPED_TRACE(testing::Message() << "offset " << patch.offset);
    std::vector<uint8_t> bytes = valid;
    if (patch.width == 4) {
      Poke(&bytes, patch.offset, static_cast<uint32_t>(patch.value));
    } else {
      Poke(&bytes, patch.offset, patch.value);
    }
    WriteAllBytes(path, bytes);
    EXPECT_EQ(ReadPagedFileInfo(path).status().code(),
              StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(PagedFileTest, ShortHeaderIsCorruption) {
  const std::string path = TempPath("short.optr");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("OPTR", 1, 4, f);
  std::fclose(f);
  EXPECT_EQ(ReadPagedFileInfo(path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PagedFileTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadPagedFileInfo("/no/such/file.optr").status().code(),
            StatusCode::kIoError);
}

TEST(PagedFileTest, InvalidAttributeCountsRejected) {
  EXPECT_FALSE(
      PagedFileWriter::Create(TempPath("zero.optr"), 0, 0).ok());
}

// ------------------------------------------------------ external sort ----

struct ExternalSortCase {
  int64_t rows;
  size_t memory_budget;
  uint64_t seed;
};

class ExternalSortTest : public testing::TestWithParam<ExternalSortCase> {};

/// Serializes `relation` as headerless fixed-width records (doubles then
/// boolean bytes): ExternalSort's input and output format.
void WriteRecords(const Relation& relation, const std::string& path) {
  const Schema& schema = relation.schema();
  std::vector<uint8_t> bytes;
  for (int64_t row = 0; row < relation.NumRows(); ++row) {
    for (int c = 0; c < schema.num_numeric(); ++c) {
      const double v = relation.NumericValue(row, c);
      const auto* raw = reinterpret_cast<const uint8_t*>(&v);
      bytes.insert(bytes.end(), raw, raw + sizeof(v));
    }
    for (int b = 0; b < schema.num_boolean(); ++b) {
      bytes.push_back(relation.BooleanValue(row, b) ? 1 : 0);
    }
  }
  WriteAllBytes(path, bytes);
}

/// Field `offset` (a double) of every record in a record file.
std::vector<double> RecordDoubles(const std::string& path,
                                  size_t record_bytes, size_t offset) {
  const std::vector<uint8_t> bytes = ReadAllBytes(path);
  EXPECT_EQ(bytes.size() % record_bytes, 0u);
  std::vector<double> values(bytes.size() / record_bytes);
  for (size_t i = 0; i < values.size(); ++i) {
    std::memcpy(&values[i], bytes.data() + i * record_bytes + offset,
                sizeof(double));
  }
  return values;
}

TEST_P(ExternalSortTest, SortsByKeyAttribute) {
  const ExternalSortCase& param = GetParam();
  const std::string input = TempPath("sort_in.optr");
  const std::string output = TempPath("sort_out.optr");
  const Relation relation = RandomRelation(param.rows, 2, 1, param.seed);
  WriteRecords(relation, input);

  ExternalSortOptions options;
  options.record_bytes = relation.schema().RowBytes();
  options.key_offset = sizeof(double);  // sort by numeric attribute 1
  options.memory_budget_bytes = param.memory_budget;
  options.temp_dir = testing::TempDir();
  Result<ExternalSortStats> stats = ExternalSort(input, output, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().num_records, param.rows);

  const std::vector<double> got =
      RecordDoubles(output, options.record_bytes, options.key_offset);
  ASSERT_EQ(static_cast<int64_t>(got.size()), param.rows);
  // Keys ascending and multiset of keys preserved.
  std::vector<double> expected = relation.NumericColumn(1);
  std::sort(expected.begin(), expected.end());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  std::vector<double> got_sorted = got;
  std::sort(got_sorted.begin(), got_sorted.end());
  EXPECT_EQ(got_sorted, expected);
  std::remove(input.c_str());
  std::remove(output.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSortTest,
    testing::Values(
        ExternalSortCase{0, 1 << 20, 1},       // empty input
        ExternalSortCase{1, 1 << 20, 2},       // single record
        ExternalSortCase{100, 1 << 20, 3},     // single in-memory run
        ExternalSortCase{5000, 4096, 4},       // many runs, k-way merge
        ExternalSortCase{5000, 26 * 7, 5},     // tiny budget: 7-record runs
        ExternalSortCase{20000, 1 << 14, 6}    // wide merge fan-in
        ));

TEST(ExternalSortErrorsTest, RejectsZeroRecordBytes) {
  ExternalSortOptions options;
  options.record_bytes = 0;
  EXPECT_EQ(ExternalSort("x", "y", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExternalSortErrorsTest, RejectsKeyOutsideRecord) {
  ExternalSortOptions options;
  options.record_bytes = 8;
  options.key_offset = 4;
  EXPECT_EQ(ExternalSort("x", "y", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExternalSortErrorsTest, MissingInputIsIoError) {
  ExternalSortOptions options;
  options.record_bytes = 16;
  EXPECT_EQ(
      ExternalSort("/no/such/input", TempPath("out.bin"), options)
          .status()
          .code(),
      StatusCode::kIoError);
}

TEST(ExternalSortTest, PreservesWholeRecords) {
  // Sorting must move whole rows, not just keys: check that the boolean
  // payload still matches its numeric partner after the sort.
  const std::string input = TempPath("pairs_in.optr");
  const std::string output = TempPath("pairs_out.optr");
  Relation relation(Schema::Synthetic(1, 1));
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextUniform(0.0, 1.0);
    const uint8_t flag = v > 0.5 ? 1 : 0;  // payload derivable from key
    const double row[] = {v};
    relation.AppendRow(row, std::span<const uint8_t>(&flag, 1));
  }
  WriteRecords(relation, input);
  ExternalSortOptions options;
  options.record_bytes = relation.schema().RowBytes();
  options.key_offset = 0;
  options.memory_budget_bytes = 512;
  options.temp_dir = testing::TempDir();
  ASSERT_TRUE(ExternalSort(input, output, options).ok());
  const std::vector<uint8_t> sorted = ReadAllBytes(output);
  ASSERT_EQ(sorted.size(), 1000 * options.record_bytes);
  for (size_t i = 0; i < 1000; ++i) {
    const uint8_t* record = sorted.data() + i * options.record_bytes;
    double v;
    std::memcpy(&v, record, sizeof(v));
    EXPECT_EQ(record[sizeof(double)], v > 0.5 ? 1 : 0);
  }
  std::remove(input.c_str());
  std::remove(output.c_str());
}

TEST(ExternalSortTest, NanKeysSortLast) {
  // NaN keys order after every other key: the comparator stays a strict
  // weak order, so many small runs still merge into one sorted output.
  const std::string input = TempPath("nan_in.optr");
  const std::string output = TempPath("nan_out.optr");
  Relation relation(Schema::Synthetic(1, 1));
  Rng rng(9);
  int64_t nan_rows = 0;
  for (int i = 0; i < 3000; ++i) {
    const bool is_nan = i % 4 == 1;
    nan_rows += is_nan ? 1 : 0;
    const double row[] = {is_nan ? std::nan("") : rng.NextUniform(-1, 1)};
    const uint8_t flag = static_cast<uint8_t>(i % 2);
    relation.AppendRow(row, std::span<const uint8_t>(&flag, 1));
  }
  WriteRecords(relation, input);
  ExternalSortOptions options;
  options.record_bytes = relation.schema().RowBytes();
  options.memory_budget_bytes = 9 * 50;  // 50-record runs
  options.temp_dir = testing::TempDir();
  ASSERT_TRUE(ExternalSort(input, output, options).ok());
  const std::vector<double> got =
      RecordDoubles(output, options.record_bytes, 0);
  ASSERT_EQ(got.size(), 3000u);
  const auto finite_end = got.end() - nan_rows;
  EXPECT_TRUE(std::none_of(got.begin(), finite_end,
                           [](double v) { return std::isnan(v); }));
  EXPECT_TRUE(std::is_sorted(got.begin(), finite_end));
  EXPECT_TRUE(std::all_of(finite_end, got.end(),
                          [](double v) { return std::isnan(v); }));
  std::remove(input.c_str());
  std::remove(output.c_str());
}

TEST(ExternalSortErrorsTest, NoRunFilesSurviveSuccessOrFailure) {
  const std::string input = TempPath("runs_in.optr");
  const std::string temp_dir = TempPath("sort_runs");
  const std::string missing_dir = TempPath("missing_dir");
  std::filesystem::remove_all(temp_dir);
  std::filesystem::remove_all(missing_dir);
  std::filesystem::create_directories(temp_dir);
  const Relation relation = RandomRelation(2000, 1, 1, 10);
  WriteRecords(relation, input);
  ExternalSortOptions options;
  options.record_bytes = relation.schema().RowBytes();
  options.memory_budget_bytes = 9 * 100;  // 20 runs
  options.temp_dir = temp_dir;
  // The output cannot be created after every run was written.
  EXPECT_EQ(ExternalSort(input, missing_dir + "/out", options)
                .status()
                .code(),
            StatusCode::kIoError);
  EXPECT_TRUE(std::filesystem::is_empty(temp_dir));
  const std::string output = TempPath("runs_out.optr");
  ASSERT_TRUE(ExternalSort(input, output, options).ok());
  EXPECT_TRUE(std::filesystem::is_empty(temp_dir));
  std::filesystem::remove_all(temp_dir);
  std::remove(input.c_str());
  std::remove(output.c_str());
}

// ----------------------------------------------- paged batch reading ----

/// Numeric values as bit patterns, so comparisons are bit-exact.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// One scan drained into flattened row-major values plus its batch shape.
struct DrainedScan {
  std::vector<int64_t> batch_sizes;
  std::vector<uint64_t> numeric;
  std::vector<uint8_t> boolean;
};

DrainedScan Drain(BatchReader& reader) {
  DrainedScan drained;
  ColumnarBatch batch;
  while (reader.Next(&batch)) {
    drained.batch_sizes.push_back(batch.num_rows());
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      for (int a = 0; a < batch.num_numeric(); ++a) {
        drained.numeric.push_back(
            Bits(batch.numeric(a)[static_cast<size_t>(r)]));
      }
      for (int b = 0; b < batch.num_boolean(); ++b) {
        drained.boolean.push_back(batch.boolean(b)[static_cast<size_t>(r)]);
      }
    }
  }
  return drained;
}

/// Scans rows [begin, end) of `paged` with one range reader and checks it
/// against the RelationBatchSource oracle over the same rows: bit-identical
/// values, and batches of at most `batch_rows` rows that end exactly at
/// page boundaries (the paged reader's only difference in batch shape).
void ExpectRangeMatchesOracle(PagedFileBatchSource& paged,
                              const Relation& relation, int64_t begin,
                              int64_t end, int64_t batch_rows) {
  SCOPED_TRACE(testing::Message() << "rows [" << begin << ", " << end
                                  << "), batch_rows " << batch_rows);
  RelationBatchSource oracle_source(&relation, batch_rows);
  const DrainedScan oracle =
      Drain(*oracle_source.CreateRangeReader(begin, end));
  const DrainedScan got = Drain(*paged.CreateRangeReader(begin, end));
  EXPECT_EQ(got.numeric, oracle.numeric);
  EXPECT_EQ(got.boolean, oracle.boolean);
  std::vector<int64_t> expected_sizes;
  const auto rpp = static_cast<int64_t>(paged.info().rows_per_page);
  for (int64_t pos = begin; pos < end;) {
    const int64_t page_end = (pos / rpp + 1) * rpp;
    const int64_t rows = std::min({batch_rows, end - pos, page_end - pos});
    expected_sizes.push_back(rows);
    pos += rows;
  }
  EXPECT_EQ(got.batch_sizes, expected_sizes);
}

/// The pools every scan test runs under: nullptr (the source's own
/// capacity-0 pool, the no-cache mode) and the process default pool.
std::vector<BufferPool*> TestPools() {
  return {nullptr, BufferPool::Default()};
}

TEST(PagedFileBatchSourceTest, EveryReaderRescansTheWholeFile) {
  const Relation relation = RandomRelation(1000, 4, 2, 5);
  RelationBatchSource oracle(&relation);
  const DrainedScan expected = Drain(*oracle.CreateReader());
  // Small pages, so every scan refills pages and ends on a partial one.
  for (const uint32_t rows_per_page : {64u, 128u}) {
    const std::string path =
        TempPath("rescan_" + std::to_string(rows_per_page) + ".optr");
    PagedFileWriterOptions options;
    options.rows_per_page = rows_per_page;
    ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
    auto source = PagedFileBatchSource::Open(path);
    ASSERT_TRUE(source.ok());
    for (int scan = 0; scan < 2; ++scan) {
      const DrainedScan got = Drain(*source.value()->CreateReader());
      EXPECT_EQ(got.numeric, expected.numeric) << rows_per_page;
      EXPECT_EQ(got.boolean, expected.boolean) << rows_per_page;
    }
    EXPECT_EQ(source.value()->scans_started(), 2);
    std::remove(path.c_str());
  }
}

TEST(PagedFileBatchSourceTest, OnePageMatchesOracle) {
  const std::string path = TempPath("scan_one_page.optr");
  const Relation relation = RandomRelation(200, 3, 2, 76);
  PagedFileWriterOptions options;
  options.rows_per_page = 256;
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
  for (BufferPool* pool : TestPools()) {
    for (const int64_t batch_rows : {int64_t{1}, int64_t{7}, int64_t{4096}}) {
      auto source = PagedFileBatchSource::Open(path, batch_rows, pool);
      ASSERT_TRUE(source.ok());
      ASSERT_EQ(source.value()->info().num_pages(), 1);
      ExpectRangeMatchesOracle(*source.value(), relation, 0, 200,
                               batch_rows);
    }
  }
  std::remove(path.c_str());
}

TEST(PagedFileBatchSourceTest, PagesWithPartialLastPageMatchOracle) {
  // Batch sizes that do and do NOT divide rows_per_page, so batches clamp
  // at page boundaries: 1 row, odd, just under a page, exactly a page,
  // the whole file, larger than the file.
  const int64_t rows = 10007;
  const std::string path = TempPath("scan_pages.optr");
  const Relation relation = RandomRelation(rows, 4, 3, 77);
  PagedFileWriterOptions options;
  options.rows_per_page = 512;
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
  for (BufferPool* pool : TestPools()) {
    for (const int64_t batch_rows :
         {int64_t{1}, int64_t{7}, int64_t{500}, int64_t{512}, rows,
          rows + 1000}) {
      auto source = PagedFileBatchSource::Open(path, batch_rows, pool);
      ASSERT_TRUE(source.ok());
      ExpectRangeMatchesOracle(*source.value(), relation, 0, rows,
                               batch_rows);
    }
  }
  std::remove(path.c_str());
}

TEST(PagedFileBatchSourceTest, RangeReadersStartingMidPageMatchOracle) {
  const int64_t rows = 4099;
  const std::string path = TempPath("scan_ranges.optr");
  const Relation relation = RandomRelation(rows, 2, 2, 78);
  PagedFileWriterOptions options;
  options.rows_per_page = 256;
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
  // Shard splits starting mid-page, at a page boundary, and inside the
  // final partial page; plus an empty range.
  const int64_t splits[] = {0, 77, 256, 1000, 4096, rows};
  for (BufferPool* pool : TestPools()) {
    auto source = PagedFileBatchSource::Open(path, 100, pool);
    ASSERT_TRUE(source.ok());
    for (size_t s = 0; s + 1 < std::size(splits); ++s) {
      ExpectRangeMatchesOracle(*source.value(), relation, splits[s],
                               splits[s + 1], 100);
    }
    ExpectRangeMatchesOracle(*source.value(), relation, 1000, 1000, 100);
  }
  std::remove(path.c_str());
}

TEST(PagedFileBatchSourceTest, PrunedPagesAreSkippedAndCounted) {
  // Boolean 0 is true only inside page 1 of four (the last one partial),
  // so a spec requiring it proves pages 0, 2 and 3 dead.
  const int64_t rows = 250;
  const std::string path = TempPath("scan_pruned.optr");
  Relation relation = RandomRelation(rows, 2, 2, 80);
  std::vector<uint8_t>& cond = relation.MutableBooleanColumn(0);
  for (int64_t i = 0; i < rows; ++i) {
    cond[static_cast<size_t>(i)] = (i >= 64 && i < 128) ? 1 : 0;
  }
  PagedFileWriterOptions options;
  options.rows_per_page = 64;
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
  auto spec = std::make_shared<ScanPruneSpec>();
  spec->units.push_back({{1}, {0}});

  BufferPool no_cache(0);
  for (BufferPool* pool : {&no_cache, BufferPool::Default()}) {
    auto source = PagedFileBatchSource::Open(path, 16, pool);
    ASSERT_TRUE(source.ok());
    source.value()->InstallPruneSpec(spec);
    // A full scan and a range starting mid-page 0 and ending mid-page 3
    // both surface exactly the live page's rows.
    for (const auto& [begin, end] :
         {std::pair<int64_t, int64_t>{0, rows}, {30, 200}}) {
      SCOPED_TRACE(testing::Message() << "rows [" << begin << ", " << end
                                      << ")");
      auto reader = source.value()->CreateRangeReader(begin, end);
      const DrainedScan got = Drain(*reader);
      RelationBatchSource oracle_source(&relation, 16);
      const DrainedScan live =
          Drain(*oracle_source.CreateRangeReader(64, 128));
      EXPECT_EQ(got.numeric, live.numeric);
      EXPECT_EQ(got.boolean, live.boolean);
      EXPECT_EQ(reader->pruned_rows(), (end - begin) - 64);
    }
    EXPECT_EQ(source.value()->SourceStats().pages_skipped, 6);
  }
  // Capacity 0 loads each live page exactly once per reader: two readers,
  // one live page each.
  EXPECT_EQ(no_cache.stats().misses, 2);
  EXPECT_EQ(no_cache.stats().hits, 0);
  EXPECT_EQ(no_cache.bytes_used(), 0u);
  std::remove(path.c_str());
}

TEST(PagedFileBatchSourceTest, CapacityZeroLoadsEachPageOnce) {
  const std::string path = TempPath("scan_capacity_zero.optr");
  const Relation relation = RandomRelation(1000, 2, 1, 81);
  PagedFileWriterOptions options;
  options.rows_per_page = 64;  // 16 pages, the last partial
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
  BufferPool pool(0);
  auto source = PagedFileBatchSource::Open(path, 10, &pool);
  ASSERT_TRUE(source.ok());
  ExpectRangeMatchesOracle(*source.value(), relation, 0, 1000, 10);
  EXPECT_EQ(pool.stats().misses, 16);
  EXPECT_EQ(pool.stats().hits, 0);
  EXPECT_EQ(source.value()->SourceStats().cache_misses, 16);
  // Nothing stays resident once the reader released its pins.
  EXPECT_EQ(pool.bytes_used(), 0u);
  std::remove(path.c_str());
}

TEST(PagedFileBatchSourceTest, ReaderAbandonedMidScan) {
  // Destroying a reader while the prefetch thread holds the next page must
  // join cleanly and release every pin (no hang, no touch-after-free);
  // TSan covers the race side.
  const std::string path = TempPath("scan_abandon.optr");
  const Relation relation = RandomRelation(2048, 2, 1, 79);
  PagedFileWriterOptions options;
  options.rows_per_page = 256;
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
  BufferPool no_cache(0);
  for (BufferPool* pool : {&no_cache, BufferPool::Default()}) {
    auto source_or = PagedFileBatchSource::Open(path, 128, pool);
    ASSERT_TRUE(source_or.ok());
    auto reader = source_or.value()->CreateReader();
    ColumnarBatch batch;
    ASSERT_TRUE(reader->Next(&batch));
    reader.reset();  // abandon with pages outstanding
  }
  EXPECT_EQ(no_cache.bytes_used(), 0u);
  std::remove(path.c_str());
}

TEST(PagedFileBatchSourceTest, OpenRejectsBadHeaders) {
  const std::string path = TempPath("open_bad_header.optr");
  PagedFileWriterOptions options;
  options.rows_per_page = 64;
  ASSERT_TRUE(
      WriteRelationToFile(RandomRelation(100, 2, 1, 82), path, options).ok());
  const std::vector<uint8_t> valid = ReadAllBytes(path);
  const Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  ASSERT_TRUE(info.ok());
  const size_t pages_end =
      kPagedFileHeaderBytes + 2 * info.value().page_stride();

  // A row-major version-1 file: 24-byte header, then rows back to back.
  std::vector<uint8_t> v1(24 + 100 * info.value().row_bytes, 0);
  std::memcpy(v1.data(), valid.data(), 16);
  Poke<uint32_t>(&v1, 4, 1);
  Poke<uint64_t>(&v1, 16, 100);
  // A v2 file written without the zone-map trailer (flag clear, pages
  // only).
  std::vector<uint8_t> no_zone_maps(valid.begin(),
                                    valid.begin() + pages_end);
  Poke<uint32_t>(&no_zone_maps, 28, 0);
  // A zone-map-less header claiming 1M rows over no pages at all.
  std::vector<uint8_t> phantom_rows(valid.begin(),
                                    valid.begin() + kPagedFileHeaderBytes);
  Poke<uint32_t>(&phantom_rows, 28, 0);
  Poke<uint64_t>(&phantom_rows, 16, 1000000);
  // The same claim with the flag set and a trailer that fits the header.
  std::vector<uint8_t> phantom_flagged = valid;
  Poke<uint64_t>(&phantom_flagged, 16, 1000000);

  for (const auto& [name, bytes] :
       {std::pair<const char*, std::vector<uint8_t>>{"v1", v1},
        {"no zone maps", no_zone_maps},
        {"phantom rows", phantom_rows},
        {"phantom rows, flagged", phantom_flagged}}) {
    SCOPED_TRACE(name);
    WriteAllBytes(path, bytes);
    for (BufferPool* pool : TestPools()) {
      EXPECT_EQ(PagedFileBatchSource::Open(path, 64, pool).status().code(),
                StatusCode::kCorruption);
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------- page format ----

TEST(PagedFileV2Test, PagesAreFixedStrideAndPartialPageIsZeroFilled) {
  const std::string path = TempPath("partial_page.optr");
  PagedFileWriterOptions options;
  options.rows_per_page = 64;
  // 100 rows / 64 per page = one full page + one partial (36 rows).
  const Relation relation = RandomRelation(100, 2, 1, 12);
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
  Result<PagedFileInfo> info_or = ReadPagedFileInfo(path);
  ASSERT_TRUE(info_or.ok());
  const PagedFileInfo& info = info_or.value();
  EXPECT_EQ(info.rows_per_page, 64u);
  EXPECT_EQ(info.num_pages(), 2);
  EXPECT_EQ(info.rows_in_page(0), 64);
  EXPECT_EQ(info.rows_in_page(1), 36);

  const std::vector<uint8_t> bytes = ReadAllBytes(path);
  // Header, two full-stride pages, then the zone-map trailer (8-byte
  // prefix + one entry per page).
  ASSERT_EQ(bytes.size(), kPagedFileHeaderBytes + 2 * info.page_stride() +
                              8 + 2 * info.zone_map_entry_bytes());
  const std::span<const uint8_t> all(bytes);
  EXPECT_TRUE(
      ValidateV2Page(info, 0,
                     all.subspan(kPagedFileHeaderBytes,
                                 info.page_stride()))
          .ok());
  EXPECT_TRUE(
      ValidateV2Page(info, 1,
                     all.subspan(kPagedFileHeaderBytes +
                                     info.page_stride(),
                                 info.page_stride()))
          .ok());
  // Every byte past row 36 in the partial page's runs must be zero.
  const size_t page1 = kPagedFileHeaderBytes + info.page_stride();
  for (int c = 0; c < 2; ++c) {
    for (size_t i = 36 * sizeof(double); i < 64 * sizeof(double); ++i) {
      ASSERT_EQ(bytes[page1 + info.numeric_run_offset(c) + i], 0u);
    }
  }
  for (size_t i = 36; i < 64; ++i) {
    ASSERT_EQ(bytes[page1 + info.boolean_run_offset(0) + i], 0u);
  }

  // A stale byte planted in the partial page's dead space must be caught
  // on read (the writer's zero-fill guarantee, enforced).
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const long stale_offset = static_cast<long>(
      page1 + info.numeric_run_offset(1) + 50 * sizeof(double));
  ASSERT_EQ(std::fseek(f, stale_offset, SEEK_SET), 0);
  const uint8_t stale = 0xab;
  ASSERT_EQ(std::fwrite(&stale, 1, 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);
  EXPECT_EQ(ReadRelationFromFile(path, Schema::Synthetic(2, 1))
                .status()
                .code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PagedFileV2Test, CorruptDirectoryIsCaughtOnRead) {
  const std::string path = TempPath("bad_directory.optr");
  PagedFileWriterOptions options;
  options.rows_per_page = 32;
  ASSERT_TRUE(
      WriteRelationToFile(RandomRelation(40, 2, 1, 13), path, options).ok());
  // Flip a directory entry in page 0.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(kPagedFileHeaderBytes + 4),
                       SEEK_SET),
            0);
  const uint32_t junk = 0xdeadbeef;
  ASSERT_EQ(std::fwrite(&junk, 1, 4, f), 4u);
  ASSERT_EQ(std::fclose(f), 0);
  EXPECT_EQ(ReadRelationFromFile(path, Schema::Synthetic(2, 1))
                .status()
                .code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- zone maps ----

TEST(ZoneMapTest, RoundTripValidatesAndCarriesSentinels) {
  const std::string path = TempPath("zones.optr");
  Relation relation(Schema::Synthetic(2, 2));
  // 3 pages of 64: page 1's column 0 is all-NaN (numeric sentinel), and
  // boolean column 1 is true only inside page 2 (max == 0 elsewhere).
  for (int64_t i = 0; i < 160; ++i) {
    const int64_t page = i / 64;
    const double numeric[] = {
        page == 1 ? std::nan("") : static_cast<double>(i),
        1000.0 - static_cast<double>(i)};
    const uint8_t boolean[] = {1, static_cast<uint8_t>(page == 2 ? 1 : 0)};
    relation.AppendRow(numeric, boolean);
  }
  PagedFileWriterOptions options;
  options.rows_per_page = 64;
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());

  Result<PagedFileInfo> info_or = ReadPagedFileInfo(path);
  ASSERT_TRUE(info_or.ok());
  const PagedFileInfo& info = info_or.value();
  Result<ZoneMapIndex> zones_or = ReadZoneMapIndex(path, info);
  ASSERT_TRUE(zones_or.ok()) << zones_or.status().ToString();
  const ZoneMapIndex& zones = zones_or.value();
  ASSERT_EQ(zones.num_pages, 3);

  // Page 0: column 0 spans [0, 63]; page 1: the all-NaN sentinel
  // (min = +inf > max = -inf); page 2 spans [128, 159].
  EXPECT_EQ(zones.NumericMin(0, 0), 0.0);
  EXPECT_EQ(zones.NumericMax(0, 0), 63.0);
  EXPECT_GT(zones.NumericMin(1, 0), zones.NumericMax(1, 0));
  EXPECT_EQ(zones.NumericMin(2, 0), 128.0);
  EXPECT_EQ(zones.NumericMax(2, 0), 159.0);
  // Boolean 1 has a true row only in page 2.
  EXPECT_EQ(zones.BooleanMax(0, 1), 0);
  EXPECT_EQ(zones.BooleanMax(1, 1), 0);
  EXPECT_EQ(zones.BooleanMax(2, 1), 1);
  EXPECT_EQ(zones.BooleanMin(0, 0), 1);

  // Deep validation: every stored entry is bit-exactly recomputable from
  // its page image.
  const std::vector<uint8_t> bytes = ReadAllBytes(path);
  const std::span<const uint8_t> all(bytes);
  for (int64_t page = 0; page < zones.num_pages; ++page) {
    EXPECT_TRUE(ValidateZoneMapEntry(
                    info, zones, page,
                    all.subspan(kPagedFileHeaderBytes +
                                    static_cast<size_t>(page) *
                                        info.page_stride(),
                                info.page_stride()))
                    .ok())
        << "page " << page;
  }

  // The whole-file reader cross-checks zone maps on load and still
  // round-trips the relation exactly.
  Result<Relation> loaded =
      ReadRelationFromFile(path, Schema::Synthetic(2, 2));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().NumericColumn(1), relation.NumericColumn(1));
  std::remove(path.c_str());
}

TEST(ZoneMapTest, TamperedTrailerIsCaught) {
  const std::string path = TempPath("zones_tamper.optr");
  PagedFileWriterOptions options;
  options.rows_per_page = 32;
  ASSERT_TRUE(
      WriteRelationToFile(RandomRelation(100, 2, 1, 6), path, options).ok());
  Result<PagedFileInfo> info_or = ReadPagedFileInfo(path);
  ASSERT_TRUE(info_or.ok());
  const PagedFileInfo& info = info_or.value();

  // A plausible-but-wrong bound (min lowered by 1) passes the structural
  // checks; only the deep bit-exact recompute can catch it.
  {
    Result<ZoneMapIndex> zones_or = ReadZoneMapIndex(path, info);
    ASSERT_TRUE(zones_or.ok());
    ZoneMapIndex zones = std::move(zones_or).value();
    zones.numeric_min[0] -= 1.0;
    const std::vector<uint8_t> bytes = ReadAllBytes(path);
    EXPECT_FALSE(ValidateZoneMapEntry(
                     info, zones, 0,
                     std::span<const uint8_t>(bytes).subspan(
                         kPagedFileHeaderBytes, info.page_stride()))
                     .ok());
  }

  // Inverted non-sentinel bounds are rejected structurally at load.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // First numeric pair of the trailer: [magic u32][4 pad] then min, max.
    const long min_offset = static_cast<long>(info.zone_map_offset()) + 8;
    const double huge = 1e300;
    ASSERT_EQ(std::fseek(f, min_offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);
    EXPECT_EQ(ReadZoneMapIndex(path, info).status().code(),
              StatusCode::kCorruption);
  }

  // A clobbered trailer magic is caught immediately.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(info.zone_map_offset()),
                         SEEK_SET),
              0);
    const uint32_t junk = 0xdeadbeef;
    ASSERT_EQ(std::fwrite(&junk, sizeof(junk), 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);
    EXPECT_EQ(ReadZoneMapIndex(path, info).status().code(),
              StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(ZoneMapTest, TruncatedTrailerIsCaught) {
  const std::string path = TempPath("zones_trunc.optr");
  PagedFileWriterOptions options;
  options.rows_per_page = 32;
  ASSERT_TRUE(
      WriteRelationToFile(RandomRelation(100, 2, 1, 7), path, options).ok());
  Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  ASSERT_TRUE(info.ok());
  const std::vector<uint8_t> bytes = ReadAllBytes(path);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size() - 4, f),
            bytes.size() - 4);
  ASSERT_EQ(std::fclose(f), 0);
  EXPECT_EQ(ReadZoneMapIndex(path, info.value()).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace optrules::storage
