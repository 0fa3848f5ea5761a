#include "storage/columnar_batch.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

#include "common/timer.h"
#include "obs/metrics.h"

namespace optrules::storage {

namespace {

/// Per-page io-wait flush: the wait lands in the source's accumulator and
/// the registry histogram the moment the page completes, so long-lived
/// readers report live values instead of a lump sum at destruction.
void RecordIoWait(std::atomic<double>* accum, double seconds) {
  static obs::Histogram* const hist =
      obs::MetricsRegistry::Default().GetHistogram(
          "storage.page_io_wait_seconds");
  hist->Observe(seconds);
  if (accum != nullptr) accum->fetch_add(seconds);
}

obs::Counter* PagesSkippedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter("storage.pages_skipped");
  return counter;
}

}  // namespace

void ColumnarBatch::Reset(int num_numeric, int num_boolean) {
  num_rows_ = 0;
  numeric_.assign(static_cast<size_t>(num_numeric), {});
  boolean_.assign(static_cast<size_t>(num_boolean), {});
}

void ColumnarBatch::SetRows(int64_t rows) {
  OPTRULES_CHECK(rows >= 0);
  num_rows_ = rows;
}

void ColumnarBatch::SetNumeric(int i, std::span<const double> column) {
  numeric_[static_cast<size_t>(i)] = column;
}

void ColumnarBatch::SetBoolean(int i, std::span<const uint8_t> column) {
  boolean_[static_cast<size_t>(i)] = column;
}

std::unique_ptr<BatchReader> BatchSource::CreateRangeReader(int64_t /*begin*/,
                                                            int64_t /*end*/) {
  OPTRULES_CHECK(false);  // only valid when SupportsRangeReaders()
  return nullptr;
}

// ----------------------------------------------------------- relation ----

namespace {

/// Serves [begin, end) of a relation as zero-copy column subspans.
class RelationBatchReader : public BatchReader {
 public:
  RelationBatchReader(const Relation* relation, int64_t begin, int64_t end,
                      int64_t batch_rows)
      : relation_(relation),
        position_(begin),
        end_(end),
        batch_rows_(batch_rows) {}

  bool Next(ColumnarBatch* batch) override {
    if (position_ >= end_) return false;
    const int64_t rows = std::min(batch_rows_, end_ - position_);
    const Schema& schema = relation_->schema();
    batch->Reset(schema.num_numeric(), schema.num_boolean());
    batch->SetRows(rows);
    const auto offset = static_cast<size_t>(position_);
    const auto count = static_cast<size_t>(rows);
    for (int i = 0; i < schema.num_numeric(); ++i) {
      batch->SetNumeric(
          i, std::span<const double>(relation_->NumericColumn(i))
                 .subspan(offset, count));
    }
    for (int i = 0; i < schema.num_boolean(); ++i) {
      batch->SetBoolean(
          i, std::span<const uint8_t>(relation_->BooleanColumn(i))
                 .subspan(offset, count));
    }
    position_ += rows;
    return true;
  }

 private:
  const Relation* relation_;
  int64_t position_;
  int64_t end_;
  int64_t batch_rows_;
};

}  // namespace

RelationBatchSource::RelationBatchSource(const Relation* relation,
                                         int64_t batch_rows)
    : relation_(relation), batch_rows_(batch_rows) {
  OPTRULES_CHECK(relation != nullptr);
  OPTRULES_CHECK(batch_rows >= 1);
}

int RelationBatchSource::num_numeric() const {
  return relation_->schema().num_numeric();
}

int RelationBatchSource::num_boolean() const {
  return relation_->schema().num_boolean();
}

int64_t RelationBatchSource::NumTuples() const {
  return relation_->NumRows();
}

std::unique_ptr<BatchReader> RelationBatchSource::DoCreateReader() {
  return std::make_unique<RelationBatchReader>(relation_, 0,
                                               relation_->NumRows(),
                                               batch_rows_);
}

std::unique_ptr<BatchReader> RelationBatchSource::CreateRangeReader(
    int64_t begin, int64_t end) {
  OPTRULES_CHECK(0 <= begin && begin <= end && end <= relation_->NumRows());
  return std::make_unique<RelationBatchReader>(relation_, begin, end,
                                               batch_rows_);
}

// ---------------------------------------------------------- paged file ----

namespace {

/// Seeks to an absolute byte offset in chunks that fit a 32-bit long, so
/// page offsets in files beyond 2 GiB work on every platform (plain fseek
/// takes a long, which is 32 bits on some targets).
void SeekToOffset(std::FILE* file, uint64_t offset) {
  OPTRULES_CHECK(std::fseek(file, 0, SEEK_SET) == 0);
  constexpr uint64_t kChunk = 1u << 30;
  while (offset > 0) {
    const uint64_t step = std::min(offset, kChunk);
    OPTRULES_CHECK(std::fseek(file, static_cast<long>(step), SEEK_CUR) == 0);
    offset -= step;
  }
}

/// Everything a reader needs from its source: where the pages live, how to
/// identify them in the pool, what may be pruned, and where to accumulate
/// the counters when the reader dies.
struct PooledReaderContext {
  PagedFileInfo info;
  std::string path;
  BufferPool* pool = nullptr;
  uint64_t file_id = 0;
  std::shared_ptr<const ZoneMapIndex> zones;
  std::shared_ptr<const ScanPruneSpec> prune;
  std::atomic<double>* io_wait_accum = nullptr;
  std::atomic<int64_t>* hits_accum = nullptr;
  std::atomic<int64_t>* misses_accum = nullptr;
  std::atomic<int64_t>* skipped_accum = nullptr;
};

/// True when page `page` provably contributes nothing to the installed
/// prune spec beyond its row count: a numeric column "has a value" iff its
/// zone-map bounds are non-sentinel (min <= max), a Boolean column "has a
/// true row" iff its max byte is 1.
bool PageIsDead(const PooledReaderContext& ctx, int64_t page) {
  if (ctx.prune == nullptr || ctx.prune->empty()) return false;
  const ZoneMapIndex& z = *ctx.zones;
  return AllUnitsDead(
      *ctx.prune,
      [&](int c) { return z.NumericMin(page, c) <= z.NumericMax(page, c); },
      [&](int b) { return z.BooleanMax(page, b) != 0; });
}

/// The one reader of PagedFile pages. Pages flow through a BufferPool;
/// the reader PINS the frame holding its current page and serves batch
/// spans pointing straight into the pinned bytes (zero transpose). The pin
/// is released only when the scan crosses into the next page, so spans
/// outlive the Next() call that produced them. Batches clamp to page
/// boundaries -- counting results are independent of batch splits (row
/// order is preserved), so this is invisible to consumers. Pages the
/// installed ScanPruneSpec proves dead are skipped without touching the
/// pool (their rows are accounted via pruned_rows()).
///
/// A per-reader prefetch thread, owning the reader's FILE handle, walks the
/// live-page sequence and fetches each page into the pool, then HANDS the
/// pin to the consumer through a one-slot mailbox: it fetches page N+1
/// while the caller computes over page N, and waits for the slot to empty
/// before fetching N+2, so at most two frames per reader are pinned. The
/// thread is per-reader rather than a shared-pool task on purpose:
/// row-sharded scans occupy every pool worker with readers that BLOCK on
/// their next page, so fetches queued behind them on the same pool would
/// deadlock. Because the consumer receives a pin rather than a hint, the
/// handoff also works on a capacity-0 pool, which retains no unpinned
/// frame: each live page is loaded exactly once per reader.
class PooledV2BatchReader : public BatchReader {
 public:
  PooledV2BatchReader(PooledReaderContext ctx, std::FILE* file, int64_t begin,
                      int64_t end, int64_t batch_rows)
      : ctx_(std::move(ctx)),
        file_(file),
        begin_(begin),
        position_(begin),
        end_(end),
        batch_rows_(batch_rows) {
    if (position_ < end_) {
      prefetcher_ = std::thread([this] { PrefetchLoop(); });
    }
  }

  ~PooledV2BatchReader() override {
    if (prefetcher_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      prefetcher_.join();
    }
    std::fclose(file_);
    if (ctx_.hits_accum != nullptr) ctx_.hits_accum->fetch_add(hits_);
    if (ctx_.misses_accum != nullptr) ctx_.misses_accum->fetch_add(misses_);
    if (ctx_.skipped_accum != nullptr) {
      ctx_.skipped_accum->fetch_add(pages_skipped_);
    }
  }

  bool Next(ColumnarBatch* batch) override {
    const auto rpp = static_cast<int64_t>(ctx_.info.rows_per_page);
    while (position_ < end_) {
      const int64_t page = position_ / rpp;
      const int64_t page_limit =
          std::min(end_, page * rpp + ctx_.info.rows_in_page(page));
      if (PageIsDead(ctx_, page)) {
        pruned_rows_ += page_limit - position_;
        ++pages_skipped_;
        PagesSkippedCounter()->Add();
        position_ = (page + 1) * rpp;
        continue;
      }
      if (!pin_ || pinned_page_ != page) TakePage(page);
      const int64_t in_page = position_ - page * rpp;
      const int64_t want = std::min(batch_rows_, page_limit - position_);
      OPTRULES_CHECK(want > 0);
      const uint8_t* base = pin_.data();
      batch->Reset(ctx_.info.num_numeric, ctx_.info.num_boolean);
      batch->SetRows(want);
      for (int c = 0; c < ctx_.info.num_numeric; ++c) {
        // The run is 8-byte aligned: the directory is padded to 8 bytes and
        // the frame buffer is allocator-aligned.
        const auto* run = reinterpret_cast<const double*>(
            base + ctx_.info.numeric_run_offset(c));
        batch->SetNumeric(c, std::span<const double>(
                                 run + in_page, static_cast<size_t>(want)));
      }
      for (int b = 0; b < ctx_.info.num_boolean; ++b) {
        batch->SetBoolean(
            b, std::span<const uint8_t>(
                   base + ctx_.info.boolean_run_offset(b) + in_page,
                   static_cast<size_t>(want)));
      }
      position_ += want;
      return true;
    }
    return false;
  }

  int64_t pruned_rows() const override { return pruned_rows_; }

 private:
  /// One fetched page on its way from the prefetch thread to the consumer.
  struct Handoff {
    int64_t page = -1;
    Result<BufferPool::Pin> pin = BufferPool::Pin();
    bool was_hit = false;
  };

  /// Releases the current page and takes `page` (the next live page) from
  /// the mailbox, waiting for the prefetch thread when it is not there yet.
  void TakePage(int64_t page) {
    pin_.Reset();
    WallTimer wait_timer;
    Handoff handoff;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return mailbox_.has_value(); });
      handoff = std::move(*mailbox_);
      mailbox_.reset();
    }
    cv_.notify_all();
    RecordIoWait(ctx_.io_wait_accum, wait_timer.ElapsedSeconds());
    OPTRULES_CHECK(handoff.page == page);
    // end_ is bounded by the header's row count, which ReadPagedFileInfo
    // checked against the file size, so a failed load means the file
    // changed or went bad mid-scan; silently accepting it would merge
    // partial counts with no diagnostic.
    OPTRULES_CHECK(handoff.pin.ok());
    pin_ = std::move(handoff.pin.value());
    pinned_page_ = page;
    if (handoff.was_hit) {
      ++hits_;
    } else {
      ++misses_;
    }
  }

  /// Prefetch thread: fetches every live page of [begin, end) in scan
  /// order, each once the mailbox is empty, and posts its pin there.
  void PrefetchLoop() {
    const auto rpp = static_cast<int64_t>(ctx_.info.rows_per_page);
    const size_t stride = ctx_.info.page_stride();
    const int64_t last_page = (end_ - 1) / rpp;
    for (int64_t page = begin_ / rpp; page <= last_page; ++page) {
      if (PageIsDead(ctx_, page)) continue;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !mailbox_.has_value(); });
        if (stop_) return;
      }
      Handoff handoff;
      handoff.page = page;
      handoff.pin = ctx_.pool->Fetch(
          ctx_.file_id, page, stride,
          [&](uint8_t* dest) -> Status {
            SeekToOffset(file_, kPagedFileHeaderBytes +
                                    static_cast<uint64_t>(page) * stride);
            if (std::fread(dest, 1, stride, file_) != stride) {
              return Status::IoError("short read of page " +
                                     std::to_string(page) + " in " +
                                     ctx_.path);
            }
            return ValidateV2Page(ctx_.info, page,
                                  std::span<const uint8_t>(dest, stride));
          },
          &handoff.was_hit);
      {
        std::lock_guard<std::mutex> lock(mu_);
        mailbox_ = std::move(handoff);
      }
      cv_.notify_all();
    }
  }

  PooledReaderContext ctx_;
  std::FILE* const file_;  ///< read only by the prefetch thread
  const int64_t begin_;    ///< immutable; the prefetch thread reads it
  int64_t position_;
  const int64_t end_;      ///< immutable; the prefetch thread reads it
  const int64_t batch_rows_;
  BufferPool::Pin pin_;
  int64_t pinned_page_ = -1;
  int64_t pruned_rows_ = 0;
  int64_t pages_skipped_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  // Handoff state: the prefetch thread fills the mailbox only when it is
  // empty, the consumer empties it; both wait on cv_.
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Handoff> mailbox_;
  bool stop_ = false;
  std::thread prefetcher_;
};

}  // namespace

Result<std::unique_ptr<PagedFileBatchSource>> PagedFileBatchSource::Open(
    const std::string& path, int64_t batch_rows, BufferPool* pool) {
  if (batch_rows <= 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  if (!info.ok()) return info.status();
  Result<ZoneMapIndex> zones = ReadZoneMapIndex(path, info.value());
  if (!zones.ok()) return zones.status();
  auto source =
      std::unique_ptr<PagedFileBatchSource>(new PagedFileBatchSource());
  source->path_ = path;
  source->info_ = info.value();
  source->batch_rows_ = batch_rows;
  source->zones_ =
      std::make_shared<const ZoneMapIndex>(std::move(zones.value()));
  if (pool == nullptr) {
    // No cache: the same reader over a pool that retains no unpinned frame.
    source->owned_pool_ = std::make_unique<BufferPool>(0);
    pool = source->owned_pool_.get();
  }
  Result<uint64_t> file_id = pool->RegisterFile(path);
  if (!file_id.ok()) return file_id.status();
  source->pool_ = pool;
  source->pool_file_id_ = file_id.value();
  return source;
}

std::unique_ptr<BatchReader> PagedFileBatchSource::DoCreateReader() {
  return CreateRangeReader(0, info_.num_rows);
}

std::unique_ptr<BatchReader> PagedFileBatchSource::CreateRangeReader(
    int64_t begin, int64_t end) {
  OPTRULES_CHECK(0 <= begin && begin <= end && end <= info_.num_rows);
  std::FILE* file = std::fopen(path_.c_str(), "rb");
  OPTRULES_CHECK(file != nullptr);
  PooledReaderContext ctx;
  ctx.info = info_;
  ctx.path = path_;
  ctx.pool = pool_;
  ctx.file_id = pool_file_id_;
  ctx.zones = zones_;
  ctx.prune = prune_spec();
  ctx.io_wait_accum = &io_wait_seconds_;
  ctx.hits_accum = &cache_hits_;
  ctx.misses_accum = &cache_misses_;
  ctx.skipped_accum = &pages_skipped_;
  return std::make_unique<PooledV2BatchReader>(std::move(ctx), file, begin,
                                               end, batch_rows_);
}

}  // namespace optrules::storage
