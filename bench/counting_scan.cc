// Counting-scan microbench: the hot path of Algorithm 3.1 step 4.
//
// The shared counting scan assigns every tuple of every registered channel
// to a bucket; this harness times exactly that kernel over a
// rows x attrs x channels grid, in-memory (RelationBatchSource) and
// out-of-core (PagedFileBatchSource), so the scan's perf trajectory is
// machine-readable (OPTRULES_BENCH_JSON=1). Channel shapes mirror the
// MiningEngine: base channels (attr x all Boolean targets), C conditional
// channels per attribute sharing ONE generalized boundary set (Section
// 4.3), and one sum channel per attribute (Section 5). A standalone
// point-location loop isolates Locate/LocateBatch throughput from the
// scatter passes.

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "bucketing/parallel_count.h"
#include "common/timer.h"
#include "datagen/table_generator.h"
#include "dist/coordinator.h"
#include "dist/fault_injection.h"
#include "dist/partitioned_table.h"
#include "dist/scan_worker.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"
#include "storage/paged_file.h"

namespace {

using optrules::bucketing::BoundaryPlan;
using optrules::bucketing::BucketBoundaries;
using optrules::bucketing::BuildBoundaries;
using optrules::bucketing::CountChannel;
using optrules::bucketing::ExecuteMultiCount;
using optrules::bucketing::MultiCountPlan;
using optrules::bucketing::MultiCountSpec;

constexpr int kNumBuckets = 1000;
constexpr int kReps = 3;

/// Engine-shaped spec over the first `attrs` numeric columns: one base
/// channel per attribute, `conditions` conditional channels per attribute
/// (all sharing the per-attribute generalized boundary set, exactly the
/// duplicate-location shape the shared bucket-index cache removes), and one
/// sum channel per attribute when `with_sums`.
MultiCountSpec MakeSpec(const std::vector<BucketBoundaries>& base,
                        const std::vector<BucketBoundaries>& generalized,
                        int attrs, int conditions, int num_boolean,
                        bool with_sums) {
  MultiCountSpec spec;
  spec.num_targets = num_boolean;
  for (int c = 0; c < conditions; ++c) {
    spec.conditions.push_back({c % num_boolean});
  }
  for (int a = 0; a < attrs; ++a) {
    CountChannel channel;
    channel.column = a;
    channel.boundaries = &base[static_cast<size_t>(a)];
    spec.channels.push_back(std::move(channel));
  }
  for (int c = 0; c < conditions; ++c) {
    for (int a = 0; a < attrs; ++a) {
      CountChannel channel;
      channel.column = a;
      channel.boundaries = &generalized[static_cast<size_t>(a)];
      channel.condition = c;
      spec.channels.push_back(std::move(channel));
    }
  }
  if (with_sums) {
    for (int a = 0; a < attrs; ++a) {
      CountChannel channel;
      channel.column = a;
      channel.boundaries = &base[static_cast<size_t>(a)];
      channel.count_targets = false;
      channel.sum_targets = {(a + 1) % attrs};
      spec.channels.push_back(std::move(channel));
    }
  }
  return spec;
}

/// Runs `spec` over one serial scan of `source` kReps times; returns the
/// best wall time and folds a checksum into *checksum so the work cannot
/// be dead-code-eliminated (and so before/after runs can be diffed).
double TimeScan(optrules::storage::BatchSource& source,
                const MultiCountSpec& spec, int64_t* checksum,
                optrules::bucketing::ScanPhaseTimes* best_phases = nullptr) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    MultiCountPlan plan(spec);
    optrules::bucketing::ScanPhaseTimes phases;
    if (best_phases != nullptr) plan.set_phase_times(&phases);
    optrules::WallTimer timer;
    ExecuteMultiCount(source, &plan, nullptr);
    const double seconds = timer.ElapsedSeconds();
    const bool is_best = rep == 0 || seconds < best;
    if (is_best) best = seconds;
    if (is_best && best_phases != nullptr) *best_phases = phases;
    if (rep == 0) {
      for (int ch = 0; ch < plan.num_channels(); ++ch) {
        const auto& counts = plan.counts(ch);
        for (size_t b = 0; b < counts.u.size(); ++b) {
          *checksum += counts.u[b] * static_cast<int64_t>(b + 1);
        }
      }
    }
  }
  return best;
}

/// Drops `path` from the OS page cache so every out-of-core rep measures
/// genuinely cold reads (a warm page cache makes fread a memcpy and hides
/// any I/O overlap). The fdatasync matters: DONTNEED silently skips dirty
/// pages, and the file was written moments ago. Best effort: a filesystem
/// that ignores the advice just yields warm-cache numbers.
void EvictFromPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return;
  ::fdatasync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

/// Forwards scans to a paged source without the prune spec the executor
/// installs, so the selective-condition arm has an unpruned reference.
class UnprunedSource final : public optrules::storage::BatchSource {
 public:
  explicit UnprunedSource(optrules::storage::BatchSource* inner)
      : inner_(inner) {}
  int num_numeric() const override { return inner_->num_numeric(); }
  int num_boolean() const override { return inner_->num_boolean(); }
  int64_t NumTuples() const override { return inner_->NumTuples(); }

 protected:
  std::unique_ptr<optrules::storage::BatchReader> DoCreateReader() override {
    return inner_->CreateReader();
  }

 private:
  optrules::storage::BatchSource* inner_;
};

}  // namespace

int main() {
  const int64_t scale = optrules::bench::BenchScale();
  const int64_t rows = 1000000 * scale;
  const int num_numeric = 8;
  const int num_boolean = 8;
  optrules::bench::JsonReporter json("counting_scan");
  json.Add("rows", rows);
  json.Add("num_buckets", static_cast<int64_t>(kNumBuckets));

  optrules::datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = num_numeric;
  config.num_boolean = num_boolean;
  optrules::Rng rng(9001);
  const optrules::storage::Relation table =
      optrules::datagen::GenerateTable(config, rng);

  BoundaryPlan boundary_plan;
  boundary_plan.num_buckets = kNumBuckets;
  std::vector<BucketBoundaries> base;
  std::vector<BucketBoundaries> generalized;
  for (int a = 0; a < num_numeric; ++a) {
    base.push_back(BuildBoundaries(table.NumericColumn(a), boundary_plan,
                                   static_cast<uint64_t>(a)));
    generalized.push_back(BuildBoundaries(table.NumericColumn(a),
                                          boundary_plan,
                                          1000 + static_cast<uint64_t>(a)));
  }

  // ---- standalone point location: M=1000 buckets over one column -------
  optrules::bench::PrintHeader("Point location (1000 buckets)");
  {
    const std::span<const double> values = table.NumericColumn(0);
    const BucketBoundaries& boundaries = base[0];
    int64_t sink = 0;
    double scalar_best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      optrules::WallTimer timer;
      for (const double value : values) sink += boundaries.Locate(value);
      const double seconds = timer.ElapsedSeconds();
      if (rep == 0 || seconds < scalar_best) scalar_best = seconds;
    }
    const double scalar_mps =
        static_cast<double>(rows) / scalar_best / 1e6;
    std::printf("scalar Locate:     %8.1f Mrows/s (checksum %lld)\n",
                scalar_mps, static_cast<long long>(sink));
    json.Add("locate_scalar_mrows_per_sec", scalar_mps);

    std::vector<int32_t> out(values.size());
    double batch_best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      optrules::WallTimer timer;
      boundaries.LocateBatch(values, out);
      const double seconds = timer.ElapsedSeconds();
      if (rep == 0 || seconds < batch_best) batch_best = seconds;
    }
    int64_t batch_sink = 0;
    for (const int32_t bucket : out) batch_sink += bucket;
    // The scalar loop folded its checksum once per rep.
    OPTRULES_CHECK(batch_sink * kReps == sink);
    const double batch_mps =
        static_cast<double>(rows) / batch_best / 1e6;
    std::printf("LocateBatch:       %8.1f Mrows/s\n", batch_mps);
    json.Add("locate_batch_mrows_per_sec", batch_mps);
  }

  // ---- in-memory grid: attrs x conditional channels --------------------
  optrules::bench::PrintHeader(
      "In-memory counting scan (serial, rows x attrs x channels)");
  std::printf("%8s %12s %12s %12s %14s\n", "attrs", "conditions",
              "channels", "time (s)", "Mrows*chan/s");
  optrules::bench::PrintRule(64);
  int64_t checksum = 0;
  int64_t a8_c3_checksum = 0;
  for (const int attrs : {2, 8}) {
    for (const int conditions : {0, 3}) {
      const MultiCountSpec spec = MakeSpec(base, generalized, attrs,
                                           conditions, num_boolean,
                                           /*with_sums=*/true);
      const int channels = static_cast<int>(spec.channels.size());
      optrules::storage::RelationBatchSource source(&table);
      int64_t config_checksum = 0;
      optrules::bucketing::ScanPhaseTimes phases;
      const double seconds = TimeScan(source, spec, &config_checksum,
                                      &phases);
      if (attrs == 8 && conditions == 3) a8_c3_checksum = config_checksum;
      checksum += config_checksum;
      const double throughput = static_cast<double>(rows) * channels /
                                seconds / 1e6;
      std::printf("%8d %12d %12d %12.3f %14.1f  "
                  "(locate %.3f, mask %.3f, scatter %.3f)\n",
                  attrs, conditions, channels, seconds, throughput,
                  phases.locate_seconds, phases.mask_seconds,
                  phases.scatter_seconds);
      const std::string key = "inmem_a" + std::to_string(attrs) + "_c" +
                              std::to_string(conditions);
      json.Add(key + "_seconds", seconds);
      json.Add(key + "_locate_seconds", phases.locate_seconds);
      json.Add(key + "_mask_seconds", phases.mask_seconds);
      json.Add(key + "_scatter_seconds", phases.scatter_seconds);
    }
  }
  json.Add("inmem_checksum", checksum);

  // ---- metrics overhead: registry off vs on, a8/c3 (40 channels) -------
  // The observability acceptance gate: the registry's per-scan activity is
  // O(batches + shards), never O(rows), so the enabled-vs-disabled delta
  // on the full 40-channel scan must stay within noise (<= 2%). Checksums
  // prove the switch cannot change counts.
  optrules::bench::PrintHeader(
      "Metrics overhead (in-memory a8/c3, 40 channels)");
  {
    const MultiCountSpec spec = MakeSpec(base, generalized, num_numeric, 3,
                                         num_boolean, /*with_sums=*/true);
    optrules::storage::RelationBatchSource source(&table);
    // Interleave the two modes so slow machine-wide drift (cache state,
    // frequency scaling, neighbors on the box) hits both equally, and
    // keep the best per mode: a one-sided drift would otherwise read as
    // fake overhead much larger than the real O(batches) cost.
    constexpr int kOverheadRounds = 4;
    double off_seconds = 0.0;
    double on_seconds = 0.0;
    for (int round = 0; round < kOverheadRounds; ++round) {
      int64_t off_checksum = 0;
      int64_t on_checksum = 0;
      optrules::obs::SetMetricsEnabled(false);
      const double off = TimeScan(source, spec, &off_checksum);
      optrules::obs::SetMetricsEnabled(true);
      const double on = TimeScan(source, spec, &on_checksum);
      OPTRULES_CHECK(off_checksum == on_checksum);  // switch never counts
      OPTRULES_CHECK(on_checksum == a8_c3_checksum);
      if (round == 0 || off < off_seconds) off_seconds = off;
      if (round == 0 || on < on_seconds) on_seconds = on;
    }
    const double overhead = on_seconds - off_seconds;
    std::printf("metrics disabled:   %8.3f s\n", off_seconds);
    std::printf("metrics enabled:    %8.3f s (%+.2f%% overhead)\n",
                on_seconds, overhead / off_seconds * 100.0);
    json.Add("metrics_off_seconds", off_seconds);
    json.Add("metrics_on_seconds", on_seconds);
    json.Add("metrics_overhead_seconds", overhead);
  }

  // ---- out-of-core: PagedFile scan ------------------------------------
  // Two shapes, cold page cache per rep: a2/c0 is prefetch-bound (light
  // kernel, the read dominates), a8/c3 is compute-bound (the prefetch
  // overlap hides the whole read). The a8/c3 counts must equal the
  // in-memory scan's.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string tmp_base =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/counting_scan_bench";
  const auto run_paged_shapes = [&](const std::string& file_path,
                                    const std::string& key_prefix) {
    std::printf("%8s %12s %14s %12s\n", "attrs", "conditions", "time (s)",
                "io wait (s)");
    optrules::bench::PrintRule(52);
    for (const int conditions : {0, 3}) {
      const int attrs = conditions == 0 ? 2 : num_numeric;
      const MultiCountSpec spec = MakeSpec(base, generalized, attrs,
                                           conditions, num_boolean,
                                           /*with_sums=*/true);
      double best = 0.0;
      double io_wait = 0.0;
      int64_t checksum = 0;
      optrules::bucketing::ScanPhaseTimes best_phases;
      for (int rep = 0; rep < kReps; ++rep) {
        EvictFromPageCache(file_path);
        auto source_or =
            optrules::storage::PagedFileBatchSource::Open(file_path);
        OPTRULES_CHECK(source_or.ok());
        MultiCountPlan plan(spec);
        optrules::bucketing::ScanPhaseTimes phases;
        plan.set_phase_times(&phases);
        optrules::WallTimer timer;
        ExecuteMultiCount(*source_or.value(), &plan, nullptr);
        const double seconds = timer.ElapsedSeconds();
        if (rep == 0 || seconds < best) {
          best = seconds;
          best_phases = phases;
          io_wait = source_or.value()->TotalIoWaitSeconds();
        }
        if (rep == 0) {
          for (int ch = 0; ch < plan.num_channels(); ++ch) {
            const auto& counts = plan.counts(ch);
            for (size_t b = 0; b < counts.u.size(); ++b) {
              checksum += counts.u[b] * static_cast<int64_t>(b + 1);
            }
          }
        }
      }
      if (conditions == 3) {
        OPTRULES_CHECK(checksum == a8_c3_checksum);  // disk == mem
      }
      std::printf("%8d %12d %14.3f %12.3f\n", attrs, conditions, best,
                  io_wait);
      const std::string key = key_prefix + "_a" + std::to_string(attrs) +
                              "_c" + std::to_string(conditions);
      json.Add(key + "_seconds", best);
      json.Add(key + "_io_wait_seconds", io_wait);
      json.Add(key + "_locate_seconds", best_phases.locate_seconds);
      json.Add(key + "_mask_seconds", best_phases.mask_seconds);
      json.Add(key + "_scatter_seconds", best_phases.scatter_seconds);
    }
  };

  optrules::bench::PrintHeader(
      "Out-of-core counting scan (PagedFile)");
  const std::string path = tmp_base + ".optr";
  OPTRULES_CHECK(
      optrules::storage::WriteRelationToFile(table, path).ok());
  run_paged_shapes(path, "paged");

  // ---- buffer pool: warm repeated session ------------------------------
  // A repeated mining session over the same table (the interactive loop
  // the paper's Section 6 envisions) should pay the disk exactly once: the
  // first session fills a file-sized buffer pool, every later session
  // reads pages out of cache. cache_hit_rate comes from the pool-backed
  // source; the checksum must match the in-memory scan bit for bit.
  optrules::bench::PrintHeader(
      "Buffer pool (warm repeated session, a8/c3)");
  {
    const auto file_bytes =
        static_cast<size_t>(std::filesystem::file_size(path));
    optrules::storage::BufferPool pool(file_bytes + (size_t{16} << 20));
    const MultiCountSpec spec = MakeSpec(base, generalized, num_numeric, 3,
                                         num_boolean, /*with_sums=*/true);
    const auto run_session = [&](int64_t* checksum_out, double* hit_rate) {
      auto source_or = optrules::storage::PagedFileBatchSource::Open(
          path, optrules::storage::kDefaultBatchRows, &pool);
      OPTRULES_CHECK(source_or.ok());
      MultiCountPlan plan(spec);
      optrules::WallTimer timer;
      ExecuteMultiCount(*source_or.value(), &plan, nullptr);
      const double seconds = timer.ElapsedSeconds();
      if (checksum_out != nullptr) {
        for (int ch = 0; ch < plan.num_channels(); ++ch) {
          const auto& counts = plan.counts(ch);
          for (size_t b = 0; b < counts.u.size(); ++b) {
            *checksum_out += counts.u[b] * static_cast<int64_t>(b + 1);
          }
        }
      }
      if (hit_rate != nullptr) {
        *hit_rate = source_or.value()->SourceStats().cache_hit_rate();
      }
      return seconds;
    };
    EvictFromPageCache(path);
    const double cold_seconds = run_session(nullptr, nullptr);
    double warm_best = 0.0;
    double hit_rate = 0.0;
    int64_t warm_checksum = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      double rep_rate = 0.0;
      const double seconds = run_session(
          rep == 0 ? &warm_checksum : nullptr, &rep_rate);
      if (rep == 0 || seconds < warm_best) warm_best = seconds;
      if (rep == 0) hit_rate = rep_rate;
    }
    OPTRULES_CHECK(warm_checksum == a8_c3_checksum);  // warm == memory
    std::printf("cold first session: %8.3f s\n", cold_seconds);
    std::printf("warm re-run:        %8.3f s (%.2fx, hit rate %.3f)\n",
                warm_best, cold_seconds / warm_best, hit_rate);
    json.Add("cold_session_seconds", cold_seconds);
    json.Add("warm_rerun_seconds", warm_best);
    json.Add("cache_hit_rate", hit_rate);
  }

  // ---- zone-map pruning: selective conditional session -----------------
  // Condition Boolean 0 true only in the leading 1% of rows: the zone maps
  // prove nearly every page dead for an all-conditional spec, so the scan
  // skips them wholesale. The pruned plan must still equal the unpruned
  // reference bit for bit (checksum below), with pages_skipped proving the
  // pruning actually fired.
  optrules::bench::PrintHeader(
      "Zone-map pruning (selective condition, 1% true window)");
  {
    optrules::storage::Relation selective = table;
    std::vector<uint8_t>& cond = selective.MutableBooleanColumn(0);
    for (size_t i = static_cast<size_t>(rows / 100); i < cond.size(); ++i) {
      cond[i] = 0;
    }
    const std::string selective_path = tmp_base + "_selective.optr";
    OPTRULES_CHECK(
        optrules::storage::WriteRelationToFile(selective, selective_path)
            .ok());
    MultiCountSpec spec;
    spec.num_targets = num_boolean;
    spec.conditions.push_back({0});
    for (int a = 0; a < num_numeric; ++a) {
      CountChannel channel;
      channel.column = a;
      channel.boundaries = &base[static_cast<size_t>(a)];
      channel.condition = 0;
      spec.channels.push_back(std::move(channel));
    }
    // `pruned` = false scans through UnprunedSource, which never passes
    // the executor's prune spec down to the paged source.
    const auto run_selective = [&](optrules::storage::BufferPool* pool,
                                   bool pruned, int64_t* pages_skipped) {
      double best = 0.0;
      int64_t checksum_out = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        EvictFromPageCache(selective_path);
        auto source_or = optrules::storage::PagedFileBatchSource::Open(
            selective_path, optrules::storage::kDefaultBatchRows, pool);
        OPTRULES_CHECK(source_or.ok());
        UnprunedSource unpruned(source_or.value().get());
        optrules::storage::BatchSource* scanned =
            pruned ? source_or.value().get() : nullptr;
        if (scanned == nullptr) scanned = &unpruned;
        MultiCountPlan plan(spec);
        optrules::WallTimer timer;
        ExecuteMultiCount(*scanned, &plan, nullptr);
        const double seconds = timer.ElapsedSeconds();
        if (rep == 0 || seconds < best) best = seconds;
        if (rep == 0) {
          for (int ch = 0; ch < plan.num_channels(); ++ch) {
            const auto& counts = plan.counts(ch);
            for (size_t b = 0; b < counts.u.size(); ++b) {
              checksum_out += counts.u[b] * static_cast<int64_t>(b + 1);
            }
          }
          if (pages_skipped != nullptr) {
            *pages_skipped = source_or.value()->SourceStats().pages_skipped;
          }
        }
      }
      return std::make_pair(best, checksum_out);
    };
    const auto [unpruned_seconds, unpruned_checksum] =
        run_selective(nullptr, false, nullptr);
    optrules::storage::BufferPool pool(
        optrules::storage::kDefaultBufferPoolBytes);
    int64_t pages_skipped = 0;
    const auto [pruned_seconds, pruned_checksum] =
        run_selective(&pool, true, &pages_skipped);
    OPTRULES_CHECK(pruned_checksum == unpruned_checksum);  // pruned == ref
    std::printf("unpruned no-cache:  %8.3f s\n", unpruned_seconds);
    std::printf("zone-map pruned:    %8.3f s (%.2fx, %lld pages skipped)\n",
                pruned_seconds, unpruned_seconds / pruned_seconds,
                static_cast<long long>(pages_skipped));
    json.Add("selective_unpruned_seconds", unpruned_seconds);
    json.Add("selective_pruned_seconds", pruned_seconds);
    json.Add("pages_skipped", pages_skipped);
    std::remove(selective_path.c_str());
  }

  // ---- partitioned / distributed scan: worker scaling curve ------------
  // The same a8/c3 channel load sharded over K=4 partition PagedFiles and
  // driven through the DistributedScanCoordinator at 1/2/4 in-process
  // workers (each partition scanned by the serial reference chain, so the
  // worker count changes wall clock only). Counts must reproduce the
  // in-memory checksum at every worker count: partitioning is
  // permutation of rows and the merge is exact.
  optrules::bench::PrintHeader(
      "Partitioned scan (K=4 partitions, in-process workers)");
  const std::string dist_dir =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/counting_scan_bench_parts";
  std::filesystem::remove_all(dist_dir);
  constexpr int kPartitions = 4;
  {
    optrules::dist::PartitionOptions partition_options;
    partition_options.num_partitions = kPartitions;
    auto table = optrules::dist::PartitionPagedFile(
        path, optrules::storage::Schema::Synthetic(num_numeric, num_boolean),
        dist_dir, partition_options);
    OPTRULES_CHECK(table.ok());
    const MultiCountSpec spec = MakeSpec(base, generalized, num_numeric, 3,
                                         num_boolean, /*with_sums=*/true);
    std::printf("%8s %12s %14s\n", "workers", "time (s)", "speedup");
    optrules::bench::PrintRule(40);
    double one_worker = 0.0;
    for (const int workers : {1, 2, kPartitions}) {
      optrules::dist::DistributedScanOptions scan_options;
      scan_options.max_workers = workers;
      double best = 0.0;
      int64_t dist_checksum = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        for (int p = 0; p < kPartitions; ++p) {
          EvictFromPageCache(table.value().PartitionPath(p));
        }
        optrules::dist::DistributedScanCoordinator coordinator(
            &table.value(), scan_options);
        MultiCountPlan plan(spec);
        optrules::WallTimer timer;
        OPTRULES_CHECK(coordinator.Execute(&plan).ok());
        const double seconds = timer.ElapsedSeconds();
        if (rep == 0 || seconds < best) best = seconds;
        if (rep == 0) {
          dist_checksum = 0;
          for (int ch = 0; ch < plan.num_channels(); ++ch) {
            const auto& counts = plan.counts(ch);
            for (size_t b = 0; b < counts.u.size(); ++b) {
              dist_checksum += counts.u[b] * static_cast<int64_t>(b + 1);
            }
          }
        }
      }
      OPTRULES_CHECK(dist_checksum == a8_c3_checksum);  // sharded == memory
      if (workers == 1) one_worker = best;
      std::printf("%8d %12.3f %13.2fx\n", workers, best,
                  one_worker / best);
      json.Add("dist_k4_w" + std::to_string(workers) + "_seconds", best);
    }
  }
  std::filesystem::remove_all(dist_dir);

  // ---- induced straggler: work stealing -------------------------------
  // Same load over K=8 partitions and 2 worker slots, with slot 0's
  // worker slowed by 250 ms per partition scan (a FaultInjectingScanWorker
  // whose "faults" are pure delays). The idle slot 1 steals slot 0's
  // unstarted partitions, so the straggler pays its delay roughly once
  // instead of once per partition of its stride (4 x 250 ms); the stolen
  // count shows the path ran, and the checksum proves the stolen scans
  // produce the exact in-memory counts.
  optrules::bench::PrintHeader(
      "Induced straggler (K=8, 2 workers, slot 0 +250 ms per scan)");
  const std::string straggler_dir =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/counting_scan_bench_straggler";
  std::filesystem::remove_all(straggler_dir);
  {
    static constexpr int kStragglerPartitions = 8;
    static constexpr int64_t kStragglerDelayMs = 250;
    optrules::dist::PartitionOptions partition_options;
    partition_options.num_partitions = kStragglerPartitions;
    auto table = optrules::dist::PartitionPagedFile(
        path, optrules::storage::Schema::Synthetic(num_numeric, num_boolean),
        straggler_dir, partition_options);
    OPTRULES_CHECK(table.ok());
    const MultiCountSpec spec = MakeSpec(base, generalized, num_numeric, 3,
                                         num_boolean, /*with_sums=*/true);
    double best = 0.0;
    int64_t stolen = 0;
    int64_t checksum = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (int p = 0; p < kStragglerPartitions; ++p) {
        EvictFromPageCache(table.value().PartitionPath(p));
      }
      optrules::dist::DistributedScanOptions scan_options;
      scan_options.max_workers = 2;
      auto built = std::make_shared<std::atomic<int>>(0);
      scan_options.worker_factory =
          [built]() -> optrules::Result<
                        std::unique_ptr<optrules::dist::ScanWorker>> {
        std::unique_ptr<optrules::dist::ScanWorker> inner =
            std::make_unique<optrules::dist::InProcessScanWorker>();
        if (built->fetch_add(1) == 0) {
          std::vector<optrules::dist::InjectedFault> delays;
          for (int call = 0; call < kStragglerPartitions; ++call) {
            delays.push_back({.at_call = call, .delay_ms = kStragglerDelayMs});
          }
          return std::unique_ptr<optrules::dist::ScanWorker>(
              std::make_unique<optrules::dist::FaultInjectingScanWorker>(
                  std::move(inner), std::move(delays)));
        }
        return inner;
      };
      optrules::dist::DistributedScanCoordinator coordinator(&table.value(),
                                                             scan_options);
      MultiCountPlan plan(spec);
      optrules::WallTimer timer;
      OPTRULES_CHECK(coordinator.Execute(&plan).ok());
      const double seconds = timer.ElapsedSeconds();
      if (rep == 0 || seconds < best) {
        best = seconds;
        stolen = coordinator.scan_stats().partitions_stolen;
      }
      if (rep == 0) {
        for (int ch = 0; ch < plan.num_channels(); ++ch) {
          const auto& counts = plan.counts(ch);
          for (size_t b = 0; b < counts.u.size(); ++b) {
            checksum += counts.u[b] * static_cast<int64_t>(b + 1);
          }
        }
      }
    }
    OPTRULES_CHECK(checksum == a8_c3_checksum);  // stealing == memory
    std::printf("work stealing:      %8.3f s (%lld partitions stolen)\n",
                best, static_cast<long long>(stolen));
    json.Add("straggler_worksteal_seconds", best);
    json.Add("straggler_partitions_stolen", static_cast<double>(stolen));
  }
  std::filesystem::remove_all(straggler_dir);
  std::remove(path.c_str());

  // Everything above reported into the process registry as a side effect;
  // emit it so the JSON trajectory carries the same instrument values a
  // serving daemon would ship in a kMetricsReply.
  json.AddRegistrySnapshot(
      optrules::obs::MetricsRegistry::Default().Snapshot());
  return 0;
}
