// Section 3.3: parallel bucketing (Algorithm 3.2) on the columnar batch
// core.
//
// Two workloads over the same generated table, each a MultiCountPlan run
// by ExecuteMultiCount over ONE scan of a RelationBatchSource, serial and
// row-sharded over reusable thread pools of 2..8 workers:
//   1. one numeric attribute against 8 Boolean targets (one channel);
//   2. EVERY numeric attribute against every Boolean target.
// On a single-core host the speedup curves are flat; the harness still
// verifies that every schedule produces identical counts (the algorithm's
// correctness claim: counting is communication-free and exactly
// partitionable).

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bucketing/equidepth_sampler.h"
#include "bucketing/parallel_count.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/table_generator.h"
#include "storage/columnar_batch.h"

namespace {

using optrules::bucketing::BucketBoundaries;

/// Counts channel a = numeric attribute a against `bounds[a]` and every
/// Boolean target, once per pool size: pool 1 is the serial reference,
/// larger pools run the row-sharded schedule. Prints one row per pool,
/// adds `<key_prefix><pool>` seconds to `json`, and returns whether every
/// schedule reproduced the serial u/v counts in exactly one scan.
bool RunPools(const optrules::storage::Relation& table,
              const std::vector<const BucketBoundaries*>& bounds,
              const std::string& key_prefix,
              optrules::bench::JsonReporter& json) {
  std::printf("%8s %12s %10s %10s\n", "pool", "time (s)", "speedup",
              "equal?");
  optrules::bench::PrintRule(44);
  double baseline = 0.0;
  std::vector<optrules::bucketing::BucketCounts> reference;
  bool all_equal = true;
  for (const int pool_size : {1, 2, 4, 8}) {
    optrules::storage::RelationBatchSource source(&table);
    optrules::bucketing::MultiCountPlan plan(bounds,
                                             table.schema().num_boolean());
    optrules::ThreadPool pool(pool_size);
    optrules::WallTimer timer;
    optrules::bucketing::ExecuteMultiCount(
        source, &plan, pool_size == 1 ? nullptr : &pool);
    const double seconds = timer.ElapsedSeconds();
    bool equal = source.scans_started() == 1;  // one scan, any schedule
    if (pool_size == 1) baseline = seconds;
    for (int a = 0; a < plan.num_channels(); ++a) {
      if (pool_size == 1) {
        reference.push_back(plan.TakeCounts(a));
        continue;
      }
      const optrules::bucketing::BucketCounts& counts = plan.counts(a);
      const optrules::bucketing::BucketCounts& expected =
          reference[static_cast<size_t>(a)];
      equal = equal && counts.u == expected.u && counts.v == expected.v;
    }
    all_equal = all_equal && equal;
    std::printf("%8d %12.3f %10.2f %10s\n", pool_size, seconds,
                baseline / seconds, equal ? "yes" : "NO");
    json.Add(key_prefix + std::to_string(pool_size), seconds);
  }
  optrules::bench::PrintRule(44);
  return all_equal;
}

}  // namespace

int main() {
  const int64_t scale = optrules::bench::BenchScale();
  const int64_t rows = 2000000 * scale;
  optrules::bench::JsonReporter json("parallel_bucketing");

  optrules::datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = 4;
  config.num_boolean = 8;
  optrules::Rng rng(77);
  const optrules::storage::Relation table =
      optrules::datagen::GenerateTable(config, rng);

  optrules::bucketing::SamplerOptions sampler;
  sampler.num_buckets = 1000;
  optrules::Rng sample_rng(78);
  const BucketBoundaries boundaries =
      optrules::bucketing::BuildEquiDepthBoundaries(
          table.NumericColumn(0), sampler, sample_rng);

  optrules::bench::PrintHeader(
      "Algorithm 3.2: parallel bucket counting (1000 buckets, 8 targets)");
  std::printf("host hardware threads: %u\n",
              std::thread::hardware_concurrency());
  json.Add("rows", rows);
  json.Add("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  const bool single_equal =
      RunPools(table, {&boundaries}, "count_seconds_pool_", json);

  // Multi-pair shared scan: all 4 numeric attributes x 8 targets at once.
  optrules::bench::PrintHeader(
      "Columnar multi-count: 4 numeric x 8 boolean in ONE shared scan");
  std::vector<BucketBoundaries> per_attr;
  for (int a = 0; a < 4; ++a) {
    optrules::Rng attr_rng(200 + static_cast<uint64_t>(a));
    per_attr.push_back(optrules::bucketing::BuildEquiDepthBoundaries(
        table.NumericColumn(a), sampler, attr_rng));
  }
  std::vector<const BucketBoundaries*> bounds;
  for (const auto& b : per_attr) bounds.push_back(&b);
  const bool multi_equal =
      RunPools(table, bounds, "multicount_seconds_pool_", json);

  std::printf("Counts identical for every schedule: %s\n",
              single_equal && multi_equal ? "yes" : "NO");
  json.Add("all_equal", single_equal && multi_equal);
  return single_equal && multi_equal ? 0 : 1;
}
