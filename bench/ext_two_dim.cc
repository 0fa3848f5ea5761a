// Extension benchmark (Section 1.4): two-dimensional optimized regions.
//
// Part 1 times the O(ny^2 nx) optimized rectangle miners and the
// O(nx ny^2) x-monotone gain DP across grid sizes, and verifies on planted
// grids that (a) the rectangle miners recover a planted 2-D block and (b)
// the x-monotone region's gain dominates the rectangle gain.
//
// Part 2 times the grid COUNTING itself through the MiningEngine's grid
// channel -- in memory and out-of-core over a PagedFile -- and
// cross-checks every path bit-identical against the test-only reference
// miner's row-at-a-time region::BuildGrid pass (tests/reference/).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "region/grid.h"
#include "region/rectangle.h"
#include "region/xmonotone.h"
#include "reference/miner.h"
#include "rules/miner.h"
#include "storage/paged_file.h"

namespace {

optrules::region::GridCounts PlantedGrid(int n, uint64_t seed) {
  optrules::Rng rng(seed);
  optrules::region::GridCounts grid(n, n);
  const int lo = n / 4;
  const int hi = n / 2;
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      const bool hot = lo <= x && x <= hi && lo <= y && y <= hi;
      for (int k = 0; k < 20; ++k) {
        grid.Add(x, y, rng.NextBernoulli(hot ? 0.8 : 0.1));
      }
    }
  }
  return grid;
}

/// Rows with a hot rectangle planted in (num0, num1) value space.
optrules::storage::Relation PlantedRelation(int64_t rows, uint64_t seed) {
  optrules::Rng rng(seed);
  optrules::storage::Relation relation(
      optrules::storage::Schema::Synthetic(2, 1));
  std::vector<double> numeric(2);
  std::vector<uint8_t> boolean(1);
  for (int64_t row = 0; row < rows; ++row) {
    numeric[0] = rng.NextUniform(0.0, 1e6);
    numeric[1] = rng.NextUniform(0.0, 1e6);
    const bool hot = 2.5e5 <= numeric[0] && numeric[0] <= 5e5 &&
                     2.5e5 <= numeric[1] && numeric[1] <= 5e5;
    boolean[0] = rng.NextBernoulli(hot ? 0.8 : 0.1) ? 1 : 0;
    relation.AppendRow(numeric, boolean);
  }
  return relation;
}

bool SameRegionRule(const optrules::region::RegionRule& a,
                    const optrules::region::RegionRule& b) {
  return a.found == b.found && a.x1 == b.x1 && a.x2 == b.x2 &&
         a.y1 == b.y1 && a.y2 == b.y2 &&
         a.support_count == b.support_count && a.hit_count == b.hit_count &&
         a.support == b.support && a.confidence == b.confidence;
}

bool SameMinedRegion(const optrules::rules::MinedRegion& a,
                     const optrules::rules::MinedRegion& b) {
  return a.found == b.found && a.nx == b.nx && a.ny == b.ny &&
         a.total_tuples == b.total_tuples &&
         SameRegionRule(a.confidence_rectangle, b.confidence_rectangle) &&
         SameRegionRule(a.support_rectangle, b.support_rectangle) &&
         a.xmonotone_gain.found == b.xmonotone_gain.found &&
         a.xmonotone_gain.x_begin == b.xmonotone_gain.x_begin &&
         a.xmonotone_gain.column_ranges == b.xmonotone_gain.column_ranges &&
         a.xmonotone_gain.support_count == b.xmonotone_gain.support_count &&
         a.xmonotone_gain.hit_count == b.xmonotone_gain.hit_count &&
         a.xmonotone_gain.gain == b.xmonotone_gain.gain;
}

}  // namespace

int main() {
  const int64_t scale = optrules::bench::BenchScale();
  optrules::bench::JsonReporter json("ext_two_dim");
  optrules::bench::PrintHeader(
      "Extension (Section 1.4): optimized 2-D regions on an n x n grid");
  std::printf("%6s %16s %16s %16s\n", "n", "conf rect (s)",
              "supp rect (s)", "x-monotone (s)");
  optrules::bench::PrintRule(58);

  bool ok = true;
  for (const int base_n : {16, 32, 64, 128}) {
    const int n = static_cast<int>(base_n * scale);
    const optrules::region::GridCounts grid =
        PlantedGrid(n, 900 + static_cast<uint64_t>(n));

    optrules::WallTimer t1;
    const optrules::region::RegionRule rect =
        optrules::region::OptimizedConfidenceRectangle(
            grid, grid.total_tuples() / 20);
    const double conf_seconds = t1.ElapsedSeconds();

    optrules::WallTimer t2;
    const optrules::region::RegionRule supp =
        optrules::region::OptimizedSupportRectangle(grid,
                                                    optrules::Ratio(1, 2));
    const double supp_seconds = t2.ElapsedSeconds();

    optrules::WallTimer t3;
    const optrules::region::XMonotoneRegion xmono =
        optrules::region::MaxGainXMonotoneRegion(grid,
                                                 optrules::Ratio(1, 2));
    const double xmono_seconds = t3.ElapsedSeconds();

    std::printf("%6d %16.4f %16.4f %16.4f\n", n, conf_seconds,
                supp_seconds, xmono_seconds);
    json.Add("conf_rect_seconds_n" + std::to_string(n), conf_seconds);
    json.Add("supp_rect_seconds_n" + std::to_string(n), supp_seconds);
    json.Add("xmonotone_seconds_n" + std::to_string(n), xmono_seconds);

    // Planted-block recovery: the confidence rectangle must land inside a
    // one-bucket margin of the planted block.
    const int lo = n / 4;
    const int hi = n / 2;
    if (!rect.found || rect.x1 < lo - 1 || rect.x2 > hi + 1 ||
        rect.y1 < lo - 1 || rect.y2 > hi + 1 || rect.confidence < 0.6) {
      ok = false;
    }
    if (!supp.found || supp.support_count <= 0) ok = false;
    // X-monotone gain dominates the best rectangle gain by construction.
    const double rect_gain = 2.0 * static_cast<double>(rect.hit_count) -
                             static_cast<double>(rect.support_count);
    if (!xmono.found || xmono.gain + 1e-9 < rect_gain) ok = false;
  }
  optrules::bench::PrintRule(58);
  std::printf("Shape check (planted block recovered; x-monotone gain >= "
              "rectangle gain): %s\n",
              ok ? "yes" : "NO");

  // ---- Part 2: grid counting through the engine's grid channel ----
  const int64_t rows = 200000 * scale;
  const optrules::storage::Relation relation = PlantedRelation(rows, 77);
  optrules::rules::MinerOptions options;
  options.num_buckets = 100;
  options.region_grid_buckets = 32;
  options.bucketizer = optrules::rules::Bucketizer::kGkSketch;

  optrules::bench::PrintHeader(
      "Grid channel: one-scan 2-D counting, in memory and out-of-core");
  std::printf("rows: %lld, grid %d x %d\n\n", static_cast<long long>(rows),
              options.region_grid_buckets, options.region_grid_buckets);

  // Reference miner: private row-at-a-time BuildGrid pass.
  optrules::rules::Miner legacy(&relation, options);
  optrules::WallTimer legacy_timer;
  const auto legacy_region =
      legacy.MineOptimizedRegion("num0", "num1", "bool0");
  const double legacy_seconds = legacy_timer.ElapsedSeconds();
  if (!legacy_region.ok()) return 1;

  // Engine over the in-memory relation: region grid + every 1-D pair from
  // ONE counting scan.
  optrules::rules::MiningEngine memory_engine(&relation, options);
  if (!memory_engine.RequestRegionPair("num0", "num1").ok()) return 1;
  optrules::WallTimer memory_timer;
  memory_engine.MineAllPairs();
  const auto memory_region =
      memory_engine.MineOptimizedRegion("num0", "num1", "bool0");
  const double memory_seconds = memory_timer.ElapsedSeconds();
  if (!memory_region.ok()) return 1;

  // Out-of-core: the same session shape over a PagedFile.
  const std::string path = "/tmp/optrules_ext_two_dim.optr";
  if (!optrules::storage::WriteRelationToFile(relation, path).ok()) return 1;
  double paged_seconds = 0.0;
  optrules::rules::MinedRegion paged_region;
  {
    auto source_or = optrules::storage::PagedFileBatchSource::Open(path, 4096);
    if (!source_or.ok()) return 1;
    optrules::rules::MiningEngine engine(source_or.value().get(),
                                         relation.schema(), options);
    if (!engine.RequestRegionPair("num0", "num1").ok()) return 1;
    optrules::WallTimer timer;
    engine.MineAllPairs();
    auto region_or = engine.MineOptimizedRegion("num0", "num1", "bool0");
    paged_seconds = timer.ElapsedSeconds();
    if (!region_or.ok() || engine.counting_scans() != 1) return 1;
    paged_region = region_or.value();
  }
  std::remove(path.c_str());

  const bool regions_match =
      SameMinedRegion(memory_region.value(), legacy_region.value()) &&
      SameMinedRegion(paged_region, legacy_region.value());
  if (!regions_match) ok = false;

  std::printf("%-44s %10.3f s\n", "legacy BuildGrid + region miners",
              legacy_seconds);
  std::printf("%-44s %10.3f s\n",
              "engine in-memory (all pairs + region, 1 scan)",
              memory_seconds);
  std::printf("%-44s %10.3f s\n", "engine PagedFile", paged_seconds);
  std::printf("engine == legacy on every path: %s\n",
              regions_match ? "yes" : "NO");
  json.Add("legacy_region_seconds", legacy_seconds);
  json.Add("engine_memory_seconds", memory_seconds);
  json.Add("engine_paged_buffered_seconds", paged_seconds);
  json.Add("rows", rows);
  json.Add("regions_match", regions_match);
  json.Add("shape_ok", ok);
  return ok ? 0 : 1;
}
