// Ablation for the paper's footnote 3: equi-depth bucketing minimizes the
// worst-case approximation error among bucketings with M buckets.
//
// A rule is planted in a heavily skewed (lognormal) attribute; the
// optimized-confidence rule is mined under equi-depth vs equi-width
// boundaries for several M and compared against a fine-grained reference
// optimum. Equi-width collapses most of the mass into a few buckets on
// skewed data, so its mined confidence falls far from the reference.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "bucketing/equiwidth.h"
#include "rules/optimized_confidence.h"
#include "rules/rule.h"

namespace {

optrules::rules::RangeRule MineWith(
    const std::vector<double>& values, const std::vector<uint8_t>& target,
    const optrules::bucketing::BucketBoundaries& boundaries,
    double min_support) {
  // One-channel counting plan over the whole column as a single batch.
  optrules::storage::ColumnarBatch batch;
  batch.Reset(1, 1);
  batch.SetRows(static_cast<int64_t>(values.size()));
  batch.SetNumeric(0, values);
  batch.SetBoolean(0, target);
  optrules::bucketing::MultiCountPlan plan({&boundaries}, 1);
  plan.Accumulate(batch);
  optrules::bucketing::BucketCounts counts = plan.TakeCounts(0);
  optrules::bucketing::CompactEmptyBuckets(&counts);
  if (counts.u.empty()) return {};
  return optrules::rules::OptimizedConfidenceRule(
      counts.u, counts.v[0], counts.total_tuples,
      optrules::rules::MinSupportCount(counts.total_tuples, min_support));
}

}  // namespace

int main() {
  const int64_t rows = 200000 * optrules::bench::BenchScale();
  const double kMinSupport = 0.10;

  // Skewed attribute: lognormal. Planted band = a quantile slice
  // [q20, q40] with high confidence.
  optrules::Rng rng(555);
  std::vector<double> values(static_cast<size_t>(rows));
  for (double& v : values) v = std::exp(2.0 * rng.NextGaussian());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double lo = sorted[static_cast<size_t>(0.2 * rows)];
  const double hi = sorted[static_cast<size_t>(0.4 * rows)];
  std::vector<uint8_t> target(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const bool inside = lo <= values[i] && values[i] <= hi;
    target[i] = rng.NextBernoulli(inside ? 0.8 : 0.05) ? 1 : 0;
  }

  // Fine-grained reference optimum (exact equi-depth, many buckets).
  const optrules::rules::RangeRule reference = MineWith(
      values, target,
      optrules::bucketing::BucketBoundaries::FromSortedValues(sorted, 20000),
      kMinSupport);
  OPTRULES_CHECK(reference.found);

  optrules::bench::PrintHeader(
      "Ablation (footnote 3): equi-depth vs equi-width bucketing on "
      "skewed data");
  std::printf("reference optimum: support %.2f%%, confidence %.2f%%\n",
              reference.support * 100.0, reference.confidence * 100.0);
  std::printf("%8s | %22s | %22s\n", "buckets",
              "equi-depth supp/conf (%)", "equi-width supp/conf (%)");
  optrules::bench::PrintRule(60);

  bool depth_dominates = true;
  for (const int m : {10, 50, 100, 500, 1000}) {
    // Equi-depth goes through the shared bucketizer dispatch (equi-width
    // is not an equi-depth strategy, so it stays a direct call).
    optrules::bucketing::BoundaryPlan plan;
    plan.num_buckets = m;
    plan.seed = 556 + static_cast<uint64_t>(m);
    const optrules::rules::RangeRule depth = MineWith(
        values, target, optrules::bucketing::BuildBoundaries(values, plan),
        kMinSupport);
    const optrules::rules::RangeRule width = MineWith(
        values, target,
        optrules::bucketing::EquiWidthBoundaries(values, m), kMinSupport);

    std::printf("%8d | %9.2f / %9.2f | ", m,
                depth.found ? depth.support * 100.0 : 0.0,
                depth.found ? depth.confidence * 100.0 : 0.0);
    if (width.found) {
      std::printf("%9.2f / %9.2f\n", width.support * 100.0,
                  width.confidence * 100.0);
    } else {
      std::printf("%22s\n", "(none found)");
    }
    const double depth_conf = depth.found ? depth.confidence : 0.0;
    const double width_conf = width.found ? width.confidence : 0.0;
    if (m <= 100 && depth_conf < width_conf) depth_dominates = false;
  }
  optrules::bench::PrintRule(60);
  std::printf("Equi-depth confidence >= equi-width at coarse M: %s\n",
              depth_dominates ? "yes" : "NO");
  return depth_dominates ? 0 : 1;
}
