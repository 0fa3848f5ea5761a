#include "bucketing/equidepth_sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace optrules::bucketing {

int64_t SampleRowCount(const SamplerOptions& options, int64_t num_rows) {
  OPTRULES_CHECK(options.num_buckets >= 1);
  OPTRULES_CHECK(options.sample_per_bucket >= 1);
  OPTRULES_CHECK(num_rows >= 0);
  return std::min(options.sample_per_bucket * options.num_buckets, num_rows);
}

void DrawSampleRows(int64_t num_rows, Rng& rng, std::span<double> rows) {
  OPTRULES_CHECK(static_cast<int64_t>(rows.size()) <= num_rows);
  if (static_cast<int64_t>(rows.size()) == num_rows) {
    std::iota(rows.begin(), rows.end(), 0.0);
    return;
  }
  // The partial sums of S + 1 i.i.d. Exp(1) spacings, divided by their
  // total, are distributed as the order statistics of S i.i.d. U[0, 1)
  // draws; scaling by N and flooring turns them into sorted uniform row
  // draws. Every step is monotone, so the output is ascending as drawn.
  // 1 - NextDouble() lies in (0, 1], so every spacing is finite.
  double total = 0.0;
  for (double& row : rows) {
    total -= std::log1p(-rng.NextDouble());
    row = total;
  }
  total -= std::log1p(-rng.NextDouble());
  const double scale = static_cast<double>(num_rows) / total;
  const double last_row = static_cast<double>(num_rows - 1);
  for (double& row : rows) row = std::min(std::floor(row * scale), last_row);
}

BucketBoundaries BoundariesFromSample(std::vector<double>& sample,
                                      int num_buckets) {
  // NaN sample values belong to no bucket (the repo-wide NaN policy) and
  // violate std::sort's strict weak ordering, so drop them before the
  // quantile step.
  sample.erase(std::remove_if(sample.begin(), sample.end(),
                              [](double v) { return std::isnan(v); }),
               sample.end());
  std::sort(sample.begin(), sample.end());
  return BucketBoundaries::FromSortedValues(sample, num_buckets);
}

BucketBoundaries BuildEquiDepthBoundaries(std::span<const double> values,
                                          const SamplerOptions& options,
                                          Rng& rng) {
  const auto num_rows = static_cast<int64_t>(values.size());
  std::vector<double> sample(
      static_cast<size_t>(SampleRowCount(options, num_rows)));
  DrawSampleRows(num_rows, rng, sample);
  for (double& row : sample) row = values[static_cast<size_t>(row)];
  return BoundariesFromSample(sample, options.num_buckets);
}

}  // namespace optrules::bucketing
