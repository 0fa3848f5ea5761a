#include "bucketing/equidepth_sampler.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace optrules::bucketing {

namespace {

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

}  // namespace

BucketBoundaries BuildEquiDepthBoundaries(std::span<const double> values,
                                          const SamplerOptions& options,
                                          Rng& rng) {
  OPTRULES_CHECK(options.num_buckets >= 1);
  OPTRULES_CHECK(options.sample_per_bucket >= 1);
  if (values.empty()) {
    return BucketBoundaries::FromCutPoints({});
  }
  const int64_t sample_size =
      options.sample_per_bucket * options.num_buckets;
  std::vector<double> sample;
  sample.reserve(static_cast<size_t>(sample_size));
  for (int64_t i = 0; i < sample_size; ++i) {
    const uint64_t index = rng.NextBounded(values.size());
    sample.push_back(values[static_cast<size_t>(index)]);
  }
  return BoundariesFromSample(sample, options.num_buckets);
}

ReservoirSampler::ReservoirSampler(int64_t capacity) : capacity_(capacity) {
  OPTRULES_CHECK(capacity >= 1);
  sample_.reserve(static_cast<size_t>(capacity));
}

void ReservoirSampler::Add(double value, Rng& rng) {
  // Vitter's algorithm R: one sequential pass, bounded memory, uniform
  // without replacement.
  ++seen_;
  if (static_cast<int64_t>(sample_.size()) < capacity_) {
    sample_.push_back(value);
    return;
  }
  const uint64_t j = rng.NextBounded(static_cast<uint64_t>(seen_));
  if (j < static_cast<uint64_t>(capacity_)) {
    sample_[static_cast<size_t>(j)] = value;
  }
}

BucketBoundaries ReservoirSampler::TakeBoundaries(int num_buckets) {
  if (sample_.empty()) return BucketBoundaries::FromCutPoints({});
  return BoundariesFromSample(sample_, num_buckets);
}

}  // namespace optrules::bucketing
