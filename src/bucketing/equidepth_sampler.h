// Algorithm 3.1: almost equi-depth buckets via random sampling.
//
// 1. Draw an S-sized random sample (S = sample_per_bucket * M; the paper's
//    Figure 1 analysis picks 40 per bucket).
// 2. Sort the sample.
// 3. Take every (S/M)-th sample value as a cut point.
// The subsequent counting scan (step 4) lives in bucketing/counting.h.
//
// The sample is defined by row indices, not by a pass over the values:
// because the row count N is known up front, DrawSampleRows draws the S
// with-replacement rows already in ascending order, and the values at
// those rows are then read by random access (in memory) or gathered by
// one sequential scan (bucketing::GatherSampleValues). Both routes pick the
// same values, so every table layout plans the same boundaries.

#ifndef OPTRULES_BUCKETING_EQUIDEPTH_SAMPLER_H_
#define OPTRULES_BUCKETING_EQUIDEPTH_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bucketing/boundaries.h"
#include "common/rng.h"

namespace optrules::bucketing {

/// Sampling parameters for Algorithm 3.1.
struct SamplerOptions {
  int num_buckets = 1000;
  /// S/M: samples drawn per bucket. The paper uses 40 (Figure 1: the
  /// probability of a 50% depth deviation drops below 0.3 there).
  int64_t sample_per_bucket = 40;
};

/// Size of the sample over a table of `num_rows` rows: min(S, N). A
/// sample of S >= N rows takes every row once instead, so sampling memory
/// is bounded by the table whatever the options ask for.
int64_t SampleRowCount(const SamplerOptions& options, int64_t num_rows);

/// Fills `rows` with rows.size() <= num_rows ascending row indices into a
/// table of `num_rows` rows, stored as exact integers. When rows.size() ==
/// num_rows that is every row; otherwise it is a uniform with-replacement
/// sample drawn directly in sorted order in O(rows.size()) time and no
/// extra memory (normalized partial sums of exponential spacings; Bentley
/// & Saxe, "Generating sorted lists of random numbers", ACM TOMS 1980).
void DrawSampleRows(int64_t num_rows, Rng& rng, std::span<double> rows);

/// Algorithm 3.1 steps 2-3 over gathered sample values: drops NaN values
/// (they belong to no bucket), sorts, and derives `num_buckets` almost
/// equi-depth boundaries. An empty sample yields the single all-covering
/// bucket. Consumes `sample`.
BucketBoundaries BoundariesFromSample(std::vector<double>& sample,
                                      int num_buckets);

/// Builds approximate equi-depth boundaries from an in-memory column:
/// DrawSampleRows + random access + BoundariesFromSample, exactly as
/// analyzed in Section 3.2.
BucketBoundaries BuildEquiDepthBoundaries(std::span<const double> values,
                                          const SamplerOptions& options,
                                          Rng& rng);

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_EQUIDEPTH_SAMPLER_H_
