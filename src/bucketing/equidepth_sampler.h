// Algorithm 3.1: almost equi-depth buckets via random sampling.
//
// 1. Draw an S-sized random sample (S = sample_per_bucket * M; the paper's
//    Figure 1 analysis picks 40 per bucket).
// 2. Sort the sample.
// 3. Take every (S/M)-th sample value as a cut point.
// The subsequent counting scan (step 4) lives in bucketing/counting.h.
//
// Substitution note: for tables scanned in batches (disk-resident ones
// included) the sample is drawn by single-pass reservoir sampling instead
// of with-replacement random access, which avoids random I/O; the
// resulting without-replacement sample concentrates at least as tightly
// around the quantiles as the with-replacement sample the paper analyzes.

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

/// Builds approximate equi-depth boundaries from an in-memory column using
/// with-replacement sampling, exactly as analyzed in Section 3.2.
BucketBoundaries BuildEquiDepthBoundaries(std::span<const double> values,
                                          const SamplerOptions& options,
                                          Rng& rng);

/// Bounded uniform sample maintained by Vitter's algorithm R: the
/// single-pass building block behind the MiningEngine's
/// all-attributes-at-once planning scan.
class ReservoirSampler {
 public:
  /// `capacity` is the sample size S (> 0).
  explicit ReservoirSampler(int64_t capacity);

  /// Offers one value; with `seen` values offered so far, each is
  /// retained with probability S/seen.
  void Add(double value, Rng& rng);

  bool empty() const { return sample_.empty(); }

  /// Sorts the sample and derives `num_buckets` almost equi-depth
  /// boundaries (Algorithm 3.1 steps 2-3); a never-fed sampler yields the
  /// single all-covering bucket. Consumes the sample.
  BucketBoundaries TakeBoundaries(int num_buckets);

 private:
  int64_t capacity_;
  int64_t seen_ = 0;
  std::vector<double> sample_;
};

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_EQUIDEPTH_SAMPLER_H_
