// Greenwald-Khanna epsilon-approximate quantile summary.
//
// A deterministic, single-pass alternative to the paper's randomized
// Algorithm 3.1 for building almost equi-depth buckets: the sketch
// maintains O((1/eps) * log(eps*N)) tuples and answers any quantile with
// rank error at most eps*N, so cut points taken at the 1/M quantiles give
// buckets whose depth deviates by at most eps*N from N/M -- without
// sampling variance. `bench/ablation_sketch` compares the two designs.
//
// Buffered inserts. The textbook algorithm inserts each value into the
// sorted summary on arrival (an O(|summary|) vector insert) and compresses
// every P = floor(1/(2*eps)) inserts. This implementation computes each
// value's tuple on arrival instead -- g = 1, and delta depends only on the
// count so far and on whether the value is below the running minimum or
// at/above the running maximum (the summary's first and last tuples,
// which compression never removes) -- and appends it to a buffer of at
// most P tuples. At each compress point the buffer is stable-sorted by
// value and merged into the summary, summary tuples first on ties and
// buffered tuples in arrival order: exactly where the one-at-a-time
// upper-bound insertions would have put them, since nothing compresses in
// between. Summaries, counts and every quantile answer are therefore
// bit-identical to the textbook algorithm's (tests/reference/gk_reference.h
// is that algorithm, kept as the test oracle), while Add() costs
// O(log P + |summary|/P) amortized -- its share of one sort, one linear
// merge and one compress -- instead of an O(|summary|) memmove per value.
// Memory: the summary plus at most P buffered tuples.
//
// Reference: M. Greenwald and S. Khanna, "Space-efficient online
// computation of quantile summaries", SIGMOD 2001 (post-dates the paper;
// implemented here as the natural 'future work' upgrade).

#ifndef OPTRULES_BUCKETING_GK_SKETCH_H_
#define OPTRULES_BUCKETING_GK_SKETCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bucketing/boundaries.h"

namespace optrules::bucketing {

/// Online epsilon-approximate quantile summary over doubles.
class GkQuantileSketch {
 public:
  struct Tuple {
    double value;
    int64_t g;      ///< rmin(this) - rmin(previous)
    int64_t delta;  ///< rmax(this) - rmin(this)
  };

  /// epsilon in (0, 0.5): maximum rank error as a fraction of the count.
  explicit GkQuantileSketch(double epsilon);

  /// Inserts one value. NaN is ignored.
  void Add(double value);

  /// Number of values inserted.
  int64_t count() const { return count_; }

  /// Number of summary tuples currently held, buffered ones included (the
  /// space bound).
  int summary_size() const {
    return static_cast<int>(summary_.size() + pending_.size());
  }

  /// The summary in value order with the buffered tuples merged in: the
  /// tuples the one-at-a-time algorithm would hold now.
  std::vector<Tuple> Summary() const;

  /// Value whose rank is within epsilon*count of phi*count; phi in [0, 1].
  /// Requires count() > 0.
  double Quantile(double phi) const;

  /// Quantile(phi) for every phi in `phis`, from one pass over the
  /// summary plus a binary search per phi. Requires count() > 0.
  std::vector<double> Quantiles(std::span<const double> phis) const;

 private:
  void Compress();

  double epsilon_;
  int64_t compress_period_;  ///< P = floor(1/(2*epsilon))
  int64_t count_ = 0;
  double min_ = 0.0;  ///< value of the summary's first tuple (count_ > 0)
  double max_ = 0.0;  ///< value of the summary's last tuple (count_ > 0)
  std::vector<Tuple> summary_;  // sorted by value
  std::vector<Tuple> pending_;  // arrival order, fewer than P tuples
};

/// Cut points at the 1/M..(M-1)/M quantiles of a filled sketch; the
/// shared tail of every GK bucketizer path (column or batch scan).
/// The sketch must have count() > 0.
BucketBoundaries BoundariesFromGkSketch(const GkQuantileSketch& sketch,
                                        int num_buckets);

/// Equi-depth boundaries from one pass of a GK sketch over a column.
/// Rank error of every cut point is at most epsilon*N.
BucketBoundaries BuildEquiDepthBoundariesGk(std::span<const double> values,
                                            int num_buckets,
                                            double epsilon);

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_GK_SKETCH_H_
