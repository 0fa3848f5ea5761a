#include "bucketing/gk_sketch.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace optrules::bucketing {

namespace {

using Tuple = GkQuantileSketch::Tuple;

bool ValueLess(const Tuple& a, const Tuple& b) { return a.value < b.value; }

// Merges the arrival-ordered `pending` tuples into the value-sorted
// `summary` where one upper-bound insertion per tuple, in arrival order,
// would have put them: after every summary tuple of equal value (std::merge
// takes the first range first on ties) and after earlier arrivals of equal
// value (stable sort). Empties `pending`.
void MergePending(std::vector<Tuple>* summary, std::vector<Tuple>* pending) {
  std::stable_sort(pending->begin(), pending->end(), ValueLess);
  std::vector<Tuple> merged;
  merged.reserve(summary->size() + pending->size());
  std::merge(summary->begin(), summary->end(), pending->begin(),
             pending->end(), std::back_inserter(merged), ValueLess);
  *summary = std::move(merged);
  pending->clear();
}

}  // namespace

GkQuantileSketch::GkQuantileSketch(double epsilon)
    : epsilon_(epsilon),
      compress_period_(static_cast<int64_t>(1.0 / (2.0 * epsilon))) {
  OPTRULES_CHECK(0.0 < epsilon && epsilon < 0.5);
}

void GkQuantileSketch::Add(double value) {
  // NaN values belong to no bucket (the repo-wide NaN policy); letting
  // one into the summary would corrupt the rank invariants because NaN
  // compares false against everything.
  if (std::isnan(value)) return;
  Tuple tuple{value, 1, 0};
  // New extreme values have exact rank; interior insertions inherit the
  // full allowed uncertainty. A value lands first iff it is below the
  // current first value, and last iff it is not below the last value.
  const bool first = count_ == 0 || value < min_;
  const bool last = count_ == 0 || !(value < max_);
  if (!first && !last) {
    tuple.delta = std::max<int64_t>(
        static_cast<int64_t>(std::floor(2.0 * epsilon_ *
                                        static_cast<double>(count_))) -
            1,
        0);
  }
  if (first) min_ = value;
  if (last) max_ = value;
  pending_.push_back(tuple);
  ++count_;
  // Merge and compress every 1/(2*eps) insertions (the GK schedule).
  if (static_cast<int64_t>(pending_.size()) >= compress_period_) {
    MergePending(&summary_, &pending_);
    Compress();
  }
}

void GkQuantileSketch::Compress() {
  if (summary_.size() < 3) return;
  const auto threshold = static_cast<int64_t>(
      std::floor(2.0 * epsilon_ * static_cast<double>(count_)));
  // Merge tuple i into i+1 when the combined uncertainty stays within the
  // budget. Never merge the first or last tuple (they pin the extremes).
  std::vector<Tuple> compressed;
  compressed.reserve(summary_.size());
  compressed.push_back(summary_.front());
  int64_t pending_g = 0;
  for (size_t i = 1; i + 1 < summary_.size(); ++i) {
    const Tuple& current = summary_[i];
    const Tuple& next = summary_[i + 1];
    if (pending_g + current.g + next.g + next.delta < threshold) {
      // current is absorbed into next.
      pending_g += current.g;
    } else {
      Tuple kept = current;
      kept.g += pending_g;
      pending_g = 0;
      compressed.push_back(kept);
    }
  }
  Tuple last = summary_.back();
  last.g += pending_g;
  compressed.push_back(last);
  summary_ = std::move(compressed);
}

std::vector<Tuple> GkQuantileSketch::Summary() const {
  std::vector<Tuple> summary = summary_;
  std::vector<Tuple> pending = pending_;
  MergePending(&summary, &pending);
  return summary;
}

double GkQuantileSketch::Quantile(double phi) const {
  return Quantiles(std::span<const double>(&phi, 1)).front();
}

std::vector<double> GkQuantileSketch::Quantiles(
    std::span<const double> phis) const {
  OPTRULES_CHECK(count_ > 0);
  std::vector<Tuple> merged;
  std::span<const Tuple> tuples = summary_;
  if (!pending_.empty()) {
    merged = Summary();
    tuples = merged;
  }
  std::vector<int64_t> rmin(tuples.size());
  int64_t running = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    running += tuples[i].g;
    rmin[i] = running;
  }
  // Target rank in 1..n; the GK invariant (g_i + delta_i <= 2*eps*n)
  // guarantees some tuple has both rmin and rmax within eps*n of it. The
  // answer is the FIRST such tuple. rmin only grows, so the tuples whose
  // rmin is close enough form a suffix: binary-search its start, then
  // scan on for the first whose rmax is close enough too.
  const double n = static_cast<double>(count_);
  const double slack = epsilon_ * n;
  std::vector<double> answers;
  answers.reserve(phis.size());
  for (const double phi : phis) {
    OPTRULES_CHECK(0.0 <= phi && phi <= 1.0);
    const double target = std::clamp(std::ceil(phi * n), 1.0, n);
    size_t i = static_cast<size_t>(
        std::partition_point(rmin.begin(), rmin.end(),
                             [&](int64_t r) {
                               return target - static_cast<double>(r) > slack;
                             }) -
        rmin.begin());
    while (i < tuples.size() &&
           static_cast<double>(rmin[i] + tuples[i].delta) - target > slack) {
      ++i;
    }
    answers.push_back(i < tuples.size() ? tuples[i].value
                                        : tuples.back().value);
  }
  return answers;
}

BucketBoundaries BoundariesFromGkSketch(const GkQuantileSketch& sketch,
                                        int num_buckets) {
  OPTRULES_CHECK(num_buckets >= 1);
  OPTRULES_CHECK(sketch.count() > 0);
  std::vector<double> phis;
  phis.reserve(static_cast<size_t>(num_buckets) - 1);
  for (int i = 1; i < num_buckets; ++i) {
    phis.push_back(static_cast<double>(i) /
                   static_cast<double>(num_buckets));
  }
  std::vector<double> cuts = sketch.Quantiles(phis);
  std::sort(cuts.begin(), cuts.end());
  return BucketBoundaries::FromCutPoints(std::move(cuts));
}

BucketBoundaries BuildEquiDepthBoundariesGk(std::span<const double> values,
                                            int num_buckets,
                                            double epsilon) {
  OPTRULES_CHECK(num_buckets >= 1);
  GkQuantileSketch sketch(epsilon);
  for (const double value : values) sketch.Add(value);
  // Guard on the sketch count, not values.empty(): Add() drops NaN (the
  // repo-wide NaN policy), so a non-empty all-NaN column also leaves the
  // sketch empty and gets the single all-covering bucket.
  if (sketch.count() == 0) return BucketBoundaries::FromCutPoints({});
  return BoundariesFromGkSketch(sketch, num_buckets);
}

}  // namespace optrules::bucketing
