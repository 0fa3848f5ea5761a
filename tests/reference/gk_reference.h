// Test-only reference: the textbook one-tuple-at-a-time Greenwald-Khanna
// sketch (SIGMOD 2001) that bucketing::GkQuantileSketch replaced. Add()
// inserts each value into the sorted summary on arrival (upper-bound
// position, O(|summary|) vector insert) and compresses every
// floor(1/(2*eps)) inserts; Quantile() scans the summary linearly. The
// buffered production sketch must match it bit for bit: summary tuples,
// count and every quantile answer.

#ifndef OPTRULES_TESTS_REFERENCE_GK_REFERENCE_H_
#define OPTRULES_TESTS_REFERENCE_GK_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bucketing/gk_sketch.h"
#include "common/logging.h"

namespace optrules::testref {

class ReferenceGkSketch {
 public:
  using Tuple = bucketing::GkQuantileSketch::Tuple;

  explicit ReferenceGkSketch(double epsilon) : epsilon_(epsilon) {
    OPTRULES_CHECK(0.0 < epsilon && epsilon < 0.5);
  }

  void Add(double value) {
    if (std::isnan(value)) return;
    auto it = std::upper_bound(
        summary_.begin(), summary_.end(), value,
        [](double v, const Tuple& t) { return v < t.value; });
    Tuple tuple;
    tuple.value = value;
    tuple.g = 1;
    if (it == summary_.begin() || it == summary_.end()) {
      tuple.delta = 0;
    } else {
      tuple.delta = static_cast<int64_t>(
                        std::floor(2.0 * epsilon_ *
                                   static_cast<double>(count_))) -
                    1;
      if (tuple.delta < 0) tuple.delta = 0;
    }
    summary_.insert(it, tuple);
    ++count_;
    if (++inserts_since_compress_ >=
        static_cast<int64_t>(1.0 / (2.0 * epsilon_))) {
      Compress();
      inserts_since_compress_ = 0;
    }
  }

  int64_t count() const { return count_; }
  int summary_size() const { return static_cast<int>(summary_.size()); }
  const std::vector<Tuple>& summary() const { return summary_; }

  double Quantile(double phi) const {
    OPTRULES_CHECK(count_ > 0);
    OPTRULES_CHECK(0.0 <= phi && phi <= 1.0);
    const double n = static_cast<double>(count_);
    const double target = std::clamp(std::ceil(phi * n), 1.0, n);
    const double slack = epsilon_ * n;
    int64_t rmin = 0;
    for (const Tuple& tuple : summary_) {
      rmin += tuple.g;
      const int64_t rmax = rmin + tuple.delta;
      if (target - static_cast<double>(rmin) <= slack &&
          static_cast<double>(rmax) - target <= slack) {
        return tuple.value;
      }
    }
    return summary_.back().value;
  }

 private:
  void Compress() {
    if (summary_.size() < 3) return;
    const auto threshold = static_cast<int64_t>(
        std::floor(2.0 * epsilon_ * static_cast<double>(count_)));
    std::vector<Tuple> compressed;
    compressed.reserve(summary_.size());
    compressed.push_back(summary_.front());
    int64_t pending_g = 0;
    for (size_t i = 1; i + 1 < summary_.size(); ++i) {
      const Tuple& current = summary_[i];
      const Tuple& next = summary_[i + 1];
      if (pending_g + current.g + next.g + next.delta < threshold) {
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

  double epsilon_;
  int64_t count_ = 0;
  int64_t inserts_since_compress_ = 0;
  std::vector<Tuple> summary_;  // sorted by value
};

}  // namespace optrules::testref

#endif  // OPTRULES_TESTS_REFERENCE_GK_REFERENCE_H_
