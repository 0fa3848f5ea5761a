// Differential test: the buffered GkQuantileSketch against the textbook
// one-tuple-at-a-time reference (tests/reference/gk_reference.h). The two
// must agree bit for bit -- summary tuples (value bits, g, delta), count,
// summary_size() and every Quantile(k/1000) -- at every checkpoint,
// including mid-stream ones taken while buffered values are pending and
// followed by more Add()s. Inputs cover the shapes that stress tie order
// and the extremes: uniform, heavy ties, sorted, reverse-sorted, NaN-laden,
// alternating +-0.0 and +-inf mixed with lognormal values, at counts
// around the compress period P = floor(1/(2*eps)). Seeds honor
// OPTRULES_FUZZ_SEED (tests/fuzz_seed.h).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bucketing/gk_sketch.h"
#include "common/rng.h"
#include "fuzz_seed.h"
#include "reference/gk_reference.h"

namespace optrules::bucketing {
namespace {

using testfuzz::FuzzSeed;
using testref::ReferenceGkSketch;

enum class Shape {
  kUniform,
  kHeavyTies,
  kSorted,
  kReverseSorted,
  kNanLaden,
  kSignedZeros,
  kInfinitiesAndLogNormal,
};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kUniform: return "uniform";
    case Shape::kHeavyTies: return "heavy_ties";
    case Shape::kSorted: return "sorted";
    case Shape::kReverseSorted: return "reverse_sorted";
    case Shape::kNanLaden: return "nan_laden";
    case Shape::kSignedZeros: return "signed_zeros";
    case Shape::kInfinitiesAndLogNormal: return "inf_lognormal";
  }
  return "?";
}

std::vector<double> MakeValues(Shape shape, int64_t n, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double v = 0.0;
    switch (shape) {
      case Shape::kUniform:
        v = rng.NextUniform(0.0, 1e6);
        break;
      case Shape::kHeavyTies:
        v = static_cast<double>(rng.NextBounded(8));
        break;
      case Shape::kSorted:
        v = static_cast<double>(i);
        break;
      case Shape::kReverseSorted:
        v = static_cast<double>(n - i);
        break;
      case Shape::kNanLaden:
        v = rng.NextBounded(3) == 0 ? std::nan("") : rng.NextUniform(-5, 5);
        break;
      case Shape::kSignedZeros:
        // Equal under <, distinct in bits: tie order decides which zero
        // each summary tuple holds. Every 7th value breaks the run.
        v = i % 7 == 6 ? rng.NextUniform(-1.0, 1.0) : (i % 2 ? -0.0 : 0.0);
        break;
      case Shape::kInfinitiesAndLogNormal: {
        const uint64_t pick = rng.NextBounded(20);
        v = pick == 0   ? kInf
            : pick == 1 ? -kInf
                        : std::exp(2.0 * rng.NextGaussian());
        break;
      }
    }
    values.push_back(v);
  }
  return values;
}

// Compares every observable of the two sketches at one checkpoint: the
// summary, count, summary_size(), Quantiles() at every k/1000 and the
// boundaries at three bucket counts. Single Quantile() calls cover every
// k/1000 when `every_single_quantile`, else every k/100: with values
// pending, each call merges a copy of the buffer, so checking all 1001
// one by one at every mid-stream checkpoint would dominate the suite.
void ExpectIdentical(const GkQuantileSketch& sketch,
                     const ReferenceGkSketch& reference,
                     bool every_single_quantile, const std::string& where) {
  ASSERT_EQ(sketch.count(), reference.count()) << where;
  ASSERT_EQ(sketch.summary_size(), reference.summary_size()) << where;
  const std::vector<GkQuantileSketch::Tuple> tuples = sketch.Summary();
  const std::vector<GkQuantileSketch::Tuple>& expected = reference.summary();
  ASSERT_EQ(tuples.size(), expected.size()) << where;
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(tuples[i].value),
              std::bit_cast<uint64_t>(expected[i].value))
        << where << " tuple " << i;
    ASSERT_EQ(tuples[i].g, expected[i].g) << where << " tuple " << i;
    ASSERT_EQ(tuples[i].delta, expected[i].delta) << where << " tuple " << i;
  }
  if (reference.count() == 0) return;
  std::vector<double> phis;
  std::vector<double> expected_answers;
  for (int k = 0; k <= 1000; ++k) {
    phis.push_back(k / 1000.0);
    expected_answers.push_back(reference.Quantile(phis.back()));
  }
  const std::vector<double> batched = sketch.Quantiles(phis);
  ASSERT_EQ(batched.size(), phis.size());
  for (size_t k = 0; k < phis.size(); ++k) {
    const uint64_t want = std::bit_cast<uint64_t>(expected_answers[k]);
    ASSERT_EQ(std::bit_cast<uint64_t>(batched[k]), want)
        << where << " batched phi " << phis[k];
    if (!every_single_quantile && k % 10 != 0) continue;
    ASSERT_EQ(std::bit_cast<uint64_t>(sketch.Quantile(phis[k])), want)
        << where << " phi " << phis[k];
  }
  // The cut points BoundariesFromGkSketch takes for M buckets are the
  // reference's i/M quantiles, sorted (for M = 1000 those are the k/1000
  // answers above).
  for (const int m : {1, 7, 1000}) {
    std::vector<double> cuts;
    for (int i = 1; i < m; ++i) {
      cuts.push_back(m == 1000 ? expected_answers[static_cast<size_t>(i)]
                               : reference.Quantile(static_cast<double>(i) /
                                                    static_cast<double>(m)));
    }
    std::sort(cuts.begin(), cuts.end());
    const std::vector<double> got =
        BoundariesFromGkSketch(sketch, m).cut_points();
    const std::vector<double> want =
        BucketBoundaries::FromCutPoints(std::move(cuts)).cut_points();
    ASSERT_EQ(got.size(), want.size()) << where << " M=" << m;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                std::bit_cast<uint64_t>(want[i]))
          << where << " M=" << m << " cut " << i;
    }
  }
}

class GkSketchOracleTest : public testing::TestWithParam<double> {};

TEST_P(GkSketchOracleTest, BitIdenticalToOneAtATimeReference) {
  const uint64_t seed = FuzzSeed(0x6b5a17e5);
  const Shape shapes[] = {Shape::kUniform,         Shape::kHeavyTies,
                          Shape::kSorted,          Shape::kReverseSorted,
                          Shape::kNanLaden,        Shape::kSignedZeros,
                          Shape::kInfinitiesAndLogNormal};
  const double epsilon = GetParam();
  {
    // The compress period, computed as the sketch computes it.
    const auto period = static_cast<int64_t>(1.0 / (2.0 * epsilon));
    const int64_t large = std::max<int64_t>(12 * period + 7, 20011);
    for (const int64_t n :
         {int64_t{0}, int64_t{1}, period - 1, period, period + 1, large}) {
      for (const Shape shape : shapes) {
        Rng rng(seed ^ (static_cast<uint64_t>(n) * 0x9e3779b97f4a7c15ULL) ^
                static_cast<uint64_t>(period) ^
                (static_cast<uint64_t>(shape) << 56));
        const std::vector<double> values = MakeValues(shape, n, rng);
        // Mid-stream checkpoints sit off the compress schedule, so they
        // see pending values, and more Add()s follow each of them. Short
        // streams are checked after every Add().
        std::set<int64_t> checkpoints = {n / 3, n / 2 + 1, n};
        if (n <= 16) {
          for (int64_t i = 0; i <= n; ++i) checkpoints.insert(i);
        }
        GkQuantileSketch sketch(epsilon);
        ReferenceGkSketch reference(epsilon);
        int64_t added = 0;
        for (const int64_t checkpoint : checkpoints) {
          if (checkpoint > n) continue;
          for (; added < checkpoint; ++added) {
            sketch.Add(values[static_cast<size_t>(added)]);
            reference.Add(values[static_cast<size_t>(added)]);
          }
          ExpectIdentical(sketch, reference, /*every_single_quantile=*/
                          checkpoint == n,
                          std::string(ShapeName(shape)) +
                              " eps=" + std::to_string(epsilon) +
                              " n=" + std::to_string(n) + " after " +
                              std::to_string(added));
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// 1/4000 is the engine's auto epsilon at M = 1000 (1 / (4 * M)).
INSTANTIATE_TEST_SUITE_P(Epsilons, GkSketchOracleTest,
                         testing::Values(0.1, 0.01, 1.0 / 128.0,
                                         1.0 / 4000.0));

}  // namespace
}  // namespace optrules::bucketing
