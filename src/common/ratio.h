// Exact rational thresholds.
//
// Confidence and support thresholds enter the optimized-rule algorithms in
// comparisons like `sum(v) / sum(u) >= theta`. Representing theta as an
// int64 fraction lets every comparison be carried out in 128-bit integer
// arithmetic, making the core algorithms exact: a rule is accepted or
// rejected by integer counts alone, never by floating-point rounding.

#ifndef OPTRULES_COMMON_RATIO_H_
#define OPTRULES_COMMON_RATIO_H_

#include <cstdint>
#include <numeric>
#include <string>

#include "common/logging.h"

namespace optrules {

/// A non-negative rational number `num/den` with `den > 0`.
///
/// Ratios are normalized (gcd-reduced) on construction. Comparison against
/// integer-valued fractions is exact via 128-bit cross multiplication.
class Ratio {
 public:
  /// Zero.
  constexpr Ratio() : num_(0), den_(1) {}

  /// Constructs `num/den`; requires den > 0 and num >= 0.
  Ratio(int64_t num, int64_t den) : num_(num), den_(den) {
    OPTRULES_CHECK(den > 0);
    OPTRULES_CHECK(num >= 0);
    const int64_t g = std::gcd(num_, den_);
    if (g > 1) {
      num_ /= g;
      den_ /= g;
    }
  }

  /// Converts a double in [0, 2^30] to the nearest Ratio with denominator
  /// 2^30. Exact for the common case of thresholds like 0.5 or 0.05 given
  /// with <= 30 significant bits; callers needing full control should pass
  /// an explicit fraction.
  static Ratio FromDouble(double value) {
    OPTRULES_CHECK(value >= 0.0);
    constexpr int64_t kDen = int64_t{1} << 30;
    OPTRULES_CHECK(value <= static_cast<double>(kDen));
    const auto num =
        static_cast<int64_t>(value * static_cast<double>(kDen) + 0.5);
    return Ratio(num, kDen);
  }

  int64_t num() const { return num_; }
  int64_t den() const { return den_; }

  /// The value as a double (inexact for large terms).
  double ToDouble() const {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

  /// "num/den".
  std::string ToString() const {
    return std::to_string(num_) + "/" + std::to_string(den_);
  }

  /// Exact test of `a/b >= this` for b > 0; a may be any int64.
  bool LessOrEqualTo(int64_t a, int64_t b) const {
    OPTRULES_DCHECK(b > 0);
    return static_cast<__int128>(a) * den_ >=
           static_cast<__int128>(num_) * b;
  }

  /// Exact test of `a/b < this` for b > 0.
  bool GreaterThan(int64_t a, int64_t b) const { return !LessOrEqualTo(a, b); }

  friend bool operator==(const Ratio& x, const Ratio& y) {
    return x.num_ == y.num_ && x.den_ == y.den_;
  }
  friend bool operator<(const Ratio& x, const Ratio& y) {
    return static_cast<__int128>(x.num_) * y.den_ <
           static_cast<__int128>(y.num_) * x.den_;
  }

 private:
  int64_t num_;
  int64_t den_;
};

}  // namespace optrules

#endif  // OPTRULES_COMMON_RATIO_H_
