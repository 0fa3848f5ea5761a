// Two-dimensional bucketing (Section 1.4 extension).
//
// For rules of the form `(A1, A2) in X => C` the domain of the two numeric
// attributes is partitioned into an nx-by-ny grid of buckets (equi-depth
// per axis), and each cell stores the tuple count u and hit count v. The
// region miners (rectangle.h, xmonotone.h) operate on this grid.

#ifndef OPTRULES_REGION_GRID_H_
#define OPTRULES_REGION_GRID_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace optrules::bucketing {
struct GridBucketCounts;  // counting.h; only referenced, never stored here
}  // namespace optrules::bucketing

namespace optrules::region {

/// Cell counts of a 2-D bucket grid, row-major by y (cell (x, y) is at
/// index y*nx + x).
class GridCounts {
 public:
  GridCounts() = default;
  GridCounts(int nx, int ny)
      : nx_(nx),
        ny_(ny),
        u_(static_cast<size_t>(nx) * static_cast<size_t>(ny), 0),
        v_(static_cast<size_t>(nx) * static_cast<size_t>(ny), 0) {
    OPTRULES_CHECK(nx >= 1 && ny >= 1);
  }

  /// Adopts pre-accumulated cell arrays (row-major by y, sized nx*ny):
  /// the bridge from an engine-produced bucketing::GridBucketCounts plane
  /// to the region miners. `total_tuples` is the support denominator N and
  /// may exceed the cell total (NaN rows belong to no cell).
  static GridCounts FromCells(int nx, int ny, std::vector<int64_t> u,
                              std::vector<int64_t> v, int64_t total_tuples);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int64_t total_tuples() const { return total_tuples_; }

  int64_t u(int x, int y) const { return u_[Index(x, y)]; }
  int64_t v(int x, int y) const { return v_[Index(x, y)]; }

  /// Adds one tuple to cell (x, y).
  void Add(int x, int y, bool hit) {
    ++u_[Index(x, y)];
    if (hit) ++v_[Index(x, y)];
    ++total_tuples_;
  }

  /// Counts one tuple toward the support denominator N without placing it
  /// in any cell -- the NaN policy for rows whose x or y value is NaN.
  void AddMissing() { ++total_tuples_; }

 private:
  size_t Index(int x, int y) const {
    OPTRULES_DCHECK(0 <= x && x < nx_);
    OPTRULES_DCHECK(0 <= y && y < ny_);
    return static_cast<size_t>(y) * static_cast<size_t>(nx_) +
           static_cast<size_t>(x);
  }

  int nx_ = 0;
  int ny_ = 0;
  std::vector<int64_t> u_;
  std::vector<int64_t> v_;
  int64_t total_tuples_ = 0;
};

/// The region-miner view of one Boolean target plane of an engine-produced
/// grid channel (bucketing::MultiCountPlan grid counting): copies cell u
/// and the target's v plane, keeping N = all scanned tuples.
GridCounts FromGridBucketCounts(const bucketing::GridBucketCounts& cells,
                                int target);

}  // namespace optrules::region

#endif  // OPTRULES_REGION_GRID_H_
