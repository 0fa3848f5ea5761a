#include "region/grid.h"

#include <utility>

#include "bucketing/counting.h"

namespace optrules::region {

GridCounts GridCounts::FromCells(int nx, int ny, std::vector<int64_t> u,
                                 std::vector<int64_t> v,
                                 int64_t total_tuples) {
  OPTRULES_CHECK(nx >= 1 && ny >= 1);
  const auto cells = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  OPTRULES_CHECK(u.size() == cells);
  OPTRULES_CHECK(v.size() == cells);
  GridCounts grid;
  grid.nx_ = nx;
  grid.ny_ = ny;
  grid.u_ = std::move(u);
  grid.v_ = std::move(v);
  grid.total_tuples_ = total_tuples;
  return grid;
}

GridCounts FromGridBucketCounts(const bucketing::GridBucketCounts& cells,
                                int target) {
  OPTRULES_CHECK(0 <= target && target < cells.num_targets());
  return GridCounts::FromCells(cells.nx, cells.ny, cells.u,
                               cells.v[static_cast<size_t>(target)],
                               cells.total_tuples);
}

}  // namespace optrules::region
