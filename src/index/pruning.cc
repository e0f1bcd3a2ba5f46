#include "index/pruning.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "privacy/mechanism.h"

namespace scguard::index {
namespace {

// Uncertainty radius of the *configured* mechanism: planar Laplace uses the
// closed form of Andrés et al.; grid mechanisms report a conservative
// discrete quantile. Either way the rectangles cover the true location with
// probability >= gamma, which is what keeps pruning sound.
double MechanismConfidenceRadius(const privacy::PrivacyParams& params,
                                 double gamma,
                                 const geo::BoundingBox& region) {
  return privacy::MakeMechanismOrDie(params, region)->ConfidenceRadius(gamma);
}

}  // namespace

UncertainRegionPruner::UncertainRegionPruner(
    const reachability::WorkerFilterSoA& workers,
    const privacy::PrivacyParams& worker_params,
    const privacy::PrivacyParams& task_params, double gamma,
    const geo::BoundingBox& region)
    : r_r_worker_(MechanismConfidenceRadius(worker_params, gamma, region)),
      r_r_task_(MechanismConfidenceRadius(task_params, gamma, region)) {
  SCGUARD_CHECK(gamma > 0.0 && gamma < 1.0);
  const size_t n = workers.size();

  // The expanded worker rectangles can stick out beyond the deployment
  // region; grow the grid region accordingly so border cells stay balanced.
  geo::BoundingBox grid_region = region;
  double max_extent = r_r_worker_;
  for (const double r : workers.reach_radius_m) {
    max_extent = std::max(max_extent, r_r_worker_ + r);
  }
  grid_region.Extend(geo::Point{region.min_x - max_extent, region.min_y - max_extent});
  grid_region.Extend(geo::Point{region.max_x + max_extent, region.max_y + max_extent});

  // Density-adaptive resolution (a perf-only knob: certification is exact
  // at any resolution): target ~64 entries per cell so boundary-cell member
  // tests stay short at a million workers without flooding small workloads
  // with empty cells.
  const int cells_per_axis = std::clamp(
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n) / 64.0))),
      16, 512);
  // Matched workers are stored and then removed, so the grid's radius
  // high-water mark (and with it every query's visited cell range) does not
  // depend on when the index was built.
  grid_ = std::make_unique<GridIndex>(grid_region, cells_per_axis, workers,
                                      r_r_worker_);
  for (size_t i = 0; i < n; ++i) {
    if (workers.matched[i]) grid_->Remove(static_cast<uint32_t>(i));
  }
}

std::vector<uint32_t> UncertainRegionPruner::Candidates(
    geo::Point task_noisy_location) const {
  return grid_->QueryIds(TaskQueryBox(task_noisy_location));
}

void UncertainRegionPruner::Restore(
    uint32_t worker, const reachability::WorkerFilterSoA& workers) {
  if (!grid_->Contains(worker)) {
    grid_->Insert({workers.x[worker], workers.y[worker]},
                  r_r_worker_ + workers.reach_radius_m[worker], worker,
                  workers.accept_below_sq[worker],
                  workers.reject_above_sq[worker]);
  }
}

}  // namespace scguard::index
