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
    const std::vector<WorkerRegion>& workers,
    const privacy::PrivacyParams& worker_params,
    const privacy::PrivacyParams& task_params, double gamma,
    const geo::BoundingBox& region)
    : r_r_worker_(MechanismConfidenceRadius(worker_params, gamma, region)),
      r_r_task_(MechanismConfidenceRadius(task_params, gamma, region)) {
  SCGUARD_CHECK(gamma > 0.0 && gamma < 1.0);

  // The expanded worker rectangles can stick out beyond the deployment
  // region; grow the grid region accordingly so border cells stay balanced.
  geo::BoundingBox grid_region = region;
  double max_extent = r_r_worker_;
  for (const auto& w : workers) {
    max_extent = std::max(max_extent, r_r_worker_ + w.reach_radius_m);
  }
  grid_region.Extend(geo::Point{region.min_x - max_extent, region.min_y - max_extent});
  grid_region.Extend(geo::Point{region.max_x + max_extent, region.max_y + max_extent});

  // Density-adaptive resolution (a perf-only knob: certification is exact
  // at any resolution): target ~64 entries per cell so boundary-cell member
  // tests stay short at a million workers without flooding small workloads
  // with empty cells.
  const int cells_per_axis = std::clamp(
      static_cast<int>(std::ceil(
          std::sqrt(static_cast<double>(workers.size()) / 64.0))),
      16, 512);
  grid_ = std::make_unique<GridIndex>(grid_region, cells_per_axis);
  for (const auto& w : workers) {
    grid_->Insert(w.noisy_location, r_r_worker_ + w.reach_radius_m,
                  w.worker_id);
  }
}

std::vector<int64_t> UncertainRegionPruner::Candidates(
    geo::Point task_noisy_location) const {
  return grid_->QueryIds(TaskQueryBox(task_noisy_location));
}

void UncertainRegionPruner::Remove(int64_t worker_id) {
  grid_->Remove(worker_id);
}

void UncertainRegionPruner::Relocate(int64_t worker_id,
                                     geo::Point new_noisy_location) {
  grid_->Relocate(worker_id, new_noisy_location);
}

void UncertainRegionPruner::Restore(int64_t worker_id,
                                    geo::Point noisy_location,
                                    double reach_radius_m) {
  if (!grid_->Contains(worker_id)) {
    grid_->Insert(noisy_location, r_r_worker_ + reach_radius_m, worker_id);
  }
}

}  // namespace scguard::index
