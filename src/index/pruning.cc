#include "index/pruning.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

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
    : prunes_(true),
      r_r_worker_(MechanismConfidenceRadius(worker_params, gamma, region)),
      r_r_task_(MechanismConfidenceRadius(task_params, gamma, region)) {
  SCGUARD_CHECK(gamma > 0.0 && gamma < 1.0);

  // The expanded worker rectangles can stick out beyond the deployment
  // region; grow the grid region accordingly so border cells stay balanced.
  geo::BoundingBox grid_region = region;
  double max_extent = r_r_worker_;
  for (const double r : workers.reach_radius_m) {
    max_extent = std::max(max_extent, r_r_worker_ + r);
  }
  grid_region.Extend(geo::Point{region.min_x - max_extent, region.min_y - max_extent});
  grid_region.Extend(geo::Point{region.max_x + max_extent, region.max_y + max_extent});

  Build(workers, grid_region);
}

UncertainRegionPruner::UncertainRegionPruner(
    const reachability::WorkerFilterSoA& workers)
    : prunes_(false), r_r_worker_(0.0), r_r_task_(0.0) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (size_t i = 0; i < workers.size(); ++i) {
    if (std::isfinite(workers.x[i]) && std::isfinite(workers.y[i])) {
      xs.push_back(workers.x[i]);
      ys.push_back(workers.y[i]);
    }
  }
  // Per axis, the finite extent clipped to Tukey's far-out fences (three
  // interquartile ranges beyond the quartiles): a far-off worker lands in a
  // border cell, which the grid clamps it to, instead of stretching every
  // cell until all workers share one.
  const auto fenced = [](std::vector<double>& v, double& lo, double& hi) {
    const auto [min_it, max_it] = std::minmax_element(v.begin(), v.end());
    lo = *min_it;
    hi = *max_it;
    const auto quantile = [&v](size_t k) {
      std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                       v.end());
      return v[k];
    };
    const double q1 = quantile(v.size() / 4);
    const double q3 = quantile(v.size() * 3 / 4);
    lo = std::max(lo, q1 - 3.0 * (q3 - q1));
    hi = std::min(hi, q3 + 3.0 * (q3 - q1));
  };
  geo::BoundingBox grid_region = geo::BoundingBox::FromCorners({0, 0}, {1, 1});
  if (!xs.empty()) {
    fenced(xs, grid_region.min_x, grid_region.max_x);
    fenced(ys, grid_region.min_y, grid_region.max_y);
  }
  // The grid needs a region of positive extent: no finite worker gets a
  // unit box, and a degenerate side grows by max(1 m, |min|) so the cell
  // width stays positive at any coordinate magnitude.
  if (!(grid_region.max_x - grid_region.min_x >= 1.0)) {
    grid_region.max_x =
        grid_region.min_x + std::max(1.0, std::fabs(grid_region.min_x));
  }
  if (!(grid_region.max_y - grid_region.min_y >= 1.0)) {
    grid_region.max_y =
        grid_region.min_y + std::max(1.0, std::fabs(grid_region.min_y));
  }
  Build(workers, grid_region);
}

void UncertainRegionPruner::Build(const reachability::WorkerFilterSoA& workers,
                                  const geo::BoundingBox& grid_region) {
  const size_t n = workers.size();
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

geo::BoundingBox UncertainRegionPruner::TaskQueryBox(
    geo::Point task_noisy_location) const {
  if (!prunes_) {
    constexpr double kMax = std::numeric_limits<double>::max();
    return {-kMax, -kMax, kMax, kMax};
  }
  return geo::BoundingBox::FromCircle(task_noisy_location, r_r_task_);
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
