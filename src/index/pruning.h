#ifndef SCGUARD_INDEX_PRUNING_H_
#define SCGUARD_INDEX_PRUNING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"
#include "index/grid_index.h"
#include "privacy/privacy_params.h"

namespace scguard::index {

/// Index backend of the U2U pruner. The cell-certified grid is the only
/// one; the enum stays because configuration structs that name it
/// (EnginePolicy::pruning_backend, U2uCandidateStage::Pruning::backend)
/// are assigned by existing callers.
enum class PrunerBackend { kGrid };

/// The U2U pruning optimization of paper Sec. IV-C1.
///
/// Each perturbed worker location is expanded to the rectangle bounding
/// disk(l_w', r_R + R_w) and each perturbed task to disk(l_t', r_R), where
/// r_R is the Geo-I confidence radius at level gamma. If the rectangles do
/// not overlap, the pair is reachable with probability < gamma and is
/// pruned before any probability evaluation. The pruner is conservative:
/// it may keep unreachable workers but never drops a pair whose disks
/// overlap. The rectangles live in a GridIndex (DESIGN.md §11).
class UncertainRegionPruner {
 public:
  struct WorkerRegion {
    int64_t worker_id = 0;
    geo::Point noisy_location;
    double reach_radius_m = 0.0;
  };

  /// `gamma` in (0,1): confidence that a true location lies within the
  /// expanded disk of its observation. `region` bounds the deployment area
  /// (it sizes the grid; pass the workload bounding box).
  UncertainRegionPruner(const std::vector<WorkerRegion>& workers,
                        const privacy::PrivacyParams& worker_params,
                        const privacy::PrivacyParams& task_params,
                        double gamma, const geo::BoundingBox& region);

  /// Worker ids whose expanded rectangle intersects the task's rectangle,
  /// in ascending id order — the id-level view of the cell walk the U2U
  /// stage runs through VisitQueryCells.
  std::vector<int64_t> Candidates(geo::Point task_noisy_location) const;

  /// Permanently drops a worker from future Candidates results (the engine
  /// calls this when a worker accepts a task, so pruned queries stop
  /// returning matched workers — DESIGN.md section 9). Idempotent; removing
  /// an unknown id is a no-op. The grid compacts the entry out of its cell
  /// (and refreshes that cell's certification aggregates).
  void Remove(int64_t worker_id);

  /// Re-centers a live worker's expanded disk at a new noisy location
  /// (dynamic re-reporting; the reach radius stays fixed) with
  /// GridIndex::Relocate — O(cell) for the common same-cell move. A
  /// Removed worker is not indexed, so this is a no-op for it; its Restore
  /// supplies the location.
  void Relocate(int64_t worker_id, geo::Point new_noisy_location);

  /// Reverses a Remove: the worker rejoins future Candidates results at
  /// `noisy_location` (reactivation when a matched worker re-reports).
  /// Idempotent: a worker still indexed is left alone.
  void Restore(int64_t worker_id, geo::Point noisy_location,
               double reach_radius_m);

  /// The query rectangle of a task observation
  /// (`FromCircle(task, task_confidence_radius_m)`), which the cell-major
  /// mirror path hands to the grid's cell walk.
  geo::BoundingBox TaskQueryBox(geo::Point task_noisy_location) const {
    return geo::BoundingBox::FromCircle(task_noisy_location, r_r_task_);
  }

  /// The index; the cell-major scoring mirror attaches to it. Stays owned
  /// by the pruner.
  GridIndex* grid() const { return grid_.get(); }

  /// Confidence radius applied to worker observations.
  double worker_confidence_radius_m() const { return r_r_worker_; }
  /// Confidence radius applied to task observations.
  double task_confidence_radius_m() const { return r_r_task_; }

  /// Cumulative cell-certification counters of the grid's queries
  /// (DESIGN.md §11).
  const GridIndex::QueryStats& grid_query_stats() const {
    return grid_->stats();
  }

 private:
  double r_r_worker_;
  double r_r_task_;
  std::unique_ptr<GridIndex> grid_;
};

}  // namespace scguard::index

#endif  // SCGUARD_INDEX_PRUNING_H_
