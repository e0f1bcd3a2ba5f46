#ifndef SCGUARD_INDEX_PRUNING_H_
#define SCGUARD_INDEX_PRUNING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"
#include "index/grid_index.h"
#include "privacy/privacy_params.h"
#include "reachability/kernel.h"

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
/// overlap. The rectangles, with each worker's certain alpha bands, are the
/// rows of a GridIndex (DESIGN.md §11, §13). An unpruned U2U stage walks
/// the same kind of index built all-admitting (the one-argument
/// constructor), so there is one scan either way.
class UncertainRegionPruner {
 public:
  /// Indexes every worker of `workers` (worker i is row i: noisy location,
  /// reach radius and the certain bands, which must be filled), then drops
  /// the matched ones. `gamma` in (0,1): confidence that a true location
  /// lies within the expanded disk of its observation. `region` bounds the
  /// deployment area (it sizes the grid; pass the workload bounding box).
  UncertainRegionPruner(const reachability::WorkerFilterSoA& workers,
                        const privacy::PrivacyParams& worker_params,
                        const privacy::PrivacyParams& task_params,
                        double gamma, const geo::BoundingBox& region);

  /// The all-admitting index of an unpruned U2U stage (DESIGN.md §11): the
  /// same rows with a 0 m pad (each rectangle is the worker's reach disk)
  /// over the box of the workers' finite coordinates (clipped per axis to
  /// three interquartile ranges beyond the quartiles, so a far-off worker
  /// lands in a border cell), queried with the largest finite box. Every
  /// finite row's rectangle intersects that box, so a walk visits every
  /// non-empty cell, every finite cell bulk-accepts, and only a non-finite
  /// row fails the rectangle test: nothing is pruned, and the alpha
  /// certificates do the work.
  explicit UncertainRegionPruner(const reachability::WorkerFilterSoA& workers);

  /// Workers whose expanded rectangle intersects the task's rectangle, in
  /// ascending order — the id-level view of the cell walk the U2U stage
  /// runs through VisitQueryCells.
  std::vector<uint32_t> Candidates(geo::Point task_noisy_location) const;

  /// Drops a worker from future Candidates results (the engine calls this
  /// when a worker accepts a task, so pruned queries stop returning matched
  /// workers — DESIGN.md section 9). Idempotent; removing an unknown worker
  /// is a no-op. The grid compacts the row out of its cell (and refreshes
  /// that cell's aggregates).
  void Remove(uint32_t worker) { grid_->Remove(worker); }

  /// Re-centers a stored worker's expanded disk at a new noisy location
  /// (dynamic re-reporting; the reach radius and bands stay fixed) with
  /// GridIndex::Relocate — O(cell) for the common same-cell move. A removed
  /// worker is not stored, so this is a no-op for it; its Restore supplies
  /// the location.
  void Relocate(uint32_t worker, geo::Point new_noisy_location) {
    grid_->Relocate(worker, new_noisy_location);
  }

  /// Reverses a Remove: the worker rejoins future Candidates results with
  /// its current row of `workers` (reactivation when a matched worker
  /// re-reports). Idempotent: a worker still stored is left alone.
  void Restore(uint32_t worker, const reachability::WorkerFilterSoA& workers);

  /// The query rectangle of a task observation (`FromCircle(task, r_R)`
  /// with the task confidence radius r_R, or the all-admitting box of an
  /// unpruned index), which the U2U stage hands to the grid's cell walk.
  geo::BoundingBox TaskQueryBox(geo::Point task_noisy_location) const;

  /// The index, whose rows the U2U stage scores directly.
  const GridIndex& grid() const { return *grid_; }

 private:
  /// Indexes every worker over `grid_region`, then drops the matched ones.
  void Build(const reachability::WorkerFilterSoA& workers,
             const geo::BoundingBox& grid_region);

  bool prunes_;        ///< False for the all-admitting index.
  double r_r_worker_;  ///< Worker confidence radius (0 when unpruned).
  double r_r_task_;    ///< Task confidence radius (0 when unpruned).
  std::unique_ptr<GridIndex> grid_;
};

}  // namespace scguard::index

#endif  // SCGUARD_INDEX_PRUNING_H_
