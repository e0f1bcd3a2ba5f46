#ifndef SCGUARD_ASSIGN_STAGES_CANDIDATE_STAGE_H_
#define SCGUARD_ASSIGN_STAGES_CANDIDATE_STAGE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"
#include "index/pruning.h"
#include "privacy/privacy_params.h"
#include "reachability/kernel.h"
#include "reachability/model.h"

namespace scguard::assign {

/// The server-side U2U candidate stage (paper Alg. 1/2 Lines 1-8, DESIGN.md
/// section 10): given noisy worker registrations, answers "which available
/// workers are plausible candidates for this noisy task location?" with
/// Pr(reachable | d') >= alpha. One object owns everything the scan needs —
/// the WorkerFilterSoA snapshot, the inverted AlphaThresholdCache with its
/// per-worker certain bands, and the grid index whose cell-major rows it
/// scores.
/// Every caller shares this one filter, so its decisions stay bit-identical
/// across them: TaskPipeline (the engine, the service and sim/dynamic),
/// core::TaskingServer, and BatchMatcher's feasibility test (Decide).
///
/// There is one scan: a certified cell walk over the grid's rows, which
/// decides `ProbReachable(kU2U, d, r) >= alpha` through whole-cell alpha
/// certificates, the inverted certain bands, and one direct evaluation
/// inside the band. With pruning the walk is bounded by the task's
/// uncertainty rectangle (paper Sec. IV-C1); without it the grid is built
/// anyway and walked with an all-admitting box (DESIGN.md §11).
///
/// Not thread-safe. Intended to be run-local (ExperimentRunner shares one
/// matcher across concurrently running seeds, so nothing here may outlive a
/// Run).
class U2uCandidateStage {
 public:
  /// Uncertainty-rectangle pruning (paper Sec. IV-C1) configuration; when
  /// present the walk visits only the cells the task's rectangle can reach.
  struct Pruning {
    double gamma = 0.9;
    /// Always kGrid, the only backend; the field stays because existing
    /// callers build this struct positionally.
    index::PrunerBackend backend = index::PrunerBackend::kGrid;
    /// Privacy levels used to perturb the workload; they size the
    /// confidence rectangles.
    privacy::PrivacyParams worker_params;
    privacy::PrivacyParams task_params;
    /// Deployment region (the grid backend needs it).
    geo::BoundingBox region;
  };

  struct Config {
    /// Model the server evaluates; not owned, must outlive the stage.
    const reachability::ReachabilityModel* model = nullptr;
    /// U2U acceptance threshold, in (0, 1].
    double alpha = 0.1;
    /// Optional pruning index over the workers' uncertainty rectangles.
    std::optional<Pruning> pruning;
  };

  /// Per-Collect scan accounting, surfaced so orchestrators can feed
  /// RunMetrics and obs counters without reaching into the scan.
  struct Stats {
    /// Workers the last Collect admitted: with pruning, those whose
    /// rectangle meets the task's; without it, every live worker with
    /// finite coordinates.
    int64_t scanned_last = 0;
    /// Workers the index skipped last Collect (0 without pruning).
    int64_t pruned_last = 0;
    /// Modeled scoring-side memory traffic, cumulative over the stage's
    /// life (a traffic model, not a hardware counter — see EXPERIMENTS.md):
    /// range scans cost the contiguous rows actually streamed (36 B bulk /
    /// 44 B boundary), and certificate-direct cells cost only their emitted
    /// id run (4 B per id, 0 for whole-cell rejects).
    int64_t gather_bytes = 0;
    /// Cells resolved purely by a whole-cell alpha certificate (accept or
    /// reject) with zero per-worker loads, cumulative.
    int64_t cells_emitted_direct = 0;
  };

  explicit U2uCandidateStage(Config config);

  /// Pre-sizes the per-worker arrays (optional; registration still grows
  /// them on demand).
  void ReserveWorkers(size_t n);

  /// Registers a worker; indices are assigned in registration order and are
  /// the ids Collect emits. A registration after Prepare drops the grid
  /// (it is rebuilt over every worker at the next Prepare).
  uint32_t AddWorker(geo::Point noisy_location, double reach_radius_m);

  /// Re-points a worker's noisy location (dynamic re-reporting). The reach
  /// radius — and with it the inverted thresholds — stays fixed.
  void UpdateWorkerLocation(uint32_t worker, geo::Point noisy_location);

  /// Finishes lazy setup — threshold prewarm for every registered radius,
  /// the grid index — so the first Collect pays no setup cost. Collect
  /// calls this itself; exposed so orchestrators can keep setup out of
  /// their per-stage timings.
  void Prepare();

  /// The U2U stage for one task: ascending indices of available workers
  /// with Pr(reachable | d(w', t')) >= alpha. The returned reference stays
  /// valid until the next Collect.
  const std::vector<uint32_t>& Collect(geo::Point task_noisy_location);

  /// Scalar membership test against one task location, ignoring
  /// availability (the batch matcher scores full bipartite feasibility).
  /// Exactly `ProbReachable(kU2U, d, r) >= alpha`, via the certain-band
  /// compare.
  bool Decide(uint32_t worker, geo::Point task_noisy_location);

  /// Marks a worker assigned: it disappears from future Collect results
  /// (its row leaves the grid).
  void MarkMatched(uint32_t worker);

  /// Clears one worker's matched mark so it reappears in future Collect
  /// results (service-side reactivation when a matched worker re-reports,
  /// and every worker at sim/dynamic's round boundaries). Restores the
  /// worker's row in the grid. No-op for workers that are not matched.
  void MarkAvailable(uint32_t worker);

  size_t size() const { return soa_.size(); }
  size_t available() const;

  const Stats& stats() const { return stats_; }
  /// Rectangle-certification counters of the pruning grid, cumulative over
  /// the index's life (nullptr without pruning, where the all-admitting
  /// walk bulk-accepts every finite cell and the counters would measure no
  /// pruning work). Orchestrators feed these into RunMetrics / obs counters.
  const index::GridIndex::QueryStats* grid_query_stats() const {
    return pruner_ != nullptr && config_.pruning.has_value()
               ? &pruner_->grid().stats()
               : nullptr;
  }
  /// Direct in-band model evaluations, cumulative over the stage's life:
  /// Collect's band resolutions plus Decide's (BatchMatcher, Decide's only
  /// caller, reports no band_evals).
  int64_t band_evals() const { return thresholds_.exact_evals(); }
  /// The worker snapshot (noisy coordinates, radii, matched flags); the
  /// rank stage scores candidates straight off these arrays.
  const reachability::WorkerFilterSoA& soa() const { return soa_; }

 private:
  /// Resolves the in-band workers of band_ in place, keeping the
  /// candidates (AlphaThresholdCache::IsCandidate each).
  void ResolveBand(geo::Point task_noisy);

  Config config_;
  reachability::WorkerFilterSoA soa_;
  reachability::AlphaThresholdCache thresholds_;
  /// The grid: rectangle-pruning with Config::pruning, all-admitting
  /// without. Built by Prepare; dropped by a later AddWorker.
  std::unique_ptr<index::UncertainRegionPruner> pruner_;
  /// Workers [0, warm_) have prewarmed thresholds.
  size_t warm_ = 0;

  // Reused per-Collect scratch.
  std::vector<uint32_t> candidates_;
  std::vector<index::GridIndex::CellVisit> visits_;
  std::vector<uint32_t> accept_;  ///< Accepted ids, unordered across cells.
  std::vector<uint32_t> band_;    ///< In-band ids, then survivors.
  std::vector<uint64_t> accept_bits_;  ///< Accept bitmap, one bit per worker.
  Stats stats_;
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_STAGES_CANDIDATE_STAGE_H_
