#ifndef SCGUARD_ASSIGN_PIPELINE_H_
#define SCGUARD_ASSIGN_PIPELINE_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "assign/entities.h"
#include "assign/matcher.h"
#include "assign/stages/candidate_stage.h"
#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "stats/rng.h"

namespace scguard::assign {

struct EnginePolicy;

/// Aborts on a policy no pipeline can run: a missing U2U model (or U2E
/// model under probability ranking), alpha outside (0, 1], beta outside
/// [0, 1], or redundancy_k < 1.
void CheckPolicy(const EnginePolicy& policy);

/// How one task ended: its first accepting worker (the service's
/// completion record).
struct TaskOutcome {
  int64_t worker_id = -1;  ///< First accepting worker; -1 when unassigned.
  double travel_m = 0.0;
};

/// The paper's per-task protocol body (Fig. 2, Alg. 1/2), shared by the
/// batch engine and the persistent service (DESIGN.md section 16): U2U
/// server filter (U2uCandidateStage::Collect), the observer-only accuracy
/// scan, U2E requester ranking (U2eRankStage::Rank), and E2E contact
/// (E2eContactStage::Run). It owns the three stages, the per-worker random
/// ranks, the ranking scratch, and every piece of stage accounting: the
/// MatchResult (assignments + RunMetrics), the `scguard.engine.*` counters
/// and histograms, and the `engine.u2u/u2e/e2e` recorder spans. Observation
/// never perturbs the protocol: no RNG draws, no reordering.
///
/// The worker array is borrowed, never copied (at a million workers a copy
/// would be tens of MB): it is the E2E ground truth — exact locations,
/// radii, ids — and must outlive the pipeline. Callers may re-point exact
/// locations between tasks (service re-reports) through their own array.
///
/// Not thread-safe.
class TaskPipeline {
 public:
  /// `region` bounds the deployment area (sizes the pruning grid).
  TaskPipeline(const EnginePolicy& policy, const geo::BoundingBox& region,
               const std::vector<Worker>& workers);

  /// Registers every worker of the borrowed array not yet registered, in
  /// index order, drawing one random-rank priority per worker from
  /// `rank_rng` (Alg. 1 Line 12) — the only draws the pipeline makes.
  /// Timed into RunMetrics::setup_seconds.
  void AddWorkers(stats::Rng& rank_rng);

  /// Finishes stage setup (threshold prewarm, the U2U grid) so
  /// the first task's U2U time measures only the scan. Timed into
  /// RunMetrics::setup_seconds.
  void Prepare();

  /// Runs one task through U2U -> (accuracy scan) -> U2E -> E2E, appending
  /// its accepted pairs to result().assignments.
  TaskOutcome RunTask(int64_t task_id, geo::Point exact, geo::Point noisy);

  /// Re-points a registered worker's noisy location (its exact location
  /// lives in the caller's array) and, when `reactivate`, makes a matched
  /// worker available again.
  void Relocate(uint32_t worker, geo::Point noisy, bool reactivate);

  /// Folds the stages' cumulative counters (grid certification, traffic
  /// model) into result().metrics and flushes every `scguard.engine.*`
  /// counter by its delta since the previous Flush. Cheap; callers flush
  /// once per run or once per service epoch.
  void Flush();

  /// Assignments and metrics so far. total_seconds is the caller's to set.
  MatchResult& result() { return result_; }
  const MatchResult& result() const { return result_; }

  /// Number of `scguard.engine.*` counters Flush maintains.
  static constexpr size_t kNumCounters = 17;

 private:
  /// The cumulative values behind the `scguard.engine.*` counters.
  std::array<int64_t, kNumCounters> CounterValues() const;

  void ScoreAccuracy(const std::vector<uint32_t>& candidates,
                     geo::Point exact);

  const std::vector<Worker>& workers_;  // Borrowed.
  const bool compute_accuracy_metrics_;
  U2uCandidateStage u2u_;
  U2eRankStage u2e_;
  const E2eContactStage e2e_;
  std::vector<double> random_rank_;
  std::vector<std::pair<double, size_t>> ranked_;  // Reused scratch.

  MatchResult result_;
  int64_t pruned_ = 0;        // Workers the pruning index skipped.
  int64_t beta_cancels_ = 0;  // Tasks the beta threshold cancelled.
  std::array<int64_t, kNumCounters> flushed_{};
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_PIPELINE_H_
