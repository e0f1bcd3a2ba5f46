#ifndef SCGUARD_TESTS_ORACLE_H_
#define SCGUARD_TESTS_ORACLE_H_

// The naive test oracle: the SCGuard protocol (paper Fig. 2, Alg. 1/2)
// written as plainly as possible, with none of the production fast paths —
// no threshold inversion, no pruning index, no cell rows, no active sets,
// no batched scoring. Every production configuration
// of ScGuardEngine and AssignmentService is diffed against it
// (tests/oracle_test.cc): same MatchResult, same RNG stream, same audit
// counts. The gtest helpers at the end are the diff itself.

#include <cstdint>
#include <string>
#include <vector>

#include "assign/entities.h"
#include "assign/matcher.h"
#include "assign/scguard_engine.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "obs/trace_export.h"
#include "stats/rng.h"

namespace scguard::oracle {

/// One entry of the oracle's ordered input: a task to assign, or a worker
/// re-report that re-points the worker's exact and noisy location.
struct Event {
  enum class Kind { kTask, kReport };
  Kind kind = Kind::kTask;
  int64_t task_id = 0;  ///< kTask only.
  uint32_t worker = 0;  ///< kReport only.
  geo::Point exact;
  geo::Point noisy;
};

/// The workload's tasks as task events, in arrival order.
std::vector<Event> TaskEvents(const assign::Workload& workload);

/// The U2U server filter as a brute loop over workers: index i is a
/// candidate iff it is not matched, its pruning rectangle overlaps the
/// task's (only when policy.pruning_gamma is set; paper Sec. IV-C1), and
/// `ProbReachable(kU2U, d(w', t'), R_w) >= alpha` evaluated directly.
class NaiveU2u {
 public:
  NaiveU2u(const assign::EnginePolicy& policy, const geo::BoundingBox& region);

  /// Ascending candidate indices. `scanned` receives the number of
  /// available workers the rectangle test admitted (all available workers
  /// without pruning) — the production stage's scanned count.
  std::vector<uint32_t> Collect(const std::vector<geo::Point>& noisy,
                                const std::vector<double>& reach_radius_m,
                                const std::vector<uint8_t>& matched,
                                geo::Point task_noisy,
                                int64_t* scanned) const;

 private:
  const reachability::ReachabilityModel* model_;
  double alpha_;
  bool prune_;
  double worker_radius_m_ = 0.0;  ///< Confidence radius r_R of workers.
  double task_radius_m_ = 0.0;    ///< Confidence radius r_R of tasks.
};

/// Runs `events` in order. Ranking priorities are the engine's draws: one
/// `rank_rng.UniformDouble()` per worker, in index order, before anything
/// else. U2E scores each candidate with one scalar model call and orders
/// the list with a full std::sort under ScoreDescIdAscLess; E2E is
/// E2eContactStage. A report re-points the worker and, when
/// `reactivate_on_report`, makes it available again. Honors every policy
/// field except kernel.u2e_lut (the oracle scores exactly).
assign::MatchResult Run(const assign::EnginePolicy& policy,
                        const geo::BoundingBox& region,
                        std::vector<assign::Worker> workers,
                        const std::vector<Event>& events,
                        stats::Rng& rank_rng,
                        bool reactivate_on_report = false);

// ---- Diff helpers (gtest) ------------------------------------------------

/// Uniform workers and tasks over a 20 km square, perturbed at the paper
/// point (eps = 0.7, r = 800) — the workload of the equivalence suites.
assign::Workload NoisyWorkload(int workers, int tasks, uint64_t seed);

/// Expects every decision-derived field of two results bit-identical: the
/// assignment sequence (ids and exact travel distances) and the metrics.
/// Timing and traffic-model fields are excluded — the oracle has neither.
void ExpectSameResult(const assign::MatchResult& want,
                      const assign::MatchResult& got,
                      const std::string& label);

/// The flight recorder's audit totals since the last drain (all zero while
/// the recorder is off).
obs::AuditTotals DrainAudit();

/// Expects the audit counts of two runs equal: U2E rankings and candidate
/// sums, E2E disclosures and accepts.
void ExpectSameAudit(const obs::AuditTotals& want, const obs::AuditTotals& got,
                     const std::string& label);

/// The oracle's answer for one (policy, workload, seed).
struct Expected {
  assign::MatchResult result;
  double next_draw = 0.0;  ///< The caller RNG's draw after the run.
  obs::AuditTotals audit;  ///< Drained right after the run.
};
Expected Expect(const assign::EnginePolicy& policy,
                const assign::Workload& workload, uint64_t seed);

/// Runs ScGuardEngine(policy) over `workload` from Rng(seed) and expects
/// the oracle's result, next draw and audit counts. Returns the engine's
/// result.
assign::MatchResult ExpectEngineMatches(const Expected& want,
                                        const assign::EnginePolicy& policy,
                                        const assign::Workload& workload,
                                        uint64_t seed,
                                        const std::string& label);

}  // namespace scguard::oracle

#endif  // SCGUARD_TESTS_ORACLE_H_
