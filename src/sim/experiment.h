#ifndef SCGUARD_SIM_EXPERIMENT_H_
#define SCGUARD_SIM_EXPERIMENT_H_

#include <functional>
#include <vector>

#include "assign/algorithms.h"
#include "assign/matcher.h"
#include "common/result.h"
#include "data/tdrive_synth.h"
#include "data/workload.h"
#include "privacy/privacy_params.h"
#include "runtime/runtime_options.h"

namespace scguard::sim {

/// Multi-seed experiment configuration (paper Sec. V-A: 500 workers, 500
/// tasks, 10 random seeds on the synthetic T-Drive day).
struct ExperimentConfig {
  data::TDriveSynthConfig synth;
  data::WorkloadConfig workload;
  int num_seeds = 10;
  uint64_t base_seed = 42;
  /// Seed fan-out parallelism. Every seed owns an independent Rng stream
  /// and per-run metrics are merged in seed order, so the aggregate is
  /// bit-identical for any thread count (1 = legacy serial path).
  runtime::RuntimeOptions runtime;
};

/// Per-metric mean over the seeds (what the paper's figures plot).
struct AggregatedMetrics {
  double assigned_tasks = 0;
  double accepted_assignments = 0;
  double travel_m = 0;           ///< Mean travel over assigned pairs.
  double candidates = 0;         ///< Mean candidate-set size per task.
  double false_hits = 0;         ///< Total per run, averaged over seeds.
  double false_dismissals = 0;
  double precision = 0;
  double recall = 0;
  double disclosures_per_task = 0;
  double setup_seconds = 0;      ///< Stage setup wall-clock per run.
  double u2u_seconds = 0;        ///< Total U2U scan wall-clock per run.
  double u2e_seconds = 0;        ///< Total U2E wall-clock per run.
  double e2e_seconds = 0;        ///< Total E2E wall-clock per run.
  double accuracy_seconds = 0;   ///< Observer accuracy scan per run.
  double total_seconds = 0;
  /// U2U scan-work decay as matched workers leave the grid (DESIGN.md §9):
  /// workers scored in total / by the first task / by the last task, each
  /// averaged over seeds.
  double u2u_scanned = 0;
  double u2u_scanned_first_task = 0;
  double u2u_scanned_last_task = 0;
  /// Pruning-grid cell certification per run (zero without pruning;
  /// DESIGN.md §11), averaged over seeds.
  double cells_bulk_accepted = 0;
  double cells_skipped = 0;
  double boundary_workers = 0;
  /// Across-seed sample standard deviations of the headline metrics (0
  /// when fewer than two seeds).
  double assigned_tasks_stddev = 0;
  double travel_m_stddev = 0;
  int seeds = 0;
  /// Per-seed wall-clock (workload build + matcher run) distribution —
  /// min / median / max over the seeds. Filled by ExperimentRunner::Run;
  /// zero when metrics were aggregated directly via Aggregate().
  double seed_seconds_min = 0;
  double seed_seconds_median = 0;
  double seed_seconds_max = 0;
};

/// Means the per-run metrics (each already internally averaged where the
/// paper averages: travel per assigned task, candidates per task, ...).
AggregatedMetrics Aggregate(const std::vector<assign::RunMetrics>& runs);

/// Runs a synthetic T-Drive day once, then evaluates matchers over
/// `num_seeds` sampled + perturbed workload instances. All algorithms
/// evaluated through the same runner at the same privacy level see the
/// exact same workloads and the same noise (common random numbers), which
/// is how the paper compares algorithm curves.
class ExperimentRunner {
 public:
  /// Generates the trip log (hotspots seeded from base_seed so the city
  /// itself is fixed across the whole experiment suite).
  static Result<ExperimentRunner> Create(const ExperimentConfig& config);

  /// Builds the seed-th workload instance, perturbed at the given privacy
  /// levels. Deterministic in (config, seed, params).
  Result<assign::Workload> MakeWorkload(
      int seed, const privacy::PrivacyParams& worker_params,
      const privacy::PrivacyParams& task_params) const;

  /// Runs the matcher over all seeds and aggregates. Seeds fan out across
  /// a thread pool per config().runtime; the matcher's Run must therefore
  /// be re-entrant (every in-tree matcher keeps its per-run state local).
  Result<AggregatedMetrics> Run(assign::MatcherHandle& handle,
                                const privacy::PrivacyParams& worker_params,
                                const privacy::PrivacyParams& task_params) const;

  /// As Run, but a fresh matcher per seed from `factory` (needed when the
  /// matcher itself is stochastic state-free but model construction
  /// depends on the privacy level).
  Result<AggregatedMetrics> RunFactory(
      const std::function<assign::MatcherHandle()>& factory,
      const privacy::PrivacyParams& worker_params,
      const privacy::PrivacyParams& task_params) const;

  const ExperimentConfig& config() const { return config_; }
  const std::vector<data::Trip>& trips() const { return trips_; }
  const geo::BoundingBox& region() const { return region_; }

 private:
  ExperimentRunner(const ExperimentConfig& config, std::vector<data::Trip> trips,
                   const geo::BoundingBox& region);

  ExperimentConfig config_;
  std::vector<data::Trip> trips_;
  geo::BoundingBox region_;
};

}  // namespace scguard::sim

#endif  // SCGUARD_SIM_EXPERIMENT_H_
