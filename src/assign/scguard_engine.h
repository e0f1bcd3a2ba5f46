#ifndef SCGUARD_ASSIGN_SCGUARD_ENGINE_H_
#define SCGUARD_ASSIGN_SCGUARD_ENGINE_H_

#include <optional>
#include <string>

#include "assign/matcher.h"
#include "assign/stages/candidate_stage.h"
#include "assign/stages/rank_stage.h"
#include "index/pruning.h"
#include "privacy/privacy_params.h"
#include "reachability/kernel.h"
#include "reachability/model.h"

namespace scguard::assign {

/// Configuration of the privacy-aware three-stage protocol simulation.
///
/// Algorithm 1 (oblivious baseline) and Algorithm 2 (probability-based) are
/// the same protocol with different reachability models and thresholds:
///  * Oblivious-RR / Oblivious-RN: BinaryModel, rank random / nearest,
///    no beta threshold.
///  * Probabilistic-Model / Probabilistic-Data: AnalyticalModel /
///    EmpiricalModel, probability ranking, alpha & beta thresholds.
struct EnginePolicy {
  /// Model the server uses in U2U to build the candidate set. Not owned;
  /// must outlive the engine.
  const reachability::ReachabilityModel* u2u_model = nullptr;
  /// Model the requester uses in U2E to rank candidates (only consulted
  /// when rank == kProbability). Not owned.
  const reachability::ReachabilityModel* u2e_model = nullptr;

  /// U2U threshold alpha: a worker is a candidate iff
  /// Pr(reachable | d(w', t')) >= alpha. With BinaryModel any alpha in
  /// (0, 1] reproduces the oblivious d' <= R_w test.
  double alpha = 0.1;

  /// U2E threshold beta: the requester cancels the task when the best
  /// remaining candidate's reachability probability is < beta. 0 disables
  /// cancellation (exhaustive best-effort, Alg. 1 behaviour). Only applies
  /// to probability ranking.
  double beta = 0.0;
  BetaMode beta_mode = BetaMode::kEveryContact;

  RankStrategy rank = RankStrategy::kProbability;

  /// Redundant assignment (paper Sec. VII): the task needs K accepting
  /// workers; the requester keeps contacting candidates until K accept or
  /// the candidate set is exhausted.
  int redundancy_k = 1;

  /// Score the candidate sets against ground truth (U2U precision/recall
  /// and false-dismissal attribution). Observer-only bookkeeping — no
  /// protocol party could compute it — and the per-task O(workers) scan
  /// it needs dominates pruned runs, so throughput-oriented callers turn
  /// it off. Default on: tests and the figure benches report it.
  bool compute_accuracy_metrics = true;

  /// When set, the server prunes U2U with uncertainty-rectangle indexing
  /// (paper Sec. IV-C1) at this confidence gamma before evaluating
  /// probabilities.
  std::optional<double> pruning_gamma;
  /// Always kGrid, the only backend; the field stays because existing
  /// callers assign it.
  index::PrunerBackend pruning_backend = index::PrunerBackend::kGrid;

  /// Privacy levels, needed to size the pruning rectangles. Must match the
  /// levels used to perturb the workload.
  privacy::PrivacyParams worker_params;
  privacy::PrivacyParams task_params;

  /// U2E evaluation-kernel options (DESIGN.md section 8). Defaults keep
  /// the bounded-error U2E LUT off.
  reachability::KernelOptions kernel;

  /// Display name override; empty derives one from model + strategy.
  std::string name;
};

/// The SCGuard three-stage protocol (paper Fig. 2 / Table I), simulated
/// with exact bookkeeping of which party sees what:
///   U2U  server:    noisy worker + noisy task locations -> candidate set
///   U2E  requester: exact task + noisy worker locations -> ranked contacts
///   E2E  worker:    exact task location -> accept iff d(w, t) <= R_w
/// The engine implements Algorithms 1 and 2 of the paper depending on the
/// policy (see EnginePolicy). It is a thin orchestrator: the per-task
/// protocol body and all its accounting live in TaskPipeline (DESIGN.md
/// section 16), shared with service::AssignmentService; the engine adds
/// the workload's workers, prepares, and loops over its tasks.
class ScGuardEngine final : public OnlineMatcher {
 public:
  /// Requires a U2U model; a U2E model is required for probability ranking.
  explicit ScGuardEngine(EnginePolicy policy);

  MatchResult Run(const Workload& workload, stats::Rng& rng) override;

  std::string name() const override;

  const EnginePolicy& policy() const { return policy_; }

 private:
  EnginePolicy policy_;
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_SCGUARD_ENGINE_H_
