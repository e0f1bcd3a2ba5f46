#ifndef SCGUARD_ASSIGN_STAGES_RANK_STAGE_H_
#define SCGUARD_ASSIGN_STAGES_RANK_STAGE_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "assign/matcher.h"
#include "geo/point.h"
#include "obs/recorder.h"
#include "reachability/kernel.h"
#include "reachability/model.h"

namespace scguard::assign {

/// When the requester applies the beta threshold (Alg. 2 Line 13).
enum class BetaMode {
  /// Re-check before every disclosure: as soon as the best *remaining*
  /// candidate scores below beta the task is cancelled. The literal
  /// reading of Algorithm 2 (Line 17 loops back through Line 13).
  kEveryContact,
  /// Check only the initial top-ranked candidate; once the requester
  /// starts contacting, she goes best-effort through the ranked list.
  /// Reproduces the paper's reported utility at strict privacy better
  /// (see bench_ablation_beta and EXPERIMENTS.md).
  kFirstContactOnly,
};

/// The deterministic contact order every ranking call site uses: score
/// descending, then id ascending as the tie-break (Alg. 2 Line 12 plus the
/// determinism contract of DESIGN.md section 10). `Pair` is any
/// (score, id)-shaped pair whose second member orders like an id.
struct ScoreDescIdAscLess {
  template <typename Pair>
  bool operator()(const Pair& a, const Pair& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // Stable tie-break for determinism.
  }
};

/// Sorts a ranked-candidate list into the shared contact order.
template <typename Pair>
void SortRankedCandidates(std::vector<Pair>& ranked) {
  std::sort(ranked.begin(), ranked.end(), ScoreDescIdAscLess{});
}

/// The requester-side U2E ranking stage (Alg. 2 Lines 10-12, DESIGN.md
/// section 10): scores candidates against the *exact* task location — which
/// only the requester knows — and orders them best-first with the shared
/// deterministic tie-break. Probability scoring goes through the batched
/// model kernel (one ProbReachableBatch per task) or the opt-in
/// bounded-error KernelLut; random and nearest-neighbor strategies score
/// from a caller-supplied rank array / the observed distance.
///
/// Not thread-safe (the LUT builds lazily); run-local like the other
/// stages.
class U2eRankStage {
 public:
  struct Config {
    /// Scoring model; required (and only consulted) for kProbability.
    /// Not owned.
    const reachability::ReachabilityModel* model = nullptr;
    RankStrategy rank = RankStrategy::kProbability;
    /// kernel.u2e_lut routes scoring through the bounded-error LUT
    /// (DESIGN.md section 8); off by default.
    reachability::KernelOptions kernel;
    /// The epsilon the candidates' noisy locations were perturbed at —
    /// recorded on the flight recorder's per-task U2E audit event
    /// (recorder.h kAuditCandidates). Audit metadata only; never consulted
    /// by scoring.
    double audit_epsilon = 0.0;
  };

  explicit U2eRankStage(const Config& config);

  /// Ranks `candidates` (indices into `soa`) for a task at
  /// `exact_task_location` into `ranked` (score, worker index), sorted
  /// score-desc / id-asc. `random_rank` supplies the per-worker priorities
  /// for kRandom (may be nullptr otherwise).
  ///
  /// When the flight recorder is on, emits one kAuditCandidates event
  /// (`audit_task_id`, candidate count, config.audit_epsilon) — every
  /// candidate's noisy location is a worker-side disclosure to the
  /// requester — plus one kAuditCandidate per ranked entry in full-audit
  /// mode (obs::AuditFullEnabled).
  void Rank(const reachability::WorkerFilterSoA& soa,
            const std::vector<uint32_t>& candidates,
            geo::Point exact_task_location, const double* random_rank,
            std::vector<std::pair<double, size_t>>& ranked,
            int64_t audit_task_id = obs::kAuditNoTask);

 private:
  Config config_;
  std::optional<reachability::KernelLut> lut_;
  // Batching scratch, reused across tasks.
  std::vector<double> d_;
  std::vector<double> r_;
  std::vector<double> p_;
};

}  // namespace scguard::assign

#endif  // SCGUARD_ASSIGN_STAGES_RANK_STAGE_H_
