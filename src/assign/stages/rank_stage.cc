#include "assign/stages/rank_stage.h"

#include "common/check.h"

namespace scguard::assign {

U2eRankStage::U2eRankStage(const Config& config) : config_(config) {
  if (config_.rank == RankStrategy::kProbability) {
    SCGUARD_CHECK(config_.model != nullptr);
    if (config_.kernel.u2e_lut) {
      lut_.emplace(config_.model, reachability::Stage::kU2E);
    }
  }
}

void U2eRankStage::Rank(const reachability::WorkerFilterSoA& soa,
                        const std::vector<uint32_t>& candidates,
                        geo::Point exact_task_location,
                        const double* random_rank,
                        std::vector<std::pair<double, size_t>>& ranked,
                        int64_t audit_task_id) {
  ranked.clear();
  if (config_.rank == RankStrategy::kProbability) {
    // Batched scoring: gather candidate distances/radii into dense arrays,
    // then one ProbReachableBatch call (or the bounded-error LUT when
    // enabled) instead of a virtual call per candidate.
    const size_t c = candidates.size();
    d_.resize(c);
    r_.resize(c);
    p_.resize(c);
    for (size_t k = 0; k < c; ++k) {
      const size_t i = candidates[k];
      d_[k] = geo::Distance({soa.x[i], soa.y[i]}, exact_task_location);
      r_[k] = soa.reach_radius_m[i];
    }
    if (lut_.has_value()) {
      for (size_t k = 0; k < c; ++k) p_[k] = lut_->Prob(d_[k], r_[k]);
    } else {
      config_.model->ProbReachableBatch(reachability::Stage::kU2E, d_.data(),
                                        r_.data(), c, p_.data());
    }
    for (size_t k = 0; k < c; ++k) {
      ranked.emplace_back(p_[k], candidates[k]);
    }
  } else {
    for (const uint32_t i : candidates) {
      const double score =
          config_.rank == RankStrategy::kRandom
              ? random_rank[i]
              : -geo::Distance({soa.x[i], soa.y[i]}, exact_task_location);
      ranked.emplace_back(score, i);
    }
  }
  SortRankedCandidates(ranked);

  if (obs::RecorderEnabled()) {
    // Each candidate's noisy location reached the requester: one aggregate
    // audit event per ranking (reconciles with RunMetrics::candidates_sum),
    // per-candidate lines only in full-audit mode — O(candidates) events
    // per task is for small runs and tests, not the 1M bench.
    obs::AuditU2eCandidates(audit_task_id,
                            static_cast<int64_t>(candidates.size()),
                            config_.audit_epsilon);
    if (obs::AuditFullEnabled()) {
      for (const auto& [score, i] : ranked) {
        obs::AuditU2eCandidate(audit_task_id, static_cast<int64_t>(i), score);
      }
    }
  }
}

}  // namespace scguard::assign
