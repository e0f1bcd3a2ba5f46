#include "oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "common/check.h"
#include "data/workload.h"
#include "obs/recorder.h"
#include "privacy/mechanism.h"

namespace scguard::oracle {

std::vector<Event> TaskEvents(const assign::Workload& workload) {
  std::vector<Event> events;
  for (const assign::Task& t : workload.tasks) {
    events.push_back({Event::Kind::kTask, t.id, 0, t.location,
                      t.noisy_location});
  }
  return events;
}

NaiveU2u::NaiveU2u(const assign::EnginePolicy& policy,
                   const geo::BoundingBox& region)
    : model_(policy.u2u_model),
      alpha_(policy.alpha),
      prune_(policy.pruning_gamma.has_value()) {
  if (prune_) {
    const double gamma = *policy.pruning_gamma;
    worker_radius_m_ = privacy::MakeMechanismOrDie(policy.worker_params, region)
                           ->ConfidenceRadius(gamma);
    task_radius_m_ = privacy::MakeMechanismOrDie(policy.task_params, region)
                         ->ConfidenceRadius(gamma);
  }
}

std::vector<uint32_t> NaiveU2u::Collect(
    const std::vector<geo::Point>& noisy,
    const std::vector<double>& reach_radius_m,
    const std::vector<uint8_t>& matched, geo::Point task_noisy,
    int64_t* scanned) const {
  const geo::BoundingBox task_box =
      geo::BoundingBox::FromCircle(task_noisy, task_radius_m_);
  std::vector<uint32_t> out;
  *scanned = 0;
  for (size_t i = 0; i < noisy.size(); ++i) {
    if (matched[i]) continue;
    if (prune_ &&
        !geo::BoundingBox::FromCircle(noisy[i],
                                      worker_radius_m_ + reach_radius_m[i])
             .Intersects(task_box)) {
      continue;
    }
    ++*scanned;
    const double d = geo::Distance(noisy[i], task_noisy);
    if (model_->ProbReachable(reachability::Stage::kU2U, d,
                              reach_radius_m[i]) >= alpha_) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

assign::MatchResult Run(const assign::EnginePolicy& policy,
                        const geo::BoundingBox& region,
                        std::vector<assign::Worker> workers,
                        const std::vector<Event>& events,
                        stats::Rng& rank_rng, bool reactivate_on_report) {
  SCGUARD_CHECK(!policy.kernel.u2e_lut);
  const size_t n = workers.size();
  std::vector<double> random_rank(n);
  for (double& r : random_rank) r = rank_rng.UniformDouble();
  std::vector<geo::Point> noisy(n);
  std::vector<double> radius(n);
  std::vector<uint8_t> matched(n, 0);
  for (size_t i = 0; i < n; ++i) {
    noisy[i] = workers[i].noisy_location;
    radius[i] = workers[i].reach_radius_m;
  }

  const NaiveU2u u2u(policy, region);
  const assign::E2eContactStage e2e({.rank = policy.rank,
                                     .beta = policy.beta,
                                     .beta_mode = policy.beta_mode,
                                     .redundancy_k = policy.redundancy_k});
  assign::MatchResult result;
  assign::RunMetrics& m = result.metrics;
  m.num_workers = static_cast<int64_t>(n);

  for (const Event& ev : events) {
    if (ev.kind == Event::Kind::kReport) {
      workers[ev.worker].location = ev.exact;
      workers[ev.worker].noisy_location = ev.noisy;
      noisy[ev.worker] = ev.noisy;
      if (reactivate_on_report) matched[ev.worker] = 0;
      continue;
    }

    // U2U.
    m.num_tasks += 1;
    int64_t scanned = 0;
    const std::vector<uint32_t> candidates =
        u2u.Collect(noisy, radius, matched, ev.noisy, &scanned);
    m.u2u_scanned += scanned;
    if (m.num_tasks == 1) m.u2u_scanned_first_task = scanned;
    m.u2u_scanned_last_task = scanned;
    m.candidates_sum += static_cast<int64_t>(candidates.size());
    m.server_to_requester_msgs += 1;

    if (policy.compute_accuracy_metrics) {
      int64_t reachable_available = 0;
      int64_t candidates_reachable = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!matched[i] && workers[i].CanReach(ev.exact)) {
          ++reachable_available;
        }
      }
      for (const uint32_t i : candidates) {
        if (workers[i].CanReach(ev.exact)) ++candidates_reachable;
      }
      if (!candidates.empty()) {
        m.precision_sum += static_cast<double>(candidates_reachable) /
                           static_cast<double>(candidates.size());
        m.precision_count += 1;
      }
      if (reachable_available > 0) {
        m.recall_sum += static_cast<double>(candidates_reachable) /
                        static_cast<double>(reachable_available);
        m.recall_count += 1;
      }
    }
    if (candidates.empty()) continue;

    // U2E.
    if (obs::RecorderEnabled()) {
      obs::AuditU2eCandidates(ev.task_id,
                              static_cast<int64_t>(candidates.size()),
                              policy.worker_params.epsilon);
    }
    std::vector<std::pair<double, size_t>> ranked;
    for (const uint32_t i : candidates) {
      const double d = geo::Distance(noisy[i], ev.exact);
      double score = 0.0;
      switch (policy.rank) {
        case assign::RankStrategy::kProbability:
          score = policy.u2e_model->ProbReachable(reachability::Stage::kU2E,
                                                  d, radius[i]);
          break;
        case assign::RankStrategy::kRandom:
          score = random_rank[i];
          break;
        case assign::RankStrategy::kNearest:
          score = -d;
          break;
      }
      ranked.emplace_back(score, i);
    }
    std::sort(ranked.begin(), ranked.end(), assign::ScoreDescIdAscLess{});

    // E2E.
    e2e.Run(
        ranked,
        [&](size_t i) {
          const assign::Worker& w = workers[i];
          if (!w.CanReach(ev.exact)) return false;
          matched[i] = 1;
          const double travel = geo::Distance(w.location, ev.exact);
          result.assignments.push_back({ev.task_id, w.id, travel});
          m.accepted_assignments += 1;
          m.travel_sum_m += travel;
          return true;
        },
        [&](size_t i) { return workers[i].CanReach(ev.exact); }, m,
        ev.task_id, assign::UnknownAdmitFilter{});
  }
  return result;
}

assign::Workload NoisyWorkload(int workers, int tasks, uint64_t seed) {
  constexpr privacy::PrivacyParams kPaper{0.7, 800.0};
  data::WorkloadConfig config;
  config.num_workers = workers;
  config.num_tasks = tasks;
  stats::Rng rng(seed);
  assign::Workload w = data::MakeUniformWorkload(
      geo::BoundingBox::FromCorners({0, 0}, {20000, 20000}), config, rng);
  data::PerturbWorkload(kPaper, kPaper, rng, w);
  return w;
}

void ExpectSameResult(const assign::MatchResult& want,
                      const assign::MatchResult& got,
                      const std::string& label) {
  ASSERT_EQ(want.assignments.size(), got.assignments.size()) << label;
  for (size_t i = 0; i < want.assignments.size(); ++i) {
    EXPECT_EQ(want.assignments[i].task_id, got.assignments[i].task_id)
        << label << " @" << i;
    EXPECT_EQ(want.assignments[i].worker_id, got.assignments[i].worker_id)
        << label << " @" << i;
    EXPECT_EQ(want.assignments[i].travel_m, got.assignments[i].travel_m)
        << label << " @" << i;
  }
  const assign::RunMetrics& a = want.metrics;
  const assign::RunMetrics& b = got.metrics;
  EXPECT_EQ(a.num_tasks, b.num_tasks) << label;
  EXPECT_EQ(a.num_workers, b.num_workers) << label;
  EXPECT_EQ(a.assigned_tasks, b.assigned_tasks) << label;
  EXPECT_EQ(a.accepted_assignments, b.accepted_assignments) << label;
  EXPECT_EQ(a.travel_sum_m, b.travel_sum_m) << label;
  EXPECT_EQ(a.candidates_sum, b.candidates_sum) << label;
  EXPECT_EQ(a.precision_sum, b.precision_sum) << label;
  EXPECT_EQ(a.precision_count, b.precision_count) << label;
  EXPECT_EQ(a.recall_sum, b.recall_sum) << label;
  EXPECT_EQ(a.recall_count, b.recall_count) << label;
  EXPECT_EQ(a.false_hits, b.false_hits) << label;
  EXPECT_EQ(a.false_dismissals, b.false_dismissals) << label;
  EXPECT_EQ(a.server_to_requester_msgs, b.server_to_requester_msgs) << label;
  EXPECT_EQ(a.requester_to_worker_msgs, b.requester_to_worker_msgs) << label;
  EXPECT_EQ(a.u2u_scanned, b.u2u_scanned) << label;
  EXPECT_EQ(a.u2u_scanned_first_task, b.u2u_scanned_first_task) << label;
  EXPECT_EQ(a.u2u_scanned_last_task, b.u2u_scanned_last_task) << label;
}

obs::AuditTotals DrainAudit() {
  auto& recorder = obs::FlightRecorder::Global();
  const obs::AuditTotals totals = obs::SummarizeAudit(recorder.Drain());
  EXPECT_EQ(recorder.dropped(), 0);
  return totals;
}

void ExpectSameAudit(const obs::AuditTotals& want, const obs::AuditTotals& got,
                     const std::string& label) {
  EXPECT_EQ(want.u2e_rankings, got.u2e_rankings) << label;
  EXPECT_EQ(want.u2e_candidates_sum, got.u2e_candidates_sum) << label;
  EXPECT_EQ(want.e2e_disclosures, got.e2e_disclosures) << label;
  EXPECT_EQ(want.e2e_accepted, got.e2e_accepted) << label;
}

Expected Expect(const assign::EnginePolicy& policy,
                const assign::Workload& workload, uint64_t seed) {
  Expected want;
  stats::Rng rng(seed);
  want.result = Run(policy, workload.region, workload.workers,
                    TaskEvents(workload), rng);
  want.next_draw = rng.UniformDouble();
  want.audit = DrainAudit();
  return want;
}

assign::MatchResult ExpectEngineMatches(const Expected& want,
                                        const assign::EnginePolicy& policy,
                                        const assign::Workload& workload,
                                        uint64_t seed,
                                        const std::string& label) {
  assign::ScGuardEngine engine(policy);
  stats::Rng rng(seed);
  assign::MatchResult got = engine.Run(workload, rng);
  ExpectSameResult(want.result, got, label);
  EXPECT_EQ(want.next_draw, rng.UniformDouble()) << label;
  ExpectSameAudit(want.audit, DrainAudit(), label);
  return got;
}

}  // namespace scguard::oracle
