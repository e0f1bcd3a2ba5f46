#include "core/protocol.h"

#include <utility>

#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "common/check.h"

namespace scguard::core {

// ---------------------------------------------------------------- Worker

WorkerDevice::WorkerDevice(int64_t id, geo::Point true_location,
                           double reach_radius_m,
                           const privacy::PrivacyParams& params)
    : id_(id),
      true_location_(true_location),
      reach_radius_m_(reach_radius_m),
      params_(params),
      mechanism_(privacy::MakeMechanismOrDie(params)) {
  SCGUARD_CHECK(reach_radius_m > 0.0);
}

WorkerRegistration WorkerDevice::Register(stats::Rng& rng) {
  return {id_, mechanism_->Perturb(true_location_, rng), reach_radius_m_};
}

bool WorkerDevice::HandleTaskOffer(geo::Point exact_task_location) const {
  return geo::Distance(true_location_, exact_task_location) <= reach_radius_m_;
}

// ------------------------------------------------------------- Requester

RequesterDevice::RequesterDevice(int64_t task_id, geo::Point true_task_location,
                                 const privacy::PrivacyParams& params)
    : task_id_(task_id),
      true_task_location_(true_task_location),
      mechanism_(privacy::MakeMechanismOrDie(params)) {}

TaskRequest RequesterDevice::Submit(stats::Rng& rng) {
  return {task_id_, mechanism_->Perturb(true_task_location_, rng)};
}

std::vector<std::pair<double, int64_t>> RequesterDevice::RankCandidates(
    const std::vector<CandidateWorker>& candidates,
    const reachability::ReachabilityModel& model, double beta) const {
  // One batched model call scores the whole list (bit-identical to
  // per-candidate ProbReachable, see kernel_test).
  const size_t n = candidates.size();
  std::vector<double> d(n), r(n), p(n);
  for (size_t i = 0; i < n; ++i) {
    d[i] = geo::Distance(candidates[i].noisy_location, true_task_location_);
    r[i] = candidates[i].reach_radius_m;
  }
  model.ProbReachableBatch(reachability::Stage::kU2E, d.data(), r.data(), n,
                           p.data());
  std::vector<std::pair<double, int64_t>> plan;
  plan.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (p[i] < beta) continue;  // Below the disclosure threshold.
    plan.emplace_back(p[i], candidates[i].worker_id);
  }
  assign::SortRankedCandidates(plan);
  return plan;
}

// ---------------------------------------------------------------- Server

TaskingServer::TaskingServer(const reachability::ReachabilityModel* model,
                             double alpha)
    : stage_({.model = model, .alpha = alpha, .pruning = std::nullopt}) {}

void TaskingServer::RegisterWorker(const WorkerRegistration& registration) {
  worker_ids_.push_back(registration.worker_id);
  stage_.AddWorker(registration.noisy_location, registration.reach_radius_m);
}

std::vector<CandidateWorker> TaskingServer::FindCandidates(
    const TaskRequest& request) const {
  // The stage emits ascending worker indices of the still-available
  // candidates — the same order the per-registration scan produced.
  const std::vector<uint32_t>& indices =
      stage_.Collect(request.noisy_location);
  const reachability::WorkerFilterSoA& soa = stage_.soa();
  std::vector<CandidateWorker> candidates;
  candidates.reserve(indices.size());
  for (const uint32_t i : indices) {
    candidates.push_back(
        {worker_ids_[i], {soa.x[i], soa.y[i]}, soa.reach_radius_m[i]});
  }
  return candidates;
}

void TaskingServer::MarkAssigned(int64_t worker_id) {
  for (size_t i = 0; i < worker_ids_.size(); ++i) {
    if (worker_ids_[i] == worker_id) {
      stage_.MarkMatched(static_cast<uint32_t>(i));
      return;
    }
  }
  SCGUARD_CHECK(false && "unknown worker id");
}

size_t TaskingServer::available_workers() const { return stage_.available(); }

// ----------------------------------------------------------- Coordinator

ProtocolCoordinator::ProtocolCoordinator(
    TaskingServer* server, const reachability::ReachabilityModel* u2e_model,
    double beta)
    : server_(server), u2e_model_(u2e_model), beta_(beta) {
  SCGUARD_CHECK(server != nullptr && u2e_model != nullptr);
  SCGUARD_CHECK(beta >= 0.0 && beta <= 1.0);
}

TaskOutcome ProtocolCoordinator::AssignTask(
    const RequesterDevice& requester, const TaskRequest& request,
    const std::vector<WorkerDevice>& workers) {
  TaskOutcome outcome;
  outcome.task_id = requester.task_id();
  trace_.task_requests += 1;

  // U2U on the server over perturbed data only.
  const std::vector<CandidateWorker> candidates =
      server_->FindCandidates(request);
  trace_.candidate_lists_sent += 1;
  outcome.candidates = static_cast<int64_t>(candidates.size());
  if (candidates.empty()) return outcome;

  // U2E on the requester's device (exact task location never leaves it
  // until the targeted disclosure below).
  const std::vector<std::pair<double, int64_t>> plan =
      requester.RankCandidates(candidates, *u2e_model_, beta_);

  // E2E: disclose the task location to one worker at a time. The plan is
  // already beta-filtered and ordered, so the shared contact stage runs
  // gate-free and this adapter only routes offers to the devices; each
  // audited disclosure carries the U2E score that justified it.
  const assign::E2eContactStage contact(
      {.rank = assign::RankStrategy::kProbability, .beta = 0.0,
       .beta_mode = assign::BetaMode::kEveryContact, .redundancy_k = 1});
  const assign::E2eContactStage::Outcome o = contact.Contact(
      plan,
      [&](int64_t worker_id) {
        SCGUARD_CHECK(worker_id >= 0 &&
                      static_cast<size_t>(worker_id) < workers.size());
        const WorkerDevice& device = workers[static_cast<size_t>(worker_id)];
        if (!device.HandleTaskOffer(requester.exact_task_location())) {
          return false;
        }
        server_->MarkAssigned(worker_id);
        outcome.assigned_worker = worker_id;
        return true;
      },
      requester.task_id(), assign::UnknownAdmitFilter{});
  trace_.task_location_disclosures += o.disclosures;
  trace_.rejections += o.false_hits;
  outcome.disclosures = o.disclosures;
  return outcome;
}

}  // namespace scguard::core
