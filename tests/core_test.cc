#include <gtest/gtest.h>

#include <vector>

#include "core/protocol.h"
#include "core/scguard.h"
#include "data/workload.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "stats/rng.h"

namespace scguard::core {
namespace {

using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

TEST(WorkerDeviceTest, RegistrationHidesTrueLocation) {
  WorkerDevice device(3, {1000, 2000}, 1500, kDefault);
  stats::Rng rng(1);
  const WorkerRegistration reg = device.Register(rng);
  EXPECT_EQ(reg.worker_id, 3);
  EXPECT_DOUBLE_EQ(reg.reach_radius_m, 1500);
  // The reported location is perturbed (equality has probability zero).
  EXPECT_NE(reg.noisy_location, (geo::Point{1000, 2000}));
}

TEST(WorkerDeviceTest, OfferDecisionIsExactDiskTest) {
  WorkerDevice device(0, {0, 0}, 1000, kDefault);
  EXPECT_TRUE(device.HandleTaskOffer({600, 800}));    // d = 1000, inclusive.
  EXPECT_FALSE(device.HandleTaskOffer({600, 801}));
}

TEST(RequesterDeviceTest, RankingOrdersByReachability) {
  RequesterDevice requester(0, {0, 0}, kDefault);
  const reachability::AnalyticalModel model(kDefault);
  std::vector<CandidateWorker> candidates = {
      {0, {8000, 0}, 1500},  // Far.
      {1, {500, 0}, 1500},   // Near.
      {2, {3000, 0}, 1500},  // Middle.
  };
  const auto plan = requester.RankCandidates(candidates, model, /*beta=*/0.0);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].second, 1);
  EXPECT_EQ(plan[1].second, 2);
  EXPECT_EQ(plan[2].second, 0);
}

TEST(RequesterDeviceTest, BetaFiltersLowProbabilityCandidates) {
  RequesterDevice requester(0, {0, 0}, kDefault);
  const reachability::AnalyticalModel model(kDefault);
  std::vector<CandidateWorker> candidates = {
      {0, {500, 0}, 2000},     // High probability.
      {1, {20000, 0}, 1000},   // Essentially unreachable.
  };
  const auto plan = requester.RankCandidates(candidates, model, /*beta=*/0.3);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].second, 0);
}

TEST(TaskingServerTest, CandidatesRespectAlphaAndAvailability) {
  const reachability::AnalyticalModel model(kDefault);
  TaskingServer server(&model, /*alpha=*/0.1);
  server.RegisterWorker({0, {0, 0}, 2000});
  server.RegisterWorker({1, {500, 0}, 2000});
  server.RegisterWorker({2, {40000, 40000}, 1000});  // Hopeless.
  EXPECT_EQ(server.available_workers(), 3u);
  const TaskRequest request{0, {200, 0}};
  auto candidates = server.FindCandidates(request);
  EXPECT_EQ(candidates.size(), 2u);
  server.MarkAssigned(0);
  EXPECT_EQ(server.available_workers(), 2u);
  candidates = server.FindCandidates(request);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].worker_id, 1);
}

TEST(ProtocolCoordinatorTest, EndToEndAssignsAndCounts) {
  stats::Rng rng(2);
  const reachability::AnalyticalModel model(kDefault);
  TaskingServer server(&model, 0.1);
  std::vector<WorkerDevice> devices;
  // Worker ids must equal their index.
  for (int i = 0; i < 20; ++i) {
    devices.emplace_back(i, geo::Point{i * 500.0, 0.0}, 2000.0, kDefault);
  }
  for (auto& d : devices) server.RegisterWorker(d.Register(rng));

  ProtocolCoordinator coordinator(&server, &model, /*beta=*/0.1);
  RequesterDevice requester(0, {1000, 0}, kDefault);
  const TaskRequest request = requester.Submit(rng);
  const TaskOutcome outcome = coordinator.AssignTask(requester, request, devices);
  ASSERT_TRUE(outcome.assigned_worker.has_value());
  // The assigned worker really can reach the task.
  const WorkerDevice& assigned =
      devices[static_cast<size_t>(*outcome.assigned_worker)];
  EXPECT_TRUE(assigned.HandleTaskOffer(requester.exact_task_location()));
  // Message accounting: one request, one candidate list, >= 1 disclosure.
  EXPECT_EQ(coordinator.trace().task_requests, 1);
  EXPECT_EQ(coordinator.trace().candidate_lists_sent, 1);
  EXPECT_GE(coordinator.trace().task_location_disclosures, 1);
  EXPECT_EQ(coordinator.trace().task_location_disclosures,
            outcome.disclosures);
  EXPECT_EQ(coordinator.trace().rejections, outcome.disclosures - 1);
  // The worker left the pool.
  EXPECT_EQ(server.available_workers(), 19u);
}

TEST(ProtocolCoordinatorTest, HopelessTaskEndsUnassigned) {
  stats::Rng rng(3);
  const reachability::BinaryModel model;
  TaskingServer server(&model, 0.5);
  std::vector<WorkerDevice> devices;
  devices.emplace_back(0, geo::Point{0, 0}, 500.0, kDefault);
  server.RegisterWorker(devices[0].Register(rng));
  ProtocolCoordinator coordinator(&server, &model, 0.0);
  RequesterDevice requester(0, {100000, 100000}, kDefault);
  const TaskRequest request = requester.Submit(rng);
  const TaskOutcome outcome = coordinator.AssignTask(requester, request, devices);
  EXPECT_FALSE(outcome.assigned_worker.has_value());
  EXPECT_EQ(server.available_workers(), 1u);
}

// ---------------------------------------------------------------- Facade

TEST(ScGuardFacadeTest, CreateValidatesOptions) {
  ScGuardOptions options;
  options.worker_params = {0, 800};
  EXPECT_FALSE(ScGuard::Create(options).ok());
  options = ScGuardOptions();
  options.alpha = 0.0;
  EXPECT_FALSE(ScGuard::Create(options).ok());
  options = ScGuardOptions();
  options.beta = 1.5;
  EXPECT_FALSE(ScGuard::Create(options).ok());
  options = ScGuardOptions();
  options.redundancy_k = 0;
  EXPECT_FALSE(ScGuard::Create(options).ok());
  EXPECT_TRUE(ScGuard::Create(ScGuardOptions()).ok());
}

TEST(ScGuardFacadeTest, AlgorithmNames) {
  EXPECT_EQ(AlgorithmKindName(AlgorithmKind::kProbabilisticModel),
            "Probabilistic-Model");
  EXPECT_EQ(AlgorithmKindName(AlgorithmKind::kObliviousRN), "Oblivious-RN");
  ScGuardOptions options;
  options.algorithm = AlgorithmKind::kObliviousRR;
  auto guard = ScGuard::Create(options);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->algorithm_name(), "Oblivious-RR");
}

TEST(ScGuardFacadeTest, PerturbAndAssignRuns) {
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {20000, 20000});
  data::WorkloadConfig wconfig;
  wconfig.num_workers = 60;
  wconfig.num_tasks = 60;
  stats::Rng rng(4);
  const assign::Workload workload =
      data::MakeUniformWorkload(region, wconfig, rng);

  ScGuardOptions options;
  options.algorithm = AlgorithmKind::kProbabilisticModel;
  auto guard = ScGuard::Create(options);
  ASSERT_TRUE(guard.ok());
  const assign::MatchResult result = guard->PerturbAndAssign(workload, rng);
  EXPECT_GT(result.metrics.assigned_tasks, 0);
  EXPECT_LE(result.metrics.assigned_tasks, 60);
}

TEST(ScGuardFacadeTest, ProbabilisticDataBuildsEmpiricalModel) {
  ScGuardOptions options;
  options.algorithm = AlgorithmKind::kProbabilisticData;
  options.empirical.num_samples = 20000;  // Keep the test fast.
  options.empirical.region =
      geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  auto guard = ScGuard::Create(options);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->algorithm_name(), "Probabilistic-Data");

  data::WorkloadConfig wconfig;
  wconfig.num_workers = 40;
  wconfig.num_tasks = 40;
  stats::Rng rng(5);
  const assign::Workload workload =
      data::MakeUniformWorkload(options.empirical.region, wconfig, rng);
  const assign::MatchResult result = guard->PerturbAndAssign(workload, rng);
  EXPECT_GT(result.metrics.assigned_tasks, 0);
}

TEST(ScGuardFacadeTest, GroundTruthIgnoresNoise) {
  ScGuardOptions options;
  options.algorithm = AlgorithmKind::kGroundTruthNN;
  auto guard = ScGuard::Create(options);
  ASSERT_TRUE(guard.ok());
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {15000, 15000});
  data::WorkloadConfig wconfig;
  wconfig.num_workers = 50;
  wconfig.num_tasks = 50;
  stats::Rng rng(6);
  const assign::Workload workload =
      data::MakeUniformWorkload(region, wconfig, rng);
  const assign::MatchResult result = guard->Assign(workload, rng);
  EXPECT_EQ(result.metrics.false_hits, 0);
}

}  // namespace
}  // namespace scguard::core
