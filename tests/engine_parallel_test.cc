// The engine's U2U grid walk against the naive oracle's full scan
// (tests/oracle.h), pruned and unpruned (DESIGN.md section 9): MatchResult
// and the caller's RNG stream bit-identical; an engine run from inside a
// pool worker; the active set the walk runs on (matched workers leave the
// grid); and the removal support it leans on in the index layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "assign/scguard_engine.h"
#include "geo/bbox.h"
#include "index/grid_index.h"
#include "index/pruning.h"
#include "oracle.h"
#include "reachability/analytical_model.h"
#include "reachability/kernel.h"
#include "runtime/task_group.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"

namespace scguard::assign {
namespace {

using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

Workload NoisyWorkload(int n, uint64_t seed) {
  return oracle::NoisyWorkload(n, n, seed);
}

EnginePolicy BasePolicy(const reachability::AnalyticalModel* model) {
  EnginePolicy policy;
  policy.u2u_model = model;
  policy.u2e_model = model;
  policy.alpha = 0.1;
  policy.beta = 0.25;
  policy.rank = RankStrategy::kProbability;
  policy.worker_params = kDefault;
  policy.task_params = kDefault;
  return policy;
}

// Pruner {off, grid}, each compared bit for bit (including the caller's
// RNG stream) against the oracle's direct-evaluation full scan — so the
// threshold kernel, the active set and the grid's rows are all held to it
// at once. (The name predates the deleted pool and shard settings.)
TEST(EngineParallelTest, ThreadShardPrunerThresholdInvariance) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(300, 20260806);

  for (const std::optional<double> gamma : {std::optional<double>(), {0.9}}) {
    EnginePolicy policy = BasePolicy(&model);
    policy.pruning_gamma = gamma;
    const oracle::Expected want = oracle::Expect(policy, workload, 7);
    ASSERT_GT(want.result.metrics.assigned_tasks, 0);
    oracle::ExpectEngineMatches(want, policy, workload, 7,
                                gamma ? "pruner=grid" : "pruner=off");
  }
}

// Nested use: Run invoked from inside a pool worker (as ExperimentRunner's
// seed fan-out does) must not deadlock and must produce the identical
// result.
TEST(EngineParallelTest, NestedInsidePoolWorkerFallsBackSerially) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(150, 99);
  runtime::ThreadPool pool(4);

  ScGuardEngine engine(BasePolicy(&model));

  stats::Rng serial_rng(3);
  const MatchResult expected = engine.Run(workload, serial_rng);

  MatchResult nested;
  {
    runtime::TaskGroup group(pool);
    group.Run([&]() -> Status {
      EXPECT_TRUE(runtime::ThreadPool::InWorkerThread());
      stats::Rng rng(3);
      nested = engine.Run(workload, rng);
      return Status::OK();
    });
    ASSERT_TRUE(group.Wait().ok());
  }
  oracle::ExpectSameResult(expected, nested, "nested-in-pool");
}

// The active set is an optimization, not a semantic change: the unpruned
// engine must agree with the oracle's rescan of every available worker on
// every decision, its first task must scan every worker, and the scan work
// per task must shrink as workers get matched.
TEST(EngineParallelTest, ActiveSetMatchesFullScanAndShrinksWork) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(400, 11);

  const EnginePolicy policy = BasePolicy(&model);
  const MatchResult r = oracle::ExpectEngineMatches(
      oracle::Expect(policy, workload, 5), policy, workload, 5,
      "active set vs oracle full scan");

  // The decay is visible in the first/last per-task snapshots once
  // anything was assigned.
  ASSERT_GT(r.metrics.assigned_tasks, 0);
  EXPECT_LT(r.metrics.u2u_scanned_last_task, r.metrics.u2u_scanned_first_task);
  EXPECT_EQ(r.metrics.u2u_scanned_first_task, 400);
}

// Same equivalence through the pruning index: the engine removes matched
// workers from the index, the oracle skips them in its rectangle loop.
TEST(EngineParallelTest, ActiveSetMatchesFullScanUnderPruner) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(300, 17);

  EnginePolicy policy = BasePolicy(&model);
  policy.pruning_gamma = 0.9;
  const MatchResult r = oracle::ExpectEngineMatches(
      oracle::Expect(policy, workload, 5), policy, workload, 5,
      "grid pruner vs oracle");
  ASSERT_GT(r.metrics.assigned_tasks, 0);
  // The rectangles skip workers from the first task on.
  EXPECT_LT(r.metrics.u2u_scanned_first_task, 300);
}

TEST(GridIndexRemoveTest, QueryAfterRemoveReAddAndIdempotence) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  index::GridIndex grid(region, 8);
  grid.Insert({150, 150}, 50.0, 1);   // Rectangle [100,200]^2.
  grid.Insert({225, 225}, 75.0, 2);   // Rectangle [150,300]^2.
  ASSERT_EQ(grid.size(), 2u);

  const geo::BoundingBox everywhere = region;
  EXPECT_EQ(grid.QueryIds(everywhere).size(), 2u);

  // Remove drops the entry from every query it previously matched.
  EXPECT_TRUE(grid.Remove(1));
  EXPECT_EQ(grid.size(), 1u);
  {
    const auto ids = grid.QueryIds(everywhere);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 2u);
  }

  // Idempotent: a second removal is a no-op.
  EXPECT_FALSE(grid.Remove(1));
  EXPECT_FALSE(grid.Remove(777));  // Unknown id too.
  EXPECT_EQ(grid.size(), 1u);

  // Re-add under the same id: live again, with the new rectangle only.
  grid.Insert({850, 850}, 50.0, 1);  // Rectangle [800,900]^2.
  EXPECT_EQ(grid.size(), 2u);
  {
    const auto ids = grid.QueryIds(
        geo::BoundingBox::FromCorners({790, 790}, {950, 950}));
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 1u);
  }
  // The old rectangle of id 1 stays dead.
  {
    const auto ids = grid.QueryIds(
        geo::BoundingBox::FromCorners({90, 90}, {140, 140}));
    EXPECT_TRUE(ids.empty());
  }
}

// The grid is the only backend; it must drop removed workers natively.
TEST(PrunerRemoveTest, AllBackendsStopReturningRemovedWorkers) {
  reachability::WorkerFilterSoA workers;
  workers.Resize(20);
  workers.accept_below_sq.assign(20, -1.0);
  workers.reject_above_sq.assign(20, 0.0);
  for (size_t i = 0; i < 20; ++i) {
    workers.x[i] = workers.y[i] = 100.0 * static_cast<double>(i);
    workers.reach_radius_m[i] = 500.0;
  }
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {2000, 2000});

  index::UncertainRegionPruner pruner(workers, kDefault, kDefault,
                                      /*gamma=*/0.9, region);
  const geo::Point probe{500.0, 500.0};
  std::vector<uint32_t> before = pruner.Candidates(probe);
  ASSERT_FALSE(before.empty());
  const uint32_t victim = before.front();

  pruner.Remove(victim);
  pruner.Remove(victim);  // Idempotent.
  std::vector<uint32_t> after = pruner.Candidates(probe);
  EXPECT_EQ(after.size(), before.size() - 1);
  for (const uint32_t id : after) EXPECT_NE(id, victim);
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));

  // Restore brings it back, in order.
  pruner.Restore(victim, workers);
  EXPECT_EQ(pruner.Candidates(probe), before);
}

}  // namespace
}  // namespace scguard::assign
