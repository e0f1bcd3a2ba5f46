// Runtime-knob invariance of the engine's U2U grid walk (DESIGN.md section
// 9), the active set it runs on (matched workers leave the grid), and the
// removal support it leans on in the index layer. The walk is serial; the
// contract under test: for a fixed policy and workload, MatchResult and the
// caller's RNG stream are bit-identical for every (pool, shard_size)
// setting — and equal to the naive oracle's full scan (tests/oracle.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
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

// The invariance matrix: pools {serial, 1, 2, 8} x shard sizes {64, 1024}
// x pruner {off, grid}, each cell compared bit for bit (including the
// caller's RNG stream) against the oracle's direct-evaluation full scan —
// so the threshold kernel, the active set and the mirror are all held to
// it at once.
TEST(EngineParallelTest, ThreadShardPrunerThresholdInvariance) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(300, 20260806);

  // Pools are shared across cells; every Run must leave them reusable.
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  pools.push_back(nullptr);  // Serial.
  for (const int threads : {1, 2, 8}) {
    pools.push_back(std::make_unique<runtime::ThreadPool>(threads));
  }

  for (const std::optional<double> gamma : {std::optional<double>(), {0.9}}) {
    EnginePolicy policy = BasePolicy(&model);
    policy.pruning_gamma = gamma;
    const oracle::Expected want = oracle::Expect(policy, workload, 7);
    ASSERT_GT(want.result.metrics.assigned_tasks, 0);
    for (const auto& pool : pools) {
      for (const int shard_size : {64, 1024}) {
        policy.runtime.pool = pool.get();
        policy.runtime.shard_size = shard_size;
        oracle::ExpectEngineMatches(
            want, policy, workload, 7,
            std::string("pruner=") + (gamma ? "grid" : "off") +
                " threads=" + std::to_string(pool ? pool->num_threads() : 0) +
                " shard=" + std::to_string(shard_size));
      }
    }
  }
}

// Nested use: Run invoked from inside a pool worker (as ExperimentRunner's
// seed fan-out does) must not deadlock and must produce the identical
// result.
TEST(EngineParallelTest, NestedInsidePoolWorkerFallsBackSerially) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(150, 99);
  runtime::ThreadPool pool(4);

  EnginePolicy policy = BasePolicy(&model);
  policy.runtime.pool = &pool;
  policy.runtime.shard_size = 32;
  ScGuardEngine engine(policy);

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

  EnginePolicy policy = BasePolicy(&model);
  policy.runtime.shard_size = 64;
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

// ---- SIMD dispatch of the range kernels ----------------------------------

// Forcing the dispatcher to scalar must take effect regardless of the host
// CPU (CI runs this everywhere), an AVX2 request must fall back to scalar
// on hosts without it, and ResetClassifySimd must restore auto-dispatch —
// with both range kernels returning the scalar loops' outputs throughout.
TEST(ClassifyKernelTest, DispatchOverrideAndReset) {
  stats::Rng rng(7);
  const size_t n = 37;  // Not a multiple of the vector width.
  reachability::CellRows rows;
  rows.Resize(n);
  for (size_t i = 0; i < n; ++i) {
    rows.id[i] = static_cast<uint32_t>(i);
    rows.x[i] = rng.UniformDouble(0.0, 20000.0);
    rows.y[i] = rng.UniformDouble(0.0, 20000.0);
    rows.expanded_r[i] = rng.UniformDouble(500.0, 4000.0);
    const double accept = rng.UniformDouble(0.0, 10000.0);
    const double reject = accept + rng.UniformDouble(0.0, 8000.0);
    rows.accept_below_sq[i] = accept * accept;
    rows.reject_above_sq[i] = reject * reject;
  }
  const double tx = 123.0, ty = 456.0;
  const double q_min = 0.0, q_max = 8000.0;
  std::vector<uint32_t> accept_ref, band_ref, rect_accept_ref, rect_band_ref;
  reachability::ClassifyCertainBandRangeScalar(rows, 0, n, tx, ty, accept_ref,
                                               band_ref);
  const size_t admitted_ref = reachability::ClassifyCertainBandRangeRectScalar(
      rows, 0, n, tx, ty, q_min, q_min, q_max, q_max, rect_accept_ref,
      rect_band_ref);
  ASSERT_FALSE(accept_ref.empty());
  ASSERT_LT(admitted_ref, n);
  const auto expect_dispatch_matches = [&](const std::string& label) {
    std::vector<uint32_t> accept, band;
    reachability::ClassifyCertainBandRange(rows, 0, n, tx, ty, accept, band);
    EXPECT_EQ(accept, accept_ref) << label;
    EXPECT_EQ(band, band_ref) << label;
    accept.clear();
    band.clear();
    EXPECT_EQ(reachability::ClassifyCertainBandRangeRect(
                  rows, 0, n, tx, ty, q_min, q_min, q_max, q_max, accept,
                  band),
              admitted_ref)
        << label;
    EXPECT_EQ(accept, rect_accept_ref) << label;
    EXPECT_EQ(band, rect_band_ref) << label;
  };

  reachability::SetClassifySimd(reachability::ClassifySimd::kScalar);
  EXPECT_EQ(reachability::ActiveClassifySimd(),
            reachability::ClassifySimd::kScalar);
  expect_dispatch_matches("forced scalar");

  reachability::SetClassifySimd(reachability::ClassifySimd::kAvx2);
#if defined(SCGUARD_HAVE_AVX2)
  const auto expected_simd = reachability::CpuSupportsAvx2()
                                 ? reachability::ClassifySimd::kAvx2
                                 : reachability::ClassifySimd::kScalar;
#else
  const auto expected_simd = reachability::ClassifySimd::kScalar;
#endif
  EXPECT_EQ(reachability::ActiveClassifySimd(), expected_simd);
  // Whatever the dispatch resolved to, the output contract is the same.
  expect_dispatch_matches("avx2 request");

  reachability::ResetClassifySimd();
  expect_dispatch_matches("auto dispatch");
}

// Engine-level SIMD invariance: a full protocol run under forced-scalar and
// forced-AVX2 dispatch produces the identical MatchResult and RNG stream,
// with the pruner both off (the all-admitting walk) and on.
TEST(EngineParallelTest, SimdDispatchRunInvariance) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(250, 20260807);

  for (const bool prune : {false, true}) {
    EnginePolicy policy = BasePolicy(&model);
    if (prune) policy.pruning_gamma = 0.9;

    reachability::SetClassifySimd(reachability::ClassifySimd::kScalar);
    ScGuardEngine scalar_engine(policy);
    stats::Rng scalar_rng(11);
    const MatchResult scalar_result = scalar_engine.Run(workload, scalar_rng);
    ASSERT_GT(scalar_result.metrics.assigned_tasks, 0);
    const double scalar_next_draw = scalar_rng.UniformDouble();

    reachability::SetClassifySimd(reachability::ClassifySimd::kAvx2);
    ScGuardEngine simd_engine(policy);
    stats::Rng simd_rng(11);
    const MatchResult simd_result = simd_engine.Run(workload, simd_rng);
    reachability::ResetClassifySimd();

    const std::string label = prune ? "pruner=grid" : "pruner=off";
    oracle::ExpectSameResult(scalar_result, simd_result, label);
    EXPECT_EQ(scalar_next_draw, simd_rng.UniformDouble()) << label;
  }
}

}  // namespace
}  // namespace scguard::assign
