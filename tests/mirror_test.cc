// The U2U grid's cell-major scoring rows (DESIGN.md section 13):
// bit-identity of the Collect walk, pruned and unpruned, against the naive
// oracle's rectangle-and-direct-eval loop (tests/oracle.h) across models;
// row and aggregate consistency under index churn; and the range
// classification kernels against branchy references. (The suites keep the
// names of the scoring mirror that the grid's rows replaced.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "assign/scguard_engine.h"
#include "assign/stages/candidate_stage.h"
#include "geo/bbox.h"
#include "index/grid_index.h"
#include "index/pruning.h"
#include "oracle.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "reachability/empirical_model.h"
#include "reachability/kernel.h"
#include "stats/rng.h"

namespace scguard::assign {
namespace {

using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

Workload NoisyWorkload(int n, uint64_t seed) {
  return oracle::NoisyWorkload(n, n, seed);
}

// The acceptance sweep: for three models and pruning off / on, the engine
// must reproduce the oracle's MatchResult and caller RNG stream bit for
// bit. (The name predates the deleted SIMD and pool settings.)
TEST(MirrorEngineSweepTest, BitIdenticalAcrossModelPrunerSimdPoolMirror) {
  const reachability::AnalyticalModel analytical(kDefault);
  const reachability::BinaryModel binary;
  reachability::EmpiricalModelConfig econfig;
  econfig.region = geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  econfig.num_samples = 20000;
  stats::Rng build_rng(20260809);
  const auto empirical =
      reachability::EmpiricalModel::Build(econfig, kDefault, build_rng);

  const Workload workload = NoisyWorkload(160, 20260808);

  struct ModelCase {
    const char* name;
    const reachability::ReachabilityModel* model;
  };
  const ModelCase models[] = {
      {"analytical", &analytical},
      {"binary", &binary},
      {"empirical", &*empirical},
  };

  for (const ModelCase& mc : models) {
    for (const bool prune : {false, true}) {
      EnginePolicy base;
      base.u2u_model = mc.model;
      base.u2e_model = mc.model;
      base.alpha = 0.1;
      base.beta = 0.25;
      base.rank = RankStrategy::kProbability;
      base.worker_params = kDefault;
      base.task_params = kDefault;
      if (prune) base.pruning_gamma = 0.9;
      const std::string pruner = prune ? "grid" : "off";

      const oracle::Expected want = oracle::Expect(base, workload, 7);
      ASSERT_GT(want.result.metrics.assigned_tasks, 0)
          << mc.name << "/" << pruner;
      oracle::ExpectEngineMatches(want, base, workload, 7,
                                  std::string(mc.name) + "/" + pruner);
    }
  }
}

// A dense grid-pruned run must actually exercise the certificate-direct
// path (cells emitted with zero per-worker loads), and the pruned scan's
// modeled traffic must come in under a scattered gather of the same
// scanned workers (one 64 B line per SoA stream: x, y, accept_sq,
// reject_sq).
TEST(MirrorEngineSweepTest, MirrorEngagesAndReducesTraffic) {
  const reachability::AnalyticalModel model(kDefault);
  const Workload workload = NoisyWorkload(2000, 20260810);

  EnginePolicy policy;
  policy.u2u_model = &model;
  policy.u2e_model = &model;
  policy.alpha = 0.1;
  policy.beta = 0.25;
  policy.worker_params = kDefault;
  policy.task_params = kDefault;
  policy.compute_accuracy_metrics = false;
  policy.pruning_gamma = 0.9;

  const MatchResult r = oracle::ExpectEngineMatches(
      oracle::Expect(policy, workload, 3), policy, workload, 3,
      "dense grid vs oracle");

  EXPECT_GT(r.metrics.cells_emitted_direct, 0);
  ASSERT_GT(r.metrics.u2u_scanned, 0);
  EXPECT_LT(r.metrics.u2u_gather_bytes, 256 * r.metrics.u2u_scanned);
}

// ---- The grid's rows under churn --------------------------------------

/// Reference recomputation of one cell's alpha aggregate straight off its
/// rows (plain fmin/fmax), the invariant every grid mutation maintains.
index::GridIndex::AlphaAgg ReferenceAgg(const reachability::CellRows& m,
                                        size_t begin, uint32_t count) {
  index::GridIndex::AlphaAgg agg{};
  agg.min_x = agg.max_x = m.x[begin];
  agg.min_y = agg.max_y = m.y[begin];
  agg.min_accept_sq = m.accept_below_sq[begin];
  agg.max_reject_sq = m.reject_above_sq[begin];
  for (size_t k = begin + 1; k < begin + count; ++k) {
    agg.min_x = std::fmin(agg.min_x, m.x[k]);
    agg.max_x = std::fmax(agg.max_x, m.x[k]);
    agg.min_y = std::fmin(agg.min_y, m.y[k]);
    agg.max_y = std::fmax(agg.max_y, m.y[k]);
    agg.min_accept_sq = std::fmin(agg.min_accept_sq, m.accept_below_sq[k]);
    agg.max_reject_sq = std::fmax(agg.max_reject_sq, m.reject_above_sq[k]);
  }
  return agg;
}

/// Asserts every live row of the grid carries its worker's current state —
/// location, expanded radius, and the soa's certain bands — that every
/// worker is stored at most once, and that every cell's alpha aggregate
/// equals its reference recomputation.
void ExpectRowsConsistent(const index::GridIndex& grid,
                          const reachability::WorkerFilterSoA& soa,
                          const std::vector<double>& radii,
                          const std::string& label) {
  const reachability::CellRows& rows = grid.rows();
  const auto cells = static_cast<size_t>(grid.cells_per_axis());
  std::vector<uint8_t> seen(soa.size(), 0);
  size_t live = 0;
  for (size_t slot = 0; slot < cells * cells; ++slot) {
    const index::GridIndex::CellView cell = grid.CellForTest(slot);
    for (size_t pos = cell.begin; pos < cell.begin + cell.count; ++pos) {
      const uint32_t id = rows.id[pos];
      ASSERT_LT(id, soa.size()) << label << " slot=" << slot;
      EXPECT_EQ(seen[id]++, 0) << label << " id=" << id << " stored twice";
      EXPECT_EQ(rows.x[pos], soa.x[id]) << label;
      EXPECT_EQ(rows.y[pos], soa.y[id]) << label;
      EXPECT_EQ(rows.expanded_r[pos], radii[id]) << label;
      EXPECT_EQ(rows.accept_below_sq[pos], soa.accept_below_sq[id]) << label;
      EXPECT_EQ(rows.reject_above_sq[pos], soa.reject_above_sq[id]) << label;
    }
    live += cell.count;
    const index::GridIndex::AlphaAgg& got = cell.alpha;
    if (cell.count == 0) {
      EXPECT_LT(got.max_x, got.min_x) << label << " slot=" << slot;
      continue;
    }
    const index::GridIndex::AlphaAgg expected =
        ReferenceAgg(rows, cell.begin, cell.count);
    EXPECT_EQ(got.min_x, expected.min_x) << label << " slot=" << slot;
    EXPECT_EQ(got.max_x, expected.max_x) << label << " slot=" << slot;
    EXPECT_EQ(got.min_y, expected.min_y) << label << " slot=" << slot;
    EXPECT_EQ(got.max_y, expected.max_y) << label << " slot=" << slot;
    EXPECT_EQ(got.min_accept_sq, expected.min_accept_sq) << label;
    EXPECT_EQ(got.max_reject_sq, expected.max_reject_sq) << label;
  }
  EXPECT_EQ(live, grid.size()) << label;
}

TEST(CellScoreMirrorChurnTest, RemoveReAddAndRebuildKeepMirrorInSync) {
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {10000, 10000});
  stats::Rng rng(17);

  const size_t n = 200;
  reachability::WorkerFilterSoA soa;
  soa.Resize(n);
  soa.accept_below_sq.resize(n);
  soa.reject_above_sq.resize(n);
  std::vector<double> radii(n);
  for (size_t i = 0; i < n; ++i) {
    soa.x[i] = rng.UniformDouble(0.0, 10000.0);
    soa.y[i] = rng.UniformDouble(0.0, 10000.0);
    soa.reach_radius_m[i] = rng.UniformDouble(500.0, 2000.0);
    radii[i] = soa.reach_radius_m[i] + 300.0;  // Expanded rectangle radius.
    const double accept = rng.UniformDouble(0.0, 5000.0);
    soa.accept_below_sq[i] = accept * accept;
    const double reject = accept + rng.UniformDouble(0.0, 3000.0);
    soa.reject_above_sq[i] = reject * reject;
  }

  index::GridIndex grid(region, 8);
  auto insert = [&](size_t i) {
    grid.Insert({soa.x[i], soa.y[i]}, radii[i], static_cast<uint32_t>(i),
                soa.accept_below_sq[i], soa.reject_above_sq[i]);
  };
  for (size_t i = 0; i < n; ++i) insert(i);
  ExpectRowsConsistent(grid, soa, radii, "after build");

  // Interleaved removals (MarkMatched) and re-adds, checking the rows at
  // every step; the erase path shifts slice tails down, the insert path
  // shifts them up (or triggers a rebuild when a slice fills).
  std::vector<uint32_t> removed;
  for (int step = 0; step < 120; ++step) {
    const bool remove = removed.size() < 60 &&
                        (removed.empty() || rng.UniformDouble() < 0.7);
    if (remove) {
      const auto victim =
          static_cast<uint32_t>(rng.UniformDouble() * static_cast<double>(n));
      if (grid.Remove(victim)) removed.push_back(victim);
    } else {
      insert(removed.back());
      removed.pop_back();
    }
    ExpectRowsConsistent(grid, soa, radii,
                         "churn step " + std::to_string(step));
  }

  // Location churn (UpdateWorkerLocation): same-cell jitters update a row
  // in place, cross-cell jumps erase and re-insert it with its bands.
  for (int step = 0; step < 40; ++step) {
    const auto id =
        static_cast<uint32_t>(rng.UniformDouble() * static_cast<double>(n));
    if (step % 2 == 0) {
      soa.x[id] += rng.UniformDouble(-20.0, 20.0);
      soa.y[id] += rng.UniformDouble(-20.0, 20.0);
    } else {
      soa.x[id] = rng.UniformDouble(0.0, 10000.0);
      soa.y[id] = rng.UniformDouble(0.0, 10000.0);
    }
    if (!grid.Relocate(id, {soa.x[id], soa.y[id]})) insert(id);
    ExpectRowsConsistent(grid, soa, radii,
                         "relocate step " + std::to_string(step));
  }

  // Forced rebuild: pile inserts into one cell until its slice headroom
  // runs out, which re-lays the whole row store.
  const size_t rows_before = grid.rows().size();
  for (size_t i = n; i < n + 64; ++i) {
    soa.Resize(i + 1);
    soa.accept_below_sq.resize(i + 1, 1.0e6);
    soa.reject_above_sq.resize(i + 1, 4.0e6);
    soa.x[i] = 1234.5;
    soa.y[i] = 1234.5;
    soa.reach_radius_m[i] = 600.0;
    radii.push_back(900.0);
    insert(i);
  }
  EXPECT_GT(grid.rows().size(), rows_before);  // At least one rebuild.
  ExpectRowsConsistent(grid, soa, radii, "after forced rebuild");

  // Certificates after all that churn: a whole-cell verdict must agree
  // with the per-member trichotomy it replaces.
  const reachability::CellRows& rows = grid.rows();
  const auto cells = static_cast<size_t>(grid.cells_per_axis());
  for (int t = 0; t < 32; ++t) {
    const double tx = rng.UniformDouble(0.0, 10000.0);
    const double ty = rng.UniformDouble(0.0, 10000.0);
    for (size_t slot = 0; slot < cells * cells; ++slot) {
      const index::GridIndex::CellView cell = grid.CellForTest(slot);
      if (cell.count == 0) continue;
      const auto cert = grid.Certify(slot, tx, ty);
      if (cert == index::GridIndex::CellAlpha::kMixed) continue;
      for (size_t pos = cell.begin; pos < cell.begin + cell.count; ++pos) {
        const double dx = rows.x[pos] - tx;
        const double dy = rows.y[pos] - ty;
        const double d_sq = dx * dx + dy * dy;
        if (cert == index::GridIndex::CellAlpha::kAllAccept) {
          EXPECT_LE(d_sq, rows.accept_below_sq[pos])
              << "slot=" << slot << " pos=" << pos;
        } else {
          EXPECT_GE(d_sq, rows.reject_above_sq[pos])
              << "slot=" << slot << " pos=" << pos;
        }
      }
    }
  }
}

// Stage-level churn: the stage, pruned and unpruned, and the oracle's
// naive U2U loop, driven through the same AddWorker / Collect / MarkMatched
// / UpdateWorkerLocation / MarkAvailable sequence, must emit identical
// candidate lists and scan accounting throughout — including for
// registrations with non-finite locations, which all must reject. The
// unpruned stage's all-admitting walk refuses a non-finite row at the
// rectangle test, so its scanned count is the oracle's minus the available
// non-finite workers.
void RunStageChurnAgainstOracle(bool prune) {
  const reachability::AnalyticalModel model(kDefault);
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});

  U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  if (prune) {
    config.pruning = U2uCandidateStage::Pruning{
        0.9, index::PrunerBackend::kGrid, kDefault, kDefault, region};
  }
  U2uCandidateStage on(config);
  EnginePolicy policy;
  policy.u2u_model = &model;
  policy.alpha = 0.1;
  if (prune) policy.pruning_gamma = 0.9;
  policy.worker_params = kDefault;
  policy.task_params = kDefault;
  const oracle::NaiveU2u off(policy, region);

  stats::Rng rng(23);
  const size_t uniform = 500;
  std::vector<geo::Point> locs(uniform);
  std::vector<double> radii(uniform);
  for (size_t i = 0; i < uniform; ++i) {
    locs[i] = {rng.UniformDouble(0.0, 20000.0),
               rng.UniformDouble(0.0, 20000.0)};
    radii[i] = rng.UniformDouble(800.0, 2500.0);
  }
  // Hostile registrations: eight workers far outside the region share the
  // grid's corner cell with a NaN worker registered after them (NaN clamps
  // to cell 0 too), and infinite coordinates land in other border cells.
  // A task at the far point bulk-accepts that corner cell unless the NaN
  // row keeps it from certifying.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const geo::Point far{-1e7, -1e7};
  for (int k = 0; k < 8; ++k) locs.push_back(far);
  for (const geo::Point hostile : {geo::Point{kNan, kNan},
                                   geo::Point{kInf, kInf},
                                   geo::Point{-kInf, 10000.0},
                                   geo::Point{10000.0, kInf},
                                   geo::Point{kNan, 10000.0}}) {
    locs.push_back(hostile);
  }
  radii.resize(locs.size(), 1500.0);
  const size_t n = locs.size();
  std::vector<uint8_t> matched(n, 0);
  for (size_t i = 0; i < n; ++i) on.AddWorker(locs[i], radii[i]);

  for (int step = 0; step < 60; ++step) {
    const geo::Point task =
        step % 10 == 5 ? far
                       : geo::Point{rng.UniformDouble(0.0, 20000.0),
                                    rng.UniformDouble(0.0, 20000.0)};
    const std::vector<uint32_t> got_on = on.Collect(task);
    int64_t scanned_off = 0;
    const std::vector<uint32_t> got_off =
        off.Collect(locs, radii, matched, task, &scanned_off);
    const std::string label = "step " + std::to_string(step);
    EXPECT_EQ(got_on, got_off) << label;
    if (prune) {
      EXPECT_EQ(on.stats().scanned_last, scanned_off) << label;
      EXPECT_EQ(on.stats().scanned_last + on.stats().pruned_last,
                static_cast<int64_t>(n))
          << label;
    } else {
      int64_t non_finite = 0;
      for (size_t i = 0; i < n; ++i) {
        const bool finite = std::isfinite(locs[i].x) && std::isfinite(locs[i].y);
        non_finite += !matched[i] && !finite ? 1 : 0;
      }
      EXPECT_GT(non_finite, 0) << label;
      EXPECT_EQ(on.stats().scanned_last, scanned_off - non_finite) << label;
      EXPECT_EQ(on.stats().pruned_last, 0) << label;
    }

    if (!got_on.empty()) {
      // Match the best candidate, as the engine would.
      on.MarkMatched(got_on.front());
      matched[got_on.front()] = 1;
    }
    if (step % 7 == 3) {
      const auto mover = static_cast<uint32_t>(
          rng.UniformDouble() * static_cast<double>(uniform));
      locs[mover] = {rng.UniformDouble(0.0, 20000.0),
                     rng.UniformDouble(0.0, 20000.0)};
      on.UpdateWorkerLocation(mover, locs[mover]);
    }
    if (step == 40) {
      for (size_t i = 0; i < n; ++i) on.MarkAvailable(static_cast<uint32_t>(i));
      std::fill(matched.begin(), matched.end(), uint8_t{0});
    }
  }
  EXPECT_GT(on.stats().cells_emitted_direct + on.stats().gather_bytes, 0);
}

TEST(MirrorStageChurnTest, MirrorOnOffAgreeThroughChurn) {
  for (const bool prune : {true, false}) {
    SCOPED_TRACE(prune ? "pruner=grid" : "pruner=off");
    RunStageChurnAgainstOracle(prune);
  }
}

// A stage holding only non-finite workers: the unpruned walk admits none of
// them, so it scans nothing and evaluates no band, where a per-worker scan
// would have band-evaluated each NaN row. The decision is unchanged: no
// candidate.
TEST(MirrorStageChurnTest, UnprunedWalkRefusesNonFiniteRows) {
  const reachability::AnalyticalModel model(kDefault);
  U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  U2uCandidateStage stage(config);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const geo::Point p : {geo::Point{kNan, kNan}, geo::Point{kNan, 5.0},
                             geo::Point{kInf, kInf}, geo::Point{-kInf, 5.0}}) {
    stage.AddWorker(p, 1500.0);
  }
  EXPECT_TRUE(stage.Collect({5.0, 5.0}).empty());
  EXPECT_EQ(stage.stats().scanned_last, 0);
  EXPECT_EQ(stage.stats().pruned_last, 0);
  EXPECT_EQ(stage.band_evals(), 0);
  // One finite worker next to them is scanned and accepted.
  stage.AddWorker({10.0, 10.0}, 1500.0);
  EXPECT_EQ(stage.Collect({5.0, 5.0}), std::vector<uint32_t>{4});
  EXPECT_EQ(stage.stats().scanned_last, 1);
}

// One far-off worker registered before Prepare must not stretch the
// all-admitting grid over its coordinates: it lands in a border cell, the
// other workers keep their spread over the cells, and every decision stays
// the scalar Decide's.
TEST(MirrorStageChurnTest, UnprunedGridFencesOutAFarOffWorker) {
  const reachability::AnalyticalModel model(kDefault);
  U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  U2uCandidateStage stage(config);
  stats::Rng rng(37);
  const uint32_t n = 4000;
  for (uint32_t i = 0; i < n; ++i) {
    stage.AddWorker(
        {rng.UniformDouble(0.0, 20000.0), rng.UniformDouble(0.0, 20000.0)},
        1500.0);
  }
  stage.AddWorker({1e300, 1e300}, 1500.0);
  stage.Prepare();

  const index::UncertainRegionPruner pruner(stage.soa());
  const index::GridIndex& grid = pruner.grid();
  ASSERT_EQ(grid.size(), n + 1);
  uint32_t fullest = 0;
  const size_t cells = static_cast<size_t>(grid.cells_per_axis());
  for (size_t slot = 0; slot < cells * cells; ++slot) {
    fullest = std::max(fullest, grid.CellForTest(slot).count);
  }
  EXPECT_LE(fullest, n / 16);  // Not one cell holding every worker.

  for (int q = 0; q < 8; ++q) {
    const geo::Point task{rng.UniformDouble(0.0, 20000.0),
                          rng.UniformDouble(0.0, 20000.0)};
    std::vector<uint32_t> want;
    for (uint32_t i = 0; i <= n; ++i) {
      if (stage.soa().matched[i] == 0 && stage.Decide(i, task)) {
        want.push_back(i);
      }
    }
    const std::vector<uint32_t> got = stage.Collect(task);
    EXPECT_EQ(got, want) << "task " << q;
    EXPECT_EQ(stage.stats().scanned_last, static_cast<int64_t>(n) + 1 - q);
    ASSERT_FALSE(got.empty());
    stage.MarkMatched(got.front());
  }
}

TEST(MirrorStageChurnTest, IncrementalRelocateMatchesFreshStage) {
  // Service-style churn — same-cell jitters, cross-cell jumps, matched
  // workers reactivated via MarkAvailable — applied incrementally must
  // leave the stage answering exactly like one built fresh over the final
  // worker state. This pins the whole Relocate chain: GridIndex in-place
  // move or cross-cell re-insert with the row's bands, and Restore's
  // re-insert at the *new* location.
  const reachability::AnalyticalModel model(kDefault);
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
  U2uCandidateStage::Config config;
  config.model = &model;
  config.alpha = 0.1;
  config.pruning = U2uCandidateStage::Pruning{
      0.9, index::PrunerBackend::kGrid, kDefault, kDefault, region};

  stats::Rng rng(29);
  const size_t n = 400;
  std::vector<geo::Point> locs(n);
  std::vector<double> radii(n);
  std::vector<char> matched(n, 0);
  U2uCandidateStage live(config);
  for (size_t i = 0; i < n; ++i) {
    locs[i] = {rng.UniformDouble(0.0, 20000.0),
               rng.UniformDouble(0.0, 20000.0)};
    radii[i] = rng.UniformDouble(800.0, 2500.0);
    live.AddWorker(locs[i], radii[i]);
  }
  live.Prepare();

  for (int step = 0; step < 300; ++step) {
    const auto w = static_cast<uint32_t>(rng.UniformInt(n));
    switch (rng.UniformInt(4)) {
      case 0: {  // Same-cell jitter (cells are ~600 m at this density).
        locs[w] = {locs[w].x + rng.UniformDouble(-30.0, 30.0),
                   locs[w].y + rng.UniformDouble(-30.0, 30.0)};
        live.UpdateWorkerLocation(w, locs[w]);
        break;
      }
      case 1: {  // Cross-cell jump.
        locs[w] = {rng.UniformDouble(0.0, 20000.0),
                   rng.UniformDouble(0.0, 20000.0)};
        live.UpdateWorkerLocation(w, locs[w]);
        break;
      }
      case 2:
        live.MarkMatched(w);
        matched[w] = 1;
        break;
      default:  // Re-report of a (possibly matched) worker, moved.
        locs[w] = {locs[w].x + rng.UniformDouble(-30.0, 30.0),
                   locs[w].y + rng.UniformDouble(-30.0, 30.0)};
        live.UpdateWorkerLocation(w, locs[w]);
        live.MarkAvailable(w);
        matched[w] = 0;
        break;
    }
  }

  U2uCandidateStage fresh(config);
  for (size_t i = 0; i < n; ++i) fresh.AddWorker(locs[i], radii[i]);
  fresh.Prepare();
  for (size_t i = 0; i < n; ++i) {
    if (matched[i]) fresh.MarkMatched(static_cast<uint32_t>(i));
  }

  for (int q = 0; q < 40; ++q) {
    const geo::Point task{rng.UniformDouble(0.0, 20000.0),
                          rng.UniformDouble(0.0, 20000.0)};
    EXPECT_EQ(live.Collect(task), fresh.Collect(task)) << "query " << q;
    EXPECT_EQ(live.stats().scanned_last + live.stats().pruned_last,
              fresh.stats().scanned_last + fresh.stats().pruned_last)
        << "query " << q;
  }
}

// ---- Range kernels vs references -------------------------------------

/// Rows whose bounds cover every trichotomy shape, like kernel_test's
/// ClassifierSoA: mode 0 mixed, 1 empty band, 2 all-accept, 3 all-reject.
reachability::CellRows ClassifierRows(size_t n, int mode,
                                               stats::Rng& rng) {
  reachability::CellRows m;
  m.Resize(n);
  for (size_t i = 0; i < n; ++i) {
    m.id[i] = static_cast<uint32_t>(1000 + i * 3);  // Arbitrary id values.
    m.x[i] = rng.UniformDouble(0.0, 20000.0);
    m.y[i] = rng.UniformDouble(0.0, 20000.0);
    m.expanded_r[i] = rng.UniformDouble(500.0, 4000.0);
    switch (mode) {
      case 0: {
        const double accept = rng.UniformDouble(0.0, 10000.0);
        m.accept_below_sq[i] = accept * accept;
        const double reject = accept + rng.UniformDouble(0.0, 8000.0);
        m.reject_above_sq[i] = reject * reject;
        break;
      }
      case 1: {
        const double edge = rng.UniformDouble(0.0, 15000.0);
        m.accept_below_sq[i] = edge * edge;
        m.reject_above_sq[i] = edge * edge;
        break;
      }
      case 2:
        m.accept_below_sq[i] = 1e18;
        m.reject_above_sq[i] = 2e18;
        break;
      default:
        m.accept_below_sq[i] = -1.0;
        m.reject_above_sq[i] = 0.0;
        break;
    }
  }
  return m;
}

/// Branchy reference of the range trichotomy (same arithmetic order).
void ReferenceRange(const reachability::CellRows& m, size_t begin,
                    size_t count, double tx, double ty,
                    std::vector<uint32_t>& accept,
                    std::vector<uint32_t>& band) {
  for (size_t k = begin; k < begin + count; ++k) {
    const double dx = m.x[k] - tx;
    const double dy = m.y[k] - ty;
    const double d_sq = dx * dx + dy * dy;
    if (d_sq <= m.accept_below_sq[k]) {
      accept.push_back(m.id[k]);
    } else if (d_sq < m.reject_above_sq[k]) {
      band.push_back(m.id[k]);
    }
  }
}

/// Branchy reference of the fused rectangle + trichotomy boundary kernel.
size_t ReferenceRangeRect(const reachability::CellRows& m, size_t begin,
                          size_t count, double tx, double ty, double q_min_x,
                          double q_min_y, double q_max_x, double q_max_y,
                          std::vector<uint32_t>& accept,
                          std::vector<uint32_t>& band) {
  size_t admitted = 0;
  for (size_t k = begin; k < begin + count; ++k) {
    const double er = m.expanded_r[k];
    const bool admit = m.x[k] - er <= q_max_x && q_min_x <= m.x[k] + er &&
                       m.y[k] - er <= q_max_y && q_min_y <= m.y[k] + er;
    if (!admit) continue;
    ++admitted;
    const double dx = m.x[k] - tx;
    const double dy = m.y[k] - ty;
    const double d_sq = dx * dx + dy * dy;
    if (d_sq <= m.accept_below_sq[k]) {
      accept.push_back(m.id[k]);
    } else if (d_sq < m.reject_above_sq[k]) {
      band.push_back(m.id[k]);
    }
  }
  return admitted;
}

TEST(RangeKernelTest, ScalarMatchesReferenceAndAppends) {
  stats::Rng rng(20260811);
  for (const size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                             size_t{5}, size_t{8}, size_t{13}, size_t{64},
                             size_t{257}}) {
    for (int mode = 0; mode < 4; ++mode) {
      const auto m = ClassifierRows(count + 8, mode, rng);
      const size_t begin = count > 2 ? 3 : 0;  // Off-origin range starts.
      const double tx = rng.UniformDouble(0.0, 20000.0);
      const double ty = rng.UniformDouble(0.0, 20000.0);
      // Pre-populated outputs: the range kernels append.
      std::vector<uint32_t> accept_ref = {111}, band_ref = {222};
      std::vector<uint32_t> accept = {111}, band = {222};
      ReferenceRange(m, begin, count, tx, ty, accept_ref, band_ref);
      reachability::ClassifyCertainBandRange(m, begin, count, tx, ty, accept,
                                             band);
      const std::string label =
          "count=" + std::to_string(count) + " mode=" + std::to_string(mode);
      EXPECT_EQ(accept, accept_ref) << label;
      EXPECT_EQ(band, band_ref) << label;

      const double q_min_x = tx - 4000.0, q_max_x = tx + 4000.0;
      const double q_min_y = ty - 4000.0, q_max_y = ty + 4000.0;
      accept_ref.assign({111});
      band_ref.assign({222});
      accept.assign({111});
      band.assign({222});
      const size_t admitted_ref =
          ReferenceRangeRect(m, begin, count, tx, ty, q_min_x, q_min_y,
                             q_max_x, q_max_y, accept_ref, band_ref);
      const size_t admitted = reachability::ClassifyCertainBandRangeRect(
          m, begin, count, tx, ty, q_min_x, q_min_y, q_max_x, q_max_y, accept,
          band);
      EXPECT_EQ(admitted, admitted_ref) << label;
      EXPECT_EQ(accept, accept_ref) << label;
      EXPECT_EQ(band, band_ref) << label;
    }
  }
}

}  // namespace
}  // namespace scguard::assign
