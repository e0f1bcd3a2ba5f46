#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "geo/bbox.h"
#include "index/grid_index.h"
#include "index/pruning.h"
#include "privacy/mechanism.h"
#include "reachability/kernel.h"
#include "stats/rng.h"

namespace scguard::index {
namespace {

geo::BoundingBox RandomBox(stats::Rng& rng, double extent, double max_size) {
  const geo::Point c{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
  return geo::BoundingBox::FromCircle(c, rng.UniformDouble(1.0, max_size));
}

// ------------------------------------------------------------- GridIndex

struct PointEntry {
  geo::Point center;
  double radius = 0.0;
  uint32_t id = 0;
};

PointEntry RandomPointEntry(stats::Rng& rng, double extent, double max_radius,
                            uint32_t id) {
  return {{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)},
          rng.UniformDouble(1.0, max_radius),
          id};
}

/// The per-entry predicate GridIndex certifies against: the entry's
/// expanded rectangle intersects the query.
bool EntryHits(const PointEntry& e, const geo::BoundingBox& query) {
  return geo::BoundingBox::FromCircle(e.center, e.radius).Intersects(query);
}

std::vector<uint32_t> BruteForcePoints(const std::vector<PointEntry>& entries,
                                       const geo::BoundingBox& query) {
  std::vector<uint32_t> out;
  for (const auto& e : entries) {
    if (EntryHits(e, query)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GridIndexTest, MatchesBruteForceAndEmitsAscending) {
  stats::Rng rng(3);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  GridIndex grid(region, 16);
  std::vector<PointEntry> entries;
  for (uint32_t i = 0; i < 500; ++i) {
    entries.push_back(RandomPointEntry(rng, 1000.0, 50.0, i));
    grid.Insert(entries.back().center, entries.back().radius, i);
  }
  EXPECT_EQ(grid.size(), 500u);
  for (int q = 0; q < 50; ++q) {
    const geo::BoundingBox query = RandomBox(rng, 1000.0, 120.0);
    const auto got = grid.QueryIds(query);
    // QueryIds' contract: ascending ids without any caller-side sort, even
    // though cells are walked in row-major order.
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(got, BruteForcePoints(entries, query)) << "query " << q;
  }
}

// Hostile coordinates: NaN, infinite and far out-of-range centers and
// query boxes must clamp to border cells (NaN to cell 0) before any
// integer cast — the UBSan float-cast-overflow check fires otherwise — and
// queries over finite entries still agree with the per-entry test.
TEST(GridIndexTest, NonFiniteAndHugeCoordinatesClampWithoutUb) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double hostile[] = {kNan, kInf, -kInf, 1e300, -1e300};
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  GridIndex grid(region, 8);
  stats::Rng rng(13);
  std::vector<PointEntry> finite;
  for (uint32_t i = 0; i < 100; ++i) {
    finite.push_back(RandomPointEntry(rng, 1000.0, 60.0, i));
    grid.Insert(finite.back().center, finite.back().radius, i);
  }
  // Hostile points insert (into clamped cells) and relocate without UB.
  uint32_t id = 100;
  for (const double v : hostile) {
    grid.Insert({v, 500.0}, 10.0, id++);
    grid.Insert({500.0, v}, 10.0, id++);
    grid.Insert({v, v}, 10.0, id++);
  }
  EXPECT_EQ(grid.size(), 115u);
  EXPECT_TRUE(grid.Relocate(0, {kNan, -kInf}));
  EXPECT_TRUE(grid.Relocate(0, finite[0].center));
  for (uint32_t h = 100; h < id; ++h) EXPECT_TRUE(grid.Remove(h));

  // Hostile query boxes: none may crash, and with only finite entries left
  // every answer equals the per-entry rectangle test.
  std::vector<geo::BoundingBox> queries;
  for (const double v : hostile) {
    queries.push_back({v, 0.0, 1000.0, 1000.0});
    queries.push_back({0.0, 0.0, v, 1000.0});
    queries.push_back({0.0, v, 1000.0, v});
    queries.push_back({v, v, v, v});
  }
  queries.push_back({-kInf, -kInf, kInf, kInf});
  queries.push_back({-1e300, -1e300, 1e300, 1e300});
  std::vector<GridIndex::CellVisit> visits;
  for (const geo::BoundingBox& q : queries) {
    const auto got = grid.QueryIds(q);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(got, BruteForcePoints(finite, q));
    grid.VisitQueryCells(q, visits);
  }
  EXPECT_EQ(grid.QueryIds({-kInf, -kInf, kInf, kInf}).size(), finite.size());
}

TEST(GridIndexTest, OutOfOrderInsertionStaysAscending) {
  stats::Rng rng(8);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0}, {1000, 1000});
  GridIndex grid(region, 8);
  std::vector<PointEntry> entries;
  for (uint32_t i = 0; i < 300; ++i) {
    entries.push_back(RandomPointEntry(rng, 1000.0, 40.0, i));
  }
  // Insert in shuffled id order; cells must re-establish ascending ids.
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {  // Fisher-Yates.
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  for (const size_t i : order) {
    grid.Insert(entries[i].center, entries[i].radius, entries[i].id);
  }
  for (int q = 0; q < 30; ++q) {
    const geo::BoundingBox query = RandomBox(rng, 1000.0, 150.0);
    const auto got = grid.QueryIds(query);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(got, BruteForcePoints(entries, query)) << "query " << q;
  }
}

TEST(GridIndexTest, EntriesOutsideRegionClampToBorderCells) {
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0}, {100, 100});
  GridIndex grid(region, 4);
  grid.Insert({-45, -45}, 5.0, 1);
  grid.Insert({205, 205}, 5.0, 2);
  // Queries beyond the region still find them through the border cells.
  EXPECT_EQ(grid.QueryIds(geo::BoundingBox::FromCorners({-60, -60}, {-45, -45})).size(),
            1u);
  EXPECT_EQ(grid.QueryIds(geo::BoundingBox::FromCorners({205, 205}, {220, 220})).size(),
            1u);
}

TEST(GridIndexTest, CellCertificationAgreesWithMemberTests) {
  // Property: a bulk-accepted cell implies every member passes the scalar
  // rectangle test; a skipped cell implies none does. QueryIds() must agree
  // with brute force, and its certification counters must account for
  // every returned id.
  stats::Rng rng(9);
  const double extent = 1000.0;
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  GridIndex grid(region, 8);
  std::vector<PointEntry> entries;
  for (uint32_t i = 0; i < 400; ++i) {
    entries.push_back(RandomPointEntry(rng, extent, 80.0, i));
    grid.Insert(entries.back().center, entries.back().radius, i);
  }
  auto entry_by_id = [&](uint32_t id) -> const PointEntry& {
    return entries[id];
  };
  for (int q = 0; q < 40; ++q) {
    const geo::BoundingBox query = RandomBox(rng, extent, 200.0);
    for (int cy = 0; cy < grid.cells_per_axis(); ++cy) {
      for (int cx = 0; cx < grid.cells_per_axis(); ++cx) {
        const GridIndex::CellView cell = grid.CellForTest(
            static_cast<size_t>(cy * grid.cells_per_axis() + cx));
        const std::vector<uint32_t> members(
            grid.rows().id.begin() + static_cast<std::ptrdiff_t>(cell.begin),
            grid.rows().id.begin() +
                static_cast<std::ptrdiff_t>(cell.begin + cell.count));
        if (members.empty()) continue;
        switch (grid.ClassifyCellForTest(cx, cy, query)) {
          case GridIndex::CellCert::kBulkAccepted:
            for (const uint32_t id : members) {
              EXPECT_TRUE(EntryHits(entry_by_id(id), query))
                  << "bulk-accepted cell (" << cx << "," << cy
                  << ") holds a non-matching member " << id;
            }
            break;
          case GridIndex::CellCert::kSkipped:
            for (const uint32_t id : members) {
              EXPECT_FALSE(EntryHits(entry_by_id(id), query))
                  << "skipped cell (" << cx << "," << cy
                  << ") holds a matching member " << id;
            }
            break;
          case GridIndex::CellCert::kBoundary:
            break;  // Per-member tests decide; covered by the query check.
        }
      }
    }
    grid.ResetStats();
    const auto got = grid.QueryIds(query);
    EXPECT_EQ(got, BruteForcePoints(entries, query)) << "query " << q;
    const GridIndex::QueryStats& stats = grid.stats();
    EXPECT_GE(stats.boundary_workers, 0);
    // Every returned id came from a bulk-accepted cell or survived a
    // boundary test; bulk cells contribute at least one id each.
    EXPECT_GE(static_cast<int64_t>(got.size()), stats.cells_bulk_accepted);
  }
}

TEST(GridIndexTest, RemoveCompactsAndReAddChurn) {
  // Remove/re-add churn against a brute-force mirror: the compacted cell
  // arrays must keep answering exactly, stay ascending, and Remove must be
  // idempotent.
  stats::Rng rng(10);
  const double extent = 500.0;
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  GridIndex grid(region, 6);
  std::vector<PointEntry> live;
  std::vector<PointEntry> pool;
  for (uint32_t i = 0; i < 200; ++i) {
    pool.push_back(RandomPointEntry(rng, extent, 60.0, i));
  }
  for (const auto& e : pool) {
    grid.Insert(e.center, e.radius, e.id);
    live.push_back(e);
  }
  for (int step = 0; step < 300; ++step) {
    const uint64_t op = rng.UniformInt(3);
    if (op == 0 && live.empty()) continue;
    if (op == 0) {
      // Remove a random live id.
      const auto k = static_cast<size_t>(rng.UniformInt(live.size()));
      const uint32_t id = live[k].id;
      EXPECT_TRUE(grid.Remove(id));
      EXPECT_FALSE(grid.Remove(id));  // Idempotent.
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op == 1) {
      // Re-add an absent pool entry (possibly at a fresh location).
      const auto k = static_cast<size_t>(rng.UniformInt(pool.size()));
      const bool absent =
          std::none_of(live.begin(), live.end(),
                       [&](const PointEntry& e) { return e.id == pool[k].id; });
      if (!absent) continue;
      PointEntry e = pool[k];
      e.center = {rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
      grid.Insert(e.center, e.radius, e.id);
      live.push_back(e);
    } else {
      const geo::BoundingBox query = RandomBox(rng, extent, 120.0);
      const auto got = grid.QueryIds(query);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      EXPECT_EQ(got, BruteForcePoints(live, query)) << "step " << step;
    }
    EXPECT_EQ(grid.size(), live.size());
  }
}

TEST(GridIndexTest, RelocateMatchesRemoveInsertChurn) {
  // Relocate churn against a brute-force mirror: same-cell jitters (the
  // service's common case, handled in place) and cross-cell jumps
  // (erase + insert) must both keep queries exact and the index ascending.
  stats::Rng rng(17);
  const double extent = 500.0;
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {extent, extent});
  GridIndex grid(region, 6);
  std::vector<PointEntry> live;
  for (uint32_t i = 0; i < 150; ++i) {
    live.push_back(RandomPointEntry(rng, extent, 60.0, i));
    grid.Insert(live.back().center, live.back().radius, live.back().id);
  }
  EXPECT_FALSE(grid.Relocate(999, {10, 10}));  // Unknown id: no-op.
  for (int step = 0; step < 400; ++step) {
    const auto k = static_cast<size_t>(rng.UniformInt(live.size()));
    geo::Point next;
    if (step % 2 == 0) {
      // Small jitter: usually stays in the same cell (~83 m cells here).
      next = {live[k].center.x + rng.UniformDouble(-10.0, 10.0),
              live[k].center.y + rng.UniformDouble(-10.0, 10.0)};
    } else {
      next = {rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
    }
    EXPECT_TRUE(grid.Relocate(live[k].id, next));
    live[k].center = next;
    EXPECT_TRUE(grid.Contains(live[k].id));
    if (step % 7 == 0) {
      const geo::BoundingBox query = RandomBox(rng, extent, 120.0);
      const auto got = grid.QueryIds(query);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      EXPECT_EQ(got, BruteForcePoints(live, query)) << "step " << step;
    }
  }
  // Relocate after Remove is a no-op until a fresh Insert revives the id.
  const uint32_t victim = live.front().id;
  EXPECT_TRUE(grid.Remove(victim));
  EXPECT_FALSE(grid.Contains(victim));
  EXPECT_FALSE(grid.Relocate(victim, {1, 1}));
}

// ---------------------------------------------------------------- Pruner

/// `n` uniform workers. The pruner's candidate query reads only the
/// rectangles, so the certain bands keep their never-accept defaults.
reachability::WorkerFilterSoA MakeWorkers(size_t n, stats::Rng& rng,
                                          double extent) {
  reachability::WorkerFilterSoA workers;
  workers.Resize(n);
  workers.accept_below_sq.assign(n, -1.0);
  workers.reject_above_sq.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    workers.x[i] = rng.UniformDouble(0, extent);
    workers.y[i] = rng.UniformDouble(0, extent);
    workers.reach_radius_m[i] = rng.UniformDouble(1000.0, 3000.0);
  }
  return workers;
}

/// The Geo-I confidence radius r_R at level `gamma` that sizes the
/// pruner's rectangles.
double ConfidenceRadius(const privacy::PrivacyParams& params, double gamma,
                        const geo::BoundingBox& region) {
  return privacy::MakeMechanismOrDie(params, region)->ConfidenceRadius(gamma);
}

// The grid-backed pruner against a linear scan of the pruning rectangles.
TEST(PrunerTest, BackendsAgree) {
  stats::Rng rng(4);
  const double extent = 30000.0;
  const auto workers = MakeWorkers(300, rng, extent);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  const privacy::PrivacyParams params{0.7, 800.0};
  const UncertainRegionPruner grid(workers, params, params, 0.9, region);
  const double r_r = ConfidenceRadius(params, 0.9, region);
  for (int q = 0; q < 30; ++q) {
    const geo::Point task{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
    const geo::BoundingBox task_box = geo::BoundingBox::FromCircle(task, r_r);
    EXPECT_EQ(grid.TaskQueryBox(task), task_box) << "query " << q;
    std::vector<uint32_t> linear;
    for (uint32_t w = 0; w < workers.size(); ++w) {
      if (geo::BoundingBox::FromCircle({workers.x[w], workers.y[w]},
                                       r_r + workers.reach_radius_m[w])
              .Intersects(task_box)) {
        linear.push_back(w);
      }
    }
    EXPECT_EQ(grid.Candidates(task), linear) << "query " << q;
  }
}

TEST(PrunerTest, NeverDropsOverlappingDiskPairs) {
  // Conservativeness: if disk(w', rR + Rw) and disk(t', rR) intersect, the
  // worker must be returned (MBRs enclose the disks).
  stats::Rng rng(5);
  const double extent = 20000.0;
  const auto workers = MakeWorkers(200, rng, extent);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  const privacy::PrivacyParams params{0.7, 800.0};
  const UncertainRegionPruner pruner(workers, params, params, 0.9, region);
  const double r_r = ConfidenceRadius(params, 0.9, region);
  for (int q = 0; q < 50; ++q) {
    const geo::Point task{rng.UniformDouble(0, extent), rng.UniformDouble(0, extent)};
    auto candidates = pruner.Candidates(task);
    std::sort(candidates.begin(), candidates.end());
    for (uint32_t w = 0; w < workers.size(); ++w) {
      const double gap = geo::Distance({workers.x[w], workers.y[w]}, task);
      const double disk_sum = r_r + workers.reach_radius_m[w] + r_r;
      if (gap <= disk_sum) {
        EXPECT_TRUE(
            std::binary_search(candidates.begin(), candidates.end(), w))
            << "worker " << w << " at disk distance " << gap;
      }
    }
  }
}

TEST(PrunerTest, ConfidenceRadiusGrowsWithGamma) {
  stats::Rng rng(6);
  const auto workers = MakeWorkers(10, rng, 1000.0);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {1000, 1000});
  const privacy::PrivacyParams params{0.7, 800.0};
  const UncertainRegionPruner p50(workers, params, params, 0.5, region);
  const UncertainRegionPruner p99(workers, params, params, 0.99, region);
  const geo::Point task{500.0, 500.0};
  const geo::BoundingBox box50 = p50.TaskQueryBox(task);
  const geo::BoundingBox box99 = p99.TaskQueryBox(task);
  EXPECT_LT(box50.max_x - box50.min_x, box99.max_x - box99.min_x);
}

TEST(PrunerTest, FarTaskPrunesMostWorkers) {
  stats::Rng rng(7);
  const double extent = 50000.0;
  const auto workers = MakeWorkers(500, rng, extent);
  const geo::BoundingBox region = geo::BoundingBox::FromCorners({0, 0},
                                                                {extent, extent});
  const privacy::PrivacyParams params{1.0, 200.0};  // Little noise.
  const UncertainRegionPruner pruner(workers, params, params, 0.9, region);
  // A task far outside the deployment region keeps almost nothing.
  const auto candidates = pruner.Candidates({extent * 3, extent * 3});
  EXPECT_LT(candidates.size(), 5u);
}

}  // namespace
}  // namespace scguard::index
