#ifndef SCGUARD_INDEX_GRID_INDEX_H_
#define SCGUARD_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"
#include "reachability/kernel.h"

namespace scguard::index {

/// A uniform grid over a fixed region indexing one row per worker — the
/// expanded uncertainty disk of the U2U pruner (paper Sec. IV-C1) plus the
/// worker's certain alpha bands. Each row lives in exactly one cell (the
/// cell containing its center). The rows *are* the scoring rows: one
/// cell-major reachability::CellRows store, each cell an ascending-id
/// slice, read directly by the U2U range kernels (DESIGN.md §13).
///
/// Queries are cell-certified (DESIGN.md §11): every visited cell is first
/// classified against the query rectangle using two per-cell aggregate
/// boxes —
///  * the *cover* box (union of the members' expanded rectangles): when it
///    misses the query, no member can intersect and the whole cell is
///    skipped without touching rows;
///  * the *core* aggregates (the componentwise worst-case member bounds):
///    when even the worst member's rectangle intersects the query, every
///    member does, and the cell is bulk-accepted with no per-worker work.
/// Only boundary cells fall through to the per-member rectangle test, which
/// is bit-identical to `BoundingBox::FromCircle(center, r).Intersects(q)`.
/// A bulk-accepted cell can further be settled against the alpha filter by
/// its whole-cell certificate (Certify). The U2U stage walks the certified
/// cells itself (VisitQueryCells); QueryIds is the id-level view of the
/// same walk.
///
/// Ids are dense worker indices; each id is stored at most once.
/// Coordinates are never trusted: NaN, infinite, or out-of-int-range
/// centers and query boxes clamp to border cells (NaN to cell 0) in double
/// before any integer cast, and a cell holding a non-finite center never
/// bulk-accepts or alpha-certifies.
class GridIndex {
 public:
  /// Cumulative query-side certification accounting (reset with
  /// ResetStats). Mutable scratch: queries on one index must not run
  /// concurrently (the U2U stage walks serially).
  struct QueryStats {
    int64_t cells_bulk_accepted = 0;  ///< Every member rectangle-admitted.
    int64_t cells_skipped = 0;        ///< Non-empty cell, zero work.
    int64_t boundary_workers = 0;     ///< Members tested individually.
  };

  /// Certification outcome of one cell against one query rectangle.
  enum class CellCert { kSkipped, kBulkAccepted, kBoundary };

  /// Whole-cell alpha certificate for one task location: kAllAccept /
  /// kAllReject mean *every* member lands in the scalar kernel's
  /// certain-accept / certain-reject region, so the cell resolves with zero
  /// per-worker loads and zero band evaluations — exactly what the
  /// per-member trichotomy would decide. kMixed: classify member by member.
  enum class CellAlpha { kMixed, kAllAccept, kAllReject };

  /// The alpha aggregate of one cell: the member-centre bounding box and
  /// the cell-wide worst-case certain bands. An empty cell keeps the reset
  /// sentinels (max_x < min_x); a cell with a non-finite centre holds NaN
  /// bands, which no certificate comparison passes.
  struct AlphaAgg {
    double min_x, max_x, min_y, max_y;
    double min_accept_sq, max_reject_sq;
  };

  /// `region` must be non-empty; `cells_per_axis` >= 1. Entries centered
  /// beyond the region are clamped to the border cells.
  GridIndex(const geo::BoundingBox& region, int cells_per_axis);

  /// Bulk build: stores every worker of `workers` (row i = worker i, with
  /// expanded radius `reach_radius_m[i] + radius_pad_m` and the worker's
  /// certain bands, which must be filled), laid out in one counting pass
  /// with no rebuild. Matched flags are ignored.
  GridIndex(const geo::BoundingBox& region, int cells_per_axis,
            const reachability::WorkerFilterSoA& workers,
            double radius_pad_m);

  /// Stores worker `id` (not currently stored) as one row: the rectangle
  /// `BoundingBox::FromCircle(center, expanded_radius_m)` plus its certain
  /// alpha bands (the defaults never accept and always reject). The row
  /// goes into the cell containing `center`, keeping the slice ascending
  /// (O(1) append when ids arrive in ascending order, the engine's
  /// registration order).
  void Insert(geo::Point center, double expanded_radius_m, uint32_t id,
              double accept_below_sq = -1.0, double reject_above_sq = 0.0);

  /// Removes `id`'s row: ordered in-slice erase, then the cell's aggregates
  /// are recomputed in the same O(cell) pass (stale aggregates would stay
  /// conservative for skipping but stop bulk-accepting as the active set
  /// drains). False when the id is absent, so removal is idempotent; a
  /// later Insert makes the id live again.
  bool Remove(uint32_t id);

  /// Moves `id`'s row to `new_center`, keeping its radius and bands — the
  /// hot mutation of dynamic re-reporting. A move inside the cell updates
  /// the row in place (one O(cell) aggregate recompute, no shifting); a
  /// move across cells erases and re-inserts. False when the id is absent.
  bool Relocate(uint32_t id, geo::Point new_center);

  bool Contains(uint32_t id) const {
    return id < cell_of_.size() && cell_of_[id] != kAbsent;
  }

  /// Stored rows.
  size_t size() const { return live_; }

  /// The ids of all rows whose rectangle intersects `query`, ascending.
  /// Not thread-safe (stats).
  std::vector<uint32_t> QueryIds(const geo::BoundingBox& query) const;

  /// One surviving cell of a query's certified walk: the row slice
  /// [begin, begin + count) and how the cell certified. Skipped cells are
  /// never emitted (they contribute no members).
  struct CellVisit {
    size_t begin = 0;
    uint32_t count = 0;
    uint32_t slot = 0;
    CellCert cert = CellCert::kBoundary;
  };

  /// The certified cell walk without materializing ids: appends one
  /// CellVisit per surviving (non-empty, non-skipped) cell in row-major
  /// order, counting QueryStats. A kBulkAccepted visit means every member's
  /// rectangle intersects `query`; a kBoundary visit means the caller must
  /// apply the per-member rectangle test (`FromCircle(center, r)
  /// .Intersects(query)` bit-identically) before admitting a member.
  /// Returns the total member count across the appended visits. Not
  /// thread-safe (stats).
  size_t VisitQueryCells(const geo::BoundingBox& query,
                         std::vector<CellVisit>& out) const;

  /// The row store the visits' slices index. Rows outside a live slice are
  /// headroom. Invalidated (re-laid) by any Insert.
  const reachability::CellRows& rows() const { return rows_; }

  /// Certifies cell `slot` against the task location. The bounds are
  /// floating-point conservative: each member's kernel d_sq (computed as
  /// fl(fl(dx^2) + fl(dy^2)) with dx = fl(x - task_x)) is bracketed by the
  /// corner distances of the cell's centre box evaluated with the same
  /// operations — rounding is monotone, so no slack is needed — and
  /// compared against the cell's min accept / max reject band.
  CellAlpha Certify(size_t slot, double task_x, double task_y) const;

  const QueryStats& stats() const { return stats_; }
  void ResetStats() const { stats_ = QueryStats{}; }

  // Test support.
  /// Classification of cell (cx, cy) against `query` exactly as a query would
  /// decide it (empty cells report kSkipped).
  CellCert ClassifyCellForTest(int cx, int cy,
                               const geo::BoundingBox& query) const;
  /// Cell `slot`'s live row slice and alpha aggregate; cell (cx, cy) is
  /// slot cy * cells_per_axis() + cx.
  struct CellView {
    size_t begin;
    uint32_t count;
    AlphaAgg alpha;
  };
  CellView CellForTest(size_t slot) const {
    return {cells_ref_[slot].begin, cells_ref_[slot].count, alpha_[slot]};
  }
  int cells_per_axis() const { return cells_; }

 private:
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  /// Where one cell's rows live inside the row store: the ascending-id
  /// slice [begin, begin + count), with `cap - count` spare rows at the end
  /// of the slice so later inserts rarely force a rebuild. Slices are laid
  /// out in row-major cell order, so a query sweeping a row of cells reads
  /// the store near-sequentially.
  struct CellRef {
    size_t begin = 0;
    uint32_t count = 0;
    uint32_t cap = 0;
  };

  /// The rectangle aggregates the certification tests read — exactly one
  /// cache line per cell. All components are computed with the same
  /// floating-point operations as the per-member rectangle
  /// `FromCircle(center, r)` — `fl(c - r)` / `fl(c + r)` — and min/max are
  /// exact, so certification agrees bit-for-bit with the member-by-member
  /// test it replaces. An empty cell keeps the reset sentinels
  /// (cover_max_x = -inf), which the skip test rejects before any row is
  /// touched.
  struct alignas(64) Agg {
    // Cover box: union of member rectangles (skip test).
    double cover_min_x, cover_min_y, cover_max_x, cover_max_y;
    // Core aggregates: max lower / min upper member bounds (bulk-accept
    // test: the query must catch even the worst member on every side).
    double core_max_lo_x, core_max_lo_y, core_min_hi_x, core_min_hi_y;
  };
  static_assert(sizeof(Agg) == 64);

  // Reset sentinels: an empty cell's cover box is inverted, so the skip
  // test rejects it, and its centre box has max < min.
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr Agg kEmptyAgg{kInf,  kInf,  -kInf, -kInf,
                                 -kInf, -kInf, kInf,  kInf};
  static constexpr AlphaAgg kEmptyAlpha{kInf, -kInf, kInf,
                                        -kInf, kInf, -kInf};

  struct CellRange {
    int x0, x1, y0, y1;  // Inclusive cell coordinates.
  };
  /// Cell coordinate of an offset measured in cells, clamped to
  /// [0, cells_ - 1] before the integer cast (NaN -> 0).
  int CellCoord(double cells_from_origin) const;
  CellRange CellsFor(const geo::BoundingBox& box) const;
  /// The widened, clamped cell range a query visits for `query` (the
  /// max_radius_ reach expansion plus the +-1 ulp guard band).
  CellRange QueryRange(const geo::BoundingBox& query) const;
  size_t CellSlot(int cx, int cy) const {
    return static_cast<size_t>(cy) * static_cast<size_t>(cells_) +
           static_cast<size_t>(cx);
  }
  size_t CellSlotFor(geo::Point p) const;
  /// Row position of stored `id` inside its cell's slice.
  size_t RowOf(uint32_t id) const;
  CellCert Classify(const Agg& agg, const geo::BoundingBox& query) const;
  /// Writes a new live row at `pos` of cell `slot`'s slice (already
  /// counted) and folds it into the cell's aggregates.
  void PlaceRow(size_t slot, size_t pos, geo::Point center, double r,
                uint32_t id, double accept_below_sq, double reject_above_sq);
  /// Folds row `pos` into cell `slot`'s two aggregates.
  void Accumulate(size_t slot, size_t pos);
  /// Recomputes both aggregates of `slot` from its rows in one pass.
  void RecomputeAggregates(size_t slot);
  /// Re-lays the row store with fresh per-cell headroom (amortized:
  /// triggered only when a cell's slice is full). O(rows).
  void Rebuild();

  geo::BoundingBox region_;
  int cells_;
  double cell_w_;
  double cell_h_;
  std::vector<CellRef> cells_ref_;  // Per-cell slice of the row store.
  std::vector<Agg> aggs_;           // Parallel; one cache line per cell.
  std::vector<AlphaAgg> alpha_;     // Parallel; read by Certify only.
  reachability::CellRows rows_;
  // Worker id -> the cell holding its row, kAbsent when not stored.
  std::vector<uint32_t> cell_of_;
  // High-water mark of all inserted expanded radii; queries widen their
  // visited cell range by it so any cell whose members could reach the
  // query rectangle is visited. Kept stale-high after Remove (conservative).
  double max_radius_ = 0.0;
  size_t live_ = 0;

  mutable QueryStats stats_;
};

}  // namespace scguard::index

#endif  // SCGUARD_INDEX_GRID_INDEX_H_
