#include "index/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace scguard::index {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Headroom a rebuild leaves in a cell's slice: grows with the cell so
/// repeated inserts into one cell trigger O(log) rebuilds.
uint32_t SliceCapacityFor(uint32_t count) {
  return count + std::max<uint32_t>(4, count / 2);
}

/// Iterator at row `i` of one column.
template <typename Column>
auto At(Column& col, size_t i) {
  return col.begin() + static_cast<std::ptrdiff_t>(i);
}

/// Applies `f` to each column of the given row stores in turn (the same
/// column of every store per call), so each mutation moves all six columns
/// in one place.
template <typename F, typename... Rows>
void ForEachColumn(F&& f, Rows&... rows) {
  f(rows.id...);
  f(rows.x...);
  f(rows.y...);
  f(rows.expanded_r...);
  f(rows.accept_below_sq...);
  f(rows.reject_above_sq...);
}

}  // namespace

void GridIndex::Accumulate(size_t slot, size_t pos) {
  const double cx = rows_.x[pos];
  const double cy = rows_.y[pos];
  const double cr = rows_.expanded_r[pos];
  // Exactly the member rectangle bounds FromCircle computes; aggregating
  // with min/max keeps every comparison downstream bit-compatible with the
  // per-member test.
  const double lo_x = cx - cr;
  const double hi_x = cx + cr;
  const double lo_y = cy - cr;
  const double hi_y = cy + cr;
  Agg& a = aggs_[slot];
  a.cover_min_x = std::min(a.cover_min_x, lo_x);
  a.cover_max_x = std::max(a.cover_max_x, hi_x);
  a.cover_min_y = std::min(a.cover_min_y, lo_y);
  a.cover_max_y = std::max(a.cover_max_y, hi_y);
  a.core_max_lo_x = std::max(a.core_max_lo_x, lo_x);
  a.core_min_hi_x = std::min(a.core_min_hi_x, hi_x);
  a.core_max_lo_y = std::max(a.core_max_lo_y, lo_y);
  a.core_min_hi_y = std::min(a.core_min_hi_y, hi_y);
  AlphaAgg& b = alpha_[slot];
  b.min_x = std::min(b.min_x, cx);
  b.max_x = std::max(b.max_x, cx);
  b.min_y = std::min(b.min_y, cy);
  b.max_y = std::max(b.max_y, cy);
  b.min_accept_sq = std::min(b.min_accept_sq, rows_.accept_below_sq[pos]);
  b.max_reject_sq = std::max(b.max_reject_sq, rows_.reject_above_sq[pos]);
  if (!std::isfinite(cx) || !std::isfinite(cy)) {
    // std::min/max silently drop a NaN in their second argument, so the
    // boxes above can miss this member. Poison instead: no comparison
    // passes a NaN, so the cell never bulk-accepts or alpha-certifies and
    // its members go through the per-member tests, which reject a
    // non-finite row exactly as the unpruned scan does. A NaN in the
    // *first* argument is kept, so the poison lasts until the next
    // recompute.
    a.core_max_lo_x = kNaN;
    b.min_accept_sq = kNaN;
    b.max_reject_sq = kNaN;
  }
}

void GridIndex::RecomputeAggregates(size_t slot) {
  aggs_[slot] = kEmptyAgg;
  alpha_[slot] = kEmptyAlpha;
  const CellRef& c = cells_ref_[slot];
  for (size_t k = c.begin; k < c.begin + c.count; ++k) Accumulate(slot, k);
}

GridIndex::GridIndex(const geo::BoundingBox& region, int cells_per_axis)
    : region_(region),
      cells_(cells_per_axis),
      cell_w_(region.Width() / cells_per_axis),
      cell_h_(region.Height() / cells_per_axis),
      cells_ref_(static_cast<size_t>(cells_per_axis) *
                 static_cast<size_t>(cells_per_axis)),
      aggs_(cells_ref_.size(), kEmptyAgg),
      alpha_(cells_ref_.size(), kEmptyAlpha) {
  SCGUARD_CHECK(!region.empty() && cells_per_axis >= 1);
  SCGUARD_CHECK(cell_w_ > 0.0 && cell_h_ > 0.0);
  SCGUARD_CHECK(cells_ref_.size() < kAbsent);
}

GridIndex::GridIndex(const geo::BoundingBox& region, int cells_per_axis,
                     const reachability::WorkerFilterSoA& workers,
                     double radius_pad_m)
    : GridIndex(region, cells_per_axis) {
  const size_t n = workers.size();
  SCGUARD_CHECK(n < kAbsent && workers.accept_below_sq.size() == n &&
                workers.reject_above_sq.size() == n);
  // Counting pass: each worker's cell, then slices sized for their counts.
  cell_of_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = CellSlotFor({workers.x[i], workers.y[i]});
    cell_of_[i] = static_cast<uint32_t>(slot);
    ++cells_ref_[slot].count;
  }
  size_t at = 0;
  for (CellRef& c : cells_ref_) {
    c.begin = at;
    c.cap = SliceCapacityFor(c.count);
    c.count = 0;
    at += c.cap;
  }
  rows_.Resize(at);
  // Ascending ids append to their slices, so every slice comes out sorted.
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = cell_of_[i];
    CellRef& c = cells_ref_[slot];
    const double r = workers.reach_radius_m[i] + radius_pad_m;
    SCGUARD_CHECK(r >= 0.0 && std::isfinite(r));
    PlaceRow(slot, c.begin + c.count++, {workers.x[i], workers.y[i]}, r,
             static_cast<uint32_t>(i), workers.accept_below_sq[i],
             workers.reject_above_sq[i]);
  }
}

int GridIndex::CellCoord(double cells_from_origin) const {
  // Clamp in double before the cast: converting a NaN or a value beyond
  // int range is undefined behaviour. Inside the range, truncating the
  // clamped value equals clamping the truncated one.
  if (std::isnan(cells_from_origin)) return 0;
  return static_cast<int>(std::clamp(cells_from_origin, 0.0,
                                     static_cast<double>(cells_ - 1)));
}

GridIndex::CellRange GridIndex::CellsFor(const geo::BoundingBox& box) const {
  return {CellCoord((box.min_x - region_.min_x) / cell_w_),
          CellCoord((box.max_x - region_.min_x) / cell_w_),
          CellCoord((box.min_y - region_.min_y) / cell_h_),
          CellCoord((box.max_y - region_.min_y) / cell_h_)};
}

size_t GridIndex::CellSlotFor(geo::Point p) const {
  return CellSlot(CellCoord((p.x - region_.min_x) / cell_w_),
                  CellCoord((p.y - region_.min_y) / cell_h_));
}

void GridIndex::Rebuild() {
  // New layout: row-major cell order with fresh per-cell headroom. One
  // streaming pass moves every live slice; the old store is replaced
  // wholesale, so any pointer into the rows is invalidated (none outlives
  // a call into the index).
  size_t total = 0;
  for (const CellRef& c : cells_ref_) {
    total += SliceCapacityFor(c.count);
  }
  reachability::CellRows fresh;
  fresh.Resize(total);
  size_t at = 0;
  for (CellRef& c : cells_ref_) {
    ForEachColumn(
        [&](auto& dst, const auto& src) {
          std::copy_n(At(src, c.begin), c.count, At(dst, at));
        },
        fresh, rows_);
    c.begin = at;
    c.cap = SliceCapacityFor(c.count);
    at += c.cap;
  }
  rows_ = std::move(fresh);
}

size_t GridIndex::RowOf(uint32_t id) const {
  const CellRef& c = cells_ref_[cell_of_[id]];
  const auto begin = At(rows_.id, c.begin);
  const auto end = At(rows_.id, c.begin + c.count);
  const auto pos = std::lower_bound(begin, end, id);
  SCGUARD_CHECK(pos != end && *pos == id);
  return static_cast<size_t>(pos - rows_.id.begin());
}

void GridIndex::Insert(geo::Point center, double expanded_radius_m,
                       uint32_t id, double accept_below_sq,
                       double reject_above_sq) {
  SCGUARD_CHECK(expanded_radius_m >= 0.0 &&
                std::isfinite(expanded_radius_m));
  SCGUARD_CHECK(!Contains(id));
  const size_t slot = CellSlotFor(center);
  if (cells_ref_[slot].count == cells_ref_[slot].cap) Rebuild();
  CellRef& c = cells_ref_[slot];
  // Ascending insert; callers registering ids in order hit the append path.
  const size_t end = c.begin + c.count;
  size_t pos = end;
  if (c.count > 0 && id < rows_.id[end - 1]) {
    pos = static_cast<size_t>(
        std::lower_bound(At(rows_.id, c.begin), At(rows_.id, end), id) -
        rows_.id.begin());
    ForEachColumn(
        [&](auto& col) {
          std::move_backward(At(col, pos), At(col, end), At(col, end + 1));
        },
        rows_);
  }
  ++c.count;
  if (id >= cell_of_.size()) cell_of_.resize(size_t{id} + 1, kAbsent);
  PlaceRow(slot, pos, center, expanded_radius_m, id, accept_below_sq,
           reject_above_sq);
}

void GridIndex::PlaceRow(size_t slot, size_t pos, geo::Point center,
                         double r, uint32_t id, double accept_below_sq,
                         double reject_above_sq) {
  rows_.id[pos] = id;
  rows_.x[pos] = center.x;
  rows_.y[pos] = center.y;
  rows_.expanded_r[pos] = r;
  rows_.accept_below_sq[pos] = accept_below_sq;
  rows_.reject_above_sq[pos] = reject_above_sq;
  Accumulate(slot, pos);
  cell_of_[id] = static_cast<uint32_t>(slot);
  max_radius_ = std::max(max_radius_, r);
  ++live_;
}

GridIndex::CellCert GridIndex::Classify(const Agg& agg,
                                        const geo::BoundingBox& query) const {
  // Skip: the union of member rectangles misses the query, so no member
  // can pass its intersection test. Empty cells keep the reset sentinels
  // (cover_max_x = -inf) and land here too.
  if (agg.cover_max_x < query.min_x || query.max_x < agg.cover_min_x ||
      agg.cover_max_y < query.min_y || query.max_y < agg.cover_min_y) {
    return CellCert::kSkipped;
  }
  // Bulk accept: the query catches even the componentwise-worst member
  // bound on every side, which is exactly "every member's rectangle
  // intersects the query".
  if (agg.core_max_lo_x <= query.max_x && query.min_x <= agg.core_min_hi_x &&
      agg.core_max_lo_y <= query.max_y && query.min_y <= agg.core_min_hi_y) {
    return CellCert::kBulkAccepted;
  }
  return CellCert::kBoundary;
}

GridIndex::CellRange GridIndex::QueryRange(
    const geo::BoundingBox& query) const {
  // A member's rectangle can reach at most max_radius_ beyond its center,
  // so widening the query by the radius high-water mark bounds the cells
  // whose members could intersect. The extra +-1 cell absorbs the ulp-level
  // difference between this widened box and each member's own fl(c +- r),
  // plus the truncation-vs-floor edge of the cell assignment.
  geo::BoundingBox reach = query;
  reach.min_x -= max_radius_;
  reach.min_y -= max_radius_;
  reach.max_x += max_radius_;
  reach.max_y += max_radius_;
  CellRange range = CellsFor(reach);
  range.x0 = std::max(0, range.x0 - 1);
  range.y0 = std::max(0, range.y0 - 1);
  range.x1 = std::min(cells_ - 1, range.x1 + 1);
  range.y1 = std::min(cells_ - 1, range.y1 + 1);
  return range;
}

size_t GridIndex::VisitQueryCells(const geo::BoundingBox& query,
                                  std::vector<CellVisit>& out) const {
  // Each surviving cell is reported as its row slice, so the scoring side
  // works over contiguous rows. The agg array is the only memory the walk
  // touches: 64 contiguous bytes per cell.
  out.clear();
  if (live_ == 0 || query.empty()) return 0;
  const CellRange range = QueryRange(query);
  size_t total = 0;
  for (int cy = range.y0; cy <= range.y1; ++cy) {
    for (int cx = range.x0; cx <= range.x1; ++cx) {
      const size_t slot = CellSlot(cx, cy);
      const Agg& agg = aggs_[slot];
      const CellCert cert = Classify(agg, query);
      if (cert == CellCert::kSkipped) {
        if (agg.cover_max_x != -kInf) ++stats_.cells_skipped;
        continue;
      }
      const CellRef& c = cells_ref_[slot];
      if (cert == CellCert::kBulkAccepted) {
        ++stats_.cells_bulk_accepted;
      } else {
        stats_.boundary_workers += static_cast<int64_t>(c.count);
      }
      out.push_back(CellVisit{c.begin, c.count, static_cast<uint32_t>(slot),
                              cert});
      total += c.count;
    }
  }
  return total;
}

std::vector<uint32_t> GridIndex::QueryIds(
    const geo::BoundingBox& query) const {
  std::vector<CellVisit> visits;
  VisitQueryCells(query, visits);
  std::vector<uint32_t> out;
  const reachability::CellRows& r = rows_;
  for (const CellVisit& v : visits) {
    for (size_t k = v.begin; k < v.begin + v.count; ++k) {
      // Bit-identical to FromCircle(center, r).Intersects(query).
      const double er = r.expanded_r[k];
      const bool hit = v.cert == CellCert::kBulkAccepted ||
                       ((r.x[k] - er <= query.max_x) &
                        (query.min_x <= r.x[k] + er) &
                        (r.y[k] - er <= query.max_y) &
                        (query.min_y <= r.y[k] + er));
      if (hit) out.push_back(r.id[k]);
    }
  }
  // Cells are visited in row-major order, not id order.
  std::sort(out.begin(), out.end());
  return out;
}

bool GridIndex::Remove(uint32_t id) {
  if (!Contains(id)) return false;
  const size_t slot = cell_of_[id];
  const size_t k = RowOf(id);
  CellRef& c = cells_ref_[slot];
  // Ordered in-slice erase: shift the tail down one; the freed row becomes
  // headroom for a later insert into this cell.
  const size_t end = c.begin + c.count;
  ForEachColumn(
      [&](auto& col) { std::move(At(col, k + 1), At(col, end), At(col, k)); },
      rows_);
  --c.count;
  RecomputeAggregates(slot);
  cell_of_[id] = kAbsent;
  --live_;
  return true;
}

bool GridIndex::Relocate(uint32_t id, geo::Point new_center) {
  if (!Contains(id)) return false;
  const size_t slot = cell_of_[id];
  const size_t k = RowOf(id);
  if (CellSlotFor(new_center) == slot) {
    // Same-cell move: the slice stays ascending (id unchanged), so only
    // the coordinates and the cell's aggregates change.
    rows_.x[k] = new_center.x;
    rows_.y[k] = new_center.y;
    RecomputeAggregates(slot);
    return true;
  }
  const double r = rows_.expanded_r[k];
  const double accept_sq = rows_.accept_below_sq[k];
  const double reject_sq = rows_.reject_above_sq[k];
  Remove(id);
  Insert(new_center, r, id, accept_sq, reject_sq);
  return true;
}

GridIndex::CellAlpha GridIndex::Certify(size_t slot, double task_x,
                                        double task_y) const {
  const AlphaAgg& a = alpha_[slot];
  if (a.max_x < a.min_x) return CellAlpha::kMixed;  // Empty cell.
  // Every member's kernel dx = fl(x - task_x) lies between fl(min_x -
  // task_x) and fl(max_x - task_x) (rounded subtraction is monotone in x),
  // so |dx| is bracketed by the endpoint magnitudes; squaring and the final
  // add are monotone under rounding too, so d_sq_max / d_sq_min bracket
  // every member's d_sq bit-exactly — certification never disagrees with
  // the per-member trichotomy it replaces.
  const double dx_lo = a.min_x - task_x;
  const double dx_hi = a.max_x - task_x;
  const double dy_lo = a.min_y - task_y;
  const double dy_hi = a.max_y - task_y;
  const double dxm = std::max(std::fabs(dx_lo), std::fabs(dx_hi));
  const double dym = std::max(std::fabs(dy_lo), std::fabs(dy_hi));
  const double d_sq_max = dxm * dxm + dym * dym;
  if (d_sq_max <= a.min_accept_sq) return CellAlpha::kAllAccept;
  const double dxn = dx_lo > 0.0 ? dx_lo : (dx_hi < 0.0 ? -dx_hi : 0.0);
  const double dyn = dy_lo > 0.0 ? dy_lo : (dy_hi < 0.0 ? -dy_hi : 0.0);
  const double d_sq_min = dxn * dxn + dyn * dyn;
  if (d_sq_min >= a.max_reject_sq) return CellAlpha::kAllReject;
  return CellAlpha::kMixed;
}

GridIndex::CellCert GridIndex::ClassifyCellForTest(
    int cx, int cy, const geo::BoundingBox& query) const {
  return Classify(aggs_[CellSlot(cx, cy)], query);
}

}  // namespace scguard::index
