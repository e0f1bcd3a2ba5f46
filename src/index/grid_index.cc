#include "index/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace scguard::index {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Headroom a rebuild leaves in a cell's slice: grows with the cell so
/// repeated inserts into one cell trigger O(log) rebuilds.
uint32_t SliceCapacityFor(uint32_t count) {
  return count + std::max<uint32_t>(4, count / 2);
}

}  // namespace

void GridIndex::Agg::Reset() {
  cover_min_x = cover_min_y = kInf;
  cover_max_x = cover_max_y = -kInf;
  core_max_lo_x = core_max_lo_y = -kInf;
  core_min_hi_x = core_min_hi_y = kInf;
}

void GridIndex::Agg::Accumulate(double cx, double cy, double cr) {
  // Exactly the member rectangle bounds FromCircle computes; aggregating
  // with min/max keeps every comparison downstream bit-compatible with the
  // per-member test.
  const double lo_x = cx - cr;
  const double hi_x = cx + cr;
  const double lo_y = cy - cr;
  const double hi_y = cy + cr;
  cover_min_x = std::min(cover_min_x, lo_x);
  cover_max_x = std::max(cover_max_x, hi_x);
  cover_min_y = std::min(cover_min_y, lo_y);
  cover_max_y = std::max(cover_max_y, hi_y);
  core_max_lo_x = std::max(core_max_lo_x, lo_x);
  core_min_hi_x = std::min(core_min_hi_x, hi_x);
  core_max_lo_y = std::max(core_max_lo_y, lo_y);
  core_min_hi_y = std::min(core_min_hi_y, hi_y);
}

void GridIndex::RecomputeAggregates(size_t slot) {
  const CellRef& c = cells_ref_[slot];
  Agg& agg = aggs_[slot];
  agg.Reset();
  for (size_t k = c.begin; k < c.begin + c.count; ++k) {
    agg.Accumulate(xs_[k], ys_[k], rs_[k]);
  }
}

GridIndex::GridIndex(const geo::BoundingBox& region, int cells_per_axis)
    : region_(region),
      cells_(cells_per_axis),
      cell_w_(region.Width() / cells_per_axis),
      cell_h_(region.Height() / cells_per_axis),
      cells_ref_(static_cast<size_t>(cells_per_axis) *
                 static_cast<size_t>(cells_per_axis)),
      aggs_(cells_ref_.size()) {
  SCGUARD_CHECK(!region.empty() && cells_per_axis >= 1);
  SCGUARD_CHECK(cell_w_ > 0.0 && cell_h_ > 0.0);
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
  // streaming pass moves every live slice; the old arrays are replaced
  // wholesale, so any pointer into the member arrays is invalidated (none
  // outlives a call into the index).
  size_t total = 0;
  for (const CellRef& c : cells_ref_) {
    total += SliceCapacityFor(c.count);
  }
  std::vector<int64_t> new_ids(total);
  std::vector<double> new_xs(total), new_ys(total), new_rs(total);
  size_t at = 0;
  for (CellRef& c : cells_ref_) {
    const auto src = static_cast<std::ptrdiff_t>(c.begin);
    const auto dst = static_cast<std::ptrdiff_t>(at);
    std::copy_n(ids_.begin() + src, c.count, new_ids.begin() + dst);
    std::copy_n(xs_.begin() + src, c.count, new_xs.begin() + dst);
    std::copy_n(ys_.begin() + src, c.count, new_ys.begin() + dst);
    std::copy_n(rs_.begin() + src, c.count, new_rs.begin() + dst);
    c.begin = at;
    c.cap = SliceCapacityFor(c.count);
    at += c.cap;
  }
  ids_.swap(new_ids);
  xs_.swap(new_xs);
  ys_.swap(new_ys);
  rs_.swap(new_rs);
  if (listener_ != nullptr) listener_->OnRebuild();
}

void GridIndex::Insert(geo::Point center, double expanded_radius_m,
                       int64_t id) {
  SCGUARD_CHECK(expanded_radius_m >= 0.0 &&
                std::isfinite(expanded_radius_m));
  const size_t slot = CellSlotFor(center);
  if (cells_ref_[slot].count == cells_ref_[slot].cap) Rebuild();
  CellRef& c = cells_ref_[slot];
  // Ascending insert; callers registering ids in order hit the append path.
  const size_t end = c.begin + c.count;
  size_t pos = end;
  if (c.count > 0 && id < ids_[end - 1]) {
    pos = static_cast<size_t>(
        std::lower_bound(ids_.begin() + static_cast<std::ptrdiff_t>(c.begin),
                         ids_.begin() + static_cast<std::ptrdiff_t>(end), id) -
        ids_.begin());
    const auto from = static_cast<std::ptrdiff_t>(pos);
    const auto to = static_cast<std::ptrdiff_t>(end);
    std::move_backward(ids_.begin() + from, ids_.begin() + to,
                       ids_.begin() + to + 1);
    std::move_backward(xs_.begin() + from, xs_.begin() + to,
                       xs_.begin() + to + 1);
    std::move_backward(ys_.begin() + from, ys_.begin() + to,
                       ys_.begin() + to + 1);
    std::move_backward(rs_.begin() + from, rs_.begin() + to,
                       rs_.begin() + to + 1);
  }
  ids_[pos] = id;
  xs_[pos] = center.x;
  ys_[pos] = center.y;
  rs_[pos] = expanded_radius_m;
  ++c.count;
  aggs_[slot].Accumulate(center.x, center.y, expanded_radius_m);
  if (listener_ != nullptr) {
    listener_->OnSliceInsert(slot, pos, c.begin + c.count);
  }
  cells_of_id_[id].push_back(static_cast<uint32_t>(slot));
  max_radius_ = std::max(max_radius_, expanded_radius_m);
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
  // Each surviving cell is reported as its flat member-array slice so a
  // cell-major mirror can do the scoring-side work over contiguous rows.
  // The agg array is the only memory the walk touches: 64 contiguous bytes
  // per cell.
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
        ++stats_.cells_boundary;
        stats_.boundary_workers += static_cast<int64_t>(c.count);
      }
      out.push_back(CellVisit{c.begin, c.count, static_cast<uint32_t>(slot),
                              cert});
      total += c.count;
    }
  }
  return total;
}

std::vector<int64_t> GridIndex::QueryIds(const geo::BoundingBox& query) const {
  std::vector<CellVisit> visits;
  VisitQueryCells(query, visits);
  std::vector<int64_t> out;
  for (const CellVisit& v : visits) {
    for (size_t k = v.begin; k < v.begin + v.count; ++k) {
      // Bit-identical to FromCircle(center, r).Intersects(query).
      const bool hit = v.cert == CellCert::kBulkAccepted ||
                       ((xs_[k] - rs_[k] <= query.max_x) &
                        (query.min_x <= xs_[k] + rs_[k]) &
                        (ys_[k] - rs_[k] <= query.max_y) &
                        (query.min_y <= ys_[k] + rs_[k]));
      if (hit) out.push_back(ids_[k]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t GridIndex::Remove(int64_t id) {
  const auto it = cells_of_id_.find(id);
  if (it == cells_of_id_.end()) return 0;
  size_t count = 0;
  for (const uint32_t slot : it->second) {
    CellRef& c = cells_ref_[slot];
    // One recorded slot per inserted entry; erase one occurrence each.
    const auto begin = ids_.begin() + static_cast<std::ptrdiff_t>(c.begin);
    const auto end = begin + static_cast<std::ptrdiff_t>(c.count);
    const auto pos = std::lower_bound(begin, end, id);
    SCGUARD_CHECK(pos != end && *pos == id);
    // Ordered in-slice erase: shift the tail down one; the freed slot
    // becomes headroom for a later re-insert into this cell.
    const auto k = pos - ids_.begin();
    const auto slice_end = static_cast<std::ptrdiff_t>(c.begin + c.count);
    std::move(ids_.begin() + k + 1, ids_.begin() + slice_end,
              ids_.begin() + k);
    std::move(xs_.begin() + k + 1, xs_.begin() + slice_end, xs_.begin() + k);
    std::move(ys_.begin() + k + 1, ys_.begin() + slice_end, ys_.begin() + k);
    std::move(rs_.begin() + k + 1, rs_.begin() + slice_end, rs_.begin() + k);
    --c.count;
    RecomputeAggregates(slot);
    if (listener_ != nullptr) {
      listener_->OnSliceErase(slot, static_cast<size_t>(k),
                              c.begin + c.count);
    }
    ++count;
  }
  cells_of_id_.erase(it);
  live_ -= count;
  return count;
}

size_t GridIndex::Relocate(int64_t id, geo::Point new_center) {
  const auto it = cells_of_id_.find(id);
  if (it == cells_of_id_.end()) return 0;
  const size_t new_slot = CellSlotFor(new_center);
  if (it->second.size() == 1 && it->second[0] == new_slot) {
    // Same-cell move: the slice stays ascending (id unchanged), so only
    // the coordinates and the cell's certification aggregates change.
    CellRef& c = cells_ref_[new_slot];
    const auto begin = ids_.begin() + static_cast<std::ptrdiff_t>(c.begin);
    const auto end = begin + static_cast<std::ptrdiff_t>(c.count);
    const auto pos = std::lower_bound(begin, end, id);
    SCGUARD_CHECK(pos != end && *pos == id);
    const auto k = static_cast<size_t>(pos - ids_.begin());
    xs_[k] = new_center.x;
    ys_[k] = new_center.y;
    RecomputeAggregates(new_slot);
    if (listener_ != nullptr) {
      listener_->OnSliceUpdate(new_slot, k, c.begin + c.count);
    }
    return 1;
  }
  // Cross-cell (or multi-entry) move: collect each entry's radius, then
  // erase and re-insert through the ordinary mutation paths so listeners
  // see the usual erase/insert (or rebuild) sequence.
  radius_scratch_.clear();
  for (const uint32_t slot : it->second) {
    const CellRef& c = cells_ref_[slot];
    const auto begin = ids_.begin() + static_cast<std::ptrdiff_t>(c.begin);
    const auto end = begin + static_cast<std::ptrdiff_t>(c.count);
    const auto pos = std::lower_bound(begin, end, id);
    SCGUARD_CHECK(pos != end && *pos == id);
    radius_scratch_.push_back(rs_[static_cast<size_t>(pos - ids_.begin())]);
  }
  const size_t moved = Remove(id);
  for (const double r : radius_scratch_) Insert(new_center, r, id);
  return moved;
}

GridIndex::CellCert GridIndex::ClassifyCellForTest(
    int cx, int cy, const geo::BoundingBox& query) const {
  return Classify(aggs_[CellSlot(cx, cy)], query);
}

std::vector<int64_t> GridIndex::CellMembersForTest(int cx, int cy) const {
  const CellRef& c = cells_ref_[CellSlot(cx, cy)];
  return std::vector<int64_t>(
      ids_.begin() + static_cast<std::ptrdiff_t>(c.begin),
      ids_.begin() + static_cast<std::ptrdiff_t>(c.begin + c.count));
}

}  // namespace scguard::index
