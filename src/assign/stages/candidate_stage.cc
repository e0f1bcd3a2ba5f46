#include "assign/stages/candidate_stage.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/check.h"

namespace scguard::assign {

// The threshold cache checks the model and alpha.
U2uCandidateStage::U2uCandidateStage(Config config)
    : config_(std::move(config)),
      thresholds_(config_.model, reachability::Stage::kU2U, config_.alpha) {}

void U2uCandidateStage::ReserveWorkers(size_t n) {
  soa_.x.reserve(n);
  soa_.y.reserve(n);
  soa_.reach_radius_m.reserve(n);
  soa_.matched.reserve(n);
}

uint32_t U2uCandidateStage::AddWorker(geo::Point noisy_location,
                                      double reach_radius_m) {
  const size_t i = soa_.size();
  SCGUARD_CHECK(i < std::numeric_limits<uint32_t>::max());
  soa_.x.push_back(noisy_location.x);
  soa_.y.push_back(noisy_location.y);
  soa_.reach_radius_m.push_back(reach_radius_m);
  soa_.matched.push_back(0);
  // A registration after Prepare invalidates a built grid; it is rebuilt
  // over the full worker set at the next Prepare.
  pruner_.reset();
  return static_cast<uint32_t>(i);
}

void U2uCandidateStage::UpdateWorkerLocation(uint32_t worker,
                                             geo::Point noisy_location) {
  soa_.x[worker] = noisy_location.x;
  soa_.y[worker] = noisy_location.y;
  // The certain-band bounds depend only on the (unchanged) reach radius,
  // so the threshold prewarm stays valid. A built grid relocates the row
  // in place (O(cell) — the mutation the service loop amortizes, DESIGN.md
  // §14); an unbuilt one is built from the SoA at the next Prepare.
  if (pruner_ != nullptr) pruner_->Relocate(worker, noisy_location);
}

void U2uCandidateStage::MarkAvailable(uint32_t worker) {
  if (!soa_.matched[worker]) return;
  soa_.matched[worker] = 0;
  // Undo MarkMatched: the row rejoins the grid at the worker's current
  // location.
  if (pruner_ != nullptr) pruner_->Restore(worker, soa_);
}

void U2uCandidateStage::Prepare() {
  const size_t n = soa_.size();
  if (warm_ == n && pruner_ != nullptr) return;

  // Threshold prewarm: filling accept/reject_sq also memoizes the cache for
  // every worker radius, so the band resolution finds them inverted.
  soa_.accept_below_sq.resize(n);
  soa_.reject_above_sq.resize(n);
  for (size_t i = warm_; i < n; ++i) {
    const reachability::AlphaThreshold& t =
        thresholds_.For(soa_.reach_radius_m[i]);
    soa_.accept_below_sq[i] = t.accept_below_sq;
    soa_.reject_above_sq[i] = t.reject_above_sq;
  }

  // Built straight from the SoA after the prewarm above: the grid's rows
  // carry each worker's certain bands, and matched workers stay out.
  if (pruner_ == nullptr) {
    if (config_.pruning.has_value()) {
      const Pruning& p = *config_.pruning;
      pruner_ = std::make_unique<index::UncertainRegionPruner>(
          soa_, p.worker_params, p.task_params, p.gamma, p.region);
    } else {
      pruner_ = std::make_unique<index::UncertainRegionPruner>(soa_);
    }
  }
  candidates_.reserve(n);
  warm_ = n;
}

void U2uCandidateStage::ResolveBand(geo::Point task_noisy) {
  size_t kept = 0;
  for (const uint32_t i : band_) {
    const double d = geo::Distance({soa_.x[i], soa_.y[i]}, task_noisy);
    band_[kept] = i;
    kept += thresholds_.IsCandidate(d, soa_.reach_radius_m[i]) ? 1u : 0u;
  }
  band_.resize(kept);
}

const std::vector<uint32_t>& U2uCandidateStage::Collect(
    geo::Point task_noisy_location) {
  Prepare();
  const geo::Point task = task_noisy_location;
  const geo::BoundingBox query = pruner_->TaskQueryBox(task);
  const index::GridIndex& grid = pruner_->grid();
  const reachability::CellRows& m = grid.rows();
  grid.VisitQueryCells(query, visits_);

  accept_.clear();
  band_.clear();
  int64_t scanned = 0;
  for (size_t v = 0; v < visits_.size(); ++v) {
    const index::GridIndex::CellVisit& visit = visits_[v];
    if (v + 1 < visits_.size()) {
      // The next cell's slice is a known contiguous address; start pulling
      // its first lines while this cell classifies.
      const size_t nx = visits_[v + 1].begin;
      __builtin_prefetch(m.x.data() + nx);
      __builtin_prefetch(m.y.data() + nx);
      __builtin_prefetch(m.accept_below_sq.data() + nx);
    }
    if (visit.cert == index::GridIndex::CellCert::kBulkAccepted) {
      // Every member is rectangle-admitted; the cell-level alpha
      // certificate can settle the whole slice without touching a row.
      scanned += static_cast<int64_t>(visit.count);
      const index::GridIndex::CellAlpha alpha =
          grid.Certify(visit.slot, task.x, task.y);
      if (alpha == index::GridIndex::CellAlpha::kAllAccept) {
        const auto from =
            m.id.begin() + static_cast<std::ptrdiff_t>(visit.begin);
        accept_.insert(accept_.end(), from, from + visit.count);
        stats_.gather_bytes += static_cast<int64_t>(visit.count) * 4;
        ++stats_.cells_emitted_direct;
      } else if (alpha == index::GridIndex::CellAlpha::kAllReject) {
        ++stats_.cells_emitted_direct;
      } else {
        reachability::ClassifyCertainBandRange(m, visit.begin, visit.count,
                                               task.x, task.y, accept_,
                                               band_);
        stats_.gather_bytes += static_cast<int64_t>(visit.count) * 36;
      }
    } else {
      const size_t admitted = reachability::ClassifyCertainBandRangeRect(
          m, visit.begin, visit.count, task.x, task.y, query.min_x,
          query.min_y, query.max_x, query.max_y, accept_, band_);
      scanned += static_cast<int64_t>(admitted);
      stats_.gather_bytes += static_cast<int64_t>(visit.count) * 44;
    }
  }
  ResolveBand(task);
  stats_.scanned_last = scanned;
  const size_t n = soa_.size();
  stats_.pruned_last = config_.pruning.has_value()
                            ? static_cast<int64_t>(n) - scanned
                            : 0;

  // Cells are visited in row-major order, not id order: set the accepted
  // ids in a dense bitmap and read it back in word order, ascending.
  accept_bits_.assign((n + 63) / 64, 0);
  for (const std::vector<uint32_t>* ids : {&accept_, &band_}) {
    for (const uint32_t i : *ids) {
      accept_bits_[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  candidates_.clear();
  for (size_t w = 0; w < accept_bits_.size(); ++w) {
    uint64_t bits = accept_bits_[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      candidates_.push_back(
          static_cast<uint32_t>((w << 6) + static_cast<size_t>(b)));
      bits &= bits - 1;
    }
  }
  return candidates_;
}

bool U2uCandidateStage::Decide(uint32_t worker,
                               geo::Point task_noisy_location) {
  Prepare();
  const geo::Point noisy{soa_.x[worker], soa_.y[worker]};
  const double d_sq = geo::SquaredDistance(noisy, task_noisy_location);
  if (d_sq >= soa_.reject_above_sq[worker]) return false;  // No sqrt.
  // Certain accept needs no eval; only the band pays IsCandidate.
  return d_sq <= soa_.accept_below_sq[worker] ||
         thresholds_.IsCandidate(geo::Distance(noisy, task_noisy_location),
                                 soa_.reach_radius_m[worker]);
}

void U2uCandidateStage::MarkMatched(uint32_t worker) {
  soa_.matched[worker] = 1;
  // Active-set maintenance: the row leaves the grid, so walks stop
  // visiting it.
  if (pruner_ != nullptr) pruner_->Remove(worker);
}

size_t U2uCandidateStage::available() const {
  size_t n = 0;
  for (const uint8_t m : soa_.matched) n += m == 0 ? 1 : 0;
  return n;
}

}  // namespace scguard::assign
