#ifndef SCGUARD_REACHABILITY_KERNEL_H_
#define SCGUARD_REACHABILITY_KERNEL_H_

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "reachability/model.h"

namespace scguard::reachability {

/// Evaluation-kernel options for the U2E scoring path. The U2U filter has
/// none: it always runs as an exact precomputed critical-distance compare
/// (AlphaThresholdCache; bit-identical decisions to direct evaluation, held
/// by tests/oracle_test.cc); the U2E LUT trades a bounded probability error
/// for speed and must be opted into.
struct KernelOptions {
  /// Score the U2E stage through an interpolated lookup table instead of
  /// direct model evaluation. Bounded absolute error (kLutMaxAbsError) on
  /// every returned probability; changes ranking only where two candidates
  /// score within the bound of each other. Off by default.
  bool u2e_lut = false;
};

/// Max absolute probability error every KernelLut table is verified
/// against.
inline constexpr double kLutMaxAbsError = 1e-4;

/// Probability margin separating the certain-accept / certain-reject
/// regions of AlphaThresholdCache from its direct-evaluation band. Must
/// dominate the model's own evaluation noise around the alpha crossing
/// (ulp-level for the closed forms); this leaves nine decades of headroom.
inline constexpr double kThresholdMargin = 1e-9;

/// Bit pattern of a radius, used as the memoization key (exact-value
/// classes; quantize radii upstream to share tables across near-equal
/// values).
inline uint64_t RadiusKey(double reach_radius_m) {
  uint64_t key = 0;
  static_assert(sizeof(key) == sizeof(reach_radius_m));
  std::memcpy(&key, &reach_radius_m, sizeof(key));
  return key;
}

/// The alpha filter for one (stage, alpha, reach_radius), inverted into
/// distance space. The decision contract, relied on for bit-identical
/// engine output:
///   d_sq <= accept_below_sq  =>  ProbReachable(stage, d, r) >= alpha
///   d_sq >= reject_above_sq  =>  ProbReachable(stage, d, r) <  alpha
/// where `d` is the rounded Euclidean distance (std::hypot) whose square
/// `d_sq` approximates; the squared bounds carry enough slack that hypot
/// rounding can never move a point across a certain region. Distances in
/// the open band between the two bounds must be resolved by one direct
/// model evaluation (AlphaThresholdCache::IsCandidate does this); the band
/// is a few nanometres wide for the closed-form models and at most the
/// non-monotone bucket range for empirical tables.
struct AlphaThreshold {
  double accept_below_m = -1.0;   ///< d <= this => candidate. < 0: none.
  double reject_above_m = 0.0;    ///< d >= this => not a candidate.
  double accept_below_sq = -1.0;  ///< Squared-space accept bound (slacked).
  double reject_above_sq = 0.0;   ///< Squared-space reject bound (slacked).
};

/// Inverts the alpha filter once per distinct (stage, reach_radius): because
/// ProbReachable is monotone non-increasing in the observed distance for
/// every model (the geo-indistinguishability threshold trick of Andres et
/// al., CCS'13), `p >= alpha` is a critical-distance compare. Construction
/// is per-model:
///  * BinaryModel: d* = R exactly, no search.
///  * EmpiricalModel: the probability is constant per observed-distance
///    bucket, so the accept set is read off the bucket row exactly — no
///    monotonicity assumption; a non-monotone middle range stays in the
///    direct-evaluation band.
///  * Anything else (the analytical closed forms): bisection of the
///    monotone ProbReachable to the alpha -/+ margin levels.
/// Thresholds are memoized by radius bit pattern; a workload with shared
/// radii pays one inversion per distinct value.
///
/// Not thread-safe (lazy memoization); use one instance per thread or run.
class AlphaThresholdCache {
 public:
  /// `model` must outlive the cache. Requires alpha in
  /// (kThresholdMargin, 1].
  AlphaThresholdCache(const ReachabilityModel* model, Stage stage,
                      double alpha);

  /// The inverted filter for this radius (memoized).
  const AlphaThreshold& For(double reach_radius_m);

  /// Exactly `model->ProbReachable(stage, d, r) >= alpha`, via the
  /// threshold compare plus (rarely) one direct evaluation in the band.
  bool IsCandidate(double observed_distance_m, double reach_radius_m);

  /// Band resolutions that required a direct model call.
  int64_t exact_evals() const { return exact_evals_; }
  size_t size() const { return by_radius_.size(); }

  const ReachabilityModel* model() const { return model_; }
  Stage stage() const { return stage_; }
  double alpha() const { return alpha_; }

 private:
  AlphaThreshold Invert(double reach_radius_m) const;

  const ReachabilityModel* model_;
  Stage stage_;
  double alpha_;
  int64_t exact_evals_ = 0;
  std::unordered_map<uint64_t, AlphaThreshold> by_radius_;
};

/// Opt-in interpolated probability table for the U2E scoring path: one
/// linear-interpolation grid over observed distance per distinct reach
/// radius (the radius dimension is never interpolated, so the only error
/// source is the distance grid). Each table is verified at construction —
/// the grid is refined until both the monotone bracket bound and sampled
/// interpolation residuals sit under kLutMaxAbsError —
/// so every Prob() return is within that bound of the direct evaluation.
///
/// Worth enabling only when the number of scoring queries per distinct
/// radius clearly exceeds the table build cost (several hundred direct
/// evaluations); see DESIGN.md section 8. Not thread-safe (lazy per-radius
/// builds).
class KernelLut {
 public:
  /// `model` must outlive the LUT.
  KernelLut(const ReachabilityModel* model, Stage stage);

  /// Interpolated Pr(reachable | d, r); |result - direct| is bounded by
  /// kLutMaxAbsError.
  double Prob(double observed_distance_m, double reach_radius_m);

  /// Largest interpolation residual observed while verifying any built
  /// table (always <= kLutMaxAbsError).
  double worst_verified_error() const { return worst_verified_error_; }
  size_t tables_built() const { return by_radius_.size(); }

 private:
  struct Table {
    double step = 0.0;
    double inv_step = 0.0;
    double max_d = 0.0;          ///< Grid end; beyond it the tail value.
    double tail_value = 0.0;     ///< Probability at/after max_d (tiny).
    std::vector<double> values;  ///< Prob at i * step, i = 0..n.
  };

  Table Build(double reach_radius_m);

  const ReachabilityModel* model_;
  Stage stage_;
  double worst_verified_error_ = 0.0;
  std::unordered_map<uint64_t, Table> by_radius_;
};

/// Structure-of-arrays snapshot of the per-worker state the U2U filter
/// touches, so the per-task scan is cache-linear instead of striding
/// Worker structs. `accept_below_sq` / `reject_above_sq` are filled by
/// U2uCandidateStage::Prepare.
struct WorkerFilterSoA {
  std::vector<double> x;               ///< Noisy location east, meters.
  std::vector<double> y;               ///< Noisy location north, meters.
  std::vector<double> reach_radius_m;
  std::vector<double> accept_below_sq;
  std::vector<double> reject_above_sq;
  std::vector<uint8_t> matched;        ///< 1 once assigned.

  void Resize(size_t n) {
    x.resize(n);
    y.resize(n);
    reach_radius_m.resize(n);
    matched.assign(n, 0);
  }
  size_t size() const { return x.size(); }
};

/// The U2U grid's member rows (DESIGN.md §13): the per-worker columns the
/// U2U filter reads, laid out in an index::GridIndex's CSR cell order
/// (including the per-slice headroom rows), so a cell's members are one
/// contiguous run. `id` is the engine worker index; `expanded_r` is the
/// expanded rectangle radius (reach radius plus the pruning pad, which is 0
/// without pruning), so boundary cells can fuse the rectangle admission test with the
/// band classification. Rows outside the grid's live slices are headroom
/// with unspecified contents. Owned and mutated only by the grid.
struct CellRows {
  std::vector<uint32_t> id;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> expanded_r;
  std::vector<double> accept_below_sq;
  std::vector<double> reject_above_sq;

  void Resize(size_t n) {
    id.resize(n);
    x.resize(n);
    y.resize(n);
    expanded_r.resize(n);
    accept_below_sq.resize(n);
    reject_above_sq.resize(n);
  }
  size_t size() const { return id.size(); }
};

/// Branch-free certain-band classification of the U2U alpha filter over
/// the contiguous cell rows [begin, begin+count) (DESIGN.md §11, §13): each
/// row is trichotomized by comparing the squared distance from
/// (task_x, task_y) to the worker's noisy location against its precomputed
/// certain bounds:
///  * accept: d_sq <= accept_below_sq   (certain candidate),
///  * band:   strictly between the two bounds  (one direct eval needed),
///  * reject: d_sq >= reject_above_sq   (dropped).
/// **Appends** the surviving rows' `id` values to `accept` / `band`
/// (existing contents are preserved — the U2U walk accumulates several
/// cells into one output), in row order, which for a live index slice is
/// ascending id order. A fixed-trip-count pass with unconditional slot
/// writes and predicated increments (no data-dependent branches), compiled
/// at the baseline target (no FMA contraction), which pins the rounding of
/// d_sq = dx*dx + dy*dy that the grid's cell certificates bound
/// (tests/mirror_test.cc holds it to a branchy reference).
void ClassifyCertainBandRange(const CellRows& m, size_t begin,
                              size_t count, double task_x, double task_y,
                              std::vector<uint32_t>& accept,
                              std::vector<uint32_t>& band);

/// Range classification for *boundary* cells: fuses the per-member pruner
/// rectangle admission test — bit-identical to GridIndex::QueryIds'
/// `(x - er <= q.max_x) & (q.min_x <= x + er) & (y - er <= q.max_y) &
/// (q.min_y <= y + er)` member test, reading `expanded_r` — with the alpha
/// trichotomy, so rectangle-rejected members never produce a d_sq
/// classification. Appends like ClassifyCertainBandRange and returns the
/// number of rows the rectangle admitted (the cell's contribution to the
/// stage's "scanned" count). The query box is passed as four doubles to
/// keep the kernel layer free of geo types.
size_t ClassifyCertainBandRangeRect(const CellRows& m, size_t begin,
                                    size_t count, double task_x,
                                    double task_y, double q_min_x,
                                    double q_min_y, double q_max_x,
                                    double q_max_y,
                                    std::vector<uint32_t>& accept,
                                    std::vector<uint32_t>& band);

}  // namespace scguard::reachability

#endif  // SCGUARD_REACHABILITY_KERNEL_H_
