// Explicit 4-lane AVX2 implementations of the U2U range kernels
// ClassifyCertainBandRange{,Rect}. This is the only translation unit
// compiled with -mavx2 (see CMakeLists.txt); the dispatcher in kernel.cc
// only calls in here after a runtime CPUID check, so the rest of the binary
// stays runnable on baseline x86-64.
//
// Bit-identity contract with the scalar range loops (DESIGN.md §11):
//  * d_sq is computed as explicit sub/mul/mul/add intrinsics. -mavx2 does
//    not enable FMA, so neither this TU nor the scalar one can contract
//    dx*dx + dy*dy — both round each operation to double, giving the same
//    d_sq bit pattern per worker.
//  * The lane masks replicate the scalar predicates exactly:
//    accept = d_sq <= accept_sq (LE_OQ), band = !accept && d_sq < reject_sq
//    (andnot + LT_OQ). Ordered-quiet compares return false on NaN, matching
//    the scalar comparisons.
//  * Surviving lane ids are left-packed in lane order, so output order
//    equals the scalar loop's row-order emission.

#include "reachability/kernel.h"

#if defined(SCGUARD_HAVE_AVX2)

#include <immintrin.h>

#include <array>
#include <cstdint>

namespace scguard::reachability {
namespace {

/// _mm_shuffle_epi8 controls that left-pack the selected 32-bit lanes of a
/// __m128i: entry m (a 4-bit lane mask) moves the set lanes to the front in
/// order and fills the rest with 0x80 (shuffle zero).
constexpr std::array<std::array<uint8_t, 16>, 16> MakePackTable() {
  std::array<std::array<uint8_t, 16>, 16> table{};
  for (int mask = 0; mask < 16; ++mask) {
    int out_lane = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask & (1 << lane)) != 0) {
        for (int b = 0; b < 4; ++b) {
          table[static_cast<size_t>(mask)][static_cast<size_t>(out_lane * 4 + b)] =
              static_cast<uint8_t>(lane * 4 + b);
        }
        ++out_lane;
      }
    }
    for (; out_lane < 4; ++out_lane) {
      for (int b = 0; b < 4; ++b) {
        table[static_cast<size_t>(mask)][static_cast<size_t>(out_lane * 4 + b)] =
            0x80;
      }
    }
  }
  return table;
}

alignas(64) constexpr std::array<std::array<uint8_t, 16>, 16> kPack =
    MakePackTable();

inline __m128i PackControl(int mask) {
  return _mm_load_si128(
      reinterpret_cast<const __m128i*>(kPack[static_cast<size_t>(mask)].data()));
}

}  // namespace

void ClassifyCertainBandRangeAvx2(const CellRows& m, size_t begin,
                                  size_t count, double task_x, double task_y,
                                  std::vector<uint32_t>& accept,
                                  std::vector<uint32_t>& band) {
  // Contiguous loadu_pd streams over the cell-row columns, the id vector
  // loaded alongside; the surviving ids left-pack through kPack. Append
  // semantics.
  const size_t accept_base = accept.size();
  const size_t band_base = band.size();
  accept.resize(accept_base + count);
  band.resize(band_base + count);
  const uint32_t* const id = m.id.data() + begin;
  const double* const x = m.x.data() + begin;
  const double* const y = m.y.data() + begin;
  const double* const accept_sq = m.accept_below_sq.data() + begin;
  const double* const reject_sq = m.reject_above_sq.data() + begin;
  uint32_t* const accept_out = accept.data() + accept_base;
  uint32_t* const band_out = band.data() + band_base;
  size_t num_accept = 0;
  size_t num_band = 0;

  const __m256d tx = _mm256_set1_pd(task_x);
  const __m256d ty = _mm256_set1_pd(task_y);
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m128i ids =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(id + k));
    const __m256d wx = _mm256_loadu_pd(x + k);
    const __m256d wy = _mm256_loadu_pd(y + k);
    const __m256d lo = _mm256_loadu_pd(accept_sq + k);
    const __m256d hi = _mm256_loadu_pd(reject_sq + k);
    const __m256d dx = _mm256_sub_pd(wx, tx);
    const __m256d dy = _mm256_sub_pd(wy, ty);
    const __m256d d_sq =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    const __m256d is_accept = _mm256_cmp_pd(d_sq, lo, _CMP_LE_OQ);
    const __m256d is_band =
        _mm256_andnot_pd(is_accept, _mm256_cmp_pd(d_sq, hi, _CMP_LT_OQ));
    const int accept_mask = _mm256_movemask_pd(is_accept);
    const int band_mask = _mm256_movemask_pd(is_band);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(accept_out + num_accept),
                     _mm_shuffle_epi8(ids, PackControl(accept_mask)));
    num_accept += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(accept_mask)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(band_out + num_band),
                     _mm_shuffle_epi8(ids, PackControl(band_mask)));
    num_band += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(band_mask)));
  }
  for (; k < count; ++k) {
    const double dx = x[k] - task_x;
    const double dy = y[k] - task_y;
    const double d_sq = dx * dx + dy * dy;
    const bool in_accept = d_sq <= accept_sq[k];
    const bool in_band = (d_sq > accept_sq[k]) & (d_sq < reject_sq[k]);
    accept_out[num_accept] = id[k];
    num_accept += in_accept ? 1 : 0;
    band_out[num_band] = id[k];
    num_band += in_band ? 1 : 0;
  }
  accept.resize(accept_base + num_accept);
  band.resize(band_base + num_band);
}

size_t ClassifyCertainBandRangeRectAvx2(
    const CellRows& m, size_t begin, size_t count, double task_x,
    double task_y, double q_min_x, double q_min_y, double q_max_x,
    double q_max_y, std::vector<uint32_t>& accept,
    std::vector<uint32_t>& band) {
  // Boundary-cell variant: the pruner's per-member rectangle admission
  // (exactly GridIndex::QueryIds' member test, in vector form) masks the
  // trichotomy, so a rectangle-rejected row ends up in neither output and
  // is not counted admitted. GE/LE ordered-quiet compares match the scalar
  // <=s on any input.
  const size_t accept_base = accept.size();
  const size_t band_base = band.size();
  accept.resize(accept_base + count);
  band.resize(band_base + count);
  const uint32_t* const id = m.id.data() + begin;
  const double* const x = m.x.data() + begin;
  const double* const y = m.y.data() + begin;
  const double* const er = m.expanded_r.data() + begin;
  const double* const accept_sq = m.accept_below_sq.data() + begin;
  const double* const reject_sq = m.reject_above_sq.data() + begin;
  uint32_t* const accept_out = accept.data() + accept_base;
  uint32_t* const band_out = band.data() + band_base;
  size_t num_accept = 0;
  size_t num_band = 0;
  size_t admitted = 0;

  const __m256d tx = _mm256_set1_pd(task_x);
  const __m256d ty = _mm256_set1_pd(task_y);
  const __m256d qminx = _mm256_set1_pd(q_min_x);
  const __m256d qminy = _mm256_set1_pd(q_min_y);
  const __m256d qmaxx = _mm256_set1_pd(q_max_x);
  const __m256d qmaxy = _mm256_set1_pd(q_max_y);
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m128i ids =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(id + k));
    const __m256d wx = _mm256_loadu_pd(x + k);
    const __m256d wy = _mm256_loadu_pd(y + k);
    const __m256d wr = _mm256_loadu_pd(er + k);
    const __m256d lo = _mm256_loadu_pd(accept_sq + k);
    const __m256d hi = _mm256_loadu_pd(reject_sq + k);
    const __m256d admit = _mm256_and_pd(
        _mm256_and_pd(
            _mm256_cmp_pd(_mm256_sub_pd(wx, wr), qmaxx, _CMP_LE_OQ),
            _mm256_cmp_pd(qminx, _mm256_add_pd(wx, wr), _CMP_LE_OQ)),
        _mm256_and_pd(
            _mm256_cmp_pd(_mm256_sub_pd(wy, wr), qmaxy, _CMP_LE_OQ),
            _mm256_cmp_pd(qminy, _mm256_add_pd(wy, wr), _CMP_LE_OQ)));
    const __m256d dx = _mm256_sub_pd(wx, tx);
    const __m256d dy = _mm256_sub_pd(wy, ty);
    const __m256d d_sq =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    const __m256d le = _mm256_cmp_pd(d_sq, lo, _CMP_LE_OQ);
    const __m256d is_accept = _mm256_and_pd(admit, le);
    const __m256d is_band = _mm256_and_pd(
        admit, _mm256_andnot_pd(le, _mm256_cmp_pd(d_sq, hi, _CMP_LT_OQ)));
    const int accept_mask = _mm256_movemask_pd(is_accept);
    const int band_mask = _mm256_movemask_pd(is_band);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(accept_out + num_accept),
                     _mm_shuffle_epi8(ids, PackControl(accept_mask)));
    num_accept += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(accept_mask)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(band_out + num_band),
                     _mm_shuffle_epi8(ids, PackControl(band_mask)));
    num_band += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(band_mask)));
    admitted += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(admit))));
  }
  for (; k < count; ++k) {
    const bool admit = (x[k] - er[k] <= q_max_x) & (q_min_x <= x[k] + er[k]) &
                       (y[k] - er[k] <= q_max_y) & (q_min_y <= y[k] + er[k]);
    const double dx = x[k] - task_x;
    const double dy = y[k] - task_y;
    const double d_sq = dx * dx + dy * dy;
    const bool in_accept = admit & (d_sq <= accept_sq[k]);
    const bool in_band =
        admit & (d_sq > accept_sq[k]) & (d_sq < reject_sq[k]);
    accept_out[num_accept] = id[k];
    num_accept += in_accept ? 1 : 0;
    band_out[num_band] = id[k];
    num_band += in_band ? 1 : 0;
    admitted += admit ? 1 : 0;
  }
  accept.resize(accept_base + num_accept);
  band.resize(band_base + num_band);
  return admitted;
}

}  // namespace scguard::reachability

#endif  // SCGUARD_HAVE_AVX2
