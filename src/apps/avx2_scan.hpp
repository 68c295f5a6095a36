// Internal: AVX2 building blocks of the row-scan tile kernels
// (apps/editdist.cpp, apps/seqcmp.cpp). The nash kernels (apps/nash.cpp)
// use only the target macro and cpu_has_avx2().
//
// x86 only. Every function carries target("avx2"), so the including file
// needs no -mavx2 and the rest of it stays baseline x86-64; only code
// reached after cpu_has_avx2() returns true may call into here.
//
// Lane order. A vector holds 8 consecutive cells c0..c7 of one row in the
// order (c0 c1 c4 c5 | c2 c3 c6 c7): the order one shufps leaves when it
// splits 8 interleaved two-int cells into their two fields, and the order
// one unpack restores. Lane-parallel arithmetic does not care; the prefix
// scans and lane_steps() below follow it, and lane 7 holds c7 either way.
#pragma once

#if defined(__x86_64__) || defined(__i386__)
#define WAVETUNE_AVX2_KERNELS 1

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <limits>

#define WAVETUNE_TARGET_AVX2 __attribute__((target("avx2")))

namespace wavetune::apps::avx2 {

inline bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }

/// Blocks narrower than this many cells take the scalar sweep, in all
/// three apps. For the row scans it is the narrowest block that fills one
/// vector, and already there the row scan beats the scalar kernel's
/// two-rows-at-a-time sweep (1.2-2.0x in bench_micro --tiles=8 on 512 and
/// 2048 grids; README, "Vector tile kernels"). nash's anti-diagonal lanes
/// spend 3 ramp steps per row group and break even at 3-4 columns.
inline constexpr std::size_t kMinVectorWidth = 8;

/// Loads 8 two-int cells starting at `p`: field 0 into `first`, field 1
/// into `second`, both in lane order.
WAVETUNE_TARGET_AVX2 inline void load_cells(const void* p, __m256i& first, __m256i& second) {
  const auto* q = static_cast<const __m256i*>(p);
  const __m256 lo = _mm256_castsi256_ps(_mm256_loadu_si256(q));      // c0..c3
  const __m256 hi = _mm256_castsi256_ps(_mm256_loadu_si256(q + 1));  // c4..c7
  first = _mm256_castps_si256(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)));
  second = _mm256_castps_si256(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1)));
}

/// Inverse of load_cells: stores 8 interleaved two-int cells at `p`.
WAVETUNE_TARGET_AVX2 inline void store_cells(void* p, __m256i first, __m256i second) {
  auto* q = static_cast<__m256i*>(p);
  _mm256_storeu_si256(q, _mm256_unpacklo_epi32(first, second));      // c0..c3
  _mm256_storeu_si256(q + 1, _mm256_unpackhi_epi32(first, second));  // c4..c7
}

/// -1 in the lanes whose character b[t] (t < 8) equals `a`, 0 elsewhere.
WAVETUNE_TARGET_AVX2 inline __m256i match_mask(const char* b, char a) {
  const __m128i eq = _mm_cmpeq_epi8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(b)),
                                    _mm_set1_epi8(a));
  const __m128i order = _mm_setr_epi8(0, 1, 4, 5, 2, 3, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0);
  return _mm256_cvtepi8_epi32(_mm_shuffle_epi8(eq, order));
}

/// t * step for cell t, in lane order. The caller guarantees 7 * step
/// fits in int32 (apps::detail::check_cost_range).
WAVETUNE_TARGET_AVX2 inline __m256i lane_steps(std::int32_t step) {
  return _mm256_setr_epi32(0, step, 4 * step, 5 * step, 2 * step, 3 * step, 6 * step, 7 * step);
}

/// x's cells moved one cell east, in lane order: the lane of c_k gets
/// c_(k-1), the lane of c0 gets c7. A row's diagonal term is
/// blend(rotate_east(north), previous rotate_east(north), lane 0): shifted
/// in registers rather than reloaded one cell to the left, so every load
/// has the shape of the store that wrote the north row, and a row written
/// just before is forwarded from the store buffer instead of stalling.
WAVETUNE_TARGET_AVX2 inline __m256i rotate_east(__m256i x) {
  return _mm256_permutevar8x32_epi32(x, _mm256_setr_epi32(7, 0, 5, 2, 1, 4, 3, 6));
}

/// Lane 7 (cell c7) in every lane.
WAVETUNE_TARGET_AVX2 inline __m256i broadcast_last(__m256i x) {
  return _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32(7));
}

template <bool kMax>
WAVETUNE_TARGET_AVX2 inline __m256i combine(__m256i a, __m256i b) {
  return kMax ? _mm256_max_epi32(a, b) : _mm256_min_epi32(a, b);
}

/// Inclusive prefix max (kMax) or min over cell order, in three steps:
/// within each 64-bit pair of neighbouring cells, then across the four
/// pairs (c0c1, c2c3, c4c5, c6c7) by one pair and by two.
template <bool kMax>
WAVETUNE_TARGET_AVX2 inline __m256i prefix_scan(__m256i x) {
  const __m256i identity = _mm256_set1_epi32(kMax ? std::numeric_limits<std::int32_t>::min()
                                                  : std::numeric_limits<std::int32_t>::max());
  // Pairs sit in 64-bit lanes (c0c1, c4c5 | c2c3, c6c7): shift each
  // pair's first cell into its second.
  x = combine<kMax>(x, _mm256_shuffle_epi32(x, _MM_SHUFFLE(2, 2, 0, 0)));
  // Each pair's running total, spread over the pair.
  __m256i last = _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 1, 1));
  // By one pair: c2c3 <- c0c1, c4c5 <- c2c3, c6c7 <- c4c5.
  x = combine<kMax>(x, _mm256_blend_epi32(
                           _mm256_permute4x64_epi64(last, _MM_SHUFFLE(1, 0, 2, 0)), identity,
                           0x03));
  last = _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 1, 1));
  // By two pairs: c4c5 <- c0c1, c6c7 <- c2c3.
  return combine<kMax>(x, _mm256_blend_epi32(
                              _mm256_permute4x64_epi64(last, _MM_SHUFFLE(2, 0, 0, 0)),
                              identity, 0x33));
}

}  // namespace wavetune::apps::avx2

#endif  // x86
