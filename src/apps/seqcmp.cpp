#include "apps/seqcmp.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "apps/avx2_scan.hpp"
#include "apps/tile_kernels.hpp"
#include "util/rng.hpp"

namespace wavetune::apps {

namespace {

SeqCell read_cell(const std::byte* p) {
  SeqCell c;
  std::memcpy(&c, p, sizeof(c));
  return c;
}

/// Captured state of the native tile kernel (core::TileKernel ctx).
struct SeqTileCtx {
  std::string a;
  std::string b;
  std::int32_t match;
  std::int32_t mismatch;
  std::int32_t gap;
};

#ifdef WAVETUNE_AVX2_KERNELS
WAVETUNE_TARGET_AVX2 void seqcmp_rows_avx2(const void* pv, std::size_t i0, std::size_t i1,
                                           std::size_t j0, std::size_t j1, std::size_t stride,
                                           const std::byte* w, const std::byte* n, std::byte* out);
#endif

/// Native tile kernel: the whole [i0,i1) x [j0,j1) block in one plain
/// call. The structural win over per-row segment dispatch is CROSS-ROW
/// register blocking — something a one-row-at-a-time ABI cannot express:
/// rows are swept in pairs, so the lower row's north neighbour is the
/// value just computed in a register (no north-row load) and each b[j]
/// character is loaded once for both rows. Typed __restrict pointers,
/// branchless max chains; the northwest values fold into nrow[-1] / the
/// previous column's cells.
///
/// kVectorEntry builds the AVX2 variant's entry point from the same code:
/// blocks at least avx2::kMinVectorWidth wide go to the row scan, and
/// narrower ones run this scalar sweep after one compare.
template <bool kVectorEntry>
void seqcmp_tile(const void* pv, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                 std::size_t stride, const std::byte* w, const std::byte* n, const std::byte* nw,
                 std::byte* out) {
#ifdef WAVETUNE_AVX2_KERNELS
  if constexpr (kVectorEntry) {
    if (j1 - j0 >= avx2::kMinVectorWidth) {
      return seqcmp_rows_avx2(pv, i0, i1, j0, j1, stride, w, n, out);
    }
    // Hide the width bound just tested from the optimizer, so the sweep
    // below compiles as in the scalar kernel rather than re-unrolled for
    // widths under 8.
    asm("" : "+r"(j1));
  }
#endif
  (void)nw;  // folded into nrow[-1] below
  const SeqTileCtx& c = *static_cast<const SeqTileCtx*>(pv);
  const char* __restrict bs = c.b.data();
  const std::int32_t match = c.match;
  const std::int32_t mismatch = c.mismatch;
  const std::int32_t gap = c.gap;
  const SeqCell zero{0, 0};
  const std::size_t width = j1 - j0;
  const char* __restrict bc = bs + j0;
  std::size_t i = i0;

  // Border row i == 0: the implicit zero row folds into constants.
  if (i == 0 && i < i1) {
    auto* __restrict o = reinterpret_cast<SeqCell*>(out);
    const char ai = c.a[0];
    SeqCell west = w ? o[-1] : zero;
    for (std::size_t j = j0; j < j1; ++j) {
      const std::int32_t sub =
          mismatch + (match - mismatch) * static_cast<std::int32_t>(ai == bs[j]);
      SeqCell cell;
      cell.score = std::max({0, sub, -gap, west.score - gap});
      cell.best_seen = std::max(cell.score, west.best_seen);
      o[j - j0] = cell;
      west = cell;
    }
    ++i;
  }

  // Row pairs: the upper row reads the stored north row; the lower row's
  // north/northwest ride in registers from the upper row's sweep. Three
  // concurrent row streams (north + two outputs) pay off while rows are
  // short or the row stride small; wide rows at large (page-multiple)
  // strides alias one cache set and lose to the two-stream single-row
  // sweep below, so those take that path instead.
  constexpr std::size_t kPairMaxWidth = 32;
  constexpr std::size_t kPairMaxStride = 8192;
  if (width <= kPairMaxWidth || stride <= kPairMaxStride) {
    for (; i + 1 < i1; i += 2) {
      const std::size_t r = i - i0;
      auto* __restrict o0 = reinterpret_cast<SeqCell*>(out + r * stride);
      auto* __restrict o1 = reinterpret_cast<SeqCell*>(out + (r + 1) * stride);
      const auto* __restrict nrow =
          r == 0 ? reinterpret_cast<const SeqCell*>(n)
                 : reinterpret_cast<const SeqCell*>(out + (r - 1) * stride);
      const char a0 = c.a[i];
      const char a1 = c.a[i + 1];
      SeqCell west0 = w ? o0[-1] : zero;
      SeqCell west1 = w ? o1[-1] : zero;
      SeqCell diag0 = w ? nrow[-1] : zero;
      SeqCell diag1 = w ? o0[-1] : zero;
      for (std::size_t t = 0; t < width; ++t) {
        const SeqCell north = nrow[t];
        const char bj = bc[t];
        // Branchless match handling: 0/1 comparisons fold into
        // arithmetic, so random (unpredictable) match patterns cost no
        // mispredicts.
        const std::int32_t sub0 =
            mismatch + (match - mismatch) * static_cast<std::int32_t>(a0 == bj);
        SeqCell c0;
        c0.score =
            std::max(std::max(0, diag0.score + sub0), std::max(north.score, west0.score) - gap);
        c0.best_seen = std::max(std::max(c0.score, west0.best_seen),
                                std::max(north.best_seen, diag0.best_seen));
        o0[t] = c0;
        const std::int32_t sub1 =
            mismatch + (match - mismatch) * static_cast<std::int32_t>(a1 == bj);
        SeqCell c1;
        c1.score =
            std::max(std::max(0, diag1.score + sub1), std::max(c0.score, west1.score) - gap);
        c1.best_seen =
            std::max(std::max(c1.score, west1.best_seen), std::max(c0.best_seen, diag1.best_seen));
        o1[t] = c1;
        west0 = c0;
        west1 = c1;
        diag0 = north;
        diag1 = c0;
      }
    }
  }

  // Remaining rows (all of them for wide blocks, the odd trailing row
  // otherwise): single sweep against the stored north row.
  for (; i < i1; ++i) {
    const std::size_t r = i - i0;
    auto* __restrict o = reinterpret_cast<SeqCell*>(out + r * stride);
    const auto* __restrict nrow =
        r == 0 ? reinterpret_cast<const SeqCell*>(n)
               : reinterpret_cast<const SeqCell*>(out + (r - 1) * stride);
    const char ai = c.a[i];
    SeqCell west = w ? o[-1] : zero;
    SeqCell diag = w ? nrow[-1] : zero;
    for (std::size_t t = 0; t < width; ++t) {
      const SeqCell north = nrow[t];
      const std::int32_t sub =
          mismatch + (match - mismatch) * static_cast<std::int32_t>(ai == bc[t]);
      const std::int32_t score =
          std::max(std::max(0, diag.score + sub), std::max(north.score, west.score) - gap);
      const std::int32_t best = std::max(std::max(score, west.best_seen),
                                         std::max(north.best_seen, diag.best_seen));
      o[t].score = score;
      o[t].best_seen = best;
      west.score = score;
      west.best_seen = best;
      diag = north;
    }
  }
}

}  // namespace

#ifdef WAVETUNE_AVX2_KERNELS
namespace {

/// AVX2 row-scan variant of the tile kernel: same contract, bit-identical
/// grids. Each row is swept 8 cells per step. The terms that depend only
/// on the north row are lane-parallel:
///   V[t] = max(0, diag[t] + sub[t], north[t] - gap),
///   B[t] = max(north_best[t], diag_best[t]).
/// The west dependency H[t] = max(V[t], H[t-1] - gap) unrolls to
///   H[t] = max(west - gap, max_{k<=t} (V[k] + k*gap)) - t*gap,
/// the scalar expression regrouped with max(x, y) + c == max(x + c, y + c),
/// and best_seen[t] = max(best_seen[t-1], H[t], B[t]) to
///   best_seen[t] = max(west_best, H[t], max_{k<=t} max(V[k], B[k])).
/// That form takes the prefix max of V where the recurrence has one of H,
/// so the best_seen scan runs beside the H scan, not after it. It is
/// exact: with gap >= 0, H[k] <= max(V[k], H[k-1]), so H never exceeds
/// max(west, the row's V so far); with gap < 0, H rises along the row,
/// so its prefix max is H[t] itself; and west <= west_best. Each
/// carry-free prefix max is joined with one broadcast carry per vector;
/// every step is integer max/add, and check_cost_range keeps every
/// intermediate inside int32. The i == 0 border row and the j == 0 border
/// cell go through the scalar kernel, each row's tail of under 8 cells
/// through an inline scalar loop. Needs j1 - j0 >= 8.
WAVETUNE_TARGET_AVX2 void seqcmp_rows_avx2(const void* pv, std::size_t i0, std::size_t i1,
                                           std::size_t j0, std::size_t j1, std::size_t stride,
                                           const std::byte* w, const std::byte* n, std::byte* out) {
  const std::size_t width = j1 - j0;
  const SeqTileCtx& c = *static_cast<const SeqTileCtx*>(pv);
  const char* bc = c.b.data() + j0;
  const __m256i match = _mm256_set1_epi32(c.match);
  const __m256i mismatch = _mm256_set1_epi32(c.mismatch);
  const __m256i gap = _mm256_set1_epi32(c.gap);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i steps = avx2::lane_steps(c.gap);  // t * gap
  const __m256i carry_step = _mm256_set1_epi32(8 * c.gap);
  for (std::size_t i = i0; i < i1; ++i) {
    std::byte* orow = out + (i - i0) * stride;
    if (i == 0) {
      seqcmp_tile<false>(pv, 0, 1, j0, j1, stride, w, nullptr, nullptr, orow);
      continue;
    }
    const std::byte* nrow = i == i0 ? n : orow - stride;
    auto* o = reinterpret_cast<SeqCell*>(orow);
    const auto* north = reinterpret_cast<const SeqCell*>(nrow);
    std::size_t t = 0;
    if (!w) {
      seqcmp_tile<false>(pv, i, i + 1, 0, 1, stride, nullptr, nrow, nullptr, orow);
      t = 1;
    }
    const char ai = c.a[i];
    __m256i carry = _mm256_set1_epi32((o + t - 1)->score - c.gap);  // west - gap
    __m256i best = _mm256_set1_epi32((o + t - 1)->best_seen);
    // The north row rotated east; lane 0 is the next vector's diagonal c0.
    __m256i rh = _mm256_set1_epi32(north[t - 1].score);
    __m256i rb = _mm256_set1_epi32(north[t - 1].best_seen);
    for (; t + 8 <= width; t += 8) {
      __m256i nh, nb;
      avx2::load_cells(north + t, nh, nb);
      const __m256i dh = _mm256_blend_epi32(avx2::rotate_east(nh), rh, 0x01);
      const __m256i db = _mm256_blend_epi32(avx2::rotate_east(nb), rb, 0x01);
      rh = avx2::rotate_east(nh);
      rb = avx2::rotate_east(nb);
      const __m256i sub = _mm256_blendv_epi8(mismatch, match, avx2::match_mask(bc + t, ai));
      const __m256i v = _mm256_max_epi32(_mm256_max_epi32(zero, _mm256_add_epi32(dh, sub)),
                                         _mm256_sub_epi32(nh, gap));
      const __m256i q = _mm256_max_epi32(
          best, avx2::prefix_scan<true>(_mm256_max_epi32(v, _mm256_max_epi32(nb, db))));
      const __m256i p = avx2::prefix_scan<true>(_mm256_add_epi32(v, steps));
      const __m256i h = _mm256_sub_epi32(_mm256_max_epi32(carry, p), steps);
      carry = _mm256_sub_epi32(_mm256_max_epi32(carry, avx2::broadcast_last(p)), carry_step);
      const __m256i b = _mm256_max_epi32(q, h);
      avx2::store_cells(o + t, h, b);
      best = avx2::broadcast_last(b);
    }
    for (SeqCell west = o[t - 1]; t < width; ++t) {
      const std::int32_t e = static_cast<std::int32_t>(ai == bc[t]);
      const SeqCell diag = north[t - 1];
      const std::int32_t score =
          std::max(std::max(0, diag.score + c.mismatch + (c.match - c.mismatch) * e),
                   std::max(north[t].score, west.score) - c.gap);
      west = SeqCell{score, std::max(std::max(score, west.best_seen),
                                     std::max(north[t].best_seen, diag.best_seen))};
      o[t] = west;
    }
  }
}

}  // namespace
#endif  // WAVETUNE_AVX2_KERNELS

core::TileKernelFn detail::seqcmp_scalar_tile_kernel() { return &seqcmp_tile<false>; }

core::TileKernelFn detail::seqcmp_avx2_tile_kernel() {
#ifdef WAVETUNE_AVX2_KERNELS
  if (avx2::cpu_has_avx2()) return &seqcmp_tile<true>;
#endif
  return nullptr;
}

std::string random_dna(std::size_t n, std::uint64_t seed) {
  static const char alphabet[] = {'A', 'C', 'G', 'T'};
  util::Rng rng(seed);
  std::string s(n, 'A');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = alphabet[rng.uniform_int(0, 3)];
  }
  return s;
}

core::InputParams seqcmp_model_inputs(std::size_t dim) {
  // Paper §3.2.1: "the Biological Sequence Comparison application has
  // tsize=0.5 and dsize=0".
  return core::InputParams{dim, 0.5, 0};
}

core::WavefrontSpec make_seqcmp_spec(const SeqCmpParams& params) {
  if (params.seq_a.empty() || params.seq_a.size() != params.seq_b.size()) {
    throw std::invalid_argument("make_seqcmp_spec: sequences must be equal nonzero length");
  }
  const std::size_t dim = params.seq_a.size();
  detail::check_cost_range("make_seqcmp_spec", dim,
                           {params.match, params.mismatch, params.gap});
  const std::string a = params.seq_a;
  const std::string b = params.seq_b;
  const std::int32_t match = params.match;
  const std::int32_t mismatch = params.mismatch;
  const std::int32_t gap = params.gap;

  core::WavefrontSpec spec;
  spec.dim = dim;
  spec.elem_bytes = sizeof(SeqCell);
  const core::InputParams model = seqcmp_model_inputs(dim);
  spec.tsize = model.tsize;
  spec.dsize = model.dsize;
  // Length-prefixed raw payload, not a digest: the plan cache must never
  // confuse two different requests, so the identity is exact.
  spec.content_key = "seqcmp|" + std::to_string(a.size()) + '|' + a + b + '|' +
                     std::to_string(match) + '|' + std::to_string(mismatch) + '|' +
                     std::to_string(gap);
  spec.kernel = [a, b, match, mismatch, gap](std::size_t i, std::size_t j, const std::byte* w,
                                             const std::byte* n, const std::byte* nw,
                                             std::byte* out) {
    const SeqCell cw = w ? read_cell(w) : SeqCell{0, 0};
    const SeqCell cn = n ? read_cell(n) : SeqCell{0, 0};
    const SeqCell cnw = nw ? read_cell(nw) : SeqCell{0, 0};
    const std::int32_t sub = a[i] == b[j] ? match : mismatch;
    SeqCell c;
    c.score = std::max({0, cnw.score + sub, cn.score - gap, cw.score - gap});
    c.best_seen = std::max({c.score, cw.best_seen, cn.best_seen, cnw.best_seen});
    std::memcpy(out, &c, sizeof(c));
  };
  // Native batched kernel: sliding west/northwest locals, one dispatch per
  // row-span. The i == 0 border folds the implicit zero row into constants.
  spec.segment = [a, b, match, mismatch, gap](std::size_t i, std::size_t j0, std::size_t j1,
                                              const std::byte* w, const std::byte* n,
                                              const std::byte* nw, std::byte* out) {
    auto* o = reinterpret_cast<SeqCell*>(out);
    const char ai = a[i];
    SeqCell west = w ? *reinterpret_cast<const SeqCell*>(w) : SeqCell{0, 0};
    if (n) {
      const auto* nrow = reinterpret_cast<const SeqCell*>(n);
      SeqCell diag = nw ? *reinterpret_cast<const SeqCell*>(nw) : SeqCell{0, 0};
      for (std::size_t j = j0; j < j1; ++j) {
        const SeqCell north = nrow[j - j0];
        const std::int32_t sub = ai == b[j] ? match : mismatch;
        SeqCell c;
        c.score = std::max({0, diag.score + sub, north.score - gap, west.score - gap});
        c.best_seen = std::max({c.score, west.best_seen, north.best_seen, diag.best_seen});
        o[j - j0] = c;
        west = c;
        diag = north;
      }
    } else {
      for (std::size_t j = j0; j < j1; ++j) {
        const std::int32_t sub = ai == b[j] ? match : mismatch;
        SeqCell c;
        c.score = std::max({0, sub, -gap, west.score - gap});
        c.best_seen = std::max(c.score, west.best_seen);
        o[j - j0] = c;
        west = c;
      }
    }
  };
  // Native tile kernel (rung three): one plain-function call per tile;
  // the AVX2 row scan when the host has it.
  const core::TileKernelFn avx2 = detail::seqcmp_avx2_tile_kernel();
  spec.tile = core::TileKernel{
      avx2 ? avx2 : &seqcmp_tile<false>,
      std::make_shared<const SeqTileCtx>(SeqTileCtx{a, b, match, mismatch, gap})};
  return spec;
}

SeqCell seqcmp_cell(const core::Grid& grid, std::size_t i, std::size_t j) {
  return read_cell(grid.cell(i, j));
}

std::int32_t seqcmp_best_score(const core::Grid& grid) {
  const std::size_t last = grid.dim() - 1;
  return read_cell(grid.cell(last, last)).best_seen;
}

std::int32_t smith_waterman_reference(const SeqCmpParams& params) {
  const std::size_t n = params.seq_a.size();
  if (n == 0 || params.seq_b.size() != n) {
    throw std::invalid_argument("smith_waterman_reference: bad sequences");
  }
  // H has an implicit zero row/column 0; our wavefront grid stores
  // H(i+1, j+1) at (i, j). This reference keeps the explicit border.
  std::vector<std::int32_t> prev(n + 1, 0);
  std::vector<std::int32_t> cur(n + 1, 0);
  std::int32_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = 0;
    for (std::size_t j = 1; j <= n; ++j) {
      const std::int32_t sub =
          params.seq_a[i - 1] == params.seq_b[j - 1] ? params.match : params.mismatch;
      cur[j] = std::max({0, prev[j - 1] + sub, prev[j] - params.gap, cur[j - 1] - params.gap});
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  return best;
}

}  // namespace wavetune::apps
