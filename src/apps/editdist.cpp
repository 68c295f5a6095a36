#include "apps/editdist.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "apps/avx2_scan.hpp"
#include "apps/tile_kernels.hpp"

namespace wavetune::apps {

namespace {

EditCell read_cell(const std::byte* p) {
  EditCell c;
  std::memcpy(&c, p, sizeof(c));
  return c;
}

/// Captured state of the native tile kernel (core::TileKernel ctx).
struct EditTileCtx {
  std::string a;
  std::string b;
  std::int32_t sub;
  std::int32_t ins;
  std::int32_t del;
};

#ifdef WAVETUNE_AVX2_KERNELS
WAVETUNE_TARGET_AVX2 void editdist_rows_avx2(const void* pv, std::size_t i0, std::size_t i1,
                                             std::size_t j0, std::size_t j1, std::size_t stride,
                                             const std::byte* w, const std::byte* n,
                                             std::byte* out);
#endif

/// Native tile kernel: computes the block [i0,i1) x [j0,j1) row-major in
/// one plain call. The structural win over per-row segment dispatch is
/// CROSS-ROW register blocking — something a one-row-at-a-time ABI
/// cannot express: rows are swept in pairs, so the lower row's north
/// neighbour is the value just computed in a register (no north-row
/// load) and each b[j] character is loaded once for both rows. Typed
/// __restrict pointers, branchless min chains; the northwest values fold
/// into nrow[-1] / the previous column's cells.
///
/// kVectorEntry builds the AVX2 variant's entry point from the same code:
/// blocks at least avx2::kMinVectorWidth wide go to the row scan, and
/// narrower ones run this scalar sweep after one compare.
template <bool kVectorEntry>
void editdist_tile(const void* pv, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                   std::size_t stride, const std::byte* w, const std::byte* n, const std::byte* nw,
                   std::byte* out) {
#ifdef WAVETUNE_AVX2_KERNELS
  if constexpr (kVectorEntry) {
    if (j1 - j0 >= avx2::kMinVectorWidth) {
      return editdist_rows_avx2(pv, i0, i1, j0, j1, stride, w, n, out);
    }
    // Hide the width bound just tested from the optimizer, so the sweep
    // below compiles as in the scalar kernel rather than re-unrolled for
    // widths under 8.
    asm("" : "+r"(j1));
  }
#endif
  (void)nw;  // folded into nrow[-1] below
  const EditTileCtx& c = *static_cast<const EditTileCtx*>(pv);
  const char* __restrict bs = c.b.data();
  const std::int32_t sub = c.sub;
  const std::int32_t ins = c.ins;
  const std::int32_t del = c.del;
  const std::size_t width = j1 - j0;
  const char* __restrict bc = bs + j0;
  std::size_t i = i0;

  // Border row i == 0 (only ever the block's first row): north and
  // northwest come from the implicit DP border D(0, j+1) = (j+1)*ins.
  if (i == 0 && i < i1) {
    auto* __restrict o = reinterpret_cast<EditCell*>(out);
    const char ai = c.a[0];
    std::int32_t west = w ? o[-1].dist : del;
    for (std::size_t j = j0; j < j1; ++j) {
      const std::int32_t jj = static_cast<std::int32_t>(j);
      const std::int32_t e = static_cast<std::int32_t>(ai == bs[j]);
      EditCell cell;
      cell.dist = std::min({jj * ins + sub - sub * e, (jj + 1) * ins + del, west + ins});
      cell.match_run = e;
      o[j - j0] = cell;
      west = cell.dist;
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
      auto* __restrict o0 = reinterpret_cast<EditCell*>(out + r * stride);
      auto* __restrict o1 = reinterpret_cast<EditCell*>(out + (r + 1) * stride);
      const auto* __restrict nrow =
          r == 0 ? reinterpret_cast<const EditCell*>(n)
                 : reinterpret_cast<const EditCell*>(out + (r - 1) * stride);
      const std::int32_t ii = static_cast<std::int32_t>(i);
      const char a0 = c.a[i];
      const char a1 = c.a[i + 1];
      std::int32_t west0 = w ? o0[-1].dist : (ii + 1) * del;
      std::int32_t west1 = w ? o1[-1].dist : (ii + 2) * del;
      EditCell diag0 = w ? nrow[-1] : EditCell{ii * del, 0};
      EditCell diag1 = w ? o0[-1] : EditCell{(ii + 1) * del, 0};
      for (std::size_t t = 0; t < width; ++t) {
        const EditCell north = nrow[t];
        const char bj = bc[t];
        // Branchless match handling: `e` is 0/1 and folds into arithmetic,
        // so random (unpredictable) match patterns cost no mispredicts.
        const std::int32_t e0 = static_cast<std::int32_t>(a0 == bj);
        EditCell c0;
        c0.dist = std::min(std::min(diag0.dist + sub - sub * e0, north.dist + del), west0 + ins);
        c0.match_run = (diag0.match_run + 1) * e0;
        o0[t] = c0;
        const std::int32_t e1 = static_cast<std::int32_t>(a1 == bj);
        EditCell c1;
        c1.dist = std::min(std::min(diag1.dist + sub - sub * e1, c0.dist + del), west1 + ins);
        c1.match_run = (diag1.match_run + 1) * e1;
        o1[t] = c1;
        west0 = c0.dist;
        west1 = c1.dist;
        diag0 = north;
        diag1 = c0;
      }
    }
  }

  // Remaining rows (all of them for wide blocks, the odd trailing row
  // otherwise): single sweep against the stored north row.
  for (; i < i1; ++i) {
    const std::size_t r = i - i0;
    auto* __restrict o = reinterpret_cast<EditCell*>(out + r * stride);
    const auto* __restrict nrow =
        r == 0 ? reinterpret_cast<const EditCell*>(n)
               : reinterpret_cast<const EditCell*>(out + (r - 1) * stride);
    const std::int32_t ii = static_cast<std::int32_t>(i);
    const char ai = c.a[i];
    std::int32_t west = w ? o[-1].dist : (ii + 1) * del;
    EditCell diag = w ? nrow[-1] : EditCell{ii * del, 0};
    for (std::size_t t = 0; t < width; ++t) {
      const EditCell north = nrow[t];
      const std::int32_t e = static_cast<std::int32_t>(ai == bc[t]);
      const std::int32_t dist =
          std::min(std::min(diag.dist + sub - sub * e, north.dist + del), west + ins);
      o[t].dist = dist;
      o[t].match_run = (diag.match_run + 1) * e;
      west = dist;
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
///   A[t] = min(diag[t] + sub * (1 - e[t]), north[t] + del),
///   match_run[t] = (diag_run[t] + 1) * e[t].
/// The west dependency D[t] = min(A[t], D[t-1] + ins) unrolls to
///   D[t] = t*ins + min(west + ins, min_{k<=t} (A[k] - k*ins)),
/// a prefix minimum that needs no carry, joined with one broadcast carry
/// per vector. It is the scalar expression regrouped with
/// min(x, y) + c == min(x + c, y + c), exact in integers, and
/// check_cost_range keeps every intermediate inside int32. The i == 0
/// border row and the j == 0 border cell go through the scalar kernel,
/// each row's tail of under 8 cells through an inline scalar loop.
/// Needs j1 - j0 >= 8.
WAVETUNE_TARGET_AVX2 void editdist_rows_avx2(const void* pv, std::size_t i0, std::size_t i1,
                                             std::size_t j0, std::size_t j1, std::size_t stride,
                                             const std::byte* w, const std::byte* n,
                                             std::byte* out) {
  const std::size_t width = j1 - j0;
  const EditTileCtx& c = *static_cast<const EditTileCtx*>(pv);
  const char* bc = c.b.data() + j0;
  const __m256i sub = _mm256_set1_epi32(c.sub);
  const __m256i del = _mm256_set1_epi32(c.del);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i steps = avx2::lane_steps(c.ins);  // t * ins
  const __m256i carry_step = _mm256_set1_epi32(8 * c.ins);
  for (std::size_t i = i0; i < i1; ++i) {
    std::byte* orow = out + (i - i0) * stride;
    if (i == 0) {
      editdist_tile<false>(pv, 0, 1, j0, j1, stride, w, nullptr, nullptr, orow);
      continue;
    }
    const std::byte* nrow = i == i0 ? n : orow - stride;
    auto* o = reinterpret_cast<EditCell*>(orow);
    const auto* north = reinterpret_cast<const EditCell*>(nrow);
    std::size_t t = 0;
    if (!w) {
      editdist_tile<false>(pv, i, i + 1, 0, 1, stride, nullptr, nrow, nullptr, orow);
      t = 1;
    }
    const char ai = c.a[i];
    __m256i carry = _mm256_set1_epi32((o + t - 1)->dist + c.ins);  // west + ins
    // The north row rotated east; lane 0 is the next vector's diagonal c0.
    __m256i rd = _mm256_set1_epi32(north[t - 1].dist);
    __m256i rrun = _mm256_set1_epi32(north[t - 1].match_run);
    for (; t + 8 <= width; t += 8) {
      __m256i nd, nrun;
      avx2::load_cells(north + t, nd, nrun);
      const __m256i dd = _mm256_blend_epi32(avx2::rotate_east(nd), rd, 0x01);
      const __m256i drun = _mm256_blend_epi32(avx2::rotate_east(nrun), rrun, 0x01);
      rd = avx2::rotate_east(nd);
      rrun = avx2::rotate_east(nrun);
      const __m256i e = avx2::match_mask(bc + t, ai);
      const __m256i a = _mm256_min_epi32(_mm256_add_epi32(dd, _mm256_andnot_si256(e, sub)),
                                         _mm256_add_epi32(nd, del));
      const __m256i run = _mm256_and_si256(_mm256_add_epi32(drun, one), e);
      const __m256i p = avx2::prefix_scan<false>(_mm256_sub_epi32(a, steps));
      avx2::store_cells(o + t, _mm256_add_epi32(steps, _mm256_min_epi32(carry, p)), run);
      carry = _mm256_add_epi32(_mm256_min_epi32(carry, avx2::broadcast_last(p)), carry_step);
    }
    for (std::int32_t west = o[t - 1].dist; t < width; ++t) {
      const std::int32_t e = static_cast<std::int32_t>(ai == bc[t]);
      const EditCell diag = north[t - 1];
      west = std::min(std::min(diag.dist + c.sub - c.sub * e, north[t].dist + c.del),
                      west + c.ins);
      o[t] = EditCell{west, (diag.match_run + 1) * e};
    }
  }
}

}  // namespace
#endif  // WAVETUNE_AVX2_KERNELS

core::TileKernelFn detail::editdist_scalar_tile_kernel() { return &editdist_tile<false>; }

core::TileKernelFn detail::editdist_avx2_tile_kernel() {
#ifdef WAVETUNE_AVX2_KERNELS
  if (avx2::cpu_has_avx2()) return &editdist_tile<true>;
#endif
  return nullptr;
}

core::InputParams editdist_model_inputs(std::size_t dim) {
  // Same regime as the paper's sequence-comparison app: very fine-grained
  // kernel, two-int payload.
  return core::InputParams{dim, 0.5, 0};
}

core::WavefrontSpec make_editdist_spec(const EditDistParams& params) {
  if (params.str_a.empty() || params.str_a.size() != params.str_b.size()) {
    throw std::invalid_argument("make_editdist_spec: strings must be equal nonzero length");
  }
  const std::size_t dim = params.str_a.size();
  detail::check_cost_range("make_editdist_spec", dim,
                           {params.substitution, params.insertion, params.deletion});
  const std::string a = params.str_a;
  const std::string b = params.str_b;
  const std::int32_t sub = params.substitution;
  const std::int32_t ins = params.insertion;
  const std::int32_t del = params.deletion;

  core::WavefrontSpec spec;
  spec.dim = dim;
  spec.elem_bytes = sizeof(EditCell);
  const core::InputParams model = editdist_model_inputs(dim);
  spec.tsize = model.tsize;
  spec.dsize = model.dsize;
  // Length-prefixed raw payload, not a digest: the plan cache must never
  // confuse two different requests, so the identity is exact.
  spec.content_key = "editdist|" + std::to_string(a.size()) + '|' + a + b + '|' +
                     std::to_string(sub) + '|' + std::to_string(ins) + '|' + std::to_string(del);
  // Grid cell (i, j) holds D(i+1, j+1); the DP's border row/column are
  // implicit: a null neighbour on the border stands for D(i+1, 0) =
  // (i+1)*del, D(0, j+1) = (j+1)*ins, D(0, 0) = 0.
  spec.kernel = [a, b, sub, ins, del, dim](std::size_t i, std::size_t j, const std::byte* w,
                                           const std::byte* n, const std::byte* nw,
                                           std::byte* out) {
    (void)dim;
    const std::int32_t ii = static_cast<std::int32_t>(i);
    const std::int32_t jj = static_cast<std::int32_t>(j);
    const std::int32_t west = w ? read_cell(w).dist : (ii + 1) * del;
    const std::int32_t north = n ? read_cell(n).dist : (jj + 1) * ins;
    std::int32_t diag = 0;
    if (nw) diag = read_cell(nw).dist;
    else if (i == 0 && j == 0) diag = 0;
    else if (i == 0) diag = jj * ins;
    else diag = ii * del;

    const bool match = a[i] == b[j];
    EditCell c;
    c.dist = std::min({diag + (match ? 0 : sub), north + del, west + ins});
    c.match_run = match ? ((nw ? read_cell(nw).match_run : 0) + 1) : 0;
    std::memcpy(out, &c, sizeof(c));
  };
  // Native batched kernel: one call per row-span, neighbour reads hoisted
  // into sliding locals (west = previous output, northwest = previous
  // north-row cell) — no per-cell dispatch or marshalling.
  spec.segment = [a, b, sub, ins, del](std::size_t i, std::size_t j0, std::size_t j1,
                                       const std::byte* w, const std::byte* n,
                                       const std::byte* nw, std::byte* out) {
    const std::int32_t ii = static_cast<std::int32_t>(i);
    auto* o = reinterpret_cast<EditCell*>(out);
    const char ai = a[i];
    std::int32_t west = w ? reinterpret_cast<const EditCell*>(w)->dist : (ii + 1) * del;
    if (n) {
      const auto* nrow = reinterpret_cast<const EditCell*>(n);
      // diag starts as the northwest cell; the implicit border column is
      // D(i, 0) = i*del when j0 == 0.
      EditCell diag = nw ? *reinterpret_cast<const EditCell*>(nw) : EditCell{ii * del, 0};
      for (std::size_t j = j0; j < j1; ++j) {
        const EditCell north = nrow[j - j0];
        const bool match = ai == b[j];
        EditCell c;
        c.dist = std::min({diag.dist + (match ? 0 : sub), north.dist + del, west + ins});
        c.match_run = match ? diag.match_run + 1 : 0;
        o[j - j0] = c;
        west = c.dist;
        diag = north;
      }
    } else {
      // Border row i == 0: north and northwest come from the implicit
      // DP border D(0, j+1) = (j+1)*ins, D(0, j) = j*ins (D(0,0) = 0).
      for (std::size_t j = j0; j < j1; ++j) {
        const std::int32_t jj = static_cast<std::int32_t>(j);
        const bool match = ai == b[j];
        EditCell c;
        c.dist = std::min({jj * ins + (match ? 0 : sub), (jj + 1) * ins + del, west + ins});
        c.match_run = match ? 1 : 0;
        o[j - j0] = c;
        west = c.dist;
      }
    }
  };
  // Native tile kernel (rung three): one plain-function call per tile,
  // nothing type-erased inside; the AVX2 row scan when the host has it.
  const core::TileKernelFn avx2 = detail::editdist_avx2_tile_kernel();
  spec.tile = core::TileKernel{
      avx2 ? avx2 : &editdist_tile<false>,
      std::make_shared<const EditTileCtx>(EditTileCtx{a, b, sub, ins, del})};
  return spec;
}

EditCell editdist_cell(const core::Grid& grid, std::size_t i, std::size_t j) {
  return read_cell(grid.cell(i, j));
}

std::int32_t editdist_result(const core::Grid& grid) {
  const std::size_t last = grid.dim() - 1;
  return read_cell(grid.cell(last, last)).dist;
}

std::int32_t edit_distance_reference(const EditDistParams& params) {
  const std::size_t n = params.str_a.size();
  if (n == 0 || params.str_b.size() != n) {
    throw std::invalid_argument("edit_distance_reference: bad strings");
  }
  std::vector<std::int32_t> prev(n + 1);
  std::vector<std::int32_t> cur(n + 1);
  for (std::size_t j = 0; j <= n; ++j) {
    prev[j] = static_cast<std::int32_t>(j) * params.insertion;
  }
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<std::int32_t>(i) * params.deletion;
    for (std::size_t j = 1; j <= n; ++j) {
      const bool match = params.str_a[i - 1] == params.str_b[j - 1];
      cur[j] = std::min({prev[j - 1] + (match ? 0 : params.substitution),
                         prev[j] + params.deletion, cur[j - 1] + params.insertion});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

}  // namespace wavetune::apps
