#include "apps/nash.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/avx2_scan.hpp"
#include "apps/tile_kernels.hpp"
#include "util/rng.hpp"

namespace wavetune::apps {

namespace {

NashCell read_cell(const std::byte* p) {
  NashCell c;
  std::memcpy(&c, p, sizeof(c));
  return c;
}

/// Deterministic payoff entry for strategies (a, b) at cell (i, j).
double payoff_entry(std::uint64_t seed, std::size_t i, std::size_t j, std::size_t a,
                    std::size_t b, bool row_player) {
  std::uint64_t sm = seed ^ (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL) ^
                     (static_cast<std::uint64_t>(j) << 21) ^ (static_cast<std::uint64_t>(a) << 9) ^
                     (static_cast<std::uint64_t>(b) << 3) ^ (row_player ? 0xabcdULL : 0x1234ULL);
  return static_cast<double>(util::splitmix64(sm) >> 11) * 0x1.0p-53;  // [0, 1)
}

/// Working buffers of the fictitious-play solve. Allocated once per
/// dispatch (segment) instead of once per cell — the batched path's main
/// win for this allocation-heavy kernel.
struct NashScratch {
  std::vector<double> pay_row;
  std::vector<double> pay_col;
  std::vector<double> count_row;
  std::vector<double> count_col;

  NashScratch() = default;
  explicit NashScratch(std::size_t k) { resize(k); }

  void resize(std::size_t k) {
    pay_row.resize(k * k);
    pay_col.resize(k * k);
    count_row.resize(k);
    count_col.resize(k);
  }
};

/// Solves the subgame at (i, j) given the neighbour equilibrium values.
NashCell solve_cell(std::size_t k, std::size_t rounds, std::uint64_t seed, std::size_t i,
                    std::size_t j, const NashCell& cw, const NashCell& cn, const NashCell& cnw,
                    NashScratch& s) {
  // Neighbour subgame values perturb this cell's payoff matrices: the
  // game at (i, j) is worth playing only relative to the continuation
  // values of the already-solved subgames.
  const double shift_row = 0.35 * cw.value_row + 0.35 * cn.value_row + 0.3 * cnw.value_row;
  const double shift_col = 0.35 * cw.value_col + 0.35 * cn.value_col + 0.3 * cnw.value_col;

  // Build the k x k bimatrix game.
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      s.pay_row[a * k + b] = payoff_entry(seed, i, j, a, b, true) + 0.1 * shift_row;
      s.pay_col[a * k + b] = payoff_entry(seed, i, j, a, b, false) + 0.1 * shift_col;
    }
  }

  // Fictitious play: each round both players best-respond to the
  // opponent's empirical strategy — the computationally demanding
  // nested loop the paper's granularity parameter counts.
  std::fill(s.count_row.begin(), s.count_row.end(), 1.0 / static_cast<double>(k));
  std::fill(s.count_col.begin(), s.count_col.end(), 1.0 / static_cast<double>(k));
  double total = 1.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::size_t best_a = 0;
    std::size_t best_b = 0;
    double best_a_val = -1e300;
    double best_b_val = -1e300;
    for (std::size_t a = 0; a < k; ++a) {
      double va = 0.0;
      for (std::size_t b = 0; b < k; ++b) va += s.pay_row[a * k + b] * s.count_col[b];
      if (va > best_a_val) {
        best_a_val = va;
        best_a = a;
      }
    }
    for (std::size_t b = 0; b < k; ++b) {
      double vb = 0.0;
      for (std::size_t a = 0; a < k; ++a) vb += s.pay_col[a * k + b] * s.count_row[a];
      if (vb > best_b_val) {
        best_b_val = vb;
        best_b = b;
      }
    }
    s.count_row[best_a] += 1.0;
    s.count_col[best_b] += 1.0;
    total += 1.0;
  }

  // Normalise the empirical strategies and evaluate the cell.
  NashCell result{0, 0, 0, 0};
  for (std::size_t a = 0; a < k; ++a) s.count_row[a] /= total;
  for (std::size_t b = 0; b < k; ++b) s.count_col[b] /= total;
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      result.value_row += s.count_row[a] * s.count_col[b] * s.pay_row[a * k + b];
      result.value_col += s.count_row[a] * s.count_col[b] * s.pay_col[a * k + b];
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    if (s.count_row[a] > 0.0) result.entropy_row -= s.count_row[a] * std::log(s.count_row[a]);
    if (s.count_col[a] > 0.0) result.entropy_col -= s.count_col[a] * std::log(s.count_col[a]);
  }
  return result;
}

/// Captured state of the native tile kernel (core::TileKernel ctx): the
/// spec's constants plus per-spec lookup tables over a strategy's
/// best-response count n in [0, rounds]. Each entry is built with exactly
/// the operation sequence solve_cell applies to its double counts, so
/// every looked-up value is bit-identical to the one solve_cell computes.
struct NashTileCtx {
  std::size_t k;
  std::size_t rounds;
  std::uint64_t seed;
  std::vector<double> count;      ///< 1.0/k plus n successive += 1.0
  std::vector<double> share;      ///< count[n] / total (total = 1 + rounds)
  std::vector<double> share_log;  ///< share[n] * log(share[n])

  NashTileCtx(std::size_t k_, std::size_t rounds_, std::uint64_t seed_)
      : k(k_), rounds(rounds_), seed(seed_) {
    count.resize(rounds + 1);
    share.resize(rounds + 1);
    share_log.resize(rounds + 1);
    // solve_cell's total: 1.0 plus one += 1.0 per round, an integer below
    // 2^53 and so exact either way.
    const double total = static_cast<double>(rounds + 1);
    double c = 1.0 / static_cast<double>(k);
    for (std::size_t n = 0; n <= rounds; ++n) {
      count[n] = c;
      c += 1.0;
      share[n] = count[n] / total;
      share_log[n] = share[n] * std::log(share[n]);  // share[n] > 0
    }
  }
};

/// Per-thread working buffers of the tile kernel's solve.
struct NashTileScratch {
  std::vector<double> pay_row;
  std::vector<double> pay_col;
  std::vector<double> count_row;  ///< ctx.count[hits_row[a]]
  std::vector<double> count_col;
  std::vector<std::size_t> hits_row;  ///< best responses per strategy
  std::vector<std::size_t> hits_col;

  void resize(std::size_t k) {
    pay_row.resize(k * k);
    pay_col.resize(k * k);
    count_row.resize(k);
    count_col.resize(k);
    hits_row.resize(k);
    hits_col.resize(k);
  }
};

/// solve_cell on the tile kernel's tables: the same payoffs, the same
/// fictitious play and the same floating-point accumulation order, with
/// the cell's hash prefix seed ^ i*phi ^ (j << 21) computed once by the
/// caller, integer best-response counts, and the 2k count*log(count)
/// terms looked up instead of computed. Bit-identical to solve_cell, which
/// stays the oracle the cell and segment rungs run.
NashCell solve_tile_cell(const NashTileCtx& c, std::uint64_t cell_hash, const NashCell& cw,
                         const NashCell& cn, const NashCell& cnw, NashTileScratch& s) {
  const std::size_t k = c.k;
  const double shift_row = 0.35 * cw.value_row + 0.35 * cn.value_row + 0.3 * cnw.value_row;
  const double shift_col = 0.35 * cw.value_col + 0.35 * cn.value_col + 0.3 * cnw.value_col;
  const double bias_row = 0.1 * shift_row;
  const double bias_col = 0.1 * shift_col;

  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      const std::uint64_t ab = cell_hash ^ (static_cast<std::uint64_t>(a) << 9) ^
                               (static_cast<std::uint64_t>(b) << 3);
      std::uint64_t sm_row = ab ^ 0xabcdULL;
      std::uint64_t sm_col = ab ^ 0x1234ULL;
      s.pay_row[a * k + b] =
          static_cast<double>(util::splitmix64(sm_row) >> 11) * 0x1.0p-53 + bias_row;
      s.pay_col[a * k + b] =
          static_cast<double>(util::splitmix64(sm_col) >> 11) * 0x1.0p-53 + bias_col;
    }
  }

  std::fill(s.count_row.begin(), s.count_row.end(), c.count[0]);
  std::fill(s.count_col.begin(), s.count_col.end(), c.count[0]);
  std::fill(s.hits_row.begin(), s.hits_row.end(), 0);
  std::fill(s.hits_col.begin(), s.hits_col.end(), 0);
  for (std::size_t round = 0; round < c.rounds; ++round) {
    std::size_t best_a = 0;
    std::size_t best_b = 0;
    double best_a_val = -1e300;
    double best_b_val = -1e300;
    for (std::size_t a = 0; a < k; ++a) {
      double va = 0.0;
      for (std::size_t b = 0; b < k; ++b) va += s.pay_row[a * k + b] * s.count_col[b];
      if (va > best_a_val) {
        best_a_val = va;
        best_a = a;
      }
    }
    for (std::size_t b = 0; b < k; ++b) {
      double vb = 0.0;
      for (std::size_t a = 0; a < k; ++a) vb += s.pay_col[a * k + b] * s.count_row[a];
      if (vb > best_b_val) {
        best_b_val = vb;
        best_b = b;
      }
    }
    s.count_row[best_a] = c.count[++s.hits_row[best_a]];
    s.count_col[best_b] = c.count[++s.hits_col[best_b]];
  }

  // The normalised strategies, read from the share table into the count
  // buffers (the counts are no longer needed).
  for (std::size_t a = 0; a < k; ++a) s.count_row[a] = c.share[s.hits_row[a]];
  for (std::size_t b = 0; b < k; ++b) s.count_col[b] = c.share[s.hits_col[b]];
  NashCell result{0, 0, 0, 0};
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      result.value_row += s.count_row[a] * s.count_col[b] * s.pay_row[a * k + b];
      result.value_col += s.count_row[a] * s.count_col[b] * s.pay_col[a * k + b];
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    result.entropy_row -= c.share_log[s.hits_row[a]];
    result.entropy_col -= c.share_log[s.hits_col[a]];
  }
  return result;
}

/// Native tile kernel: one plain call per tile, with the scratch vectors
/// living per THREAD and resized only when `k` changes — band-edge tiles
/// call it once per clamped row (a few cells each in the multi-GPU band's
/// swap epochs), so a per-call allocation would dominate. solve_tile_cell
/// writes every scratch entry before reading it, so reuse cannot leak
/// values between calls. Neighbour values slide
/// through registers; rows past the first read their north row from the
/// block's own output.
void nash_tile_kernel(const void* pv, std::size_t i0, std::size_t i1, std::size_t j0,
                      std::size_t j1, std::size_t stride, const std::byte* w,
                      const std::byte* n, const std::byte* nw, std::byte* out) {
  (void)nw;  // folded into nrow[-1] below
  const NashTileCtx& c = *static_cast<const NashTileCtx*>(pv);
  thread_local NashTileScratch scratch;
  scratch.resize(c.k);
  const NashCell zero{0, 0, 0, 0};
  for (std::size_t i = i0; i < i1; ++i) {
    const std::size_t r = i - i0;
    auto* __restrict o = reinterpret_cast<NashCell*>(out + r * stride);
    const auto* nrow = r == 0 ? reinterpret_cast<const NashCell*>(n)
                              : reinterpret_cast<const NashCell*>(out + (r - 1) * stride);
    const std::uint64_t row_hash = c.seed ^ (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
    NashCell west = w ? o[-1] : zero;
    NashCell diag = nrow ? (w ? nrow[-1] : zero) : zero;
    for (std::size_t j = j0; j < j1; ++j) {
      const NashCell north = nrow ? nrow[j - j0] : zero;
      const NashCell cell = solve_tile_cell(
          c, row_hash ^ (static_cast<std::uint64_t>(j) << 21), west, north, diag, scratch);
      o[j - j0] = cell;
      west = cell;
      diag = north;
    }
  }
}

#ifdef WAVETUNE_AVX2_KERNELS

/// Cells per vector step of the AVX2 kernel, one per row of a row group.
constexpr std::size_t kNashLanes = 4;

/// A vector step costs about as much as two scalar cells (bench_micro's
/// whole-grid nash rows: 62 against 124 ns/cell), so a row group takes the
/// vector walk only where its steps average more than two busy lanes; the
/// rest (one- and two-row groups, narrow blocks, band corners) runs the
/// scalar kernel one clamped row at a time.
constexpr std::size_t kNashStepCostCells = 2;

/// Per-thread working buffers of the AVX2 kernel, resized only when `k`
/// changes. Every entry holds four lanes (one 32-byte aligned __m256d):
/// entry e of a buffer is [4e, 4e + 4). The buffers point into `storage`,
/// so the scratch is neither copied nor moved.
struct NashLaneScratch {
  NashLaneScratch() = default;
  NashLaneScratch(const NashLaneScratch&) = delete;
  NashLaneScratch& operator=(const NashLaneScratch&) = delete;

  std::vector<double> storage;
  std::size_t k = 0;
  double* pay_row = nullptr;   ///< k*k entries, (a, b) row-major
  double* pay_col = nullptr;
  double* cnt_row = nullptr;   ///< k entries: ctx.count, then ctx.share
  double* cnt_col = nullptr;
  double* hits_row = nullptr;  ///< k entries of int64 lanes: best responses
  double* hits_col = nullptr;

  void resize(std::size_t k_) {
    if (k_ == k) return;
    k = k_;
    storage.assign(4 * (2 * k * k + 4 * k) + 4, 0.0);  // + 4: room to align
    auto* p = reinterpret_cast<double*>(
        (reinterpret_cast<std::uintptr_t>(storage.data()) + 31) & ~std::uintptr_t{31});
    pay_row = p;
    pay_col = pay_row + 4 * k * k;
    cnt_row = pay_col + 4 * k * k;
    cnt_col = cnt_row + 4 * k;
    hits_row = cnt_col + 4 * k;
    hits_col = hits_row + 4 * k;
  }
};

/// x * c mod 2^64 in each 64-bit lane. AVX2 has no 64-bit lane multiply,
/// so it is lo*c_lo + ((hi*c_lo + lo*c_hi) << 32) from three 32x32->64
/// multiplies.
WAVETUNE_TARGET_AVX2 inline __m256i mul64(__m256i x, std::uint64_t c) {
  const __m256i c_lo = _mm256_set1_epi64x(static_cast<long long>(c & 0xffffffffULL));
  const __m256i c_hi = _mm256_set1_epi64x(static_cast<long long>(c >> 32));
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), c_lo),
                                         _mm256_mul_epu32(x, c_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(x, c_lo), _mm256_slli_epi64(cross, 32));
}

/// util::splitmix64 of four states, each as its [0, 1) payoff
/// (z >> 11) * 2^-53. z >> 11 is below 2^53 and converts exactly: its
/// high 21 bits fill the mantissa of 2^84 + hi * 2^32, its low 32 bits
/// that of 2^52 + lo, and (2^84 + hi * 2^32 - (2^84 + 2^52)) + (2^52 + lo)
/// rounds nowhere.
WAVETUNE_TARGET_AVX2 inline __m256d splitmix_unit(__m256i state) {
  __m256i z = _mm256_add_epi64(state, _mm256_set1_epi64x(static_cast<long long>(
                                          0x9e3779b97f4a7c15ULL)));
  z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), 0xbf58476d1ce4e5b9ULL);
  z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), 0x94d049bb133111ebULL);
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
  const __m256i v = _mm256_srli_epi64(z, 11);
  const __m256d hi = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_srli_epi64(v, 32), _mm256_castpd_si256(_mm256_set1_pd(0x1.0p84))));
  const __m256d lo = _mm256_castsi256_pd(
      _mm256_blend_epi32(v, _mm256_castpd_si256(_mm256_set1_pd(0x1.0p52)), 0xaa));
  const __m256d exact = _mm256_add_pd(_mm256_sub_pd(hi, _mm256_set1_pd(0x1.0p84 + 0x1.0p52)), lo);
  return _mm256_mul_pd(exact, _mm256_set1_pd(0x1.0p-53));
}

/// Four NashCells, one per lane, as one vector per field.
struct NashLanes {
  __m256d value_row, value_col, entropy_row, entropy_col;
};

/// One candidate of solve_tile_cell's argmax in every lane: `idx` becomes
/// a lane's best when `val` beats its best so far under a strict >, so
/// ties keep the first maximum, as in the scalar loop.
WAVETUNE_TARGET_AVX2 inline void argmax_step(__m256d val, std::size_t idx, __m256d& best_val,
                                             __m256i& best_idx) {
  const __m256d gt = _mm256_cmp_pd(val, best_val, _CMP_GT_OQ);
  best_val = _mm256_blendv_pd(best_val, val, gt);
  best_idx = _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(best_idx),
      _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(idx))), gt));
}

/// solve_tile_cell for four cells at once, lane r solving the cell with
/// hash prefix `cell_hash` lane r and neighbour values lane r of the
/// W/N/NW vectors. Each lane runs solve_tile_cell's operations in its
/// order (no fused multiply-add; the strict-> first-max argmax; the
/// value sums and entropy subtractions in (a, b) order), so every lane's
/// cell is bit-identical to the scalar one.
WAVETUNE_TARGET_AVX2 inline NashLanes solve_tile_cells_avx2(
    const NashTileCtx& c, __m256i cell_hash, __m256d w_row, __m256d w_col, __m256d n_row,
    __m256d n_col, __m256d nw_row, __m256d nw_col, NashLaneScratch& s) {
  const std::size_t k = c.k;
  const __m256d c35 = _mm256_set1_pd(0.35);
  const __m256d c30 = _mm256_set1_pd(0.3);
  const __m256d c10 = _mm256_set1_pd(0.1);
  const __m256d bias_row = _mm256_mul_pd(
      c10, _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(c35, w_row), _mm256_mul_pd(c35, n_row)),
                         _mm256_mul_pd(c30, nw_row)));
  const __m256d bias_col = _mm256_mul_pd(
      c10, _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(c35, w_col), _mm256_mul_pd(c35, n_col)),
                         _mm256_mul_pd(c30, nw_col)));

  const __m256i salt_row = _mm256_xor_si256(cell_hash, _mm256_set1_epi64x(0xabcd));
  const __m256i salt_col = _mm256_xor_si256(cell_hash, _mm256_set1_epi64x(0x1234));
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      const __m256i ab = _mm256_set1_epi64x(static_cast<long long>((a << 9) ^ (b << 3)));
      const std::size_t e = 4 * (a * k + b);
      _mm256_store_pd(s.pay_row + e,
                      _mm256_add_pd(splitmix_unit(_mm256_xor_si256(salt_row, ab)), bias_row));
      _mm256_store_pd(s.pay_col + e,
                      _mm256_add_pd(splitmix_unit(_mm256_xor_si256(salt_col, ab)), bias_col));
    }
  }

  const __m256d count0 = _mm256_set1_pd(c.count[0]);
  for (std::size_t a = 0; a < k; ++a) {
    _mm256_store_pd(s.cnt_row + 4 * a, count0);
    _mm256_store_pd(s.cnt_col + 4 * a, count0);
    _mm256_store_pd(s.hits_row + 4 * a, _mm256_setzero_pd());
    _mm256_store_pd(s.hits_col + 4 * a, _mm256_setzero_pd());
  }
  for (std::size_t round = 0; round < c.rounds; ++round) {
    __m256i best_a = _mm256_setzero_si256();
    __m256i best_b = _mm256_setzero_si256();
    __m256d best_a_val = _mm256_set1_pd(-1e300);
    __m256d best_b_val = _mm256_set1_pd(-1e300);
    for (std::size_t a = 0; a < k; ++a) {
      __m256d va = _mm256_setzero_pd();
      for (std::size_t b = 0; b < k; ++b) {
        va = _mm256_add_pd(va, _mm256_mul_pd(_mm256_load_pd(s.pay_row + 4 * (a * k + b)),
                                             _mm256_load_pd(s.cnt_col + 4 * b)));
      }
      argmax_step(va, a, best_a_val, best_a);
    }
    for (std::size_t b = 0; b < k; ++b) {
      __m256d vb = _mm256_setzero_pd();
      for (std::size_t a = 0; a < k; ++a) {
        vb = _mm256_add_pd(vb, _mm256_mul_pd(_mm256_load_pd(s.pay_col + 4 * (a * k + b)),
                                             _mm256_load_pd(s.cnt_row + 4 * a)));
      }
      argmax_step(vb, b, best_b_val, best_b);
    }
    // One more best response for each lane's winner (cmpeq is -1 there),
    // and the counts the next round reads.
    const bool more = round + 1 < c.rounds;
    for (std::size_t a = 0; a < k; ++a) {
      const __m256i ia = _mm256_set1_epi64x(static_cast<long long>(a));
      const __m256i hr = _mm256_sub_epi64(_mm256_castpd_si256(_mm256_load_pd(s.hits_row + 4 * a)),
                                          _mm256_cmpeq_epi64(best_a, ia));
      const __m256i hc = _mm256_sub_epi64(_mm256_castpd_si256(_mm256_load_pd(s.hits_col + 4 * a)),
                                          _mm256_cmpeq_epi64(best_b, ia));
      _mm256_store_pd(s.hits_row + 4 * a, _mm256_castsi256_pd(hr));
      _mm256_store_pd(s.hits_col + 4 * a, _mm256_castsi256_pd(hc));
      if (more) {
        _mm256_store_pd(s.cnt_row + 4 * a, _mm256_i64gather_pd(c.count.data(), hr, 8));
        _mm256_store_pd(s.cnt_col + 4 * a, _mm256_i64gather_pd(c.count.data(), hc, 8));
      }
    }
  }

  // The normalised strategies, gathered from the share table into the
  // count buffers, then the values and entropies.
  NashLanes r{_mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_pd(),
              _mm256_setzero_pd()};
  for (std::size_t a = 0; a < k; ++a) {
    const __m256i hr = _mm256_castpd_si256(_mm256_load_pd(s.hits_row + 4 * a));
    const __m256i hc = _mm256_castpd_si256(_mm256_load_pd(s.hits_col + 4 * a));
    _mm256_store_pd(s.cnt_row + 4 * a, _mm256_i64gather_pd(c.share.data(), hr, 8));
    _mm256_store_pd(s.cnt_col + 4 * a, _mm256_i64gather_pd(c.share.data(), hc, 8));
  }
  for (std::size_t a = 0; a < k; ++a) {
    const __m256d sa = _mm256_load_pd(s.cnt_row + 4 * a);
    for (std::size_t b = 0; b < k; ++b) {
      const __m256d t = _mm256_mul_pd(sa, _mm256_load_pd(s.cnt_col + 4 * b));
      const std::size_t e = 4 * (a * k + b);
      r.value_row = _mm256_add_pd(r.value_row, _mm256_mul_pd(t, _mm256_load_pd(s.pay_row + e)));
      r.value_col = _mm256_add_pd(r.value_col, _mm256_mul_pd(t, _mm256_load_pd(s.pay_col + e)));
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    const __m256i hr = _mm256_castpd_si256(_mm256_load_pd(s.hits_row + 4 * a));
    const __m256i hc = _mm256_castpd_si256(_mm256_load_pd(s.hits_col + 4 * a));
    r.entropy_row = _mm256_sub_pd(r.entropy_row, _mm256_i64gather_pd(c.share_log.data(), hr, 8));
    r.entropy_col = _mm256_sub_pd(r.entropy_col, _mm256_i64gather_pd(c.share_log.data(), hc, 8));
  }
  return r;
}

/// Rows [gi, gi + rows) (rows <= 4) x columns [j0, j1) of a tile, over
/// the steps [t_begin, t_end): at step t lane r computes cell
/// (gi + r, j0 + t - r), on the group's anti-diagonal gi + j0 + t, so a
/// diagonal range is a step range and the columns are a per-lane mask.
/// A lane's west value is its own output of the step before, its north
/// lane r - 1's (lane 0 reads the north row) and its northwest its north
/// of the step before, except where that neighbour was not computed in
/// this call: on the first step every lane reads W/N/NW from storage, and
/// a lane starting its row at column j0 reads W/NW from the border column.
/// Lanes outside [j0, j1) compute on stale values and store nothing.
/// `out` points at cell (gi, j0), `wcol` at (gi, j0 - 1) (null: the west
/// border, read as zero) and `nrow` at (gi - 1, j0) (null: the north
/// border), as the scalar kernel's row sweep reads them; every read stays
/// in rows [gi - 1, gi + rows) x columns [j0 - 1, j1).
WAVETUNE_TARGET_AVX2 void nash_row_group_avx2(const NashTileCtx& c, std::size_t gi,
                                              std::size_t rows, std::size_t j0, std::size_t j1,
                                              std::size_t t_begin, std::size_t t_end,
                                              std::size_t stride, const std::byte* wcol,
                                              const std::byte* nrow, std::byte* out,
                                              NashLaneScratch& s) {
  const std::size_t width = j1 - j0;
  const auto* north = reinterpret_cast<const NashCell*>(nrow);
  const auto row_of = [&](std::size_t r) {
    return reinterpret_cast<const NashCell*>(out + r * stride);
  };
  const NashCell zero{0, 0, 0, 0};
  alignas(32) double w0_row[kNashLanes] = {};
  alignas(32) double w0_col[kNashLanes] = {};
  alignas(32) double nw0_row[kNashLanes] = {};
  alignas(32) double nw0_col[kNashLanes] = {};
  alignas(32) std::uint64_t row_hash[kNashLanes] = {};
  // The first step's W/N/NW per lane, from storage.
  alignas(32) double f_w_row[kNashLanes] = {};
  alignas(32) double f_w_col[kNashLanes] = {};
  alignas(32) double f_n_row[kNashLanes] = {};
  alignas(32) double f_n_col[kNashLanes] = {};
  alignas(32) double f_nw_row[kNashLanes] = {};
  alignas(32) double f_nw_col[kNashLanes] = {};
  for (std::size_t r = 0; r < rows; ++r) {
    row_hash[r] = c.seed ^ (static_cast<std::uint64_t>(gi + r) * 0x9e3779b97f4a7c15ULL);
    if (wcol) {
      const auto* west = reinterpret_cast<const NashCell*>(wcol + r * stride);
      w0_row[r] = west->value_row;
      w0_col[r] = west->value_col;
      // Row gi + r's northwest border cell ends the west column's row above.
      const NashCell* nw = r > 0 ? reinterpret_cast<const NashCell*>(wcol + (r - 1) * stride)
                           : north ? north - 1
                                   : nullptr;
      if (nw) {
        nw0_row[r] = nw->value_row;
        nw0_col[r] = nw->value_col;
      }
    }
    if (t_begin < r || t_begin - r >= width) continue;  // no cell on the first step
    const std::size_t q = t_begin - r;                   // the lane's column - j0
    const NashCell* above = r > 0 ? row_of(r - 1) : north;
    const NashCell n = above ? above[q] : zero;
    f_n_row[r] = n.value_row;
    f_n_col[r] = n.value_col;
    if (q == 0) {
      f_w_row[r] = w0_row[r];
      f_w_col[r] = w0_col[r];
      f_nw_row[r] = nw0_row[r];
      f_nw_col[r] = nw0_col[r];
    } else {
      const NashCell& w = row_of(r)[q - 1];
      const NashCell nw = above ? above[q - 1] : zero;
      f_w_row[r] = w.value_row;
      f_w_col[r] = w.value_col;
      f_nw_row[r] = nw.value_row;
      f_nw_col[r] = nw.value_col;
    }
  }

  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i hash = _mm256_load_si256(reinterpret_cast<const __m256i*>(row_hash));
  // Lane r's column j0 + t - r; wraps below zero before its row starts.
  __m256i col =
      _mm256_sub_epi64(_mm256_set1_epi64x(static_cast<long long>(j0 + t_begin)), lane);
  // Seeded with what the walk carries into a step: the first step's W as
  // the previous output, its NW as the previous north.
  __m256d out_row = _mm256_load_pd(f_w_row);
  __m256d out_col = _mm256_load_pd(f_w_col);
  __m256d n_row = _mm256_load_pd(f_nw_row);
  __m256d n_col = _mm256_load_pd(f_nw_col);
  for (std::size_t t = t_begin; t < t_end; ++t) {
    __m256d nw_row = n_row;
    __m256d nw_col = n_col;
    __m256d w_row = out_row;
    __m256d w_col = out_col;
    if (t == t_begin) {
      n_row = _mm256_load_pd(f_n_row);
      n_col = _mm256_load_pd(f_n_col);
    } else {
      const bool lane0_in = north && t < width;
      n_row = _mm256_blend_pd(_mm256_permute4x64_pd(out_row, _MM_SHUFFLE(2, 1, 0, 0)),
                              _mm256_set1_pd(lane0_in ? north[t].value_row : 0.0), 0x1);
      n_col = _mm256_blend_pd(_mm256_permute4x64_pd(out_col, _MM_SHUFFLE(2, 1, 0, 0)),
                              _mm256_set1_pd(lane0_in ? north[t].value_col : 0.0), 0x1);
      if (t < rows) {
        // Lane t starts its row.
        const __m256d first = _mm256_castsi256_pd(
            _mm256_cmpeq_epi64(lane, _mm256_set1_epi64x(static_cast<long long>(t))));
        w_row = _mm256_blendv_pd(w_row, _mm256_set1_pd(w0_row[t]), first);
        w_col = _mm256_blendv_pd(w_col, _mm256_set1_pd(w0_col[t]), first);
        nw_row = _mm256_blendv_pd(nw_row, _mm256_set1_pd(nw0_row[t]), first);
        nw_col = _mm256_blendv_pd(nw_col, _mm256_set1_pd(nw0_col[t]), first);
      }
    }
    const NashLanes cell = solve_tile_cells_avx2(
        c, _mm256_xor_si256(hash, _mm256_slli_epi64(col, 21)), w_row, w_col, n_row, n_col,
        nw_row, nw_col, s);
    col = _mm256_add_epi64(col, _mm256_set1_epi64x(1));
    out_row = cell.value_row;
    out_col = cell.value_col;

    // Transpose the four fields into four NashCells and store the lanes
    // whose column lies in [j0, j1).
    const __m256d v02 = _mm256_unpacklo_pd(cell.value_row, cell.value_col);
    const __m256d v13 = _mm256_unpackhi_pd(cell.value_row, cell.value_col);
    const __m256d e02 = _mm256_unpacklo_pd(cell.entropy_row, cell.entropy_col);
    const __m256d e13 = _mm256_unpackhi_pd(cell.entropy_row, cell.entropy_col);
    const __m256d cells[kNashLanes] = {
        _mm256_permute2f128_pd(v02, e02, 0x20), _mm256_permute2f128_pd(v13, e13, 0x20),
        _mm256_permute2f128_pd(v02, e02, 0x31), _mm256_permute2f128_pd(v13, e13, 0x31)};
    const std::size_t r_lo = t < width ? 0 : t - width + 1;
    const std::size_t r_hi = std::min(rows - 1, t);
    for (std::size_t r = r_lo; r <= r_hi; ++r) {
      _mm256_storeu_pd(reinterpret_cast<double*>(out + r * stride) + 4 * (t - r), cells[r]);
    }
  }
}

/// The AVX2 kernel's band-clamped entry (core::TileBandKernelFn): walks
/// the tile in groups of kNashLanes rows, each over the steps whose
/// diagonal lies in [d_begin, d_end) (nash_row_group_avx2), or as scalar
/// rows clamped to the band where the vector steps would run mostly idle
/// lanes (kNashStepCostCells). Bit-identical to the scalar kernel run one
/// clamped row at a time.
WAVETUNE_TARGET_AVX2 void nash_band_kernel_avx2(const void* pv, std::size_t i0, std::size_t i1,
                                                std::size_t j0, std::size_t j1,
                                                std::size_t d_begin, std::size_t d_end,
                                                std::size_t stride, const std::byte* w,
                                                const std::byte* n, const std::byte*,
                                                std::byte* out) {
  const NashTileCtx& c = *static_cast<const NashTileCtx*>(pv);
  thread_local NashLaneScratch scratch;
  scratch.resize(c.k);
  constexpr std::size_t elem = sizeof(NashCell);
  for (std::size_t gi = i0; gi < i1 && gi + j0 < d_end; gi += kNashLanes) {
    const std::size_t rows = std::min(kNashLanes, i1 - gi);
    std::byte* o = out + (gi - i0) * stride;
    const std::byte* nrow = gi == i0 ? n : o - stride;
    const std::byte* wcol = w ? w + (gi - i0) * stride : nullptr;
    // Step t of the group runs diagonal gi + j0 + t.
    const std::size_t t_begin = d_begin > gi + j0 ? d_begin - (gi + j0) : 0;
    const std::size_t t_end = std::min(j1 - j0 + rows - 1, d_end - (gi + j0));
    if (t_begin >= t_end) continue;
    std::size_t cells = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const auto [lo, hi] = core::row_band_span(gi + r, d_begin, d_end, j0, j1);
      if (lo < hi) cells += hi - lo;
    }
    if (cells > kNashStepCostCells * (t_end - t_begin)) {
      nash_row_group_avx2(c, gi, rows, j0, j1, t_begin, t_end, stride, wcol, nrow, o, scratch);
      continue;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const auto [lo, hi] = core::row_band_span(gi + r, d_begin, d_end, j0, j1);
      if (lo >= hi) continue;
      std::byte* ro = o + r * stride + (lo - j0) * elem;
      const std::byte* rw = lo > j0 ? ro - elem : wcol ? wcol + r * stride : nullptr;
      const std::byte* rn = r > 0 ? ro - stride : nrow ? nrow + (lo - j0) * elem : nullptr;
      nash_tile_kernel(pv, gi + r, gi + r + 1, lo, hi, stride, rw, rn,
                       rw && rn ? rn - elem : nullptr, ro);
    }
  }
}

/// AVX2 variant of the tile kernel: same contract, bit-identical cells —
/// the band-clamped entry over the block's whole diagonal range.
WAVETUNE_TARGET_AVX2 void nash_tile_kernel_avx2(const void* pv, std::size_t i0, std::size_t i1,
                                                std::size_t j0, std::size_t j1,
                                                std::size_t stride, const std::byte* w,
                                                const std::byte* n, const std::byte* nw,
                                                std::byte* out) {
  nash_band_kernel_avx2(pv, i0, i1, j0, j1, i0 + j0, i1 + j1 - 1, stride, w, n, nw, out);
}

#endif  // WAVETUNE_AVX2_KERNELS

}  // namespace

core::TileKernelFn detail::nash_scalar_tile_kernel() { return &nash_tile_kernel; }

core::TileKernelFn detail::nash_avx2_tile_kernel() {
#ifdef WAVETUNE_AVX2_KERNELS
  if (avx2::cpu_has_avx2()) return &nash_tile_kernel_avx2;
#endif
  return nullptr;
}

core::TileBandKernelFn detail::nash_avx2_band_kernel() {
#ifdef WAVETUNE_AVX2_KERNELS
  if (avx2::cpu_has_avx2()) return &nash_band_kernel_avx2;
#endif
  return nullptr;
}

core::InputParams nash_model_inputs(const NashParams& params) {
  // Paper §3.2.1: "one iteration of Nash corresponds to a tsize=750 with
  // data granularity of dsize=4".
  core::InputParams in;
  in.dim = params.dim;
  in.tsize = 750.0 * static_cast<double>(params.fp_iterations);
  in.dsize = 4;
  return in;
}

core::WavefrontSpec make_nash_spec(const NashParams& params) {
  if (params.dim == 0) throw std::invalid_argument("make_nash_spec: dim == 0");
  if (params.strategies < 2) throw std::invalid_argument("make_nash_spec: need >= 2 strategies");
  if (params.strategies > std::numeric_limits<std::size_t>::max() / params.strategies) {
    throw std::invalid_argument("make_nash_spec: strategies * strategies overflows size_t");
  }
  if (params.fp_iterations == 0) {
    throw std::invalid_argument("make_nash_spec: zero fictitious-play iterations");
  }
  if (params.fp_iterations > kNashMaxFpIterations) {
    throw std::invalid_argument("make_nash_spec: fp_iterations " +
                                std::to_string(params.fp_iterations) + " exceeds " +
                                std::to_string(kNashMaxFpIterations));
  }

  const std::size_t k = params.strategies;
  const std::size_t rounds = params.fp_iterations;
  const std::uint64_t seed = params.seed;
  const core::InputParams model = nash_model_inputs(params);

  core::WavefrontSpec spec;
  spec.dim = params.dim;
  spec.elem_bytes = sizeof(NashCell);
  spec.tsize = model.tsize;
  spec.dsize = model.dsize;
  spec.content_key = "nash|" + std::to_string(k) + '|' + std::to_string(rounds) + '|' +
                     std::to_string(seed);
  spec.kernel = [k, rounds, seed](std::size_t i, std::size_t j, const std::byte* w,
                                  const std::byte* n, const std::byte* nw, std::byte* out) {
    const NashCell cw = w ? read_cell(w) : NashCell{0, 0, 0, 0};
    const NashCell cn = n ? read_cell(n) : NashCell{0, 0, 0, 0};
    const NashCell cnw = nw ? read_cell(nw) : NashCell{0, 0, 0, 0};
    NashScratch scratch(k);
    const NashCell result = solve_cell(k, rounds, seed, i, j, cw, cn, cnw, scratch);
    std::memcpy(out, &result, sizeof(result));
  };
  // Native batched kernel: the four working vectors are allocated once per
  // row-span (not once per cell) and the west/northwest neighbours slide
  // through locals.
  spec.segment = [k, rounds, seed](std::size_t i, std::size_t j0, std::size_t j1,
                                   const std::byte* w, const std::byte* n, const std::byte* nw,
                                   std::byte* out) {
    NashScratch scratch(k);
    auto* o = reinterpret_cast<NashCell*>(out);
    const auto* nrow = n ? reinterpret_cast<const NashCell*>(n) : nullptr;
    const NashCell zero{0, 0, 0, 0};
    NashCell west = w ? *reinterpret_cast<const NashCell*>(w) : zero;
    NashCell diag = nw ? *reinterpret_cast<const NashCell*>(nw) : zero;
    for (std::size_t j = j0; j < j1; ++j) {
      const NashCell north = nrow ? nrow[j - j0] : zero;
      const NashCell c = solve_cell(k, rounds, seed, i, j, west, north, diag, scratch);
      o[j - j0] = c;
      west = c;
      diag = north;
    }
  };
  // Native tile kernel (rung three): per-spec count tables, per-thread
  // scratch; four cells per step when the host has AVX2, whose kernel
  // also takes band-straddling tiles in one call.
  const core::TileKernelFn avx2 = detail::nash_avx2_tile_kernel();
  spec.tile = core::TileKernel{avx2 ? avx2 : &nash_tile_kernel,
                               std::make_shared<const NashTileCtx>(k, rounds, seed),
                               avx2 ? detail::nash_avx2_band_kernel() : nullptr};
  return spec;
}

NashCell nash_cell(const core::Grid& grid, std::size_t i, std::size_t j) {
  return read_cell(grid.cell(i, j));
}

}  // namespace wavetune::apps
