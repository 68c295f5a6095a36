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

// The vector kernels walk groups of rows along their anti-diagonals, one
// cell per row and step, in one template over a lane-ops type: Avx2Lanes
// (4 lanes) and Avx512Lanes (8 lanes) below. The templates carry no
// target attribute; each ISA's band entry does, with `flatten`, so every
// template and lane op is inlined into it and compiled for its ISA alone.
// `flatten` does not inline at -O0, though: a template left out of line
// runs its vector code without the entry's target, where the aligned
// AVX-512 loads of its 64-byte locals fault. So the templates are also
// always_inline, which inlines them at every optimisation level.
// No multiply may fuse with an add, or a lane would round differently
// from the scalar solve. AVX-512F implies FMA, and GCC contracts a
// multiply and an add into an FMA even across intrinsics, so each lane
// op's multiply ends in an empty asm that makes its product opaque. That
// holds whatever -ffp-contract the sources are built with: this build
// passes -ffp-contract=off, but other builds of src/ (perfbench's) do not.

/// The scalar kernel run one band-clamped row at a time over rows
/// [i0, i1) (core::TileBandKernelFn): where the 4-lane walk does not pay.
/// noinline keeps it out of the flattened vector entries.
__attribute__((noinline)) void nash_band_rows(const void* pv, std::size_t i0, std::size_t i1,
                                              std::size_t j0, std::size_t j1,
                                              std::size_t d_begin, std::size_t d_end,
                                              std::size_t stride, const std::byte* w,
                                              const std::byte* n, const std::byte*,
                                              std::byte* out) {
  constexpr std::size_t elem = sizeof(NashCell);
  for (std::size_t i = i0; i < i1; ++i) {
    const auto [lo, hi] = core::row_band_span(i, d_begin, d_end, j0, j1);
    if (lo >= hi) continue;
    std::byte* ro = out + (i - i0) * stride + (lo - j0) * elem;
    const std::byte* rw = lo > j0 ? ro - elem : w ? w + (i - i0) * stride : nullptr;
    const std::byte* rn = i > i0 ? ro - stride : n ? n + (lo - j0) * elem : nullptr;
    nash_tile_kernel(pv, i, i + 1, lo, hi, stride, rw, rn, rw && rn ? rn - elem : nullptr, ro);
  }
}

/// Per-thread working buffers of a lane walk, resized only when `k`
/// changes. Every entry holds `kLanes` lanes (one vector, aligned to its
/// size): entry e of a buffer is [kLanes * e, kLanes * e + kLanes). The
/// buffers point into `storage`, so the scratch is neither copied nor
/// moved.
template <std::size_t kLanes>
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
    constexpr std::uintptr_t align = kLanes * sizeof(double);
    storage.assign(kLanes * (2 * k * k + 4 * k + 1), 0.0);  // + 1 entry: room to align
    auto* p = reinterpret_cast<double*>(
        (reinterpret_cast<std::uintptr_t>(storage.data()) + align - 1) & ~(align - 1));
    pay_row = p;
    pay_col = pay_row + kLanes * k * k;
    cnt_row = pay_col + kLanes * k * k;
    cnt_col = cnt_row + kLanes * k;
    hits_row = cnt_col + kLanes * k;
    hits_col = hits_row + kLanes * k;
  }
};

/// One NashCell per lane, as one vector per field.
template <typename L>
struct NashLanes {
  typename L::D value_row, value_col, entropy_row, entropy_col;
};

// The templates take vectors from lane ops, by value, and run only
// inlined into a target entry, so GCC's warning that a vector return
// changes the ABI in code without the target does not apply.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

/// solve_tile_cell for L::kLanes cells at once, lane r solving the cell
/// with hash prefix `cell_hash` lane r and neighbour values lane r of the
/// W/N/NW vectors. Each lane runs solve_tile_cell's operations in its
/// order (no fused multiply-add; the strict-> first-max argmax; the value
/// sums and entropy subtractions in (a, b) order), so every lane's cell
/// is bit-identical to the scalar one.
template <typename L>
[[gnu::always_inline]] inline NashLanes<L> solve_tile_cells(
    const NashTileCtx& c, const typename L::I& cell_hash, const typename L::D& w_row,
    const typename L::D& w_col, const typename L::D& n_row, const typename L::D& n_col,
    const typename L::D& nw_row, const typename L::D& nw_col, NashLaneScratch<L::kLanes>& s) {
  using D = typename L::D;
  using I = typename L::I;
  constexpr std::size_t kL = L::kLanes;
  const std::size_t k = c.k;
  const D c35 = L::set1(0.35);
  const D c30 = L::set1(0.3);
  const D c10 = L::set1(0.1);
  const D bias_row =
      L::mul(c10, L::add(L::add(L::mul(c35, w_row), L::mul(c35, n_row)), L::mul(c30, nw_row)));
  const D bias_col =
      L::mul(c10, L::add(L::add(L::mul(c35, w_col), L::mul(c35, n_col)), L::mul(c30, nw_col)));

  const I salt_row = L::xori(cell_hash, L::seti(0xabcd));
  const I salt_col = L::xori(cell_hash, L::seti(0x1234));
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      const I ab = L::seti((a << 9) ^ (b << 3));
      const std::size_t e = kL * (a * k + b);
      L::store(s.pay_row + e, L::add(L::hash_unit(L::xori(salt_row, ab)), bias_row));
      L::store(s.pay_col + e, L::add(L::hash_unit(L::xori(salt_col, ab)), bias_col));
    }
  }

  const D count0 = L::set1(c.count[0]);
  for (std::size_t a = 0; a < k; ++a) {
    L::store(s.cnt_row + kL * a, count0);
    L::store(s.cnt_col + kL * a, count0);
    L::storei(s.hits_row + kL * a, L::seti(0));
    L::storei(s.hits_col + kL * a, L::seti(0));
  }
  for (std::size_t round = 0; round < c.rounds; ++round) {
    I best_a = L::seti(0);
    I best_b = L::seti(0);
    D best_a_val = L::set1(-1e300);
    D best_b_val = L::set1(-1e300);
    for (std::size_t a = 0; a < k; ++a) {
      D va = L::set1(0.0);
      for (std::size_t b = 0; b < k; ++b) {
        va = L::add(va, L::mul(L::load(s.pay_row + kL * (a * k + b)), L::load(s.cnt_col + kL * b)));
      }
      L::argmax(va, a, best_a_val, best_a);
    }
    for (std::size_t b = 0; b < k; ++b) {
      D vb = L::set1(0.0);
      for (std::size_t a = 0; a < k; ++a) {
        vb = L::add(vb, L::mul(L::load(s.pay_col + kL * (a * k + b)), L::load(s.cnt_row + kL * a)));
      }
      L::argmax(vb, b, best_b_val, best_b);
    }
    // One more best response for each lane's winner, and the counts the
    // next round reads.
    const bool more = round + 1 < c.rounds;
    for (std::size_t a = 0; a < k; ++a) {
      const I hr = L::count_hit(L::loadi(s.hits_row + kL * a), best_a, a);
      const I hc = L::count_hit(L::loadi(s.hits_col + kL * a), best_b, a);
      L::storei(s.hits_row + kL * a, hr);
      L::storei(s.hits_col + kL * a, hc);
      if (more) {
        L::store(s.cnt_row + kL * a, L::gather(c.count.data(), hr));
        L::store(s.cnt_col + kL * a, L::gather(c.count.data(), hc));
      }
    }
  }

  // The normalised strategies, gathered from the share table into the
  // count buffers, then the values and entropies.
  NashLanes<L> r{L::set1(0.0), L::set1(0.0), L::set1(0.0), L::set1(0.0)};
  for (std::size_t a = 0; a < k; ++a) {
    L::store(s.cnt_row + kL * a, L::gather(c.share.data(), L::loadi(s.hits_row + kL * a)));
    L::store(s.cnt_col + kL * a, L::gather(c.share.data(), L::loadi(s.hits_col + kL * a)));
  }
  for (std::size_t a = 0; a < k; ++a) {
    const D sa = L::load(s.cnt_row + kL * a);
    for (std::size_t b = 0; b < k; ++b) {
      const D t = L::mul(sa, L::load(s.cnt_col + kL * b));
      const std::size_t e = kL * (a * k + b);
      r.value_row = L::add(r.value_row, L::mul(t, L::load(s.pay_row + e)));
      r.value_col = L::add(r.value_col, L::mul(t, L::load(s.pay_col + e)));
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    r.entropy_row =
        L::sub(r.entropy_row, L::gather(c.share_log.data(), L::loadi(s.hits_row + kL * a)));
    r.entropy_col =
        L::sub(r.entropy_col, L::gather(c.share_log.data(), L::loadi(s.hits_col + kL * a)));
  }
  return r;
}

/// Rows [gi, gi + rows) (rows <= L::kLanes) x columns [j0, j1) of a tile,
/// over the steps [t_begin, t_end): at step t lane r computes cell
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
template <typename L>
[[gnu::always_inline]] inline void nash_row_group(
    const NashTileCtx& c, std::size_t gi, std::size_t rows, std::size_t j0, std::size_t j1,
    std::size_t t_begin, std::size_t t_end, std::size_t stride, const std::byte* wcol,
    const std::byte* nrow, std::byte* out, NashLaneScratch<L::kLanes>& s) {
  using D = typename L::D;
  constexpr std::size_t kL = L::kLanes;
  constexpr std::size_t kAlign = sizeof(D);
  const std::size_t width = j1 - j0;
  const auto* north = reinterpret_cast<const NashCell*>(nrow);
  const auto row_of = [&](std::size_t r) {
    return reinterpret_cast<const NashCell*>(out + r * stride);
  };
  const NashCell zero{0, 0, 0, 0};
  alignas(kAlign) double w0_row[kL] = {};
  alignas(kAlign) double w0_col[kL] = {};
  alignas(kAlign) double nw0_row[kL] = {};
  alignas(kAlign) double nw0_col[kL] = {};
  alignas(kAlign) std::uint64_t row_hash[kL] = {};
  // The first step's W/N/NW per lane, from storage.
  alignas(kAlign) double f_w_row[kL] = {};
  alignas(kAlign) double f_w_col[kL] = {};
  alignas(kAlign) double f_n_row[kL] = {};
  alignas(kAlign) double f_n_col[kL] = {};
  alignas(kAlign) double f_nw_row[kL] = {};
  alignas(kAlign) double f_nw_col[kL] = {};
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

  const typename L::I hash = L::loadi(row_hash);
  // Seeded with what the walk carries into a step: the first step's W as
  // the previous output, its NW as the previous north.
  D out_row = L::load(f_w_row);
  D out_col = L::load(f_w_col);
  D n_row = L::load(f_nw_row);
  D n_col = L::load(f_nw_col);
  for (std::size_t t = t_begin; t < t_end; ++t) {
    D nw_row = n_row;
    D nw_col = n_col;
    D w_row = out_row;
    D w_col = out_col;
    if (t == t_begin) {
      n_row = L::load(f_n_row);
      n_col = L::load(f_n_col);
    } else {
      const bool lane0_in = north && t < width;
      n_row = L::shift_north(out_row, lane0_in ? north[t].value_row : 0.0);
      n_col = L::shift_north(out_col, lane0_in ? north[t].value_col : 0.0);
      if (t < rows) {
        // Lane t starts its row.
        w_row = L::with_lane(w_row, t, w0_row);
        w_col = L::with_lane(w_col, t, w0_col);
        nw_row = L::with_lane(nw_row, t, nw0_row);
        nw_col = L::with_lane(nw_col, t, nw0_col);
      }
    }
    // Lane r's column is j0 + t - r; it wraps below zero before its row
    // starts.
    const NashLanes<L> cell = solve_tile_cells<L>(c, L::cell_hash(hash, j0 + t), w_row, w_col,
                                                  n_row, n_col, nw_row, nw_col, s);
    out_row = cell.value_row;
    out_col = cell.value_col;
    // The lanes whose column lies in [j0, j1).
    const std::size_t r_lo = t < width ? 0 : t - width + 1;
    const std::size_t r_hi = std::min(rows - 1, t);
    L::store_cells(cell, out, stride, t, r_lo, r_hi);
  }
}

/// The band-clamped entry (core::TileBandKernelFn) of lane width
/// L::kLanes: walks the tile in groups of L::kLanes rows, each over the
/// steps whose diagonal lies in [d_begin, d_end) (nash_row_group). A group
/// shorter than L::kMinGroupRows, or whose steps would run mostly idle
/// lanes (L::kStepCostCells), goes to the next narrower entry,
/// L::narrower. Bit-identical to the scalar kernel run one clamped row at
/// a time.
template <typename L>
[[gnu::always_inline]] inline void nash_band_walk(
    const void* pv, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
    std::size_t d_begin, std::size_t d_end, std::size_t stride, const std::byte* w,
    const std::byte* n, std::byte* out) {
  constexpr std::size_t kL = L::kLanes;
  const NashTileCtx& c = *static_cast<const NashTileCtx*>(pv);
  thread_local NashLaneScratch<kL> scratch;
  scratch.resize(c.k);
  constexpr std::size_t elem = sizeof(NashCell);
  for (std::size_t gi = i0; gi < i1 && gi + j0 < d_end; gi += kL) {
    const std::size_t rows = std::min(kL, i1 - gi);
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
    if (rows >= L::kMinGroupRows && cells > L::kStepCostCells * (t_end - t_begin)) {
      nash_row_group<L>(c, gi, rows, j0, j1, t_begin, t_end, stride, wcol, nrow, o, scratch);
    } else {
      L::narrower(pv, gi, gi + rows, j0, j1, d_begin, d_end, stride, wcol, nrow,
                  wcol && nrow ? nrow - elem : nullptr, o);
    }
  }
}

#pragma GCC diagnostic pop

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

/// Stores the cells of lanes [r_lo, r_hi] of four (lanes 0-3 of `cell`
/// when `half` is 0, 4-7 when it is 1): lane r's cell goes to row r of
/// `out`, column t - r. The four fields are transposed into four NashCells.
WAVETUNE_TARGET_AVX2 inline void store_four_cells(__m256d value_row, __m256d value_col,
                                                  __m256d entropy_row, __m256d entropy_col,
                                                  std::size_t half, std::byte* out,
                                                  std::size_t stride, std::size_t t,
                                                  std::size_t r_lo, std::size_t r_hi) {
  const __m256d v02 = _mm256_unpacklo_pd(value_row, value_col);
  const __m256d v13 = _mm256_unpackhi_pd(value_row, value_col);
  const __m256d e02 = _mm256_unpacklo_pd(entropy_row, entropy_col);
  const __m256d e13 = _mm256_unpackhi_pd(entropy_row, entropy_col);
  const __m256d cells[4] = {
      _mm256_permute2f128_pd(v02, e02, 0x20), _mm256_permute2f128_pd(v13, e13, 0x20),
      _mm256_permute2f128_pd(v02, e02, 0x31), _mm256_permute2f128_pd(v13, e13, 0x31)};
  const std::size_t base = 4 * half;
  for (std::size_t r = std::max(r_lo, base); r <= r_hi && r < base + 4; ++r) {
    _mm256_storeu_pd(reinterpret_cast<double*>(out + r * stride) + 4 * (t - r), cells[r - base]);
  }
}

/// The 4-lane lane ops: one __m256d lane per row.
struct Avx2Lanes {
  using D = __m256d;
  using I = __m256i;
  static constexpr std::size_t kLanes = 4;
  /// A 4-lane step costs about as much as two scalar cells (bench_micro's
  /// whole-grid nash rows: 91.9 against 190.5 ns/cell), so a group walks
  /// only where its steps average more than two busy lanes; that rule
  /// alone turns the one- and two-row groups away.
  static constexpr std::size_t kStepCostCells = 2;
  static constexpr std::size_t kMinGroupRows = 1;
  static constexpr core::TileBandKernelFn narrower = &nash_band_rows;

  WAVETUNE_TARGET_AVX2 static D set1(double x) { return _mm256_set1_pd(x); }
  WAVETUNE_TARGET_AVX2 static D load(const double* p) { return _mm256_load_pd(p); }
  WAVETUNE_TARGET_AVX2 static void store(double* p, D v) { _mm256_store_pd(p, v); }
  WAVETUNE_TARGET_AVX2 static D add(D a, D b) { return _mm256_add_pd(a, b); }
  WAVETUNE_TARGET_AVX2 static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  /// a * b, opaque to fusion (see the note above the templates).
  WAVETUNE_TARGET_AVX2 static D mul(D a, D b) {
    D p = _mm256_mul_pd(a, b);
    asm("" : "+x"(p));
    return p;
  }
  WAVETUNE_TARGET_AVX2 static I seti(std::uint64_t x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  WAVETUNE_TARGET_AVX2 static I xori(I a, I b) { return _mm256_xor_si256(a, b); }
  WAVETUNE_TARGET_AVX2 static I loadi(const void* p) {
    return _mm256_load_si256(static_cast<const __m256i*>(p));
  }
  WAVETUNE_TARGET_AVX2 static void storei(void* p, I v) {
    _mm256_store_si256(static_cast<__m256i*>(p), v);
  }

  /// Lane r: `row_hash` lane r ^ ((col - r) << 21), the hash prefix of
  /// the lane's cell in column col - r.
  WAVETUNE_TARGET_AVX2 static I cell_hash(I row_hash, std::size_t col) {
    const I cols = _mm256_sub_epi64(seti(col), _mm256_setr_epi64x(0, 1, 2, 3));
    return _mm256_xor_si256(row_hash, _mm256_slli_epi64(cols, 21));
  }

  /// util::splitmix64 of each lane's state, as its [0, 1) payoff
  /// (z >> 11) * 2^-53. z >> 11 is below 2^53 and converts exactly: its
  /// high 21 bits fill the mantissa of 2^84 + hi * 2^32, its low 32 bits
  /// that of 2^52 + lo, and (2^84 + hi * 2^32 - (2^84 + 2^52)) + (2^52 + lo)
  /// rounds nowhere.
  WAVETUNE_TARGET_AVX2 static D hash_unit(I state) {
    __m256i z = _mm256_add_epi64(state, seti(0x9e3779b97f4a7c15ULL));
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), 0xbf58476d1ce4e5b9ULL);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), 0x94d049bb133111ebULL);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
    const __m256i v = _mm256_srli_epi64(z, 11);
    const __m256d hi = _mm256_castsi256_pd(
        _mm256_or_si256(_mm256_srli_epi64(v, 32), _mm256_castpd_si256(set1(0x1.0p84))));
    const __m256d lo =
        _mm256_castsi256_pd(_mm256_blend_epi32(v, _mm256_castpd_si256(set1(0x1.0p52)), 0xaa));
    const __m256d exact = _mm256_add_pd(_mm256_sub_pd(hi, set1(0x1.0p84 + 0x1.0p52)), lo);
    return mul(exact, set1(0x1.0p-53));
  }

  /// One candidate of solve_tile_cell's argmax in every lane: `idx`
  /// becomes a lane's best when `val` beats its best so far under a strict
  /// >, so ties keep the first maximum, as in the scalar loop.
  WAVETUNE_TARGET_AVX2 static void argmax(D val, std::size_t idx, D& best_val, I& best_idx) {
    const __m256d gt = _mm256_cmp_pd(val, best_val, _CMP_GT_OQ);
    best_val = _mm256_blendv_pd(best_val, val, gt);
    best_idx = _mm256_castpd_si256(
        _mm256_blendv_pd(_mm256_castsi256_pd(best_idx), _mm256_castsi256_pd(seti(idx)), gt));
  }

  /// `hits` plus one in the lanes whose `best` is `idx` (cmpeq is -1 there).
  WAVETUNE_TARGET_AVX2 static I count_hit(I hits, I best, std::size_t idx) {
    return _mm256_sub_epi64(hits, _mm256_cmpeq_epi64(best, seti(idx)));
  }

  /// table[idx] in every lane.
  WAVETUNE_TARGET_AVX2 static D gather(const double* table, I idx) {
    return _mm256_i64gather_pd(table, idx, 8);
  }

  /// Lane r gets `out` lane r - 1, lane 0 gets `lane0`: a step's north
  /// values from the outputs of the step before.
  WAVETUNE_TARGET_AVX2 static D shift_north(D out, double lane0) {
    return _mm256_blend_pd(_mm256_permute4x64_pd(out, _MM_SHUFFLE(2, 1, 0, 0)), set1(lane0), 0x1);
  }

  /// `v` with lane `lane` replaced by src[lane] (`src` aligned).
  WAVETUNE_TARGET_AVX2 static D with_lane(D v, std::size_t lane, const double* src) {
    const __m256d at = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_setr_epi64x(0, 1, 2, 3), seti(lane)));
    return _mm256_blendv_pd(v, load(src), at);
  }

  /// Stores lanes [r_lo, r_hi]: lane r's cell to row r of `out`, column
  /// t - r.
  WAVETUNE_TARGET_AVX2 static void store_cells(const NashLanes<Avx2Lanes>& cell, std::byte* out,
                                               std::size_t stride, std::size_t t,
                                               std::size_t r_lo, std::size_t r_hi) {
    store_four_cells(cell.value_row, cell.value_col, cell.entropy_row, cell.entropy_col, 0, out,
                     stride, t, r_lo, r_hi);
  }
};

/// The 4-lane kernel's band-clamped entry.
WAVETUNE_TARGET_AVX2 __attribute__((flatten, noinline)) void nash_band_kernel_avx2(
    const void* pv, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
    std::size_t d_begin, std::size_t d_end, std::size_t stride, const std::byte* w,
    const std::byte* n, const std::byte*, std::byte* out) {
  nash_band_walk<Avx2Lanes>(pv, i0, i1, j0, j1, d_begin, d_end, stride, w, n, out);
}

#define WAVETUNE_TARGET_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl")))

/// The 8-lane lane ops: one __m512d lane per row, with AVX-512DQ's native
/// 64-bit multiply and u64 -> double conversion.
struct Avx512Lanes {
  using D = __m512d;
  using I = __m512i;
  static constexpr std::size_t kLanes = 8;
  /// An 8-lane step costs about two scalar cells too (bench_micro's
  /// whole-grid nash rows: 51.5 against 190.5 ns/cell, 2.2 cells per
  /// step), and about one 4-lane step.
  static constexpr std::size_t kStepCostCells = 2;
  /// Groups of fewer than eight rows (a block's last 1-7) take the 4-lane
  /// entry, as does a full group the cost rule turns away.
  static constexpr std::size_t kMinGroupRows = kLanes;
  static constexpr core::TileBandKernelFn narrower = &nash_band_kernel_avx2;

  WAVETUNE_TARGET_AVX512 static D set1(double x) { return _mm512_set1_pd(x); }
  WAVETUNE_TARGET_AVX512 static D load(const double* p) { return _mm512_load_pd(p); }
  WAVETUNE_TARGET_AVX512 static void store(double* p, D v) { _mm512_store_pd(p, v); }
  WAVETUNE_TARGET_AVX512 static D add(D a, D b) { return _mm512_add_pd(a, b); }
  WAVETUNE_TARGET_AVX512 static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
  /// a * b, opaque to fusion (see the note above the templates).
  WAVETUNE_TARGET_AVX512 static D mul(D a, D b) {
    D p = _mm512_mul_pd(a, b);
    asm("" : "+v"(p));
    return p;
  }
  WAVETUNE_TARGET_AVX512 static I seti(std::uint64_t x) {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }
  WAVETUNE_TARGET_AVX512 static I xori(I a, I b) { return _mm512_xor_si512(a, b); }
  WAVETUNE_TARGET_AVX512 static I loadi(const void* p) { return _mm512_load_si512(p); }
  WAVETUNE_TARGET_AVX512 static void storei(void* p, I v) { _mm512_store_si512(p, v); }
  // GCC 12's unmasked 512-bit shift, alignr, gather and extract
  // intrinsics merge into an _mm512_undefined_* vector, which
  // -Wmaybe-uninitialized flags once they are inlined. The lane ops use
  // the masked forms, whose merge source is defined; with every lane
  // selected they are the same instructions.
  WAVETUNE_TARGET_AVX512 static I srli(I x, unsigned n) {
    return _mm512_maskz_srli_epi64(0xff, x, n);
  }

  WAVETUNE_TARGET_AVX512 static I cell_hash(I row_hash, std::size_t col) {
    const I cols = _mm512_sub_epi64(seti(col), _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    return _mm512_xor_si512(row_hash, _mm512_maskz_slli_epi64(0xff, cols, 21));
  }

  /// Avx2Lanes::hash_unit with one vpmullq per multiply, and the exact
  /// (z >> 11 < 2^53) conversion in one instruction.
  WAVETUNE_TARGET_AVX512 static D hash_unit(I state) {
    __m512i z = _mm512_add_epi64(state, seti(0x9e3779b97f4a7c15ULL));
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, srli(z, 30)), seti(0xbf58476d1ce4e5b9ULL));
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, srli(z, 27)), seti(0x94d049bb133111ebULL));
    z = _mm512_xor_si512(z, srli(z, 31));
    return mul(_mm512_cvtepu64_pd(srli(z, 11)), set1(0x1.0p-53));
  }

  /// Avx2Lanes::argmax on a compare mask: strict >, first maximum wins.
  WAVETUNE_TARGET_AVX512 static void argmax(D val, std::size_t idx, D& best_val, I& best_idx) {
    const __mmask8 gt = _mm512_cmp_pd_mask(val, best_val, _CMP_GT_OQ);
    best_val = _mm512_mask_blend_pd(gt, best_val, val);
    best_idx = _mm512_mask_blend_epi64(gt, best_idx, seti(idx));
  }

  WAVETUNE_TARGET_AVX512 static I count_hit(I hits, I best, std::size_t idx) {
    return _mm512_mask_add_epi64(hits, _mm512_cmpeq_epi64_mask(best, seti(idx)), hits, seti(1));
  }

  WAVETUNE_TARGET_AVX512 static D gather(const double* table, I idx) {
    return _mm512_mask_i64gather_pd(set1(0.0), 0xff, idx, table, 8);
  }

  WAVETUNE_TARGET_AVX512 static D shift_north(D out, double lane0) {
    // (out : out) shifted up one lane into lanes 1-7; lane 0 keeps lane0.
    const I o = _mm512_castpd_si512(out);
    return _mm512_castsi512_pd(
        _mm512_mask_alignr_epi64(_mm512_castpd_si512(set1(lane0)), 0xfe, o, o, 7));
  }

  WAVETUNE_TARGET_AVX512 static D with_lane(D v, std::size_t lane, const double* src) {
    return _mm512_mask_mov_pd(v, static_cast<__mmask8>(1u << lane), load(src));
  }

  WAVETUNE_TARGET_AVX512 static void store_cells(const NashLanes<Avx512Lanes>& cell,
                                                 std::byte* out, std::size_t stride,
                                                 std::size_t t, std::size_t r_lo,
                                                 std::size_t r_hi) {
    store_four_cells(_mm512_maskz_extractf64x4_pd(0xff, cell.value_row, 0),
                     _mm512_maskz_extractf64x4_pd(0xff, cell.value_col, 0),
                     _mm512_maskz_extractf64x4_pd(0xff, cell.entropy_row, 0),
                     _mm512_maskz_extractf64x4_pd(0xff, cell.entropy_col, 0), 0, out, stride, t,
                     r_lo, r_hi);
    if (r_hi >= 4) {
      store_four_cells(_mm512_maskz_extractf64x4_pd(0xff, cell.value_row, 1),
                       _mm512_maskz_extractf64x4_pd(0xff, cell.value_col, 1),
                       _mm512_maskz_extractf64x4_pd(0xff, cell.entropy_row, 1),
                       _mm512_maskz_extractf64x4_pd(0xff, cell.entropy_col, 1), 1, out, stride,
                       t, r_lo, r_hi);
    }
  }
};

/// The 8-lane kernel's band-clamped entry.
WAVETUNE_TARGET_AVX512 __attribute__((flatten)) void nash_band_kernel_avx512(
    const void* pv, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
    std::size_t d_begin, std::size_t d_end, std::size_t stride, const std::byte* w,
    const std::byte* n, const std::byte*, std::byte* out) {
  nash_band_walk<Avx512Lanes>(pv, i0, i1, j0, j1, d_begin, d_end, stride, w, n, out);
}

bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}

/// A vector kernel's rectangle entry (core::TileKernelFn): its band entry
/// over the block's whole diagonal range. Same contract as the scalar
/// kernel, bit-identical cells.
template <core::TileBandKernelFn band>
void nash_tile_kernel_lanes(const void* pv, std::size_t i0, std::size_t i1, std::size_t j0,
                            std::size_t j1, std::size_t stride, const std::byte* w,
                            const std::byte* n, const std::byte* nw, std::byte* out) {
  band(pv, i0, i1, j0, j1, i0 + j0, i1 + j1 - 1, stride, w, n, nw, out);
}

#endif  // WAVETUNE_AVX2_KERNELS

}  // namespace

core::TileKernelFn detail::nash_scalar_tile_kernel() { return &nash_tile_kernel; }

core::TileKernelFn detail::nash_avx2_tile_kernel() {
#ifdef WAVETUNE_AVX2_KERNELS
  if (avx2::cpu_has_avx2()) return &nash_tile_kernel_lanes<&nash_band_kernel_avx2>;
#endif
  return nullptr;
}

core::TileBandKernelFn detail::nash_avx2_band_kernel() {
#ifdef WAVETUNE_AVX2_KERNELS
  if (avx2::cpu_has_avx2()) return &nash_band_kernel_avx2;
#endif
  return nullptr;
}

core::TileKernelFn detail::nash_avx512_tile_kernel() {
#ifdef WAVETUNE_AVX2_KERNELS
  if (cpu_has_avx512()) return &nash_tile_kernel_lanes<&nash_band_kernel_avx512>;
#endif
  return nullptr;
}

core::TileBandKernelFn detail::nash_avx512_band_kernel() {
#ifdef WAVETUNE_AVX2_KERNELS
  if (cpu_has_avx512()) return &nash_band_kernel_avx512;
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
  // scratch; eight cells per step when the host has AVX-512, four when it
  // has AVX2, and the vector kernels also take band-straddling tiles in
  // one call.
  spec.tile = core::TileKernel{&nash_tile_kernel,
                               std::make_shared<const NashTileCtx>(k, rounds, seed), nullptr};
  if (const core::TileKernelFn avx512 = detail::nash_avx512_tile_kernel()) {
    spec.tile.fn = avx512;
    spec.tile.banded = detail::nash_avx512_band_kernel();
  } else if (const core::TileKernelFn avx2 = detail::nash_avx2_tile_kernel()) {
    spec.tile.fn = avx2;
    spec.tile.banded = detail::nash_avx2_band_kernel();
  }
  return spec;
}

NashCell nash_cell(const core::Grid& grid, std::size_t i, std::size_t j) {
  return read_cell(grid.cell(i, j));
}

}  // namespace wavetune::apps
