#include "apps/nash.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

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
/// call it once per row (the multi-GPU band's swap epochs with a few cells
/// per row), so a per-call allocation would dominate. solve_tile_cell writes every
/// scratch entry before reading it, so reuse cannot leak values between
/// calls. Neighbour values slide through registers; rows past the first
/// read their north row from the block's own output.
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

}  // namespace

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
  // scratch.
  spec.tile = core::TileKernel{&nash_tile_kernel,
                               std::make_shared<const NashTileCtx>(k, rounds, seed)};
  return spec;
}

NashCell nash_cell(const core::Grid& grid, std::size_t i, std::size_t j) {
  return read_cell(grid.cell(i, j));
}

}  // namespace wavetune::apps
