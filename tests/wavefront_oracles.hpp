// Shared recurrences, kernels and oracles for the CPU scheduler suites.
//
// The schedulers dispatch only lowered tile kernels (core/lowered.hpp), so
// the suites drive them with native TileKernelFns that read their
// neighbours through the west/north/northwest pointers, and check the
// results against a cell-order serial oracle: a plain row-major loop over
// the region that computes one cell at a time from the same recurrence.
// A deterministic recurrence whose value at every cell depends on the
// exact values of its neighbours makes equality with the oracle a
// bit-identical equivalence proof: any dependency violation, missed or
// duplicated cell, or wrong neighbour pointer changes the result.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/lowered.hpp"
#include "cpu/tiled_wavefront.hpp"

namespace wavetune::oracles {

using Cell = std::uint64_t;

/// Value of cell (i, j) from its neighbours; a pointer is null on the
/// border it would cross.
using Recurrence = Cell (*)(std::size_t i, std::size_t j, const Cell* west, const Cell* north,
                            const Cell* northwest);

/// Mixes all three neighbours (borders read as 1), so a wrong west, north
/// or northwest pointer shows. Unsigned overflow wraps, deterministically.
inline Cell mix(std::size_t i, std::size_t j, const Cell* w, const Cell* n, const Cell* nw) {
  return 3 * (w ? *w : 1) + (n ? *n : 1) + 7 * (nw ? *nw : 1) + i + j;
}

/// Lattice-path count: cell (i, j) of a full sweep holds C(i + j, i).
inline Cell paths(std::size_t i, std::size_t j, const Cell* w, const Cell* n, const Cell*) {
  if (i == 0 && j == 0) return 1;
  return (w ? *w : 0) + (n ? *n : 0);
}

/// Native tile kernel for recurrence F: walks the block row-major, deriving
/// each cell's neighbours from the block-corner pointers (rows past the
/// first read their north row from the block's own output).
template <Recurrence F>
void tile_kernel(const void*, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                 std::size_t stride, const std::byte* west, const std::byte* north,
                 const std::byte* northwest, std::byte* out) {
  for (std::size_t i = i0; i < i1; ++i) {
    const std::size_t r = i - i0;
    auto* row = reinterpret_cast<Cell*>(out + r * stride);
    const auto* nrow = r == 0 ? reinterpret_cast<const Cell*>(north)
                              : reinterpret_cast<const Cell*>(out + (r - 1) * stride);
    const auto* wcell = west ? reinterpret_cast<const Cell*>(west + r * stride) : nullptr;
    const auto* nwcell = r == 0 ? reinterpret_cast<const Cell*>(northwest)
                         : west ? reinterpret_cast<const Cell*>(west + (r - 1) * stride)
                                : nullptr;
    for (std::size_t c = 0; c < j1 - j0; ++c) {
      const Cell* w = c == 0 ? wcell : &row[c - 1];
      const Cell* n = nrow ? &nrow[c] : nullptr;
      const Cell* nw = c == 0 ? nwcell : (nrow ? &nrow[c - 1] : nullptr);
      row[c] = F(i0 + r, j0 + c, w, n, nw);
    }
  }
}

/// A LoweredKernel over Cell-sized elements of a dim x dim grid.
inline core::LoweredKernel lowered(core::TileKernelFn fn, std::size_t dim,
                                   const void* ctx = nullptr) {
  core::LoweredKernel k;
  k.fn = fn;
  k.ctx = ctx;
  k.dim = dim;
  k.elem_bytes = sizeof(Cell);
  k.native = true;
  return k;
}

template <Recurrence F>
core::LoweredKernel lowered(std::size_t dim) {
  return lowered(&tile_kernel<F>, dim);
}

inline core::StorageView whole(std::vector<Cell>& grid) {
  return {reinterpret_cast<std::byte*>(grid.data()), 0};
}

/// Cell-order serial oracle: computes every cell of `region` (its band
/// and row window) one at a time in row-major order, in place.
inline void serial_oracle(Recurrence f, const cpu::TiledRegion& region, std::vector<Cell>& g) {
  const std::size_t dim = region.dim;
  for (std::size_t i = region.row_begin; i < region.row_hi(); ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      if (i + j < region.d_begin || i + j >= region.d_end) continue;
      const Cell* w = j > 0 ? &g[i * dim + j - 1] : nullptr;
      const Cell* n = i > 0 ? &g[(i - 1) * dim + j] : nullptr;
      const Cell* nw = (i > 0 && j > 0) ? &g[(i - 1) * dim + j - 1] : nullptr;
      g[i * dim + j] = f(i, j, w, n, nw);
    }
  }
}

inline std::vector<Cell> serial_oracle(Recurrence f, const cpu::TiledRegion& region) {
  std::vector<Cell> g(region.dim * region.dim, 0);
  serial_oracle(f, region, g);
  return g;
}

/// One scheduler entry point under test: runs `region` over `views`.
using Runner =
    std::function<void(const cpu::TiledRegion& region, const core::LoweredKernel& kernel,
                       std::span<const core::StorageView> views)>;

/// One kernel call as the scheduler issued it, the thread it ran on, and
/// the index of the storage view it wrote.
struct Block {
  std::size_t i0, i1, j0, j1;
  std::thread::id thread;
  std::size_t view = 0;

  /// Same call: block and view (the thread may differ).
  bool same_call(const Block& o) const {
    return i0 == o.i0 && i1 == o.i1 && j0 == o.j0 && j1 == o.j1 && view == o.view;
  }
};

/// Tile kernel that writes nothing and records every call it receives,
/// with the view whose storage (`bases[v]`, `bytes` long) it wrote.
struct BlockLog {
  std::mutex mutex;
  std::vector<Block> blocks;
  std::vector<const std::byte*> bases;
  std::size_t bytes = 0;

  static void record(const void* ctx, std::size_t i0, std::size_t i1, std::size_t j0,
                     std::size_t j1, std::size_t, const std::byte*, const std::byte*,
                     const std::byte*, std::byte* out) {
    auto* log = const_cast<BlockLog*>(static_cast<const BlockLog*>(ctx));
    const auto at = reinterpret_cast<std::uintptr_t>(out);
    std::size_t view = 0;
    for (std::size_t v = 0; v < log->bases.size(); ++v) {
      const auto base = reinterpret_cast<std::uintptr_t>(log->bases[v]);
      if (base <= at && at < base + log->bytes) view = v;
    }
    std::lock_guard<std::mutex> lock(log->mutex);
    log->blocks.push_back({i0, i1, j0, j1, std::this_thread::get_id(), view});
  }
};

/// Every kernel call `run` issues for `region` over `n_views` whole-grid
/// views, each its own storage.
inline std::vector<Block> record_blocks(const Runner& run, const cpu::TiledRegion& region,
                                        std::size_t n_views = 1) {
  BlockLog log;
  log.bytes = region.dim * region.dim * sizeof(Cell);
  std::vector<std::vector<Cell>> storages(n_views, std::vector<Cell>(region.dim * region.dim, 0));
  std::vector<core::StorageView> views;
  for (std::vector<Cell>& storage : storages) {
    views.push_back(whole(storage));
    log.bases.push_back(views.back().base);
  }
  run(region, lowered(&BlockLog::record, region.dim, &log), views);
  return log.blocks;
}

/// Per-cell visit counts of the recorded blocks.
inline std::vector<int> hits(const std::vector<Block>& blocks, std::size_t dim) {
  std::vector<int> h(dim * dim, 0);
  for (const Block& b : blocks) {
    for (std::size_t i = b.i0; i < b.i1; ++i) {
      for (std::size_t j = b.j0; j < b.j1; ++j) ++h[i * dim + j];
    }
  }
  return h;
}

/// Every cell of the region is visited exactly once and no other cell is.
inline void expect_visits_region_once(const Runner& run, const cpu::TiledRegion& region) {
  const std::vector<int> h = hits(record_blocks(run, region), region.dim);
  for (std::size_t i = 0; i < region.dim; ++i) {
    for (std::size_t j = 0; j < region.dim; ++j) {
      const bool in = i + j >= region.d_begin && i + j < region.d_end &&
                      i >= region.row_begin && i < region.row_hi();
      EXPECT_EQ(h[i * region.dim + j], in ? 1 : 0) << i << "," << j;
    }
  }
}

/// Every kernel call's block lies inside one tile, inside the band and
/// inside the row window, and the calls together cover the region.
inline void expect_blocks_inside_tiles_and_band(const Runner& run,
                                                const cpu::TiledRegion& region) {
  const std::size_t T = region.tile;
  std::size_t cells = 0;
  for (const Block& b : record_blocks(run, region)) {
    ASSERT_LT(b.i0, b.i1);
    ASSERT_LT(b.j0, b.j1);
    EXPECT_EQ(b.i0 / T, (b.i1 - 1) / T) << "rows " << b.i0 << ".." << b.i1;
    EXPECT_EQ(b.j0 / T, (b.j1 - 1) / T) << "cols " << b.j0 << ".." << b.j1;
    EXPECT_GE(b.i0 + b.j0, region.d_begin);
    EXPECT_LT((b.i1 - 1) + (b.j1 - 1), region.d_end);
    EXPECT_GE(b.i0, region.row_begin);
    EXPECT_LE(b.i1, region.row_hi());
    cells += (b.i1 - b.i0) * (b.j1 - b.j0);
  }
  EXPECT_EQ(cells, region.cell_count());
}

/// Runs the diagonal bands [cuts[b], cuts[b+1]) in turn, each as strips of
/// `strip_rows` rows, and expects the result to equal one serial pass.
/// With `rebased`, each strip runs in its own row-window buffer holding
/// rows [r0 - 1, r1) (the halo row first, as the streaming executor lays a
/// strip out) through the view {buffer, r0 - 1}; otherwise it runs on the
/// whole grid through {grid, 0} with the region's row window.
inline void expect_strips_match_oracle(const Runner& run, std::size_t dim, std::size_t tile,
                                       std::size_t strip_rows,
                                       const std::vector<std::size_t>& cuts, bool rebased) {
  const std::vector<Cell> want = serial_oracle(mix, cpu::TiledRegion{dim, 0, 2 * dim - 1, 1});
  const core::LoweredKernel k = lowered<mix>(dim);
  std::vector<Cell> got(dim * dim, 0);
  for (std::size_t b = 0; b + 1 < cuts.size(); ++b) {
    for (std::size_t r0 = 0; r0 < dim; r0 += strip_rows) {
      const std::size_t r1 = std::min(dim, r0 + strip_rows);
      const cpu::TiledRegion region{dim, cuts[b], cuts[b + 1], tile, r0, r1};
      if (!rebased) {
        const core::StorageView view = whole(got);
        run(region, k, {&view, 1});
        continue;
      }
      const std::size_t base = r0 == 0 ? 0 : r0 - 1;
      std::vector<Cell> window(got.begin() + static_cast<std::ptrdiff_t>(base * dim),
                               got.begin() + static_cast<std::ptrdiff_t>(r1 * dim));
      const core::StorageView view{reinterpret_cast<std::byte*>(window.data()), base};
      run(region, k, {&view, 1});
      std::copy(window.begin() + static_cast<std::ptrdiff_t>((r0 - base) * dim), window.end(),
                got.begin() + static_cast<std::ptrdiff_t>(r0 * dim));
    }
  }
  EXPECT_EQ(want, got) << "dim=" << dim << " tile=" << tile << " strip=" << strip_rows
                       << (rebased ? " rebased" : " whole-grid");
}

/// `n_grids` fused grids, each pre-filled with its own values, run the band
/// [d_begin, 2*dim - 1) in one call; each must equal its own serial pass
/// (the cells before d_begin keep their distinct pre-fill, so a call that
/// read or wrote another grid's storage would show).
inline void expect_fused_grids_match_oracle(const Runner& run, std::size_t dim,
                                            std::size_t tile, std::size_t d_begin,
                                            std::size_t n_grids) {
  const cpu::TiledRegion region{dim, d_begin, 2 * dim - 1, tile};
  std::vector<std::vector<Cell>> got(n_grids, std::vector<Cell>(dim * dim));
  std::vector<core::StorageView> views;
  for (std::size_t g = 0; g < n_grids; ++g) {
    for (std::size_t c = 0; c < dim * dim; ++c) got[g][c] = (g + 1) * 0x9E3779B97F4A7C15ull ^ c;
    views.push_back(whole(got[g]));
  }
  std::vector<std::vector<Cell>> want = got;
  for (std::vector<Cell>& w : want) serial_oracle(mix, region, w);
  run(region, lowered<mix>(dim), views);
  for (std::size_t g = 0; g < n_grids; ++g) {
    EXPECT_EQ(want[g], got[g]) << "grid " << g << " dim=" << dim << " tile=" << tile
                               << " d_begin=" << d_begin;
  }
}

}  // namespace wavetune::oracles
