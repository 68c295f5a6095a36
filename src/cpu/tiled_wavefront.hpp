// Tiled parallel wavefront execution on the multicore CPU.
//
// The grid is partitioned into TxT tiles; tile (I,J) depends on its west,
// north and north-west neighbour tiles, so tiles on the same tile-diagonal
// (I+J = k) are independent and run in parallel, with a barrier between
// successive tile-diagonals. Within a tile, cells are computed row-major,
// which respects the cell-level dependencies and maximises cache reuse —
// the optimization the paper's cpu-tile parameter controls.
//
// The module dispatches one lowered tile kernel (core/lowered.hpp) per
// tile over a diagonal range and storage views, so the hybrid executor
// can use it for phases 1 and 3 and tests can drive it with any
// recurrence written as a TileKernelFn. The diagonal-geometry algebra
// comes from core/diag.hpp — the single definition shared with the GPU
// partitioner and the cost model.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>

#include "core/lowered.hpp"
#include "cpu/thread_pool.hpp"
#include "sim/hardware.hpp"

namespace wavetune::cpu {

/// Column span of row i clamped to the diagonal band — the single clamp
/// algebra, now defined in core/diag.hpp (the lowered-kernel dispatch
/// needs it below the cpu layer); re-exported here for the cpu call sites.
using core::row_band_span;

/// Scheduling grain for one tile-diagonal of `n_tiles` tiles of side
/// `tile`: batch enough tiles per parallel_for claim that tiny tiles don't
/// pay one atomic RMW each, without starving the pool of parallel slack.
/// Calibrated for one-call-per-tile lowered dispatch (the per-claim
/// overhead is one atomic RMW plus one indirect call per tile, not one
/// type-erased call per tile row).
std::size_t tile_grain(std::size_t n_tiles, std::size_t tile, std::size_t workers);

/// A contiguous band of diagonals [d_begin, d_end) of a dim x dim grid,
/// executed with square tiles of side `tile`. An optional row window
/// [row_begin, row_hi()) — the streaming-strip axis — further restricts
/// the region to those rows; the default (row_end == 0, meaning dim)
/// keeps the historical whole-grid behaviour, so aggregate-initialized
/// call sites are unchanged.
struct TiledRegion {
  std::size_t dim = 0;
  std::size_t d_begin = 0;  ///< first diagonal (i+j) included
  std::size_t d_end = 0;    ///< one past the last diagonal included
  std::size_t tile = 1;     ///< cpu-tile: side length of the square tiles
  std::size_t row_begin = 0;  ///< first row included (strip window)
  std::size_t row_end = 0;    ///< one past the last row; 0 = dim (whole grid)

  /// One past the last row included (resolves the row_end == 0 default).
  std::size_t row_hi() const { return row_end == 0 ? dim : row_end; }
  bool row_windowed() const { return row_begin > 0 || row_hi() < dim; }

  /// Number of cells with d_begin <= i+j < d_end and i in the row window
  /// (exact).
  std::size_t cell_count() const;

  /// Throws std::invalid_argument if the region is malformed.
  void validate() const;
};

/// Functionally executes the region over every storage view of `views`:
/// each cell with i+j in [d_begin, d_end) inside the row window is
/// computed exactly once per view, in an order that respects the
/// wavefront dependencies. Tiles of one tile-diagonal run concurrently on
/// `pool`, with a barrier between tile-diagonals; each tile is ONE
/// indirect call into the lowered kernel per view — the row loop,
/// neighbour-pointer advance and band clamp all live inside the call.
///
/// Views iterate INNERMOST: each tile claim makes views.size()
/// back-to-back calls on the same (I,J) block of every storage, so the
/// per-diagonal scheduling fixed cost (claim RMWs, pool wake/park, the
/// barrier) is paid once per batch instead of once per grid. The
/// storages are independent (a kernel call reads and writes only its own
/// storage), so each grid's results are bit-identical to a lone run. A
/// whole grid is the view {data, 0}; a streaming strip passes its
/// row-window buffer with the first resident row, and the region's row
/// window must lie inside each view's resident rows (one halo row above
/// row_begin when the band reads north neighbours). Throws
/// std::invalid_argument when `views` is empty.
/// One worker has no parallel slack to trade for cache reuse: there the
/// region runs as one run_serial_wavefront call per view, walking no tile,
/// while tiled_wavefront_cost_ns still prices the tiled schedule.
void run_tiled_wavefront(const TiledRegion& region, ThreadPool& pool,
                         const core::LoweredKernel& kernel,
                         std::span<const core::StorageView> views);

/// Sequential reference and the only single-thread walk (both schedulers
/// run a one-worker pool through it): visits the same cells in row-major
/// order, which satisfies every dependency. A fully-in-band region is ONE
/// kernel call over the whole rectangle; a banded region is one
/// LoweredKernel::tile() call too, which the kernel's band-clamped entry
/// takes whole where it has one (one block per clamped row otherwise).
void run_serial_wavefront(const TiledRegion& region, const core::LoweredKernel& kernel,
                          core::StorageView view);

/// Simulated time of run_tiled_wavefront on `cpu`: per tile-diagonal,
/// max(1, tiles/P) tile slots of (T^2 elements + scheduling) plus a
/// barrier. Deterministic in the parameters only — the hybrid executor's
/// run() and estimate() both charge exactly this.
double tiled_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                               double tsize_units, std::size_t elem_bytes);

/// Simulated time of the optimized sequential baseline over the region
/// (no tiling, no scheduling overhead, cache-friendly row-major sweep).
double serial_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                                double tsize_units, std::size_t elem_bytes);

}  // namespace wavetune::cpu
