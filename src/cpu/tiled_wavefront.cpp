#include "cpu/tiled_wavefront.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/diag.hpp"

namespace wavetune::cpu {

std::size_t TiledRegion::cell_count() const {
  // core/diag.hpp is the single source of the diagonal-length algebra.
  const std::size_t r_hi = row_hi();
  std::size_t n = 0;
  for (std::size_t d = d_begin; d < d_end; ++d) {
    n += core::diag_rows_in(dim, d, row_begin, r_hi);
  }
  return n;
}

void TiledRegion::validate() const {
  if (dim == 0) throw std::invalid_argument("TiledRegion: dim == 0");
  if (tile == 0) throw std::invalid_argument("TiledRegion: tile == 0");
  if (d_begin > d_end) throw std::invalid_argument("TiledRegion: d_begin > d_end");
  if (d_end > 2 * dim - 1) throw std::invalid_argument("TiledRegion: d_end beyond last diagonal");
  if (row_end > dim) throw std::invalid_argument("TiledRegion: row_end beyond the grid");
  if (row_begin >= row_hi()) throw std::invalid_argument("TiledRegion: empty row window");
}

std::size_t tile_grain(std::size_t n_tiles, std::size_t tile, std::size_t workers) {
  // Calibrated for one-call-per-tile lowered dispatch. Two thresholds:
  //
  //  * kInlineCells: farming a tile-diagonal out to the pool costs
  //    helper submissions plus a CV wakeup/sleep cycle per helper
  //    (microseconds). A diagonal whose ENTIRE work is below this many
  //    cells (~a microsecond at ns-scale kernels) finishes faster on the
  //    calling thread than the wakeup alone would take — returning the
  //    full range as one grain makes parallel_for run it inline with
  //    zero pool traffic. Pre-lowering, each tile also paid T
  //    type-erased calls that dwarfed this accounting; with one indirect
  //    call per tile the scheduling machinery IS the overhead. The
  //    threshold is cell-count-based (tile_grain sees no kernel cost),
  //    so it deliberately stays small: for an expensive kernel the worst
  //    case is one claim's worth of work serialized, the same exposure
  //    the per-claim batching below always had.
  //  * kMinCellsPerClaim: once the pool is engaged, each claim costs one
  //    contended atomic RMW; ~512 cells of work per claim keeps that
  //    under a few percent.
  constexpr std::size_t kInlineCells = 1024;
  constexpr std::size_t kMinCellsPerClaim = 512;
  const std::size_t per_tile = tile * tile;
  if (workers == 0) return 1;
  if (per_tile < kInlineCells && n_tiles <= kInlineCells / per_tile) return n_tiles;
  if (per_tile >= kMinCellsPerClaim) return 1;
  const std::size_t want = (kMinCellsPerClaim + per_tile - 1) / per_tile;
  // Never batch so hard that the diagonal stops feeding every worker.
  const std::size_t fair = std::max<std::size_t>(1, n_tiles / (2 * workers));
  return std::min(want, fair);
}

namespace {

/// Per-tile-diagonal state of the barrier sweep, dispatched through
/// ThreadPool's raw parallel_for so nothing type-erased is invoked per
/// tile. One claim dispatches the same (I,J) tile across every view,
/// grids innermost.
struct DiagCtx {
  const core::LoweredKernel* kernel;
  std::span<const core::StorageView> views;
  const TiledRegion* region;
  std::size_t k;  ///< current tile-diagonal (I + J == k)
};

void run_diag_tile(void* pv, std::size_t I) {
  const DiagCtx& c = *static_cast<const DiagCtx*>(pv);
  const std::size_t dim = c.region->dim;
  const std::size_t T = c.region->tile;
  const std::size_t J = c.k - I;
  // The row window clips tiles the strip boundary cuts through.
  const std::size_t row_lo = std::max(I * T, c.region->row_begin);
  const std::size_t row_hi = std::min({I * T + T, dim, c.region->row_hi()});
  const std::size_t col_lo = J * T;
  const std::size_t col_hi = std::min(col_lo + T, dim);
  // Grids innermost: the tile geometry (and the claim that scheduled it)
  // amortizes over the whole batch; each storage is written only by its
  // own call, so member results cannot cross-contaminate.
  for (const core::StorageView& view : c.views) {
    c.kernel->tile(view, row_lo, row_hi, col_lo, col_hi, c.region->d_begin, c.region->d_end);
  }
}

/// Inclusive clamped tile-row range of tile-diagonal k under the region's
/// row window; empty when first > last.
struct TileRowRange {
  std::size_t first = 1;
  std::size_t last = 0;
};

TileRowRange tile_rows_on_diag(const TiledRegion& region, std::size_t M, std::size_t k) {
  const std::size_t T = region.tile;
  TileRowRange r;
  r.first = std::max(core::diag_row_lo(M, k), region.row_begin / T);
  r.last = std::min(core::diag_row_hi(M, k), (region.row_hi() - 1) / T);
  return r;
}

}  // namespace

void run_tiled_wavefront(const TiledRegion& region, ThreadPool& pool,
                         const core::LoweredKernel& kernel,
                         std::span<const core::StorageView> views) {
  region.validate();
  if (views.empty()) throw std::invalid_argument("run_tiled_wavefront: no storage views");
  if (region.d_begin == region.d_end) return;
  const std::size_t T = region.tile;
  const std::size_t M = (region.dim + T - 1) / T;  // tiles per side

  DiagCtx ctx{&kernel, views, &region, 0};
  // Tile-diagonal k covers global diagonals [k*T, (k+2)*T - 2]; include k
  // when that span intersects [d_begin, d_end).
  for (std::size_t k = 0; k < 2 * M - 1; ++k) {
    const std::size_t span_lo = k * T;
    const std::size_t span_hi = (k + 2) * T - 2;  // inclusive
    if (span_lo >= region.d_end || span_hi < region.d_begin) continue;

    const TileRowRange rows = tile_rows_on_diag(region, M, k);
    if (rows.first > rows.last) continue;
    // Each claim carries views.size() tiles' worth of cells, so the
    // per-claim batching the single-grid calibration picked shrinks
    // accordingly (never below one tile per claim).
    const std::size_t grain = std::max<std::size_t>(
        1, tile_grain(rows.last - rows.first + 1, T, pool.worker_count()) / views.size());
    ctx.k = k;
    pool.parallel_for(rows.first, rows.last + 1, &run_diag_tile, &ctx, grain);
    // parallel_for blocks: ONE inter-tile-diagonal barrier for the whole
    // batch — the fixed cost continuous batching amortizes.
  }
}

void run_serial_wavefront(const TiledRegion& region, const core::LoweredKernel& kernel,
                          core::StorageView view) {
  region.validate();
  if (region.d_begin == region.d_end) return;
  // One band-clamped dispatch over the whole remaining rectangle: a full
  // sweep (everything in band) is a SINGLE kernel call — row-major order
  // over the rectangle satisfies every wavefront dependency — and a band
  // slice degrades to one call per clamped row inside tile(). Rows below
  // diag_row_lo(dim, d_begin) have an empty band span, so a band starting
  // deep in the grid (phase-3 runs) skips straight to the first row that
  // intersects it.
  const std::size_t i_first =
      std::max(core::diag_row_lo(region.dim, region.d_begin), region.row_begin);
  const std::size_t i_last = region.row_hi();
  if (i_first >= i_last) return;
  kernel.tile(view, i_first, i_last, 0, region.dim, region.d_begin, region.d_end);
}

double tiled_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                               double tsize_units, std::size_t elem_bytes) {
  region.validate();
  if (region.d_begin == region.d_end) return 0.0;
  const std::size_t dim = region.dim;
  const std::size_t T = region.tile;
  const std::size_t M = (dim + T - 1) / T;
  const double P = cpu.effective_parallelism();
  // Per tile: T^2 elements, one lowered-kernel dispatch, and the
  // scheduler's claim/enqueue overhead.
  const double tile_cost = static_cast<double>(T) * static_cast<double>(T) *
                               cpu.tiled_element_ns(tsize_units, elem_bytes, T) +
                           cpu.kernel_dispatch_ns + cpu.tile_sched_ns;

  double total = 0.0;
  for (std::size_t k = 0; k < 2 * M - 1; ++k) {
    const std::size_t span_lo = k * T;
    const std::size_t span_hi = (k + 2) * T - 2;
    if (span_lo >= region.d_end || span_hi < region.d_begin) continue;
    const TileRowRange rows = tile_rows_on_diag(region, M, k);
    if (rows.first > rows.last) continue;
    const std::size_t n_k = rows.last - rows.first + 1;
    const double slots = std::max(1.0, static_cast<double>(n_k) / P);
    total += slots * tile_cost + cpu.barrier_ns;
  }
  return total;
}

double serial_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                                double tsize_units, std::size_t elem_bytes) {
  region.validate();
  return static_cast<double>(region.cell_count()) * cpu.element_ns(tsize_units, elem_bytes);
}

}  // namespace wavetune::cpu
