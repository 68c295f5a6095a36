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

namespace {

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

void run_serial_wavefront(const TiledRegion& region, const core::LoweredKernel& kernel,
                          core::StorageView view) {
  region.validate();
  if (region.d_begin == region.d_end) return;
  // One band-clamped dispatch over the rectangle: row-major order meets
  // every wavefront dependency. Rows before diag_row_lo(dim, d_begin) miss
  // the band, so a band deep in the grid starts at its first row.
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
