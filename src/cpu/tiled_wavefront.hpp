// The CPU wavefront's tiled region, its single-thread walk and its cost
// models.
//
// The grid is partitioned into TxT tiles; tile (I,J) depends on its west,
// north and north-west neighbour tiles, so tiles on the same tile-diagonal
// (I+J = k) are independent. The paper's schedule sweeps one
// tile-diagonal at a time with a barrier between diagonals; that sweep is
// kept here only as a price (tiled_wavefront_cost_ns), which the hybrid
// executor charges for kBarrier CPU phases. Every parallel CPU region runs
// through the dependency-counter walk (cpu/dataflow_wavefront.hpp); within
// a tile, cells are computed row-major, the cache reuse the paper's
// cpu-tile parameter controls. run_serial_wavefront is the single-thread
// walk and the reference. The diagonal-geometry algebra comes from
// core/diag.hpp, the single definition shared with the GPU partitioner.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "core/lowered.hpp"
#include "sim/hardware.hpp"

namespace wavetune::cpu {

/// Column span of row i clamped to the diagonal band — the single clamp
/// algebra, now defined in core/diag.hpp (the lowered-kernel dispatch
/// needs it below the cpu layer); re-exported here for the cpu call sites.
using core::row_band_span;

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

/// Sequential reference and the only single-thread walk (a one-worker
/// pool runs every region through it): visits the same cells in row-major
/// order, which satisfies every dependency. A fully-in-band region is ONE
/// kernel call over the whole rectangle; a banded region is one
/// LoweredKernel::tile() call too, which the kernel's band-clamped entry
/// takes whole where it has one (one block per clamped row otherwise).
void run_serial_wavefront(const TiledRegion& region, const core::LoweredKernel& kernel,
                          core::StorageView view);

/// Simulated time of the paper's barriered sweep over the region on
/// `cpu`: per tile-diagonal, max(1, tiles/P) tile slots of (T^2 elements +
/// scheduling) plus a barrier. Deterministic in the parameters only: the
/// hybrid executor's run() and estimate() both charge exactly this for a
/// kBarrier CPU phase.
double tiled_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                               double tsize_units, std::size_t elem_bytes);

/// Simulated time of the optimized sequential baseline over the region
/// (no tiling, no scheduling overhead, cache-friendly row-major sweep).
double serial_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                                double tsize_units, std::size_t elem_bytes);

}  // namespace wavetune::cpu
