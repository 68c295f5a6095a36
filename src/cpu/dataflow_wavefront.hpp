// Dependency-counter (dataflow) tile scheduling: the one parallel CPU walk.
//
// The paper's schedule steps the tile grid one anti-diagonal at a time
// with a full barrier between diagonals: 2M-1 barriers for an MxM tile
// grid and workers idling at the ragged edges of every diagonal. That
// sweep survives only as a price (cpu/tiled_wavefront.hpp's
// tiled_wavefront_cost_ns). Only a tile's north and west neighbours
// actually gate it, so every CPU region runs here, scheduled by readiness:
//
//   * every in-band tile carries an atomic remaining-dependency counter
//     (0, 1 or 2: its north and west neighbours clamped to the diagonal
//     band — out-of-band neighbours don't count);
//   * the worker that finishes tile (I,J) decrements the counters of
//     (I+1,J) and (I,J+1); when both become ready it continues INLINE into
//     the east tile (row-major layout: the east tile extends the rows just
//     written, so the continuation consumes cache-hot lines) and pushes
//     the south tile onto its own deque;
//   * idle workers steal pushed tiles from the deques (ThreadPool's
//     work-stealing substrate).
//
// There is no barrier anywhere: the schedule's span is the tile-grid
// critical path, not the sum of per-diagonal maxima. Results are
// bit-identical to run_serial_wavefront for any deterministic kernel —
// every cell is computed exactly once, row-major within its tile, from
// fully-computed neighbours.
#pragma once

#include <cstddef>
#include <span>

#include "cpu/thread_pool.hpp"
#include "cpu/tiled_wavefront.hpp"
#include "sim/hardware.hpp"

namespace wavetune::cpu {

/// The price a CPU phase is charged. Both run the same walk
/// (run_dataflow_wavefront); the field picks only the cost model the
/// executor's run() and estimate() charge.
enum class Scheduler {
  kBarrier,   ///< the paper's barriered sweep (tiled_wavefront_cost_ns)
  kDataflow,  ///< the critical-path model (dataflow_wavefront_cost_ns)
};

/// "barrier" / "dataflow" (stable names used by benches and logs).
const char* scheduler_name(Scheduler s);

/// Functionally executes the region over every storage view of `views`:
/// each cell with i+j in [d_begin, d_end) inside the row window is
/// computed exactly once per view, in an order that respects the
/// wavefront dependencies. Each tile body is ONE indirect call per view
/// (see core/lowered.hpp). Views iterate INNERMOST inside each tile task,
/// so ONE dependency-counter graph and ONE steal schedule drive the whole
/// batch: the per-tile scheduling fixed cost (counter RMWs, deque
/// traffic, pool wakes) is paid once per batch instead of once per grid,
/// and each grid's results stay bit-identical to a lone run. A whole grid
/// is the view {data, 0}; a streaming strip passes its row-window buffer
/// with the first resident row, and the region's row window must lie
/// inside each view's resident rows (one halo row above row_begin when the
/// band reads north neighbours). The dep graph is built over the region's
/// row window only. Exceptions thrown by the kernel — including from
/// tiles stolen by other workers — propagate to the caller (first one
/// wins); remaining tiles are skipped. Throws std::invalid_argument when
/// `views` is empty.
/// A one-worker pool or a region of at most two tiles runs as one
/// run_serial_wavefront call per view instead, with no dep graph, while
/// the executor still charges the phase's tiled price.
void run_dataflow_wavefront(const TiledRegion& region, ThreadPool& pool,
                            const core::LoweredKernel& kernel,
                            std::span<const core::StorageView> views);

/// Simulated time of run_dataflow_wavefront on `cpu`: a critical-path
/// model. Per-tile cost is T^2 elements plus CpuModel::dataflow_dep_ns of
/// dependency bookkeeping (counter updates + deque traffic) — there is no
/// barrier_ns term and no per-diagonal slot rounding. The schedule takes
/// max(critical path, total work / P): the tile-diagonal count times the
/// tile cost when the wavefront's span dominates, the work-conserving
/// bound otherwise.
double dataflow_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                                  double tsize_units, std::size_t elem_bytes);

/// The executor's price of a CPU region under scheduler `s`:
/// tiled_wavefront_cost_ns or dataflow_wavefront_cost_ns.
double wavefront_cost_ns(Scheduler s, const TiledRegion& region, const sim::CpuModel& cpu,
                         double tsize_units, std::size_t elem_bytes);

}  // namespace wavetune::cpu
