#include "cpu/dataflow_wavefront.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/diag.hpp"
#include "fault/injector.hpp"

namespace wavetune::cpu {

namespace {

/// Contiguous range of tile-diagonals k (tile (I,J) is on k = I+J) whose
/// global-diagonal span [k*T, (k+2)*T - 2] intersects [d_begin, d_end).
/// Mirrors the inclusion test of run_tiled_wavefront exactly, so both
/// schedulers visit the same tile set.
struct TileDiagRange {
  std::size_t k_lo = 1;
  std::size_t k_hi = 0;  // empty when k_lo > k_hi
};

TileDiagRange tile_diag_range(const TiledRegion& region, std::size_t M) {
  const std::size_t T = region.tile;
  TileDiagRange r;
  if (region.d_begin >= region.d_end) return r;
  // Last k with k*T < d_end.
  r.k_hi = std::min(2 * M - 2, (region.d_end - 1) / T);
  // First k with (k+2)*T - 2 >= d_begin, i.e. (k+2)*T >= d_begin + 2.
  const std::size_t need = region.d_begin + 2;
  r.k_lo = need <= 2 * T ? 0 : (need - 2 * T + T - 1) / T;
  return r;
}

// Tile rows on a tile-diagonal follow the same algebra as cell rows on a
// cell diagonal of an MxM grid: core::diag_row_lo / core::diag_row_hi are
// the single definition (used with dim = M).

/// Shared state of one dataflow run. Lives on the caller's stack: the
/// caller blocks until every tile counted down `remaining`, and the final
/// decrement publishes completion under `done_mutex`, so the frame
/// strictly outlives every worker's access (the finishing thread can have
/// no ready successor — every other tile already completed — so it
/// touches nothing of the state after the notify).
struct DataflowState {
  const TiledRegion* region = nullptr;
  ThreadPool* pool = nullptr;
  /// Tile dispatch: one indirect call per tile per view. Several views
  /// (a fused batch) share ONE dep-counter graph by iterating innermost
  /// in execute(); the caller's frame owns the views and outlives every
  /// worker access (run_dataflow_wavefront blocks until all tiles drain).
  const core::LoweredKernel* kernel = nullptr;
  std::span<const core::StorageView> views;
  std::size_t M = 0;  ///< tiles per side
  TileDiagRange range;
  /// Tile-row window [I_lo, I_hi) of the region's row window: tiles whose
  /// rows fall entirely outside the strip are not in the dep graph at all.
  std::size_t I_lo = 0;
  std::size_t I_hi = 0;
  /// deps is sized to exactly the in-range tiles (not M*M): diag_offset[d]
  /// is the index of the first tile of tile-diagonal range.k_lo + d, and a
  /// tile's slot is its offset within its diagonal. Keeps narrow band
  /// slices (phase-3 regions, tiny tiles) from paying an O(M^2)
  /// allocate-and-zero per run.
  std::vector<std::size_t> diag_offset;
  std::vector<std::atomic<unsigned char>> deps;
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  /// Completion: an atomic countdown on the per-tile hot path (no mutex
  /// per tile), one CV round-trip at the very end.
  std::atomic<std::size_t> remaining{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;

  /// Counts `n` tiles finished. Called once per continuation CHAIN, not
  /// per tile: the shared countdown is the one cache line every worker
  /// writes, so inline-continued tiles batch their decrements and only
  /// the chain end pays the contended RMW.
  void tiles_done(std::size_t n) {
    if (remaining.fetch_sub(n, std::memory_order_acq_rel) == n) {
      std::lock_guard<std::mutex> lock(done_mutex);
      done = true;
      done_cv.notify_all();
    }
  }

  void wait_done() {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [this] { return done; });
  }

  bool in_set(std::size_t I, std::size_t J) const {
    if (I >= M || J >= M) return false;
    if (I < I_lo || I >= I_hi) return false;
    const std::size_t k = I + J;
    return k >= range.k_lo && k <= range.k_hi;
  }

  /// First in-set tile row of tile-diagonal k (row window clamped).
  std::size_t first_row(std::size_t k) const {
    return std::max(core::diag_row_lo(M, k), I_lo);
  }

  /// Flat deps slot of in-set tile (I,J).
  std::size_t dep_index(std::size_t I, std::size_t J) const {
    const std::size_t k = I + J;
    return diag_offset[k - range.k_lo] + (I - first_row(k));
  }

  /// Computes the cells of tile (I,J), clipped to the strip's row window:
  /// one lowered call per view, clamping and the row loop inside it —
  /// identical traversal to run_tiled_wavefront, hence identical results.
  /// Each call touches only its own storage, so results per grid are
  /// bit-identical to a lone run.
  void execute(std::size_t I, std::size_t J) const {
    const std::size_t dim = region->dim;
    const std::size_t T = region->tile;
    const std::size_t row_lo = std::max(I * T, region->row_begin);
    const std::size_t row_hi = std::min({I * T + T, dim, region->row_hi()});  // exclusive
    const std::size_t col_lo = J * T;
    const std::size_t col_hi = std::min(col_lo + T, dim);
    for (const core::StorageView& view : views) {
      kernel->tile(view, row_lo, row_hi, col_lo, col_hi, region->d_begin, region->d_end);
    }
  }

  /// Decrements (I,J)'s counter; true when it just became ready. The
  /// acq_rel RMW is the happens-before edge from producer to consumer:
  /// the worker whose decrement reaches zero has acquired every other
  /// producer's release, so the tile reads fully-written neighbour cells.
  bool release_dep(std::size_t I, std::size_t J) {
    if (!in_set(I, J)) return false;
    return deps[dep_index(I, J)].fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  void record_error() {
    failed.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = std::current_exception();
  }

  /// Executes tile (I,J), releases its successors, and continues inline
  /// into one tile it just made ready. After a failure the remaining
  /// tiles still flow through the counters (so the latch always resolves)
  /// but skip their kernels.
  void run_tile(std::size_t I, std::size_t J) {
    std::size_t completed = 0;
    for (;;) {
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          execute(I, J);
        } catch (...) {
          record_error();
        }
      }
      const bool east = release_dep(I, J + 1);
      const bool south = release_dep(I + 1, J);
      ++completed;
      if (east && south) {
        // Continue east (the rows just written extend into it — cache-hot
        // in a row-major grid); push south onto this worker's own deque
        // for an idle worker to steal. The closure packs the tile into
        // one index so it fits std::function's small-buffer storage.
        DataflowState* self = this;
        const std::size_t idx = (I + 1) * M + J;
        try {
          fault::check(fault::Site::kDataflowSpawn);
          pool->submit_local([self, idx] {
            // Entry of a spawned/stolen tile task: an injected fault here
            // models a steal that lands on a poisoned worker. The tile
            // still drains through the counters (kernels are skipped once
            // `failed` is set), so the completion latch always resolves.
            try {
              fault::check(fault::Site::kDataflowSteal);
            } catch (...) {
              self->record_error();
            }
            self->run_tile(idx / self->M, idx % self->M);
          });
        } catch (...) {
          // Queueing failed (allocation, pool stopping, injected spawn
          // fault): the south subtree must still drain or the latch never
          // resolves. Run it on this thread; depth is bounded by the
          // tile-grid side.
          record_error();
          run_tile(I + 1, J);
        }
        ++J;
      } else if (east) {
        ++J;
      } else if (south) {
        ++I;
      } else {
        break;
      }
    }
    tiles_done(completed);
  }
};

/// In-order inline sweep for degenerate cases (single worker, or so few
/// tiles that scheduling can't pay): same tile order as the barriered
/// path's serial fallback.
void run_inline(DataflowState& state) {
  const TileDiagRange& range = state.range;
  for (std::size_t k = range.k_lo; k <= range.k_hi; ++k) {
    const std::size_t i_hi = std::min(core::diag_row_hi(state.M, k), state.I_hi - 1);
    for (std::size_t I = state.first_row(k); I <= i_hi; ++I) {
      state.execute(I, k - I);
    }
  }
}

}  // namespace

const char* scheduler_name(Scheduler s) {
  return s == Scheduler::kDataflow ? "dataflow" : "barrier";
}

void run_dataflow_wavefront(const TiledRegion& region, ThreadPool& pool,
                            const core::LoweredKernel& kernel,
                            std::span<const core::StorageView> views) {
  region.validate();
  if (views.empty()) throw std::invalid_argument("run_dataflow_wavefront: no storage views");
  if (region.d_begin == region.d_end) return;
  const std::size_t T = region.tile;
  const std::size_t M = (region.dim + T - 1) / T;
  const TileDiagRange range = tile_diag_range(region, M);
  if (range.k_lo > range.k_hi) return;

  DataflowState state;
  state.region = &region;
  state.pool = &pool;
  state.kernel = &kernel;
  state.views = views;
  state.M = M;
  state.range = range;
  state.I_lo = region.row_begin / T;
  state.I_hi = (region.row_hi() + T - 1) / T;

  std::vector<std::size_t> diag_offset;
  diag_offset.reserve(range.k_hi - range.k_lo + 1);
  std::size_t n_tiles = 0;
  for (std::size_t k = range.k_lo; k <= range.k_hi; ++k) {
    diag_offset.push_back(n_tiles);
    const std::size_t i_lo = state.first_row(k);
    const std::size_t i_hi = std::min(core::diag_row_hi(M, k), state.I_hi - 1);
    if (i_lo <= i_hi) n_tiles += i_hi - i_lo + 1;
  }
  if (n_tiles == 0) return;
  if (pool.worker_count() <= 1 || n_tiles <= 2) {
    run_inline(state);  // counters stay untouched
    return;
  }

  state.diag_offset = std::move(diag_offset);
  state.deps = std::vector<std::atomic<unsigned char>>(n_tiles);
  // Initial ready set: tiles whose in-set gate count is zero. Without a
  // row window that is exactly the first in-set diagonal; a strip window
  // can also expose later-diagonal tiles whose north gate was clipped
  // away (e.g. the window's top row mid-band), so readiness is computed
  // from the same in_set() the release path uses.
  std::vector<std::size_t> ready;
  for (std::size_t k = range.k_lo; k <= range.k_hi; ++k) {
    const std::size_t i_hi = std::min(core::diag_row_hi(M, k), state.I_hi - 1);
    for (std::size_t I = state.first_row(k); I <= i_hi; ++I) {
      const std::size_t J = k - I;
      // North/west neighbours sit on tile-diagonal k-1; they gate this
      // tile only when in the scheduled set (band AND row window).
      const unsigned char d = static_cast<unsigned char>(
          (I > 0 && state.in_set(I - 1, J) ? 1 : 0) +
          (J > 0 && state.in_set(I, J - 1) ? 1 : 0));
      state.deps[state.dep_index(I, J)].store(d, std::memory_order_relaxed);
      if (d == 0) ready.push_back(I * M + J);
    }
  }
  state.remaining.store(n_tiles, std::memory_order_relaxed);

  // Seed: queue all ready tiles but one for the workers, run one here,
  // then help until no task is claimable, then wait out the stragglers.
  DataflowState* sp = &state;
  for (std::size_t r = 1; r < ready.size(); ++r) {
    const std::size_t idx = ready[r];
    try {
      fault::check(fault::Site::kDataflowSpawn);
      pool.submit([sp, idx] {
        try {
          fault::check(fault::Site::kDataflowSteal);
        } catch (...) {
          sp->record_error();
        }
        sp->run_tile(idx / sp->M, idx % sp->M);
      });
    } catch (...) {
      sp->record_error();
      sp->run_tile(idx / M, idx % M);
    }
  }
  state.run_tile(ready[0] / M, ready[0] % M);
  while (pool.try_run_one()) {
  }
  state.wait_done();
  if (state.error) std::rethrow_exception(state.error);
}

double dataflow_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                                  double tsize_units, std::size_t elem_bytes) {
  region.validate();
  if (region.d_begin == region.d_end) return 0.0;
  const std::size_t T = region.tile;
  const std::size_t M = (region.dim + T - 1) / T;
  const TileDiagRange range = tile_diag_range(region, M);
  if (range.k_lo > range.k_hi) return 0.0;

  const std::size_t I_lo = region.row_begin / T;
  const std::size_t I_hi = (region.row_hi() + T - 1) / T;
  std::size_t n_tiles = 0;
  std::size_t n_nonempty = 0;
  for (std::size_t k = range.k_lo; k <= range.k_hi; ++k) {
    const std::size_t i_lo = std::max(core::diag_row_lo(M, k), I_lo);
    const std::size_t i_hi = std::min(core::diag_row_hi(M, k), I_hi - 1);
    if (i_lo > i_hi) continue;
    n_tiles += i_hi - i_lo + 1;
    ++n_nonempty;
  }
  if (n_tiles == 0) return 0.0;
  // Per tile: T^2 elements, one lowered-kernel dispatch, and the
  // dependency-counter bookkeeping (what a tile pays instead of
  // tile_sched_ns + its share of barrier_ns).
  const double tile_cost = static_cast<double>(T) * static_cast<double>(T) *
                               cpu.tiled_element_ns(tsize_units, elem_bytes, T) +
                           cpu.kernel_dispatch_ns + cpu.dataflow_dep_ns;
  const double n_diags = static_cast<double>(n_nonempty);
  const double P = cpu.effective_parallelism();
  // Greedy-scheduling bound: the longer of the critical path (one tile
  // per tile-diagonal, strictly sequential) and the work-conserving bound
  // (all tiles spread over P core-equivalents). No barrier_ns anywhere.
  const double critical = n_diags * tile_cost;
  const double work = static_cast<double>(n_tiles) * tile_cost / P;
  return std::max(critical, work);
}

void run_wavefront(Scheduler s, const TiledRegion& region, ThreadPool& pool,
                   const core::LoweredKernel& kernel, std::span<const core::StorageView> views) {
  if (s == Scheduler::kDataflow) {
    run_dataflow_wavefront(region, pool, kernel, views);
  } else {
    run_tiled_wavefront(region, pool, kernel, views);
  }
}

double wavefront_cost_ns(Scheduler s, const TiledRegion& region, const sim::CpuModel& cpu,
                         double tsize_units, std::size_t elem_bytes) {
  return s == Scheduler::kDataflow
             ? dataflow_wavefront_cost_ns(region, cpu, tsize_units, elem_bytes)
             : tiled_wavefront_cost_ns(region, cpu, tsize_units, elem_bytes);
}

}  // namespace wavetune::cpu
