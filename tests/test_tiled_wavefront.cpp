#include "cpu/tiled_wavefront.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/system_profile.hpp"
#include "wavefront_oracles.hpp"

namespace wavetune::cpu {
namespace {

using oracles::Cell;
using oracles::lowered;
using oracles::mix;
using oracles::serial_oracle;
using oracles::whole;

/// The barrier scheduler as a test runner.
oracles::Runner tiled_on(ThreadPool& pool) {
  return [&pool](const TiledRegion& region, const core::LoweredKernel& kernel,
                 std::span<const core::StorageView> views) {
    run_tiled_wavefront(region, pool, kernel, views);
  };
}

/// The serial scheduler as a test runner (one view).
oracles::Runner serial_runner() {
  return [](const TiledRegion& region, const core::LoweredKernel& kernel,
            std::span<const core::StorageView> views) {
    ASSERT_EQ(views.size(), 1u);
    run_serial_wavefront(region, kernel, views[0]);
  };
}

/// Runs `region` through the barrier scheduler on a zeroed grid.
std::vector<Cell> tiled(ThreadPool& pool, const TiledRegion& region, std::vector<Cell> g = {}) {
  if (g.empty()) g.assign(region.dim * region.dim, 0);
  const core::StorageView view = whole(g);
  run_tiled_wavefront(region, pool, lowered<mix>(region.dim), {&view, 1});
  return g;
}

TEST(TiledRegion, CellCountFullGrid) {
  TiledRegion r{10, 0, 19, 1};
  EXPECT_EQ(r.cell_count(), 100u);
}

TEST(TiledRegion, CellCountBand) {
  TiledRegion r{4, 2, 5, 1};  // diagonals 2,3,4 of a 4x4: 3+4+3
  EXPECT_EQ(r.cell_count(), 10u);
}

TEST(TiledRegion, ValidateRejectsBadShapes) {
  EXPECT_THROW((TiledRegion{0, 0, 0, 1}).validate(), std::invalid_argument);
  EXPECT_THROW((TiledRegion{4, 0, 1, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((TiledRegion{4, 3, 2, 1}).validate(), std::invalid_argument);
  EXPECT_THROW((TiledRegion{4, 0, 8, 1}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((TiledRegion{4, 0, 7, 1}).validate());
}

TEST(TiledWavefront, SerialReferenceMatchesPascal) {
  std::vector<Cell> g(36, 0);
  run_serial_wavefront(TiledRegion{6, 0, 11, 1}, lowered<oracles::paths>(6), whole(g));
  EXPECT_EQ(g[0], 1u);
  EXPECT_EQ(g[1 * 6 + 1], 2u);
  EXPECT_EQ(g[2 * 6 + 2], 6u);
  EXPECT_EQ(g[5 * 6 + 5], 252u);  // C(10,5)
}

// Property: tiled parallel result equals the cell-order serial oracle for
// any (dim, tile), and so does the lowered serial sweep.
class TiledEqualsSerial : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(TiledEqualsSerial, FullGrid) {
  const auto [dim, tile] = GetParam();
  const std::vector<Cell> want = serial_oracle(mix, TiledRegion{dim, 0, 2 * dim - 1, 1});

  ThreadPool pool(4);
  EXPECT_EQ(want, tiled(pool, TiledRegion{dim, 0, 2 * dim - 1, tile}));

  std::vector<Cell> serial(dim * dim, 0);
  run_serial_wavefront(TiledRegion{dim, 0, 2 * dim - 1, tile}, lowered<mix>(dim), whole(serial));
  EXPECT_EQ(want, serial);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndTiles, TiledEqualsSerial,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 16, 33, 64),
                       ::testing::Values<std::size_t>(1, 2, 4, 8, 10, 100)));

// Property: executing phases [0,a), [a,b), [b,D) sequentially equals one
// pass — the executor's three-phase split is seamless at any boundary.
class PhaseSplitSeamless : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PhaseSplitSeamless, TwoCuts) {
  const auto [a_off, b_off] = GetParam();
  const std::size_t dim = 20;
  const std::size_t total = 2 * dim - 1;
  const std::size_t a = std::min(a_off, total);
  const std::size_t b = std::min(a + b_off, total);

  const std::vector<Cell> one_pass = serial_oracle(mix, TiledRegion{dim, 0, total, 1});

  ThreadPool pool(2);
  std::vector<Cell> phased = tiled(pool, TiledRegion{dim, 0, a, 3});
  phased = tiled(pool, TiledRegion{dim, a, b, 5}, std::move(phased));
  phased = tiled(pool, TiledRegion{dim, b, total, 2}, std::move(phased));
  EXPECT_EQ(one_pass, phased);
}

INSTANTIATE_TEST_SUITE_P(Cuts, PhaseSplitSeamless,
                         ::testing::Combine(::testing::Values<std::size_t>(0, 1, 5, 13, 19, 39),
                                            ::testing::Values<std::size_t>(0, 1, 7, 20)));

TEST(TiledWavefront, VisitsEachCellExactlyOnce) {
  ThreadPool pool(4);
  oracles::expect_visits_region_once(tiled_on(pool), TiledRegion{15, 3, 20, 4});
  oracles::expect_visits_region_once(tiled_on(pool), TiledRegion{15, 3, 20, 4, 2, 11});
}

TEST(TiledWavefront, RejectsAnEmptyViewList) {
  ThreadPool pool(1);
  EXPECT_THROW(run_tiled_wavefront(TiledRegion{4, 0, 7, 2}, pool, lowered<mix>(4), {}),
               std::invalid_argument);
}

// A row-windowed region (the streaming-strip axis): strips of rows run in
// turn, each through a whole-grid view or through its own row-window
// buffer addressed by a view with base_row > 0. Band phases and strips
// together equal one serial pass.
TEST(TiledWavefront, RowWindowedViewsMatchSerial) {
  ThreadPool pool(4);
  for (const bool rebased : {false, true}) {
    for (const std::size_t tile : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
      oracles::expect_strips_match_oracle(tiled_on(pool), 29, tile, 6, {0, 57}, rebased);
      oracles::expect_strips_match_oracle(tiled_on(pool), 29, tile, 5, {0, 11, 30, 44, 57},
                                          rebased);
    }
  }
}

// The serial sweep honours the same row window and view addressing.
TEST(TiledWavefront, SerialRowWindowedViewsMatchOracle) {
  for (const bool rebased : {false, true}) {
    oracles::expect_strips_match_oracle(serial_runner(), 23, 1, 4, {0, 9, 30, 45}, rebased);
  }
}

// Three fused grids through one barrier schedule: each equals its own
// serial pass.
TEST(TiledWavefront, ThreeFusedGridsMatchSerial) {
  ThreadPool pool(4);
  for (const std::size_t tile : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (const std::size_t d_begin : {std::size_t{0}, std::size_t{9}, std::size_t{30}}) {
      oracles::expect_fused_grids_match_oracle(tiled_on(pool), 21, tile, d_begin, 3);
    }
  }
}

// An exception thrown by a tile propagates to the caller and leaves the
// pool usable.
void throwing_tile(const void* ctx, std::size_t i0, std::size_t, std::size_t, std::size_t,
                   std::size_t, const std::byte*, const std::byte*, const std::byte*,
                   std::byte*) {
  if (i0 >= *static_cast<const std::size_t*>(ctx)) throw std::runtime_error("boom");
}

TEST(TiledWavefront, ExceptionFromTilePropagates) {
  ThreadPool pool(4);
  const std::size_t dim = 64;
  const std::size_t threshold = dim / 2;
  std::vector<Cell> g(dim * dim, 0);
  const core::StorageView view = whole(g);
  EXPECT_THROW(run_tiled_wavefront(TiledRegion{dim, 0, 2 * dim - 1, 4}, pool,
                                   lowered(&throwing_tile, dim, &threshold), {&view, 1}),
               std::runtime_error);
  EXPECT_EQ(serial_oracle(mix, TiledRegion{dim, 0, 2 * dim - 1, 1}),
            tiled(pool, TiledRegion{dim, 0, 2 * dim - 1, 4}));
}

TEST(TiledWavefrontCost, ZeroForEmptyRegion) {
  const auto cpu = sim::make_i7_3820().cpu;
  EXPECT_DOUBLE_EQ(tiled_wavefront_cost_ns(TiledRegion{10, 4, 4, 2}, cpu, 10.0, 16), 0.0);
}

TEST(TiledWavefrontCost, MonotoneInTsize) {
  const auto cpu = sim::make_i7_3820().cpu;
  const TiledRegion r{64, 0, 127, 8};
  EXPECT_LT(tiled_wavefront_cost_ns(r, cpu, 10.0, 16),
            tiled_wavefront_cost_ns(r, cpu, 100.0, 16));
}

TEST(TiledWavefrontCost, TinyTilesPaySchedulingOverhead) {
  const auto cpu = sim::make_i7_3820().cpu;
  // At modest granularity, tile=1 must be worse than tile=8: per-element
  // scheduling dominates (the cpu-tile trade-off of the paper).
  const TiledRegion t1{256, 0, 511, 1};
  const TiledRegion t8{256, 0, 511, 8};
  EXPECT_GT(tiled_wavefront_cost_ns(t1, cpu, 10.0, 16),
            tiled_wavefront_cost_ns(t8, cpu, 10.0, 16));
}

TEST(SerialWavefrontCost, ProportionalToCells) {
  const auto cpu = sim::make_i7_3820().cpu;
  const double full = serial_wavefront_cost_ns(TiledRegion{32, 0, 63, 1}, cpu, 50.0, 16);
  const double half_cells =
      serial_wavefront_cost_ns(TiledRegion{32, 0, 31, 1}, cpu, 50.0, 16) +
      serial_wavefront_cost_ns(TiledRegion{32, 31, 63, 1}, cpu, 50.0, 16);
  EXPECT_NEAR(full, half_cells, 1e-6);
  EXPECT_DOUBLE_EQ(full, 32.0 * 32.0 * cpu.element_ns(50.0, 16));
}

TEST(TiledWavefrontCost, ParallelBeatsSerialAtScale) {
  const auto cpu = sim::make_i7_2600k().cpu;
  const TiledRegion r{512, 0, 1023, 8};
  EXPECT_LT(tiled_wavefront_cost_ns(r, cpu, 100.0, 16),
            serial_wavefront_cost_ns(r, cpu, 100.0, 16));
}

// --- lowered dispatch ---

// The serial sweep covers exactly the cells of the region, as in-band
// blocks: one call in all for a full sweep at any tile. A band slice (here
// also 2, 4 and 7 diagonals wide) runs as one block per row clamped to the
// band, in row order, for a kernel without a band-clamped entry, and as
// ONE call of that entry over the rows the band meets for a kernel with
// one.
TEST(LoweredDispatch, SerialCoversRegionExactlyOnce) {
  for (const TiledRegion& region :
       {TiledRegion{16, 0, 31, 1}, TiledRegion{16, 0, 31, 4}, TiledRegion{16, 5, 20, 1},
        TiledRegion{9, 3, 9, 1}, TiledRegion{16, 7, 9, 1}, TiledRegion{16, 7, 11, 1},
        TiledRegion{16, 7, 14, 1}}) {
    oracles::expect_visits_region_once(serial_runner(), region);
    const std::vector<oracles::Block> blocks = oracles::record_blocks(serial_runner(), region);
    if (region.d_begin == 0 && region.d_end == core::num_diagonals(region.dim)) {
      EXPECT_EQ(blocks.size(), 1u);
      continue;
    }
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_EQ(blocks[b].i1 - blocks[b].i0, 1u);
      if (b > 0) {
        EXPECT_GT(blocks[b].i0, blocks[b - 1].i0);
      }
      EXPECT_GE(blocks[b].i0 + blocks[b].j0, region.d_begin);
      EXPECT_LT((blocks[b].i1 - 1) + (blocks[b].j1 - 1), region.d_end);
    }

    // A kernel with a band-clamped entry: one call, from the band's first
    // row to the region's last, over every column.
    struct Call {
      std::size_t i0, i1, j0, j1, d_begin, d_end;
    };
    std::vector<Call> calls;
    core::LoweredKernel k = lowered<mix>(region.dim);
    k.ctx = &calls;
    k.banded = [](const void* ctx, std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t j1, std::size_t d_begin, std::size_t d_end, std::size_t,
                  const std::byte*, const std::byte*, const std::byte*, std::byte*) {
      static_cast<std::vector<Call>*>(const_cast<void*>(ctx))
          ->push_back({i0, i1, j0, j1, d_begin, d_end});
    };
    std::vector<Cell> storage(region.dim * region.dim, 0);
    run_serial_wavefront(region, k, whole(storage));
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].i0, core::diag_row_lo(region.dim, region.d_begin));
    EXPECT_EQ(calls[0].i1, region.dim);
    EXPECT_EQ(calls[0].j0, 0u);
    EXPECT_EQ(calls[0].j1, region.dim);
    EXPECT_EQ(calls[0].d_begin, region.d_begin);
    EXPECT_EQ(calls[0].d_end, region.d_end);
  }
}

TEST(LoweredDispatch, TiledBandSlicesMatchSerialValues) {
  ThreadPool pool(4);
  const std::size_t dim = 33;
  for (std::size_t tile : {std::size_t{1}, std::size_t{4}, std::size_t{16}, std::size_t{40}}) {
    for (auto [d0, d1] : {std::pair<std::size_t, std::size_t>{0, 2 * dim - 1},
                          std::pair<std::size_t, std::size_t>{7, 41}}) {
      EXPECT_EQ(serial_oracle(mix, TiledRegion{dim, d0, d1, 1}),
                tiled(pool, TiledRegion{dim, d0, d1, tile}))
          << "tile=" << tile << " d=[" << d0 << "," << d1 << ")";
    }
  }
}

// Every kernel call's block lies inside one tile and inside the band (and
// the strip's row window) wherever the barrier sweep schedules tiles: on a
// pool of two or more workers (one worker runs the serial sweep instead).
TEST(LoweredDispatch, BlocksNeverCrossTileOrBandBoundaries) {
  ThreadPool pool(2);
  for (const TiledRegion& region : {TiledRegion{20, 6, 30, 8}, TiledRegion{20, 0, 39, 8},
                                    TiledRegion{20, 6, 30, 8, 5, 13}}) {
    oracles::expect_blocks_inside_tiles_and_band(tiled_on(pool), region);
  }
  ThreadPool wide(4);
  oracles::expect_blocks_inside_tiles_and_band(tiled_on(wide), TiledRegion{37, 4, 60, 3});
}

// A single-worker pool runs every tile on the calling thread.
TEST(TiledWavefront, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  for (const oracles::Block& b : oracles::record_blocks(tiled_on(pool), TiledRegion{31, 0, 61, 4})) {
    EXPECT_EQ(b.thread, std::this_thread::get_id());
  }
}

// tile_grain is calibrated for one-call-per-tile lowered dispatch: a
// diagonal whose whole work is under ~1024 cells runs INLINE (one grain
// covering the range — a pool wakeup costs more than the work; the
// threshold is cell-count-based, so it stays small enough that even an
// expensive kernel serializes at most one claim's worth); once the pool
// is engaged, claims batch up to ~512 cells each, capped by fairness
// (keep every worker fed). Pin the behaviour at the extremes so
// recalibrations are deliberate.
TEST(TileGrain, TinyDiagonalsRunInline) {
  // 8 cells of work: returning the full range makes parallel_for skip
  // the pool entirely.
  EXPECT_EQ(tile_grain(8, 1, 4), 8u);
  EXPECT_EQ(tile_grain(64, 1, 1), 64u);
  // 4 tiles of 16x16 = 1024 cells: still inline.
  EXPECT_EQ(tile_grain(4, 16, 4), 4u);
  // One more tile crosses the threshold: the pool engages, and the
  // fairness cap (5 / (2*4) -> 1) takes over for so short a diagonal.
  EXPECT_EQ(tile_grain(5, 16, 4), 1u);
  // A long diagonal batches ceil(512/256) = 2 tiles per claim.
  EXPECT_EQ(tile_grain(17, 16, 4), 2u);
}

TEST(TileGrain, TinyTilesBatchUpToTheCellFloor) {
  // 1x1 tiles: 1000 cells of work is still under the inline threshold...
  EXPECT_EQ(tile_grain(1000, 1, 4), 1000u);
  // ...but past it the pool engages and claims batch to the 512-cell
  // floor (fairness cap 10000 / (2*4) = 1250 doesn't bind).
  EXPECT_EQ(tile_grain(10000, 1, 4), 512u);
  // A long diagonal of 4x4 tiles wants ceil(512/16) = 32 per claim.
  EXPECT_EQ(tile_grain(2000, 4, 4), 32u);
}

TEST(TileGrain, HugeTilesClaimOneAtATime) {
  // 23^2 = 529 >= 512: one tile already amortizes the claim.
  EXPECT_EQ(tile_grain(2000, 23, 4), 1u);
  EXPECT_EQ(tile_grain(2000, 64, 4), 1u);
  EXPECT_EQ(tile_grain(2000, 1024, 4), 1u);
  // Zero workers (degenerate serial pool): no batching decision to make.
  EXPECT_EQ(tile_grain(2000, 1, 0), 1u);
}

}  // namespace
}  // namespace wavetune::cpu
