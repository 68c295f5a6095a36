#include "cpu/dataflow_wavefront.hpp"

#include <gtest/gtest.h>

#include <atomic>
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
using oracles::whole;

/// The dataflow scheduler as a test runner.
oracles::Runner dataflow_on(ThreadPool& pool) {
  return [&pool](const TiledRegion& region, const core::LoweredKernel& kernel,
                 std::span<const core::StorageView> views) {
    run_dataflow_wavefront(region, pool, kernel, views);
  };
}

/// Cell-order serial oracle of `region` (band and row window) from a zeroed
/// grid.
std::vector<Cell> serial_reference(const TiledRegion& region) {
  return oracles::serial_oracle(mix, region);
}

/// Runs `region` through the dataflow scheduler over `g` (zeroed if empty).
std::vector<Cell> dataflow(ThreadPool& pool, const TiledRegion& region,
                           std::vector<Cell> g = {}) {
  if (g.empty()) g.assign(region.dim * region.dim, 0);
  const core::StorageView view = whole(g);
  run_dataflow_wavefront(region, pool, lowered<mix>(region.dim), {&view, 1});
  return g;
}

// Property: dataflow result is bit-identical to the serial reference for
// any (dim, tile), including non-divisible dims and T=1.
class DataflowEqualsSerial
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DataflowEqualsSerial, FullGrid) {
  const auto [dim, tile] = GetParam();
  const TiledRegion region{dim, 0, 2 * dim - 1, tile};
  ThreadPool pool(4);
  EXPECT_EQ(serial_reference(region), dataflow(pool, region));
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndTiles, DataflowEqualsSerial,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 16, 33, 64, 129),
                       ::testing::Values<std::size_t>(1, 2, 4, 8, 10, 100)));

// Property: band slices (the executor's phase-1/phase-3 regions) are
// bit-identical to the serial reference at every cut, including slices
// that start deep in the grid.
TEST(DataflowWavefront, BandSlicesMatchSerial) {
  ThreadPool pool(4);
  const std::size_t dim = 33;
  for (std::size_t tile : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    for (auto [d0, d1] : {std::pair<std::size_t, std::size_t>{0, 2 * dim - 1},
                          std::pair<std::size_t, std::size_t>{7, 41},
                          std::pair<std::size_t, std::size_t>{40, 65},
                          std::pair<std::size_t, std::size_t>{60, 65},
                          std::pair<std::size_t, std::size_t>{12, 12}}) {
      const TiledRegion region{dim, d0, d1, tile};
      EXPECT_EQ(serial_reference(region), dataflow(pool, region))
          << "tile=" << tile << " d=[" << d0 << "," << d1 << ")";
    }
  }
}

// Property: three phases [0,a) [a,b) [b,D) run back-to-back under
// dataflow equal one serial pass — the executor's split is seamless.
TEST(DataflowWavefront, PhaseSplitSeamless) {
  ThreadPool pool(4);
  const std::size_t dim = 20;
  const std::size_t total = 2 * dim - 1;
  const std::vector<Cell> ref = serial_reference(TiledRegion{dim, 0, total, 1});
  for (std::size_t a : {std::size_t{0}, std::size_t{5}, std::size_t{19}, std::size_t{39}}) {
    for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{20}}) {
      const std::size_t b = std::min(a + len, total);
      std::vector<Cell> got = dataflow(pool, TiledRegion{dim, 0, a, 3});
      got = dataflow(pool, TiledRegion{dim, a, b, 5}, std::move(got));
      got = dataflow(pool, TiledRegion{dim, b, total, 2}, std::move(got));
      EXPECT_EQ(ref, got) << "a=" << a << " b=" << b;
    }
  }
}

TEST(DataflowWavefront, VisitsEachCellExactlyOnce) {
  ThreadPool pool(4);
  oracles::expect_visits_region_once(dataflow_on(pool), TiledRegion{15, 3, 20, 4});
  oracles::expect_visits_region_once(dataflow_on(pool), TiledRegion{15, 3, 20, 4, 2, 11});
}

// Every kernel call's block lies inside one tile, inside the band and
// inside the strip's row window.
TEST(DataflowWavefront, BlocksNeverCrossTileOrBandBoundaries) {
  ThreadPool pool(4);
  for (const TiledRegion& region : {TiledRegion{20, 6, 30, 8}, TiledRegion{37, 4, 60, 3},
                                    TiledRegion{20, 6, 30, 8, 5, 13}}) {
    oracles::expect_blocks_inside_tiles_and_band(dataflow_on(pool), region);
  }
}

// A row-windowed region (the streaming-strip axis): strips of rows run in
// turn, each through a whole-grid view or through its own row-window
// buffer addressed by a view with base_row > 0 — the dep graph covers
// only the window. Band phases and strips together equal one serial pass.
TEST(DataflowWavefront, RowWindowedViewsMatchSerial) {
  ThreadPool pool(4);
  for (const bool rebased : {false, true}) {
    for (const std::size_t tile : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
      oracles::expect_strips_match_oracle(dataflow_on(pool), 29, tile, 6, {0, 57}, rebased);
      oracles::expect_strips_match_oracle(dataflow_on(pool), 29, tile, 5, {0, 11, 30, 44, 57},
                                          rebased);
    }
  }
}

// Three fused grids through one dep-counter graph: each equals its own
// serial pass.
TEST(DataflowWavefront, ThreeFusedGridsMatchSerial) {
  ThreadPool pool(4);
  for (const std::size_t tile : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (const std::size_t d_begin : {std::size_t{0}, std::size_t{9}, std::size_t{30}}) {
      oracles::expect_fused_grids_match_oracle(dataflow_on(pool), 21, tile, d_begin, 3);
    }
  }
}

TEST(DataflowWavefront, RejectsAnEmptyViewList) {
  ThreadPool pool(1);
  EXPECT_THROW(run_dataflow_wavefront(TiledRegion{4, 0, 7, 2}, pool, lowered<mix>(4), {}),
               std::invalid_argument);
}

// Many-thread stress: more workers than cores, many small tiles, repeated
// runs — exercises stealing, inline continuation, and the latch under
// contention. Any lost or double-executed tile breaks equality.
TEST(DataflowWavefront, ManyThreadStressBitIdentical) {
  const std::size_t dim = 257;  // non-divisible by the tile
  const TiledRegion region{dim, 0, 2 * dim - 1, 8};
  const std::vector<Cell> ref = serial_reference(region);
  ThreadPool pool(8);
  for (int rep = 0; rep < 5; ++rep) {
    ASSERT_EQ(ref, dataflow(pool, region)) << "rep=" << rep;
  }
}

/// Tile kernel that counts its calls and throws on every block starting at
/// or past the threshold row.
struct Thrower {
  std::size_t threshold;
  mutable std::atomic<int> calls{0};

  static void fn(const void* ctx, std::size_t i0, std::size_t, std::size_t, std::size_t,
                 std::size_t, const std::byte*, const std::byte*, const std::byte*,
                 std::byte*) {
    const Thrower& t = *static_cast<const Thrower*>(ctx);
    t.calls.fetch_add(1);
    if (i0 >= t.threshold) throw std::runtime_error("boom");
  }
};

// Exceptions from tiles — including tiles pushed to a deque and stolen by
// other workers — propagate to the scheduler's caller, and the pool stays
// usable afterwards.
TEST(DataflowWavefront, ExceptionFromStolenTilePropagates) {
  ThreadPool pool(4);
  const std::size_t dim = 64;
  const TiledRegion region{dim, 0, 2 * dim - 1, 4};
  Thrower thrower{dim / 2};
  std::vector<Cell> g(dim * dim, 0);
  const core::StorageView view = whole(g);
  EXPECT_THROW(
      run_dataflow_wavefront(region, pool, lowered(&Thrower::fn, dim, &thrower), {&view, 1}),
      std::runtime_error);
  EXPECT_GT(thrower.calls.load(), 0);
  // Pool reusable: a clean run still matches the reference.
  EXPECT_EQ(serial_reference(region), dataflow(pool, region));
}

// A single-worker pool runs every tile inline on the calling thread.
TEST(DataflowWavefront, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  const std::size_t dim = 31;
  const TiledRegion region{dim, 0, 2 * dim - 1, 4};
  EXPECT_EQ(serial_reference(region), dataflow(pool, region));
  for (const oracles::Block& b : oracles::record_blocks(dataflow_on(pool), region)) {
    EXPECT_EQ(b.thread, std::this_thread::get_id());
  }
}

/// run_serial_wavefront once per view, as a test runner.
void serial_per_view(const TiledRegion& region, const core::LoweredKernel& kernel,
                     std::span<const core::StorageView> views) {
  for (const core::StorageView& view : views) run_serial_wavefront(region, kernel, view);
}

/// The calls `run` issues for `region` over `n_views` views are exactly
/// the serial sweep's calls per view, in that order.
void expect_serial_calls(const oracles::Runner& run, const TiledRegion& region,
                         std::size_t n_views, const char* what) {
  const std::vector<oracles::Block> got = oracles::record_blocks(run, region, n_views);
  const std::vector<oracles::Block> want =
      oracles::record_blocks(&serial_per_view, region, n_views);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t b = 0; b < got.size(); ++b) {
    EXPECT_TRUE(got[b].same_call(want[b]))
        << what << " call " << b << ": rows " << got[b].i0 << ".." << got[b].i1 << " cols "
        << got[b].j0 << ".." << got[b].j1 << " view " << got[b].view;
  }
}

// A one-worker pool walks no tiles: both schedulers run the region as one
// run_serial_wavefront call per view — for a whole grid, a band slice, a
// strip's row window and a fused batch of three views.
TEST(OneWorkerPool, BothSchedulersRunTheSerialSweepPerView) {
  ThreadPool pool(1);
  const std::size_t dim = 20;
  for (Scheduler s : {Scheduler::kBarrier, Scheduler::kDataflow}) {
    const oracles::Runner run = [&pool, s](const TiledRegion& region,
                                           const core::LoweredKernel& kernel,
                                           std::span<const core::StorageView> views) {
      run_wavefront(s, region, pool, kernel, views);
    };
    const TiledRegion whole_grid{dim, 0, 2 * dim - 1, 4};
    expect_serial_calls(run, whole_grid, 1, scheduler_name(s));
    EXPECT_EQ(oracles::record_blocks(run, whole_grid).size(), 1u) << scheduler_name(s);
    expect_serial_calls(run, TiledRegion{dim, 6, 30, 4}, 1, scheduler_name(s));
    expect_serial_calls(run, TiledRegion{dim, 6, 30, 4, 5, 13}, 1, scheduler_name(s));
    expect_serial_calls(run, TiledRegion{dim, 9, 2 * dim - 1, 4}, 3, scheduler_name(s));
  }
}

// A dataflow region of at most two tiles has nothing to schedule, even on
// a wide pool: it runs as the serial sweep too.
TEST(DataflowWavefront, TwoTileRegionRunsTheSerialSweep) {
  ThreadPool pool(4);
  // dim 16, tile 8, rows [0, 8): tiles (0,0) and (0,1) only.
  const TiledRegion region{16, 0, 31, 8, 0, 8};
  expect_serial_calls(dataflow_on(pool), region, 1, "two tiles");
  expect_serial_calls(dataflow_on(pool), region, 3, "two tiles, three views");
  EXPECT_EQ(serial_reference(region), dataflow(pool, region));
}

TEST(DataflowWavefront, SchedulerNames) {
  EXPECT_STREQ(scheduler_name(Scheduler::kBarrier), "barrier");
  EXPECT_STREQ(scheduler_name(Scheduler::kDataflow), "dataflow");
}

TEST(DataflowWavefront, DispatcherSelectsScheduler) {
  ThreadPool pool(2);
  const std::size_t dim = 17;
  const TiledRegion region{dim, 0, 2 * dim - 1, 4};
  const std::vector<Cell> ref = serial_reference(region);
  for (Scheduler s : {Scheduler::kBarrier, Scheduler::kDataflow}) {
    std::vector<Cell> got(dim * dim, 0);
    const core::StorageView view = whole(got);
    run_wavefront(s, region, pool, lowered<mix>(dim), {&view, 1});
    EXPECT_EQ(ref, got) << scheduler_name(s);
  }
}

// --- cost model ----------------------------------------------------------

TEST(DataflowWavefrontCost, ZeroForEmptyRegion) {
  const auto cpu = sim::make_i7_3820().cpu;
  EXPECT_DOUBLE_EQ(dataflow_wavefront_cost_ns(TiledRegion{10, 4, 4, 2}, cpu, 10.0, 16), 0.0);
}

TEST(DataflowWavefrontCost, MonotoneInTsize) {
  const auto cpu = sim::make_i7_3820().cpu;
  const TiledRegion r{64, 0, 127, 8};
  EXPECT_LT(dataflow_wavefront_cost_ns(r, cpu, 10.0, 16),
            dataflow_wavefront_cost_ns(r, cpu, 100.0, 16));
}

TEST(DataflowWavefrontCost, NeverWorseThanBarrieredModel) {
  // No barrier term and no per-diagonal slot rounding: for every profile
  // and shape, the dataflow model is at most the barriered model.
  for (const auto& profile : sim::paper_systems()) {
    for (const TiledRegion& r :
         {TiledRegion{512, 0, 1023, 8}, TiledRegion{2048, 0, 4095, 16},
          TiledRegion{256, 100, 300, 4}, TiledRegion{64, 0, 127, 64}}) {
      EXPECT_LE(dataflow_wavefront_cost_ns(r, profile.cpu, 50.0, 16),
                tiled_wavefront_cost_ns(r, profile.cpu, 50.0, 16))
          << profile.name << " dim=" << r.dim << " tile=" << r.tile;
    }
  }
}

TEST(DataflowWavefrontCost, SavesAtLeastTheEliminatedBarriers) {
  // dim 2048 / tile 16 is deep in the work-bound regime (the critical
  // path is far shorter than total work / P), where the barriered model
  // pays 2M-1 = 255 barrier_ns the dataflow model simply doesn't have:
  // the modelled gain is floored by the eliminated barriers.
  const auto cpu = sim::make_i7_2600k().cpu;
  const TiledRegion r{2048, 0, 4095, 16};
  const double n_diags = 255.0;  // 2*(2048/16) - 1
  const double gain = tiled_wavefront_cost_ns(r, cpu, 10.0, 16) -
                      dataflow_wavefront_cost_ns(r, cpu, 10.0, 16);
  EXPECT_GE(gain, n_diags * cpu.barrier_ns);
}

}  // namespace
}  // namespace wavetune::cpu
