#include "cpu/tiled_wavefront.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
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

/// The serial scheduler as a test runner (one view).
oracles::Runner serial_runner() {
  return [](const TiledRegion& region, const core::LoweredKernel& kernel,
            std::span<const core::StorageView> views) {
    ASSERT_EQ(views.size(), 1u);
    run_serial_wavefront(region, kernel, views[0]);
  };
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

// Property: the lowered serial sweep equals the cell-order serial oracle
// for any (dim, tile).
class SerialEqualsOracle : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SerialEqualsOracle, FullGrid) {
  const auto [dim, tile] = GetParam();
  const std::vector<Cell> want = serial_oracle(mix, TiledRegion{dim, 0, 2 * dim - 1, 1});

  std::vector<Cell> serial(dim * dim, 0);
  run_serial_wavefront(TiledRegion{dim, 0, 2 * dim - 1, tile}, lowered<mix>(dim), whole(serial));
  EXPECT_EQ(want, serial);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndTiles, SerialEqualsOracle,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 16, 33, 64),
                       ::testing::Values<std::size_t>(1, 2, 4, 8, 10, 100)));

// The serial sweep honours the same row window and view addressing.
TEST(TiledWavefront, SerialRowWindowedViewsMatchOracle) {
  for (const bool rebased : {false, true}) {
    oracles::expect_strips_match_oracle(serial_runner(), 23, 1, 4, {0, 9, 30, 45}, rebased);
  }
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

}  // namespace
}  // namespace wavetune::cpu
