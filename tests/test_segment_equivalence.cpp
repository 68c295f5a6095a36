// Segment/per-cell equivalence: the batched SegmentKernel path must
// produce bit-identical grids to the per-cell ByteKernel path for every
// bundled app, under every schedule the executor can run (serial, tiled
// CPU, single GPU untiled/tiled, multi-GPU with halo exchange).
//
// The oracle is run_serial on a spec with the native segment kernel
// stripped, which forces the per-cell fallback adapter — i.e. the seed's
// per-cell semantics.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "core/executor.hpp"
#include "core/grid.hpp"
#include "core/spec.hpp"
#include "sim/system_profile.hpp"

namespace wavetune {
namespace {

using core::Grid;
using core::HybridExecutor;
using core::TunableParams;
using core::WavefrontSpec;

WavefrontSpec make_app_spec(const std::string& app, std::size_t dim) {
  if (app == "editdist") {
    apps::EditDistParams p;
    p.str_a = apps::random_dna(dim, 11);
    p.str_b = apps::random_dna(dim, 23);
    return apps::make_editdist_spec(p);
  }
  if (app == "seqcmp") {
    apps::SeqCmpParams p;
    p.seq_a = apps::random_dna(dim, 5);
    p.seq_b = apps::random_dna(dim, 17);
    return apps::make_seqcmp_spec(p);
  }
  if (app == "nash") {
    apps::NashParams p;
    p.dim = dim;
    p.strategies = 3;
    p.fp_iterations = 4;
    return apps::make_nash_spec(p);
  }
  apps::SyntheticParams p;
  p.dim = dim;
  p.tsize = 20.0;
  p.dsize = 2;
  p.functional_iters = 3;
  return apps::make_synthetic_spec(p);
}

class SegmentEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(SegmentEquivalence, AllSchedulesBitIdentical) {
  const auto [app, dim] = GetParam();
  const WavefrontSpec spec = make_app_spec(app, dim);
  ASSERT_TRUE(static_cast<bool>(spec.segment)) << app << " ships no native segment kernel";

  WavefrontSpec per_cell = spec;
  per_cell.segment = nullptr;  // forces the fallback adapter: seed semantics

  HybridExecutor ex(sim::make_i7_2600k(), 2);  // 4 GPUs available

  // Oracle: sequential execution through the per-cell kernel.
  Grid ref(spec.dim, spec.elem_bytes);
  ref.fill_poison();
  ex.run_serial(per_cell, ref);

  auto expect_equal = [&](const Grid& got, const std::string& label) {
    ASSERT_EQ(got.size_bytes(), ref.size_bytes());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size_bytes()), 0)
        << app << " dim=" << dim << " schedule=" << label;
  };

  // Serial, batched.
  {
    Grid g(spec.dim, spec.elem_bytes);
    g.fill_poison();
    ex.run_serial(spec, g);
    expect_equal(g, "serial");
  }

  // Tiled CPU across several tile sizes.
  for (int tile : {1, 5, 16}) {
    Grid g(spec.dim, spec.elem_bytes);
    g.fill_poison();
    ex.run(spec, core::plan_phases(spec.inputs(), TunableParams{tile, -1, -1, 1}), g);
    expect_equal(g, "cpu-tile=" + std::to_string(tile));
  }

  // Single GPU, untiled and tiled kernels.
  const auto band = static_cast<long long>(dim) / 2;
  for (int gpu_tile : {1, 8}) {
    Grid g(spec.dim, spec.elem_bytes);
    g.fill_poison();
    ex.run(spec, core::plan_phases(spec.inputs(), TunableParams{4, band, -1, gpu_tile}), g);
    expect_equal(g, "gpu-tile=" + std::to_string(gpu_tile));
  }

  // Dual GPU with halo exchange, several redundancy depths.
  for (long long halo : {0LL, 2LL, 5LL}) {
    Grid g(spec.dim, spec.elem_bytes);
    g.fill_poison();
    ex.run(spec, core::plan_phases(spec.inputs(), TunableParams{4, band, halo, 1}), g);
    expect_equal(g, "dual-gpu halo=" + std::to_string(halo));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsDims, SegmentEquivalence,
    ::testing::Combine(::testing::Values("editdist", "seqcmp", "nash", "synthetic"),
                       ::testing::Values<std::size_t>(16, 33, 48)));

// The fallback adapter itself: wraps a per-cell kernel and must visit the
// run left-to-right with correctly sliding neighbour pointers.
TEST(SegmentFallback, SlidesNeighbourPointers) {
  const std::size_t dim = 8;
  const WavefrontSpec spec = make_app_spec("synthetic", dim);
  const core::SegmentKernel fb = core::make_segment_fallback(spec.kernel, spec.elem_bytes);

  Grid a(dim, spec.elem_bytes);
  Grid b(dim, spec.elem_bytes);
  a.fill_poison();
  b.fill_poison();

  // Row-major sweep, whole rows in one fallback call vs cell-by-cell.
  for (std::size_t i = 0; i < dim; ++i) {
    fb(i, 0, dim, nullptr, i > 0 ? a.cell(i - 1, 0) : nullptr, nullptr, a.cell(i, 0));
    for (std::size_t j = 0; j < dim; ++j) {
      const std::byte* w = j > 0 ? b.cell(i, j - 1) : nullptr;
      const std::byte* n = i > 0 ? b.cell(i - 1, j) : nullptr;
      const std::byte* nw = (i > 0 && j > 0) ? b.cell(i - 1, j - 1) : nullptr;
      spec.kernel(i, j, w, n, nw, b.cell(i, j));
    }
  }
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
}

TEST(SegmentFallback, RejectsNullKernelAndZeroElem) {
  EXPECT_THROW(core::make_segment_fallback(core::ByteKernel{}, 8), std::invalid_argument);
  const WavefrontSpec spec = make_app_spec("synthetic", 4);
  EXPECT_THROW(core::make_segment_fallback(spec.kernel, 0), std::invalid_argument);
}

// Problem<T>::with_segment wires a typed batched kernel through the
// type-erased spec.
TEST(ProblemFacade, TypedSegmentMatchesPerCell) {
  struct Cell {
    std::int64_t sum;
  };
  const std::size_t dim = 12;
  auto cellk = [](std::size_t i, std::size_t j, const Cell* w, const Cell* n,
                  const Cell* nw) -> Cell {
    return Cell{static_cast<std::int64_t>(i * 31 + j) + (w ? w->sum : 0) + (n ? n->sum : 0) -
                (nw ? nw->sum : 0)};
  };
  core::Problem<Cell> plain(dim, 1.0, 0, cellk);
  core::Problem<Cell> batched(dim, 1.0, 0, cellk);
  batched.with_segment([](std::size_t i, std::size_t j0, std::size_t j1, const Cell* w,
                          const Cell* n, const Cell* nw, Cell* out) {
    std::int64_t west = w ? w->sum : 0;
    std::int64_t diag = nw ? nw->sum : 0;
    for (std::size_t j = j0; j < j1; ++j) {
      const std::int64_t north = n ? n[j - j0].sum : 0;
      const std::int64_t v = static_cast<std::int64_t>(i * 31 + j) + west + north - diag;
      out[j - j0].sum = v;
      west = v;
      diag = north;
    }
  });

  HybridExecutor ex(sim::make_i7_2600k(), 2);
  Grid ref(dim, sizeof(Cell));
  ex.run_serial(plain.spec(), ref);
  for (const TunableParams& p :
       {TunableParams{3, -1, -1, 1}, TunableParams{4, 6, -1, 1}, TunableParams{4, 6, 1, 1}}) {
    Grid g(dim, sizeof(Cell));
    g.fill_poison();
    ex.run(batched.spec(), core::plan_phases(batched.spec().inputs(), p), g);
    EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0) << p.describe();
  }
}

}  // namespace
}  // namespace wavetune
