// Kernel ABI ladder equivalence: the cell, segment, and tile rungs must
// produce bit-identical grids for every bundled app, under every schedule
// the engine can run (serial, barriered tiled CPU, dataflow CPU, and the
// full hybrid schedule including the GPU-sim tiled loop), at
// non-divisible dimensions and over band slices.
//
// ABIs are forced by stripping rungs off a copy of the spec before
// lowering: a spec with no tile and no segment kernel lowers through
// cell -> segment-fallback -> tile-fallback; a spec with no tile kernel
// lowers through the native segment kernel; the full spec lowers onto
// the native tile kernel. The oracle is the cell-ABI serial sweep.
//
// editdist and seqcmp ship two native tile kernels, scalar and AVX2 row
// scan (apps/tile_kernels.hpp); the spec picks one per host. The
// TileKernelIsa cases call each variant directly — through every
// LoweredKernel dispatch form and a fused batch — and compare each full
// grid with the cell-rung oracle. The AVX2 cases skip on hosts without
// AVX2.
//
// The NashShapeEquivalence cases sweep nash's (k, rounds) over the
// shapes that run and compare every program that reaches its tile kernel
// (serial, CPU tiles, the row-major single-GPU band plain and streamed,
// the quad-GPU halo band) with the cell-rung oracle.
//
// nash and synthetic keep their tile-kernel scratch per thread; the
// PerThreadScratch cases interleave 1-cell calls of two specs with
// different scratch shapes on the same threads and compare each grid
// with one whole-grid block() call.
//
// Also here: direct contract tests of make_tile_fallback's border-pointer
// derivation (the i0 == 0 / j0 == 0 corners) and of the LoweredKernel
// band clamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "apps/tile_kernels.hpp"
#include "core/executor.hpp"
#include "core/grid.hpp"
#include "core/lowered.hpp"
#include "core/diag.hpp"
#include "core/phase_program.hpp"
#include "core/spec.hpp"
#include "core/streaming.hpp"
#include "cpu/dataflow_wavefront.hpp"
#include "sim/system_profile.hpp"

namespace wavetune {
namespace {

using core::Grid;
using core::HybridExecutor;
using core::LoweredKernel;
using core::TunableParams;
using core::WavefrontSpec;

WavefrontSpec make_app_spec(const std::string& app, std::size_t dim) {
  if (app == "editdist") {
    apps::EditDistParams p;
    p.str_a = apps::random_dna(dim, 31);
    p.str_b = apps::random_dna(dim, 47);
    return apps::make_editdist_spec(p);
  }
  if (app == "seqcmp") {
    apps::SeqCmpParams p;
    p.seq_a = apps::random_dna(dim, 7);
    p.seq_b = apps::random_dna(dim, 13);
    return apps::make_seqcmp_spec(p);
  }
  if (app == "nash") {
    apps::NashParams p;
    p.dim = dim;
    p.strategies = 3;
    p.fp_iterations = 3;
    return apps::make_nash_spec(p);
  }
  apps::SyntheticParams p;
  p.dim = dim;
  p.tsize = 15.0;
  p.dsize = 2;
  p.functional_iters = 3;
  return apps::make_synthetic_spec(p);
}

/// The three rungs, forced by stripping the wider kernels.
enum class Abi { kCell, kSegment, kTile };

const char* abi_name(Abi a) {
  return a == Abi::kCell ? "cell" : a == Abi::kSegment ? "segment" : "tile";
}

WavefrontSpec with_abi(const WavefrontSpec& spec, Abi abi) {
  WavefrontSpec s = spec;
  if (abi != Abi::kTile) s.tile = core::TileKernel{};
  if (abi == Abi::kCell) s.segment = core::SegmentKernel{};
  return s;
}

class TileKernelEquivalence : public ::testing::TestWithParam<std::string> {};

/// Every app x every schedule x every ABI: bit-identical to the cell-ABI
/// serial oracle. dim = 37 with cpu_tile = 8 exercises ragged edge tiles
/// (37 = 4*8 + 5); the hybrid tunings slice the grid into CPU band /
/// GPU band / CPU band, exercising the band-clamped (partial-tile)
/// lowered dispatch on both CPU phases and the GPU-sim tiled loop.
TEST_P(TileKernelEquivalence, AllSchedulesAllAbisBitIdentical) {
  const std::string app = GetParam();
  const std::size_t dim = 37;  // not divisible by any tile below
  const WavefrontSpec full = make_app_spec(app, dim);
  HybridExecutor exec(sim::make_i7_2600k(), 3);

  Grid oracle(dim, full.elem_bytes);
  exec.run_serial(with_abi(full, Abi::kCell), oracle);

  struct Schedule {
    const char* name;
    TunableParams params;
    cpu::Scheduler scheduler;
    bool serial;
  };
  const Schedule schedules[] = {
      {"serial", TunableParams{1, -1, -1, 1}, cpu::Scheduler::kBarrier, true},
      {"cpu-tiled", TunableParams{8, -1, -1, 1}, cpu::Scheduler::kBarrier, false},
      {"cpu-dataflow", TunableParams{8, -1, -1, 1}, cpu::Scheduler::kDataflow, false},
      // Band slice, untiled GPU: clamped row segments on the diagonals.
      {"hybrid-untiled", TunableParams{8, 9, -1, 1}, cpu::Scheduler::kBarrier, false},
      // Band slice, tiled GPU: the GPU-sim tiled loop's one-call-per-tile
      // dispatch with tiles straddling the band edges.
      {"hybrid-gputiled", TunableParams{8, 9, -1, 5}, cpu::Scheduler::kBarrier, false},
      // Dual GPU with halo exchange: the per-diagonal 1x1-block path.
      {"hybrid-dual", TunableParams{8, 9, 2, 1}, cpu::Scheduler::kBarrier, false},
  };

  for (const Schedule& sched : schedules) {
    for (const Abi abi : {Abi::kCell, Abi::kSegment, Abi::kTile}) {
      const WavefrontSpec spec = with_abi(full, abi);
      Grid grid(dim, spec.elem_bytes);
      grid.fill_poison();
      if (sched.serial) {
        exec.run_serial(spec, grid);
      } else {
        exec.run(spec, sched.params, grid, nullptr, sched.scheduler);
      }
      ASSERT_EQ(0, std::memcmp(oracle.data(), grid.data(), oracle.size_bytes()))
          << app << " schedule=" << sched.name << " abi=" << abi_name(abi);
    }
  }
}

/// Band slices through the CPU schedulers directly: regions whose
/// d_begin/d_end force every tile through the clamped (non-fast-path)
/// lowered dispatch, compared across all three ABIs.
TEST_P(TileKernelEquivalence, BandSlicedRegionsBitIdentical) {
  const std::string app = GetParam();
  const std::size_t dim = 29;
  const WavefrontSpec full = make_app_spec(app, dim);
  HybridExecutor exec(sim::make_i7_2600k(), 3);

  // Pure-CPU band runs: phase 1 computes [0, d0), phase 3 [d1, 2*dim-1)
  // via run(); the band in between runs on the simulated GPU. Comparing
  // whole grids still works because every cell is computed by one of the
  // three phases.
  for (const long long band : {3LL, 11LL}) {
    Grid oracle(dim, full.elem_bytes);
    exec.run(with_abi(full, Abi::kCell), TunableParams{5, band, -1, 1}, oracle);
    for (const Abi abi : {Abi::kSegment, Abi::kTile}) {
      for (const cpu::Scheduler s : {cpu::Scheduler::kBarrier, cpu::Scheduler::kDataflow}) {
        Grid grid(dim, full.elem_bytes);
        grid.fill_poison();
        exec.run(with_abi(full, abi), TunableParams{5, band, -1, 1}, grid, nullptr, s);
        ASSERT_EQ(0, std::memcmp(oracle.data(), grid.data(), oracle.size_bytes()))
            << app << " band=" << band << " abi=" << abi_name(abi)
            << " sched=" << cpu::scheduler_name(s);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, TileKernelEquivalence,
                         ::testing::Values("editdist", "seqcmp", "nash", "synthetic"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- nash at the (k, rounds) shapes that run -----------------------------

/// The nash tile kernel looks its counts and count*log(count) terms up in
/// per-spec tables and hashes from a per-cell prefix; the cell rung runs
/// solve_cell, which does neither. Every (k, rounds) shape that runs —
/// perfbench's (4, 1), the default (8, 32) and corners around them — must
/// reproduce the cell-rung serial grid byte for byte under each program
/// that reaches the tile kernel: the serial sweep, barriered CPU tiles,
/// the untiled single-GPU band (one row-major band-clamped call per
/// member), that band streamed in strips under a residency cap, and the
/// quad-GPU halo band (1x1 calls in diagonal order).
class NashShapeEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(NashShapeEquivalence, EveryProgramMatchesCellRungSerial) {
  const auto [k, rounds] = GetParam();
  const std::size_t dim = 37;  // prime: no tile or strip height divides it
  apps::NashParams p;
  p.dim = dim;
  p.strategies = k;
  p.fp_iterations = rounds;
  p.seed = 2024;
  const WavefrontSpec spec = apps::make_nash_spec(p);
  ASSERT_TRUE(spec.lower().native);
  HybridExecutor exec(sim::make_i7_2600k(), 2);  // four simulated GPUs

  Grid oracle(dim, spec.elem_bytes);
  exec.run_serial(with_abi(spec, Abi::kCell), oracle);

  Grid serial(dim, spec.elem_bytes);
  serial.fill_poison();
  exec.run_serial(spec, serial);
  ASSERT_EQ(0, std::memcmp(oracle.data(), serial.data(), oracle.size_bytes()))
      << "k=" << k << " rounds=" << rounds << " program=serial";

  const core::InputParams in = spec.inputs();
  const TunableParams band{8, 9, -1, 1};
  TunableParams quad{8, 9, 2, 1};
  quad.gpus = 4;
  core::PlanConstraints cap;
  cap.max_resident_bytes = core::whole_grid_resident_bytes(dim, spec.elem_bytes) / 6;
  const struct {
    const char* name;
    core::PhaseProgram program;
  } programs[] = {
      {"cpu-tiled", core::plan_phases(in, TunableParams{8, -1, -1, 1})},
      {"single-gpu-band", core::plan_phases(in, band)},
      {"streamed-band",
       core::plan_phases_streamed(in, band, cpu::Scheduler::kBarrier, cap)},
      {"quad-gpu-halo", core::plan_phases(in, quad)},
  };
  // The streamed program really splits its GPU band into several strips,
  // and the quad program really runs four devices.
  std::size_t gpu_strips = 0;
  for (const core::PhaseDesc& ph : programs[2].program.phases) {
    if (!ph.is_cpu() && ph.streamed()) gpu_strips += ph.strip_count(dim);
  }
  ASSERT_GT(gpu_strips, 1u);
  ASSERT_EQ(programs[3].program.max_gpu_count(), 4);

  for (const auto& prog : programs) {
    Grid grid(dim, spec.elem_bytes);
    grid.fill_poison();
    exec.run(spec, prog.program, grid);
    ASSERT_EQ(0, std::memcmp(oracle.data(), grid.data(), oracle.size_bytes()))
        << "k=" << k << " rounds=" << rounds << " program=" << prog.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KRounds, NashShapeEquivalence,
    ::testing::Values(std::make_tuple(std::size_t{2}, std::size_t{1}),
                      std::make_tuple(std::size_t{4}, std::size_t{1}),
                      std::make_tuple(std::size_t{3}, std::size_t{3}),
                      std::make_tuple(std::size_t{5}, std::size_t{7}),
                      std::make_tuple(std::size_t{8}, std::size_t{32})),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, std::size_t>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_rounds" +
             std::to_string(std::get<1>(info.param));
    });

// --- ISA variants of the editdist / seqcmp native tile kernels ----------

enum class Isa { kScalar, kAvx2 };

const char* isa_name(Isa isa) { return isa == Isa::kScalar ? "scalar" : "avx2"; }

void PrintTo(Isa isa, std::ostream* os) { *os << isa_name(isa); }

/// One input of an integer app: its strings and its three costs (editdist:
/// substitution, insertion, deletion; seqcmp: match, mismatch, gap).
struct IsaInput {
  std::string label;
  std::string a;
  std::string b;
  std::int32_t cost[3];
};

/// All-match, no-match and random strings, each under five cost sets.
std::vector<IsaInput> isa_inputs(const std::string& app, std::size_t dim) {
  // Per app: its defaults, non-unit costs, negative / mixed-sign costs (a
  // negative seqcmp gap is a bonus, so scores grow along gaps; with a
  // positive match a row's best_seen then comes from its own scores, not
  // from any term of the north row), and zero costs (a zero gap is where
  // the seqcmp row scan's two cases meet).
  const std::int32_t edit_costs[5][3] = {
      {1, 1, 1}, {3, 2, 5}, {-2, -1, 3}, {4, -2, 1}, {0, 1, 0}};
  const std::int32_t seq_costs[5][3] = {
      {3, -1, 2}, {5, -4, 3}, {-2, -3, -1}, {3, -5, -1}, {1, 0, 0}};
  const auto& costs = app == "editdist" ? edit_costs : seq_costs;
  const std::pair<std::string, std::pair<std::string, std::string>> strings[] = {
      {"all-match", {std::string(dim, 'A'), std::string(dim, 'A')}},
      {"no-match", {std::string(dim, 'A'), std::string(dim, 'C')}},
      {"random", {apps::random_dna(dim, 71), apps::random_dna(dim, 73)}},
  };
  std::vector<IsaInput> out;
  for (const auto& [name, ab] : strings) {
    for (std::size_t k = 0; k < 5; ++k) {
      out.push_back(IsaInput{name + " costs=" + std::to_string(costs[k][0]) + "," +
                                 std::to_string(costs[k][1]) + "," + std::to_string(costs[k][2]),
                             ab.first, ab.second, {costs[k][0], costs[k][1], costs[k][2]}});
    }
  }
  return out;
}

WavefrontSpec isa_spec(const std::string& app, const IsaInput& in) {
  if (app == "editdist") {
    apps::EditDistParams p;
    p.str_a = in.a;
    p.str_b = in.b;
    p.substitution = in.cost[0];
    p.insertion = in.cost[1];
    p.deletion = in.cost[2];
    return apps::make_editdist_spec(p);
  }
  apps::SeqCmpParams p;
  p.seq_a = in.a;
  p.seq_b = in.b;
  p.match = in.cost[0];
  p.mismatch = in.cost[1];
  p.gap = in.cost[2];
  return apps::make_seqcmp_spec(p);
}

/// The kernel variant under test; null when this host cannot run it.
core::TileKernelFn isa_kernel(const std::string& app, Isa isa) {
  if (app == "editdist") {
    return isa == Isa::kScalar ? apps::detail::editdist_scalar_tile_kernel()
                               : apps::detail::editdist_avx2_tile_kernel();
  }
  return isa == Isa::kScalar ? apps::detail::seqcmp_scalar_tile_kernel()
                             : apps::detail::seqcmp_avx2_tile_kernel();
}

class TileKernelIsa : public ::testing::TestWithParam<std::tuple<std::string, Isa>> {
protected:
  void SetUp() override {
    app_ = std::get<0>(GetParam());
    fn_ = isa_kernel(app_, std::get<1>(GetParam()));
    if (!fn_) GTEST_SKIP() << "this host has no AVX2";
  }

  /// `spec` with its tile rung switched to the variant under test.
  WavefrontSpec variant(const WavefrontSpec& spec) const {
    WavefrontSpec s = spec;
    s.tile.fn = fn_;
    return s;
  }

  /// The cell-rung serial sweep of `spec`.
  Grid oracle(const WavefrontSpec& spec) const {
    Grid g(spec.dim, spec.elem_bytes);
    exec_.run_serial(with_abi(spec, Abi::kCell), g);
    return g;
  }

  /// Runs `sweep(kernel, grid)` with the variant's LoweredKernel on a
  /// poisoned grid for every input and compares with the oracle.
  template <typename Sweep>
  void expect_matches_oracle(std::size_t dim, const std::string& what, const Sweep& sweep) {
    for (const IsaInput& in : isa_inputs(app_, dim)) {
      const WavefrontSpec spec = isa_spec(app_, in);
      const Grid want = oracle(spec);
      const LoweredKernel k = variant(spec).lower();
      Grid got(dim, spec.elem_bytes);
      got.fill_poison();
      sweep(k, got);
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.size_bytes()))
          << app_ << " " << what << " dim=" << dim << " " << in.label;
    }
  }

  std::string app_;
  core::TileKernelFn fn_ = nullptr;
  HybridExecutor exec_{sim::make_i7_2600k(), 2};
};

/// Row-major sweep of h x w blocks; h == w == dim is one whole-grid call.
void sweep_blocks(const LoweredKernel& k, Grid& g, std::size_t h, std::size_t w) {
  const std::size_t dim = g.dim();
  for (std::size_t i = 0; i < dim; i += h) {
    for (std::size_t j = 0; j < dim; j += w) {
      k.block({g.data(), 0}, i, std::min(dim, i + h), j, std::min(dim, j + w));
    }
  }
}

/// Block widths 1..40 (mostly not multiples of 8, so every vector tail
/// length), at block heights 1 and 7. The blocks of the first block row
/// and column carry the i == 0 border row and the j0 == 0 border column.
TEST_P(TileKernelIsa, EveryBlockWidthBitIdentical) {
  const std::size_t dim = 43;
  for (std::size_t w = 1; w <= 40; ++w) {
    for (const std::size_t h : {std::size_t{1}, std::size_t{7}}) {
      expect_matches_oracle(dim, "block " + std::to_string(h) + "x" + std::to_string(w),
                            [&](const LoweredKernel& k, Grid& g) { sweep_blocks(k, g, h, w); });
    }
  }
}

/// One call over the whole grid: the border row and column in a single
/// block, at sizes below, at and around the vector width.
TEST_P(TileKernelIsa, WholeGridBlockBitIdentical) {
  for (const std::size_t dim : {1, 2, 7, 8, 9, 15, 16, 17, 24, 33, 64}) {
    expect_matches_oracle(dim, "whole-grid",
                          [&](const LoweredKernel& k, Grid& g) { sweep_blocks(k, g, dim, dim); });
  }
}

/// Band-clamped tile(): tiles straddling a band edge degrade to one
/// single-row block per clamped row, of every width up to the tile's.
TEST_P(TileKernelIsa, BandClampedTilesBitIdentical) {
  const std::size_t dim = 43;
  const std::size_t cuts[] = {0, 13, 37, 60, core::num_diagonals(dim)};
  for (const std::size_t tile : {std::size_t{9}, std::size_t{20}}) {
    expect_matches_oracle(dim, "band tile=" + std::to_string(tile),
                          [&](const LoweredKernel& k, Grid& g) {
                            for (std::size_t b = 0; b + 1 < std::size(cuts); ++b) {
                              for (std::size_t i = 0; i < dim; i += tile) {
                                for (std::size_t j = 0; j < dim; j += tile) {
                                  k.tile({g.data(), 0}, i, std::min(dim, i + tile), j,
                                         std::min(dim, j + tile), cuts[b], cuts[b + 1]);
                                }
                              }
                            }
                          });
  }
}

/// Strip-local block(): each strip of rows runs in a row-window
/// buffer whose first row is the halo (the last row of the strip above),
/// as the streaming executor lays it out; the kernel sees absolute
/// coordinates and rebased storage.
TEST_P(TileKernelIsa, StripLocalBlocksBitIdentical) {
  const std::size_t dim = 43;
  const std::size_t strip = 6;
  const std::size_t w = 12;
  expect_matches_oracle(dim, "strips", [&](const LoweredKernel& k, Grid& g) {
    const std::size_t row_bytes = dim * k.elem_bytes;
    std::vector<std::byte> window((strip + 1) * row_bytes);
    for (std::size_t s0 = 0; s0 < dim; s0 += strip) {
      const std::size_t s1 = std::min(dim, s0 + strip);
      const std::size_t base_row = s0 == 0 ? 0 : s0 - 1;
      std::fill(window.begin(), window.end(), Grid::kPoison);
      if (s0 > 0) std::memcpy(window.data(), g.cell(base_row, 0), row_bytes);
      for (std::size_t j = 0; j < dim; j += w) {
        k.block({window.data(), base_row}, s0, s1, j, std::min(dim, j + w));
      }
      std::memcpy(g.cell(s0, 0), window.data() + (s0 - base_row) * row_bytes,
                  (s1 - s0) * row_bytes);
    }
  });
}

/// A fused batch (HybridExecutor::run_batch) of three grids, on a CPU-only
/// and on a hybrid program (CPU phases around a simulated-GPU band): every
/// member bit-identical to the oracle.
TEST_P(TileKernelIsa, FusedBatchBitIdentical) {
  const std::size_t dim = 37;
  for (const IsaInput& in : isa_inputs(app_, dim)) {
    const WavefrontSpec spec = variant(isa_spec(app_, in));
    const Grid want = oracle(spec);
    for (const TunableParams& params : {TunableParams{8, -1, -1, 1}, TunableParams{8, 9, -1, 1}}) {
      const core::PhaseProgram program = core::plan_phases(spec.inputs(), params);
      std::vector<Grid> grids;
      grids.reserve(3);
      std::vector<core::BatchMember> members;
      for (int m = 0; m < 3; ++m) {
        grids.emplace_back(dim, spec.elem_bytes).fill_poison();
        members.push_back(core::BatchMember{&grids.back(), nullptr});
      }
      const std::vector<core::BatchOutcome> outcomes = exec_.run_batch(spec, program, members);
      ASSERT_EQ(outcomes.size(), grids.size());
      for (std::size_t m = 0; m < grids.size(); ++m) {
        ASSERT_EQ(outcomes[m].stop, core::RunControl::Stop::kNone);
        ASSERT_EQ(0, std::memcmp(want.data(), grids[m].data(), want.size_bytes()))
            << app_ << " " << program.describe() << " member " << m << " " << in.label;
      }
    }
  }
}

/// The scalar kernels switch from pair-blocked to single-row sweeps when
/// a block is wide AND the grid row stride is large (width > 32 and
/// stride > 8 KiB); the other cases run at small dims where that branch
/// never engages, so pin it here: dim 1040 (stride 8320 for 8-byte cells)
/// through run_serial (one whole-grid call, width 1040) and a tiled run
/// of 64-wide blocks. For the AVX2 variant these are its longest rows.
TEST_P(TileKernelIsa, WideBlocksAtLargeStrideBitIdentical) {
  const std::size_t dim = 1040;
  const WavefrontSpec spec = variant(make_app_spec(app_, dim));
  ASSERT_GT(dim * spec.elem_bytes, std::size_t{8192});  // stride engages the branch
  const Grid want = oracle(spec);
  Grid serial(dim, spec.elem_bytes);
  serial.fill_poison();
  exec_.run_serial(spec, serial);
  ASSERT_EQ(0, std::memcmp(want.data(), serial.data(), want.size_bytes())) << app_;
  Grid tiled(dim, spec.elem_bytes);
  tiled.fill_poison();
  exec_.run(spec, TunableParams{64, -1, -1, 1}, tiled);
  ASSERT_EQ(0, std::memcmp(want.data(), tiled.data(), want.size_bytes())) << app_;
}

INSTANTIATE_TEST_SUITE_P(
    IntegerApps, TileKernelIsa,
    ::testing::Combine(::testing::Values("editdist", "seqcmp"),
                       ::testing::Values(Isa::kScalar, Isa::kAvx2)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, Isa>>& info) {
      return std::get<0>(info.param) + "_" + isa_name(std::get<1>(info.param));
    });

// --- make_tile_fallback border-pointer contract --------------------------

/// One recorded segment invocation: the row index, span, and the exact
/// pointers the fallback adapter derived.
struct SegCall {
  std::size_t i, j0, j1;
  const std::byte* w;
  const std::byte* n;
  const std::byte* nw;
  std::byte* out;
};

TEST(TileFallback, TopLeftCornerPassesNullBorders) {
  // 4x4 grid of 1-byte cells; block [0,2) x [0,2) sits on both borders.
  const std::size_t dim = 4, elem = 1;
  std::vector<std::byte> storage(dim * dim * elem);
  std::vector<SegCall> calls;
  core::SegmentKernel rec = [&](std::size_t i, std::size_t j0, std::size_t j1,
                                const std::byte* w, const std::byte* n, const std::byte* nw,
                                std::byte* out) {
    calls.push_back(SegCall{i, j0, j1, w, n, nw, out});
  };
  const core::TileKernel fb = core::make_tile_fallback(rec, elem);
  const std::size_t stride = dim * elem;
  fb.fn(fb.ctx.get(), 0, 2, 0, 2, stride, nullptr, nullptr, nullptr, storage.data());

  ASSERT_EQ(calls.size(), 2u);
  // Row 0: all borders null.
  EXPECT_EQ(calls[0].i, 0u);
  EXPECT_EQ(calls[0].j0, 0u);
  EXPECT_EQ(calls[0].j1, 2u);
  EXPECT_EQ(calls[0].w, nullptr);
  EXPECT_EQ(calls[0].n, nullptr);
  EXPECT_EQ(calls[0].nw, nullptr);
  EXPECT_EQ(calls[0].out, storage.data());
  // Row 1: west/northwest still the j0 == 0 border (null), but north is
  // the block's own previous output row.
  EXPECT_EQ(calls[1].i, 1u);
  EXPECT_EQ(calls[1].w, nullptr);
  EXPECT_EQ(calls[1].nw, nullptr);
  EXPECT_EQ(calls[1].n, storage.data());
  EXPECT_EQ(calls[1].out, storage.data() + stride);
}

TEST(TileFallback, InteriorBlockDerivesSlidingRowPointers) {
  // Block [1,3) x [2,4) of a 4x4 grid of 2-byte cells: no border is null,
  // and each row's pointers step by the row stride.
  const std::size_t dim = 4, elem = 2;
  std::vector<std::byte> storage(dim * dim * elem);
  std::vector<SegCall> calls;
  core::SegmentKernel rec = [&](std::size_t i, std::size_t j0, std::size_t j1,
                                const std::byte* w, const std::byte* n, const std::byte* nw,
                                std::byte* out) {
    calls.push_back(SegCall{i, j0, j1, w, n, nw, out});
  };
  const core::TileKernel fb = core::make_tile_fallback(rec, elem);
  const std::size_t stride = dim * elem;
  const auto cell = [&](std::size_t i, std::size_t j) {
    return storage.data() + i * stride + j * elem;
  };
  fb.fn(fb.ctx.get(), 1, 3, 2, 4, stride, cell(1, 1), cell(0, 2), cell(0, 1), cell(1, 2));

  ASSERT_EQ(calls.size(), 2u);
  // Row 1 (first of the block): the corner pointers pass through.
  EXPECT_EQ(calls[0].w, cell(1, 1));
  EXPECT_EQ(calls[0].n, cell(0, 2));
  EXPECT_EQ(calls[0].nw, cell(0, 1));
  EXPECT_EQ(calls[0].out, cell(1, 2));
  // Row 2: west is (2,1), north the previous output row (1,2), northwest
  // (1,1) — all derived from the block corner plus the stride.
  EXPECT_EQ(calls[1].w, cell(2, 1));
  EXPECT_EQ(calls[1].n, cell(1, 2));
  EXPECT_EQ(calls[1].nw, cell(1, 1));
  EXPECT_EQ(calls[1].out, cell(2, 2));
}

TEST(TileFallback, TopRowOnlyBorderKeepsWestPointers) {
  // Block [0,2) x [2,4): i0 == 0 border (north/northwest null at the
  // corner) but j0 > 0, so west pointers must survive on every row and
  // row 1's northwest must be derived from the output row above.
  const std::size_t dim = 4, elem = 1;
  std::vector<std::byte> storage(dim * dim * elem);
  std::vector<SegCall> calls;
  core::SegmentKernel rec = [&](std::size_t i, std::size_t j0, std::size_t j1,
                                const std::byte* w, const std::byte* n, const std::byte* nw,
                                std::byte* out) {
    calls.push_back(SegCall{i, j0, j1, w, n, nw, out});
  };
  const core::TileKernel fb = core::make_tile_fallback(rec, elem);
  const std::size_t stride = dim * elem;
  const auto cell = [&](std::size_t i, std::size_t j) { return storage.data() + i * stride + j; };
  fb.fn(fb.ctx.get(), 0, 2, 2, 4, stride, cell(0, 1), nullptr, nullptr, cell(0, 2));

  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].w, cell(0, 1));
  EXPECT_EQ(calls[0].n, nullptr);
  EXPECT_EQ(calls[0].nw, nullptr);
  EXPECT_EQ(calls[1].w, cell(1, 1));
  EXPECT_EQ(calls[1].n, cell(0, 2));
  EXPECT_EQ(calls[1].nw, cell(0, 1));
}

TEST(TileFallback, RejectsNullKernelAndZeroElem) {
  EXPECT_THROW(core::make_tile_fallback(core::SegmentKernel{}, 4), std::invalid_argument);
  core::SegmentKernel ok = [](std::size_t, std::size_t, std::size_t, const std::byte*,
                              const std::byte*, const std::byte*, std::byte*) {};
  EXPECT_THROW(core::make_tile_fallback(ok, 0), std::invalid_argument);
}

// --- per-thread kernel scratch -------------------------------------------

/// Computes `a` and `b` (same dim) cell by cell in diagonal order, one
/// 1-cell block() per cell, alternating between the two specs on every
/// cell — the call pattern of a simulated-GPU diagonal, with the scratch
/// shape switching on each call. Two threads run the sweep at once, each
/// on its own grids, so the per-thread scratch of both is exercised.
void expect_interleaved_cells_match_whole_grid(const WavefrontSpec& a, const WavefrontSpec& b) {
  ASSERT_EQ(a.dim, b.dim);
  const std::size_t dim = a.dim;
  const LoweredKernel la = a.lower();
  const LoweredKernel lb = b.lower();
  ASSERT_TRUE(la.native);
  ASSERT_TRUE(lb.native);
  Grid whole_a(dim, a.elem_bytes);
  Grid whole_b(dim, b.elem_bytes);
  la.block({whole_a.data(), 0}, 0, dim, 0, dim);
  lb.block({whole_b.data(), 0}, 0, dim, 0, dim);

  constexpr int kThreads = 2;
  std::vector<Grid> cells_a, cells_b;
  for (int t = 0; t < kThreads; ++t) {
    cells_a.emplace_back(dim, a.elem_bytes);
    cells_b.emplace_back(dim, b.elem_bytes);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t d = 0; d < core::num_diagonals(dim); ++d) {
        for (std::size_t i = core::diag_row_lo(dim, d); i <= core::diag_row_hi(dim, d); ++i) {
          la.block({cells_a[t].data(), 0}, i, i + 1, d - i, d - i + 1);
          lb.block({cells_b[t].data(), 0}, i, i + 1, d - i, d - i + 1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(0, std::memcmp(cells_a[t].data(), whole_a.data(), whole_a.size_bytes()))
        << "thread " << t;
    EXPECT_EQ(0, std::memcmp(cells_b[t].data(), whole_b.data(), whole_b.size_bytes()))
        << "thread " << t;
  }
}

TEST(PerThreadScratch, NashCellsAlternatingStrategyCountsMatchWholeGridBlock) {
  apps::NashParams p;
  p.dim = 13;
  p.fp_iterations = 3;
  p.strategies = 3;
  const WavefrontSpec three = apps::make_nash_spec(p);
  p.strategies = 5;
  p.seed = 99;
  const WavefrontSpec five = apps::make_nash_spec(p);
  expect_interleaved_cells_match_whole_grid(three, five);
}

TEST(PerThreadScratch, SyntheticCellsAlternatingDsizesMatchWholeGridBlock) {
  apps::SyntheticParams p;
  p.dim = 13;
  p.tsize = 15.0;
  p.functional_iters = 3;
  p.dsize = 1;
  const WavefrontSpec one = apps::make_synthetic_spec(p);
  p.dsize = 4;
  p.seed = 7;
  const WavefrontSpec four = apps::make_synthetic_spec(p);
  expect_interleaved_cells_match_whole_grid(one, four);
}

// --- LoweredKernel band clamp --------------------------------------------

TEST(LoweredKernel, TileDispatchClampsToBand) {
  // Record every block the lowered dispatch issues for a banded tile.
  struct Rec {
    std::vector<SegCall> calls;
  };
  Rec rec;
  LoweredKernel k;
  k.dim = 8;
  k.elem_bytes = 1;
  k.ctx = &rec;
  k.fn = [](const void* ctx, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
            std::size_t, const std::byte* w, const std::byte* n, const std::byte* nw,
            std::byte* out) {
    auto* r = const_cast<Rec*>(static_cast<const Rec*>(ctx));
    r->calls.push_back(SegCall{i0, j0, j1, w, n, nw, out});
    (void)i1;
  };
  std::vector<std::byte> storage(8 * 8);

  // Fully in band: exactly ONE call covering the whole tile.
  k.tile({storage.data(), 0}, 2, 4, 2, 4, 0, 15);
  ASSERT_EQ(rec.calls.size(), 1u);
  EXPECT_EQ(rec.calls[0].i, 2u);
  EXPECT_EQ(rec.calls[0].j0, 2u);
  EXPECT_EQ(rec.calls[0].j1, 4u);

  // Band [5, 7): row 2 keeps cols [3,4), row 3 keeps [2,4) — one clamped
  // single-row call each.
  rec.calls.clear();
  k.tile({storage.data(), 0}, 2, 4, 2, 4, 5, 7);
  ASSERT_EQ(rec.calls.size(), 2u);
  EXPECT_EQ(rec.calls[0].i, 2u);
  EXPECT_EQ(rec.calls[0].j0, 3u);
  EXPECT_EQ(rec.calls[0].j1, 4u);
  EXPECT_EQ(rec.calls[1].i, 3u);
  EXPECT_EQ(rec.calls[1].j0, 2u);
  EXPECT_EQ(rec.calls[1].j1, 4u);

  // Band entirely past the tile: no calls at all.
  rec.calls.clear();
  k.tile({storage.data(), 0}, 2, 4, 2, 4, 10, 15);
  EXPECT_TRUE(rec.calls.empty());
}

}  // namespace
}  // namespace wavetune
