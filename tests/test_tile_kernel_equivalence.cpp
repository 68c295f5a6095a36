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
// nash ships a scalar, an AVX2 and an AVX-512 tile kernel (four or eight
// cells per step along a row group's anti-diagonals), and each vector one
// a band-clamped entry that takes a band-straddling tile in one call. The
// NashShapeEquivalence cases sweep nash's (k, rounds) over the shapes that
// run and compare every program that reaches the spec's tile kernel
// (serial, CPU tiles, the single-GPU band plain and streamed, the quad-GPU
// halo band) with the cell-rung oracle; the NashIsaSweep cases call each
// vector variant and the scalar one directly on small block shapes and
// diagonal ranges and compare them byte for byte; and TileKernelPick
// checks that every spec ships the widest kernel its host runs.
//
// The MultiGpuRowsEquivalence cases sweep the multi-GPU halo band itself
// (every app, 2-8 devices, halo depths up to max_halo_multi, grid sides no
// device count divides, narrow to full bands) on poison-filled grids:
// each device holds only its row window and computes one band-clamped
// tile call per swap epoch, so the grid must still equal the serial one,
// the run's simulated breakdown must equal the estimate's, and the peak
// device residency must be exactly the row windows.
//
// nash and synthetic keep their tile-kernel scratch per thread; the
// PerThreadScratch cases interleave 1-cell calls of two specs with
// different scratch shapes on the same threads and compare each grid
// with one whole-grid block() call.
//
// Also here: direct contract tests of make_tile_fallback's border-pointer
// derivation (the i0 == 0 / j0 == 0 corners) and of the LoweredKernel
// band clamp: the exact calls issued to kernels with and without a
// band-clamped entry (one per straddling tile, or one block per clamped
// row), exactly-once coverage in dependency order over many bands and
// tiles, and every app's grid over bands narrower than, as wide as and
// wider than a nash row group.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>
#include <span>
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
#include "ocl/buffer.hpp"
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
      // Dual GPU with halo exchange: row windows, one tile call per
      // device per swap epoch.
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

/// tile()'s band dispatch on the spec's own kernel (nash's band-clamped
/// entry on AVX2 hosts, per-row blocks otherwise): the grid cut into bands
/// narrower than, as wide as and wider than nash's 4-row groups, each band
/// swept as one whole-grid tile() call and as 9x9 tiles in row-major
/// order, must equal the cell-rung serial grid.
TEST_P(TileKernelEquivalence, GroupedBandDispatchBitIdentical) {
  const std::string app = GetParam();
  const std::size_t dim = 37;
  const WavefrontSpec spec = make_app_spec(app, dim);
  HybridExecutor exec(sim::make_i7_2600k(), 2);
  Grid oracle(dim, spec.elem_bytes);
  exec.run_serial(with_abi(spec, Abi::kCell), oracle);
  const LoweredKernel k = spec.lower();
  const std::size_t n_diags = core::num_diagonals(dim);
  constexpr std::size_t G = 4;  // rows per nash vector walk
  for (const std::size_t width : {G - 2, G - 1, G, G + 1, 3 * G, 4 * G + 3}) {
    for (const std::size_t tile : {std::size_t{9}, dim}) {
      Grid grid(dim, spec.elem_bytes);
      grid.fill_poison();
      for (std::size_t d = 0; d < n_diags; d += width) {
        for (std::size_t i = 0; i < dim; i += tile) {
          for (std::size_t j = 0; j < dim; j += tile) {
            k.tile({grid.data(), 0}, i, std::min(dim, i + tile), j, std::min(dim, j + tile), d,
                   std::min(n_diags, d + width));
          }
        }
      }
      ASSERT_EQ(0, std::memcmp(oracle.data(), grid.data(), oracle.size_bytes()))
          << app << " band width=" << width << " tile=" << tile;
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
/// quad-GPU halo band (one row-major call per device per swap epoch).
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

// --- the multi-GPU halo band by rows ------------------------------------

/// Bytes of device storage a lone run of a single `gpus`-way phase with
/// halo `halo` holds: device g stores rows [split[g] - halo - 1, split[g+1])
/// (from row 0 for device 0) of a dim-wide grid, split[g] = dim * g / gpus.
std::size_t row_window_bytes(std::size_t dim, std::size_t elem_bytes, std::size_t gpus,
                             long long halo) {
  std::size_t rows = 0;
  for (std::size_t g = 0; g < gpus; ++g) {
    const auto lo = static_cast<long long>(dim * g / gpus) - (g == 0 ? 0 : halo + 1);
    rows += dim * (g + 1) / gpus - static_cast<std::size_t>(std::max(0LL, lo));
  }
  return rows * dim * elem_bytes;
}

class MultiGpuRowsEquivalence : public ::testing::TestWithParam<std::string> {};

/// Every (dim, gpus, halo, band) of the sweep on one app: the grid equals
/// the serial one, the run's breakdown equals the estimate's phase by
/// phase, and the peak device residency is exactly the row windows.
TEST_P(MultiGpuRowsEquivalence, GridBreakdownAndResidency) {
  const std::string app = GetParam();
  sim::SystemProfile eight = sim::make_i7_2600k();
  eight.gpus.resize(8, eight.gpus.front());
  HybridExecutor exec(eight, 2);
  std::size_t runs = 0;
  for (const std::size_t dim : {std::size_t{37}, std::size_t{50}}) {
    const WavefrontSpec spec = make_app_spec(app, dim);
    const core::InputParams in = spec.inputs();
    Grid oracle(dim, spec.elem_bytes);
    exec.run_serial(spec, oracle);
    for (const int gpus : {2, 3, 4, 8}) {
      for (const long long band : {0LL, 5LL, static_cast<long long>(dim) - 1}) {
        const long long max_halo = TunableParams::max_halo_multi(dim, band, gpus);
        for (const long long halo : {0LL, 1LL, 4LL, max_halo}) {
          TunableParams t{8, band, halo, 1};
          t.gpus = gpus;
          const core::PhaseProgram program = core::plan_phases(in, t);
          const core::PhaseDesc* multi = nullptr;
          for (const core::PhaseDesc& ph : program.phases) {
            if (ph.device == core::PhaseDevice::kGpuMulti) multi = &ph;
          }
          ASSERT_NE(multi, nullptr) << app << " dim=" << dim << " gpus=" << gpus;
          ASSERT_EQ(multi->gpu_count, gpus);
          const std::string where = app + " dim=" + std::to_string(dim) +
                                    " gpus=" + std::to_string(gpus) +
                                    " band=" + std::to_string(band) +
                                    " halo=" + std::to_string(multi->halo);

          Grid grid(dim, spec.elem_bytes);
          grid.fill_poison();
          const std::size_t live0 = ocl::Buffer::live_bytes();
          ocl::Buffer::reset_peak();
          const core::RunResult run = exec.run(spec, program, grid);
          EXPECT_EQ(ocl::Buffer::peak_bytes() - live0,
                    row_window_bytes(dim, spec.elem_bytes, static_cast<std::size_t>(gpus),
                                     multi->halo))
              << where;
          ASSERT_EQ(0, std::memcmp(oracle.data(), grid.data(), oracle.size_bytes())) << where;

          const core::RunResult est = exec.estimate(in, program);
          ASSERT_EQ(run.breakdown.phases.size(), est.breakdown.phases.size()) << where;
          for (std::size_t p = 0; p < run.breakdown.phases.size(); ++p) {
            const core::PhaseTiming& a = run.breakdown.phases[p];
            const core::PhaseTiming& b = est.breakdown.phases[p];
            EXPECT_EQ(a.ns, b.ns) << where << " phase " << p;
            EXPECT_EQ(a.swap_ns, b.swap_ns) << where << " phase " << p;
            EXPECT_EQ(a.swap_count, b.swap_count) << where << " phase " << p;
            EXPECT_EQ(a.kernel_launches, b.kernel_launches) << where << " phase " << p;
            EXPECT_EQ(a.redundant_cells, b.redundant_cells) << where << " phase " << p;
          }
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 2u * 4u * 3u * 4u);
}

INSTANTIATE_TEST_SUITE_P(Apps, MultiGpuRowsEquivalence,
                         ::testing::Values("editdist", "seqcmp", "nash", "synthetic"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

/// perfbench's quad-GPU offload-stream shape (nash-256, band 64, halo 4):
/// the four devices hold 64 + 3 x 69 = 271 rows of 8 KiB, not four whole
/// 2 MiB grids.
TEST(MultiGpuRows, QuadNash256PeakIsRowWindows) {
  apps::NashParams p;
  p.dim = 256;
  p.strategies = 4;
  p.fp_iterations = 1;
  const WavefrontSpec spec = apps::make_nash_spec(p);
  ASSERT_EQ(spec.elem_bytes * p.dim, std::size_t{8192});
  TunableParams t{16, 64, 4, 1};
  t.gpus = 4;
  HybridExecutor exec(sim::make_i7_2600k(), 1);
  Grid grid(p.dim, spec.elem_bytes);
  const std::size_t live0 = ocl::Buffer::live_bytes();
  ocl::Buffer::reset_peak();
  exec.run(spec, core::plan_phases(spec.inputs(), t), grid);
  EXPECT_EQ(ocl::Buffer::peak_bytes() - live0, std::size_t{2220032});
  EXPECT_EQ(row_window_bytes(p.dim, spec.elem_bytes, 4, 4), std::size_t{2220032});
}

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

/// Band-clamped tile(): tiles straddling a band edge run as one clamped
/// block per row, of every width up to the tile's.
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

// --- nash: the vector kernels against the scalar one ---------------------

/// Whether this host runs AVX2, asked independently of the kernel getters.
bool host_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// Whether this host runs AVX-512 F, DQ and VL, the nash AVX-512 kernel's
/// target, asked independently of the kernel getters.
bool host_has_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

/// On an AVX2 host the integer apps' specs ship their AVX2 kernel, so a
/// silent fallback cannot leave the equivalence suites comparing the
/// scalar kernel with itself.
TEST(TileKernelPick, SpecsShipTheAvx2KernelOnAvx2Hosts) {
  const WavefrontSpec specs[] = {make_app_spec("editdist", 16), make_app_spec("seqcmp", 16)};
  const core::TileKernelFn scalar[] = {apps::detail::editdist_scalar_tile_kernel(),
                                       apps::detail::seqcmp_scalar_tile_kernel()};
  const core::TileKernelFn avx2[] = {apps::detail::editdist_avx2_tile_kernel(),
                                     apps::detail::seqcmp_avx2_tile_kernel()};
  for (std::size_t a = 0; a < std::size(specs); ++a) {
    if (host_has_avx2()) {
      ASSERT_NE(avx2[a], nullptr) << "app " << a;
      EXPECT_NE(avx2[a], scalar[a]) << "app " << a;
      EXPECT_EQ(specs[a].tile.fn, avx2[a]) << "app " << a;
    } else {
      EXPECT_EQ(avx2[a], nullptr) << "app " << a;
      EXPECT_EQ(specs[a].tile.fn, scalar[a]) << "app " << a;
    }
  }
}

/// nash ships the widest kernel its host runs, with that kernel's
/// band-clamped entry: the AVX-512 one on an AVX-512 host, the AVX2 one on
/// any other AVX2 host, the scalar one (which has no band entry)
/// elsewhere. Each getter answers exactly on the hosts that run it.
TEST(TileKernelPick, NashShipsAvx512ThenAvx2ThenScalar) {
  const WavefrontSpec nash = make_app_spec("nash", 16);
  const core::TileKernelFn avx512 = apps::detail::nash_avx512_tile_kernel();
  const core::TileKernelFn avx2 = apps::detail::nash_avx2_tile_kernel();
  EXPECT_EQ(host_has_avx512(), avx512 != nullptr);
  EXPECT_EQ(host_has_avx512(), apps::detail::nash_avx512_band_kernel() != nullptr);
  EXPECT_EQ(host_has_avx2(), avx2 != nullptr);
  EXPECT_EQ(host_has_avx2(), apps::detail::nash_avx2_band_kernel() != nullptr);
  if (host_has_avx512()) {
    EXPECT_NE(avx512, avx2);
    EXPECT_EQ(nash.tile.fn, avx512);
    EXPECT_EQ(nash.tile.banded, apps::detail::nash_avx512_band_kernel());
  } else if (host_has_avx2()) {
    EXPECT_EQ(nash.tile.fn, avx2);
    EXPECT_EQ(nash.tile.banded, apps::detail::nash_avx2_band_kernel());
  } else {
    EXPECT_EQ(nash.tile.fn, apps::detail::nash_scalar_tile_kernel());
    EXPECT_EQ(nash.tile.banded, nullptr);
  }
}

/// Only nash's vector kernels have a band-clamped entry: lower() carries
/// the one the nash spec ships, and the other apps have none.
TEST(TileKernelPick, OnlyNashVectorKernelsShipABandClampedEntry) {
  const WavefrontSpec nash = make_app_spec("nash", 16);
  EXPECT_EQ(nash.lower().banded, nash.tile.banded);
  EXPECT_EQ(make_app_spec("editdist", 16).lower().banded, nullptr);
  EXPECT_EQ(make_app_spec("seqcmp", 16).lower().banded, nullptr);
  EXPECT_EQ(make_app_spec("synthetic", 16).lower().banded, nullptr);
}

/// nash's vector kernels, each with its band-clamped entry.
enum class NashIsa { kAvx2, kAvx512 };

const char* nash_isa_name(NashIsa isa) { return isa == NashIsa::kAvx2 ? "avx2" : "avx512"; }

void PrintTo(NashIsa isa, std::ostream* os) { *os << nash_isa_name(isa); }

/// A nash vector kernel against the scalar one, both called directly on
/// copies of two base grids: a solved one, and one all poison, whose
/// neighbour values (about -3.4e66 as doubles) swamp every payoff hash so
/// that all strategies tie and the argmax's first-max rule decides. Over
/// NashShapeEquivalence's (k, rounds) and both vector kernels; the cases
/// of a kernel this host cannot run skip.
class NashIsaSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, NashIsa>> {
protected:
  static constexpr std::size_t kDim = 32;

  void SetUp() override {
    vector_ = avx512() ? apps::detail::nash_avx512_tile_kernel()
                       : apps::detail::nash_avx2_tile_kernel();
    band_ = avx512() ? apps::detail::nash_avx512_band_kernel()
                     : apps::detail::nash_avx2_band_kernel();
    if (!vector_) GTEST_SKIP() << "this host has no " << (avx512() ? "AVX-512 F/DQ/VL" : "AVX2");
    ASSERT_NE(band_, nullptr);
    apps::NashParams p;
    p.dim = kDim;
    p.strategies = std::get<0>(GetParam());
    p.fp_iterations = std::get<1>(GetParam());
    p.seed = 2024;
    spec_ = apps::make_nash_spec(p);
    spec_.lower().block({solved_.data(), 0}, 0, kDim, 0, kDim);
    poisoned_.fill_poison();
  }

  /// Calls visit(base name, base, h, w, i0, j0, nulls) for every block of
  /// `heights` x `widths` at the grid's corner, on its top and left
  /// borders and inside it, with the natural neighbour pointers and, inside
  /// the grid, with null west (nulls & 1), null north (nulls & 2) or both;
  /// a null neighbour reads as zero. Stops at the first failure.
  template <typename Visit>
  void for_each_block(std::span<const std::size_t> heights, std::span<const std::size_t> widths,
                      const Visit& visit) {
    const std::size_t offsets[] = {0, 7};
    for (const Grid* base : {&solved_, &poisoned_}) {
      const char* name = base == &solved_ ? "solved" : "poisoned";
      want_ = *base;
      got_ = *base;
      for (const std::size_t h : heights) {
        for (const std::size_t w : widths) {
          for (const std::size_t i0 : offsets) {
            for (const std::size_t j0 : offsets) {
              for (int nulls = 0; nulls < 4; ++nulls) {
                // A border block's pointer is null already.
                if (((nulls & 1) && j0 == 0) || ((nulls & 2) && i0 == 0)) continue;
                visit(name, *base, h, w, i0, j0, nulls);
                if (HasFailure()) return;
              }
            }
          }
        }
      }
    }
  }

  /// On want_ and got_, both copies of `base`: poisons the cells of block
  /// [i0, i0 + h) x [j0, j0 + w) on diagonals [d_begin, d_end), runs
  /// call(vector, west, north, northwest, out) with the block's corner
  /// pointers, the scalar side on want_ and the AVX2 side on got_, and
  /// compares the whole copies (so a stray write outside the cells shows
  /// too). Then restores the block's rows, the only ones a call writes.
  template <typename Call>
  bool same_on_copies(const Grid& base, std::size_t h, std::size_t w, std::size_t i0,
                      std::size_t j0, int nulls, std::size_t d_begin, std::size_t d_end,
                      const Call& call) {
    const std::size_t elem = spec_.elem_bytes;
    for (Grid* g : {&want_, &got_}) {
      for (std::size_t i = i0; i < i0 + h; ++i) {
        const auto [lo, hi] = core::row_band_span(i, d_begin, d_end, j0, j0 + w);
        if (lo < hi) std::fill_n(g->cell(i, lo), (hi - lo) * elem, Grid::kPoison);
      }
      std::byte* out = g->cell(i0, j0);
      const std::byte* west = j0 > 0 && !(nulls & 1) ? out - elem : nullptr;
      const std::byte* north = i0 > 0 && !(nulls & 2) ? out - kDim * elem : nullptr;
      call(g == &got_, west, north, west && north ? north - elem : nullptr, out);
    }
    const bool same = std::memcmp(want_.data(), got_.data(), want_.size_bytes()) == 0;
    for (Grid* g : {&want_, &got_}) {
      std::memcpy(g->cell(i0, 0), base.cell(i0, 0), h * kDim * elem);
    }
    return same;
  }

  bool avx512() const { return std::get<2>(GetParam()) == NashIsa::kAvx512; }

  core::TileKernelFn vector_ = nullptr;
  core::TileBandKernelFn band_ = nullptr;
  const core::TileKernelFn scalar_ = apps::detail::nash_scalar_tile_kernel();
  WavefrontSpec spec_;
  Grid solved_{kDim, sizeof(apps::NashCell)};
  Grid poisoned_{kDim, sizeof(apps::NashCell)};
  Grid want_{kDim, sizeof(apps::NashCell)};
  Grid got_{kDim, sizeof(apps::NashCell)};
};

/// The vector tile kernel byte-equal to the scalar one on every block of
/// 1-9 rows; the AVX-512 kernel also on 11, 13, 15, 16 and 17 rows, so
/// that one or two full 8-row groups are followed by remainders of 0, 1,
/// 3, 5 and 7 rows (the 4-lane walk's 3- and 4-row groups among them).
TEST_P(NashIsaSweep, EveryBlockShapeOffsetAndBorderByteEqualToScalar) {
  const void* ctx = spec_.tile.ctx.get();
  const std::size_t stride = kDim * spec_.elem_bytes;
  std::vector<std::size_t> heights(9);
  std::vector<std::size_t> widths(20);
  std::iota(heights.begin(), heights.end(), std::size_t{1});
  std::iota(widths.begin(), widths.end(), std::size_t{1});
  if (avx512()) heights.insert(heights.end(), {11, 13, 15, 16, 17});
  for_each_block(heights, widths, [&](const char* base_name, const Grid& base, std::size_t h, std::size_t w,
                     std::size_t i0, std::size_t j0, int nulls) {
    EXPECT_TRUE(same_on_copies(
        base, h, w, i0, j0, nulls, 0, core::num_diagonals(kDim),
        [&](bool vector, const std::byte* west, const std::byte* north, const std::byte* nw,
            std::byte* out) {
          (vector ? vector_ : scalar_)(ctx, i0, i0 + h, j0, j0 + w, stride, west, north, nw, out);
        }))
        << "block " << h << "x" << w << " at " << i0 << "," << j0 << " nulls=" << nulls
        << " on the " << base_name << " grid";
  });
}

/// The vector band-clamped entry byte-equal to the scalar kernel run one
/// clamped row at a time, on the blocks below and every diagonal range
/// of 1-9 diagonals that meets it: starting before the block, at a row
/// group's first diagonal, or inside a group's steps, and ending inside
/// the block or past it. Only the range's cells of the block are
/// poisoned: the solved grid's earlier diagonals are the first step's
/// real inputs, read from storage.
TEST_P(NashIsaSweep, BandedEntryByteEqualToScalarRows) {
  const void* ctx = spec_.tile.ctx.get();
  const std::size_t elem = spec_.elem_bytes;
  const std::size_t stride = kDim * elem;
  // Heights: a 2-row group (scalar rows), a 3-row one, one 4-row group,
  // 4 + 3 rows, and 4 + 4 + 1; for the AVX-512 entry, whose blocks of
  // fewer than 8 rows take the 4-lane entry, also one 8-row group, 8 + 4
  // + 3 and 8 + 8 + 1. Widths: one column per lane, fewer columns than
  // lanes, just more, and a wide block. (Every cell of a block runs once
  // per range that covers it, 45 times over widths 1-9; the shapes are
  // few so that k = 8, 32 rounds stays quick.)
  std::vector<std::size_t> heights = {2, 3, 4, 7, 9};
  if (avx512()) heights.insert(heights.end(), {8, 15, 17});
  const std::size_t widths[] = {1, 3, 5, 13};
  for_each_block(heights, widths, [&](const char* base_name, const Grid& base, std::size_t h, std::size_t w,
                     std::size_t i0, std::size_t j0, int nulls) {
    const std::size_t first = i0 + j0;
    const std::size_t last = first + h + w - 2;  // the block's last diagonal
    for (std::size_t width = 1; width <= 9; ++width) {
      for (std::size_t d_begin = first > 0 ? first - 1 : 0; d_begin <= last; ++d_begin) {
        const std::size_t d_end = d_begin + width;
        if (d_end <= first) continue;  // the range misses the block
        const bool same = same_on_copies(
            base, h, w, i0, j0, nulls, d_begin, d_end,
            [&](bool vector, const std::byte* west, const std::byte* north,
                const std::byte* nw, std::byte* out) {
              if (vector) {
                band_(ctx, i0, i0 + h, j0, j0 + w, d_begin, d_end, stride, west, north, nw, out);
                return;
              }
              for (std::size_t i = i0; i < i0 + h; ++i) {
                const auto [lo, hi] = core::row_band_span(i, d_begin, d_end, j0, j0 + w);
                if (lo >= hi) continue;
                std::byte* o = out + (i - i0) * stride + (lo - j0) * elem;
                const std::byte* rw = lo > j0 ? o - elem : west ? west + (i - i0) * stride
                                                                : nullptr;
                const std::byte* rn = i > i0 ? o - stride : north ? north + (lo - j0) * elem
                                                                  : nullptr;
                scalar_(ctx, i, i + 1, lo, hi, stride, rw, rn, rw && rn ? rn - elem : nullptr,
                        o);
              }
            });
        ASSERT_TRUE(same) << "block " << h << "x" << w << " at " << i0 << "," << j0
                          << " diagonals [" << d_begin << "," << d_end << ") nulls=" << nulls
                          << " on the " << base_name << " grid";
      }
    }
  });
}

/// NashShapeEquivalence's (k, rounds), each on both vector kernels.
std::vector<std::tuple<std::size_t, std::size_t, NashIsa>> nash_isa_sweep_params() {
  const std::pair<std::size_t, std::size_t> k_rounds[] = {{2, 1}, {4, 1}, {3, 3}, {5, 7}, {8, 32}};
  std::vector<std::tuple<std::size_t, std::size_t, NashIsa>> out;
  for (const NashIsa isa : {NashIsa::kAvx2, NashIsa::kAvx512}) {
    for (const auto& [k, rounds] : k_rounds) out.emplace_back(k, rounds, isa);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    KRoundsIsa, NashIsaSweep, ::testing::ValuesIn(nash_isa_sweep_params()),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, std::size_t, NashIsa>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_rounds" +
             std::to_string(std::get<1>(info.param)) + "_" +
             nash_isa_name(std::get<2>(info.param));
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

/// One call a LoweredKernel dispatched: a block() of the tile entry, or
/// one call of the band-clamped entry with its diagonal range, and the
/// pointers derived for it.
struct BlockCall {
  std::size_t i0, i1, j0, j1;
  bool banded = false;
  std::size_t d_begin = 0, d_end = 0;  ///< the band-clamped entry's range
  const std::byte* w = nullptr;
  const std::byte* n = nullptr;
  const std::byte* nw = nullptr;
  std::byte* out = nullptr;

  bool operator==(const BlockCall& o) const {
    return i0 == o.i0 && i1 == o.i1 && j0 == o.j0 && j1 == o.j1 && banded == o.banded &&
           d_begin == o.d_begin && d_end == o.d_end;
  }
};

void PrintTo(const BlockCall& c, std::ostream* os) {
  *os << "rows [" << c.i0 << "," << c.i1 << ") cols [" << c.j0 << "," << c.j1 << ")";
  if (c.banded) *os << " diagonals [" << c.d_begin << "," << c.d_end << ")";
}

/// Records every call tile() issues on a dim x dim grid of 1-byte cells,
/// to a kernel with a band-clamped entry when `with_band_entry`.
std::vector<BlockCall> record_tile(std::size_t dim, std::size_t i0, std::size_t i1,
                                   std::size_t j0, std::size_t j1, std::size_t d_begin,
                                   std::size_t d_end, bool with_band_entry = false) {
  std::vector<BlockCall> calls;
  LoweredKernel k;
  k.dim = dim;
  k.elem_bytes = 1;
  k.ctx = &calls;
  k.fn = [](const void* ctx, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
            std::size_t, const std::byte* w, const std::byte* n, const std::byte* nw,
            std::byte* out) {
    auto* c = const_cast<std::vector<BlockCall>*>(static_cast<const std::vector<BlockCall>*>(ctx));
    c->push_back(BlockCall{i0, i1, j0, j1, false, 0, 0, w, n, nw, out});
  };
  if (with_band_entry) {
    k.banded = [](const void* ctx, std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t j1, std::size_t d_begin, std::size_t d_end, std::size_t,
                  const std::byte* w, const std::byte* n, const std::byte* nw, std::byte* out) {
      auto* c =
          const_cast<std::vector<BlockCall>*>(static_cast<const std::vector<BlockCall>*>(ctx));
      c->push_back(BlockCall{i0, i1, j0, j1, true, d_begin, d_end, w, n, nw, out});
    };
  }
  std::vector<std::byte> storage(dim * dim);
  k.tile({storage.data(), 0}, i0, i1, j0, j1, d_begin, d_end);
  // Every call's pointers follow block()'s border rule.
  for (const BlockCall& c : calls) {
    EXPECT_EQ(c.out, storage.data() + c.i0 * dim + c.j0);
    EXPECT_EQ(c.w, c.j0 > 0 ? c.out - 1 : nullptr);
    EXPECT_EQ(c.n, c.i0 > 0 ? c.out - dim : nullptr);
    EXPECT_EQ(c.nw, c.i0 > 0 && c.j0 > 0 ? c.out - dim - 1 : nullptr);
  }
  return calls;
}

BlockCall rows_cols(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1) {
  return BlockCall{i0, i1, j0, j1};
}

BlockCall band_call(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                    std::size_t d_begin, std::size_t d_end) {
  return BlockCall{i0, i1, j0, j1, true, d_begin, d_end};
}

TEST(LoweredKernel, TileDispatchClampsToBand) {
  for (const bool band_entry : {false, true}) {
    // Fully in band: exactly ONE block() call covering the whole tile,
    // with or without a band-clamped entry.
    EXPECT_EQ(record_tile(8, 2, 4, 2, 4, 0, 15, band_entry), (std::vector{rows_cols(2, 4, 2, 4)}));
    // Band entirely past the tile: no calls at all.
    EXPECT_TRUE(record_tile(8, 2, 4, 2, 4, 10, 15, band_entry).empty());
    EXPECT_TRUE(record_tile(8, 2, 4, 2, 4, 0, 4, band_entry).empty());
  }

  // Without a band-clamped entry, one block per row, clamped to the band.
  // Band [5, 7): row 2 keeps cols [3,4), row 3 keeps [2,4).
  EXPECT_EQ(record_tile(8, 2, 4, 2, 4, 5, 7),
            (std::vector{rows_cols(2, 3, 3, 4), rows_cols(3, 4, 2, 4)}));
  // Band [5, 6): one cell per row.
  EXPECT_EQ(record_tile(8, 2, 4, 2, 4, 5, 6),
            (std::vector{rows_cols(2, 3, 3, 4), rows_cols(3, 4, 2, 3)}));
  // A whole 8x8 grid over band [3, 7): rows 0-6 in order, row 7 is past
  // the band.
  EXPECT_EQ(record_tile(8, 0, 8, 0, 8, 3, 7),
            (std::vector{rows_cols(0, 1, 3, 7), rows_cols(1, 2, 2, 6), rows_cols(2, 3, 1, 5),
                         rows_cols(3, 4, 0, 4), rows_cols(4, 5, 0, 3), rows_cols(5, 6, 0, 2),
                         rows_cols(6, 7, 0, 1)}));

  // With one, ONE call per straddling tile, with the tile's own bounds and
  // the band (the entry clamps inside).
  EXPECT_EQ(record_tile(8, 2, 4, 2, 4, 5, 7, true), (std::vector{band_call(2, 4, 2, 4, 5, 7)}));
  EXPECT_EQ(record_tile(8, 2, 4, 2, 4, 5, 6, true), (std::vector{band_call(2, 4, 2, 4, 5, 6)}));
  EXPECT_EQ(record_tile(8, 0, 8, 0, 8, 3, 7, true), (std::vector{band_call(0, 8, 0, 8, 3, 7)}));
  // The band touching only the tile's last or first cell still straddles.
  EXPECT_EQ(record_tile(8, 2, 4, 2, 4, 6, 9, true), (std::vector{band_call(2, 4, 2, 4, 6, 9)}));
  EXPECT_EQ(record_tile(8, 2, 4, 2, 4, 1, 5, true), (std::vector{band_call(2, 4, 2, 4, 1, 5)}));
}

/// Every tile of every band of a few grids. Without a band-clamped entry,
/// the blocks tile() issues are single clamped rows (or the one whole tile
/// when it lies in band), cover the tile's in-band cells exactly once,
/// never cross the band, and each block reads only cells that are final
/// when it runs — its west, north and northwest neighbours inside the tile
/// and the band were computed by an earlier block. With one, tile() issues
/// exactly one call when the tile straddles the band (the band entry, with
/// the tile's bounds and the band), one whole-tile block when it lies
/// inside, and none when the band misses it.
TEST(LoweredKernel, PerRowTileDispatchCoversBandOnceInDependencyOrder) {
  for (const std::size_t dim : {std::size_t{1}, std::size_t{5}, std::size_t{9}, std::size_t{17}}) {
    const std::size_t n_diags = core::num_diagonals(dim);
    for (std::size_t d_begin = 0; d_begin < n_diags; d_begin += 2) {
      for (const std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                      std::size_t{5}, std::size_t{12}}) {
        const std::size_t d_end = std::min(n_diags, d_begin + width);
        for (const std::size_t tile : {std::size_t{3}, std::size_t{7}, dim}) {
          for (std::size_t i0 = 0; i0 < dim; i0 += tile) {
            for (std::size_t j0 = 0; j0 < dim; j0 += tile) {
              const std::size_t i1 = std::min(dim, i0 + tile);
              const std::size_t j1 = std::min(dim, j0 + tile);
              const std::string where = "dim=" + std::to_string(dim) + " band=[" +
                                        std::to_string(d_begin) + "," + std::to_string(d_end) +
                                        ") tile at " + std::to_string(i0) + "," +
                                        std::to_string(j0) + " side " + std::to_string(tile);
              const bool inside = d_begin <= i0 + j0 && (i1 - 1) + (j1 - 1) < d_end;
              const bool missed = i0 + j0 >= d_end || (i1 - 1) + (j1 - 1) < d_begin;
              const std::vector<BlockCall> one = record_tile(dim, i0, i1, j0, j1, d_begin, d_end,
                                                             true);
              if (missed) {
                EXPECT_TRUE(one.empty()) << where;
              } else {
                ASSERT_EQ(one.size(), 1u) << where;
                EXPECT_EQ(one[0], inside ? rows_cols(i0, i1, j0, j1)
                                         : band_call(i0, i1, j0, j1, d_begin, d_end))
                    << where;
              }

              std::vector<int> done(dim * dim, 0);
              const auto needed = [&](std::size_t i, std::size_t j) {
                return i >= i0 && i < i1 && j >= j0 && j < j1 && i + j >= d_begin &&
                       i + j < d_end;
              };
              const std::vector<BlockCall> rows = record_tile(dim, i0, i1, j0, j1, d_begin,
                                                              d_end);
              if (inside) {
                EXPECT_EQ(rows, (std::vector{rows_cols(i0, i1, j0, j1)})) << where;
              }
              for (const BlockCall& c : rows) {
                ASSERT_LT(c.i0, c.i1) << where;
                ASSERT_LT(c.j0, c.j1) << where;
                if (!inside) {
                  ASSERT_EQ(c.i1 - c.i0, 1u) << where;
                }
                ASSERT_GE(c.i0 + c.j0, d_begin) << where;
                ASSERT_LT((c.i1 - 1) + (c.j1 - 1), d_end) << where;
                for (std::size_t i = c.i0; i < c.i1; ++i) {
                  for (std::size_t j = c.j0; j < c.j1; ++j) {
                    // Inside the block, row-major order supplies the
                    // neighbours; outside it they must already be done.
                    const auto ready = [&](std::size_t ni, std::size_t nj) {
                      const bool in_block = ni >= c.i0 && nj >= c.j0;
                      return in_block || !needed(ni, nj) || done[ni * dim + nj] == 1;
                    };
                    if (j > 0) {
                      EXPECT_TRUE(ready(i, j - 1)) << where << " west of " << i << "," << j;
                    }
                    if (i > 0) {
                      EXPECT_TRUE(ready(i - 1, j)) << where << " north of " << i << "," << j;
                    }
                    if (i > 0 && j > 0) {
                      EXPECT_TRUE(ready(i - 1, j - 1)) << where << " northwest of " << i << ","
                                                       << j;
                    }
                  }
                }
                for (std::size_t i = c.i0; i < c.i1; ++i) {
                  for (std::size_t j = c.j0; j < c.j1; ++j) ++done[i * dim + j];
                }
              }
              for (std::size_t i = 0; i < dim; ++i) {
                for (std::size_t j = 0; j < dim; ++j) {
                  ASSERT_EQ(done[i * dim + j], needed(i, j) ? 1 : 0)
                      << where << " cell " << i << "," << j;
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wavetune
