// Google-benchmark microbenchmarks for the substrate hot paths: cost-model
// estimation throughput (the inner loop of the exhaustive search), the
// functional executors driven through the api::Engine session API (plans
// compiled once, runs submitted per iteration), the thread pool, the
// nash tile kernel, and model inference.
//
// `--json[=PATH]` switches to the perf-tracking mode: for editdist and
// seqcmp at dim 512 and 2048 it times (a) the kernel ABI ladder — the spec
// stripped down to its cell kernel, to its segment kernel, and whole (the
// native tile kernel), each lowered by WavefrontSpec::lower() as
// production lowers it, so the cell and segment rungs time the fallback
// adapters a cell-only or segment-only spec really runs (the --kernel-abi
// axis) — and (b) the barriered per-tile-diagonal scheduler against the
// dataflow dependency-counter scheduler, both dispatching the lowered tile
// kernel (the --scheduler axis, small and medium tiles, >= 4 workers),
// then (c) the nash tile kernel, scalar, AVX2 and AVX-512, in each dispatch shape
// of BM_NashTileKernel, and writes the ns/cell numbers with the host's
// core count to PATH (default BENCH_micro.json) so CI records the
// hot-loop trajectory on every push.
//
//   --kernel-abi={cell,segment,tile,all}  which ABI rungs to measure
//                                         (default all; implies --json)
//   --scheduler={barrier,dataflow,both}   which schedulers to measure
//                                         (runs with --kernel-abi=all, the
//                                         default, or when given)
//   --phase-plan={paper,cpu-only,split-band,all}
//                                         phase-program shapes to run
//                                         functionally through api::Engine
//                                         (CompileOptions::program),
//                                         emitting per-phase simulated ns
//                                         plus the measured wall time per
//                                         shape (default: none; implies
//                                         --json)
//   --tiles=T1,T2,...                     cpu tile sizes to sweep (default
//                                         16,64; implies --json)
//   --quick                               smoke configuration: dim 512
//                                         only, fewer reps (implies
//                                         --json; what the Release CI
//                                         job runs)
//
// The tile-ABI measurement also attributes its wall time across
// lower/dispatch/compute phases (plan-time lowering cost, scheduler +
// dispatch machinery via a no-op lowered kernel, and the remainder), so
// perf regressions are attributable from the JSON alone. All other
// arguments are passed through to google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "apps/tile_kernels.hpp"
#include "autotune/search.hpp"
#include "core/diag.hpp"
#include "core/phase_program.hpp"
#include "cpu/dataflow_wavefront.hpp"
#include "cpu/thread_pool.hpp"
#include "cpu/tiled_wavefront.hpp"
#include "ml/m5_tree.hpp"
#include "sim/system_profile.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace wavetune;

/// One estimate-focused engine per benchmark process: plans compile once,
/// every iteration estimates through the cached plan.
api::Engine& micro_engine() {
  static api::Engine engine(sim::make_i7_2600k(), [] {
    api::EngineOptions o;
    o.pool_workers = 1;
    o.queue_workers = 1;
    return o;
  }());
  return engine;
}

void BM_EstimateCpuOnly(benchmark::State& state) {
  api::Engine& engine = micro_engine();
  const core::InputParams in{static_cast<std::size_t>(state.range(0)), 500.0, 1};
  const api::Plan plan = engine.compile(in, core::TunableParams{8, -1, -1, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.estimate(plan).rtime_ns);
  }
}
BENCHMARK(BM_EstimateCpuOnly)->Arg(500)->Arg(1900)->Arg(3100);

void BM_EstimateSingleGpu(benchmark::State& state) {
  api::Engine& engine = micro_engine();
  const core::InputParams in{static_cast<std::size_t>(state.range(0)), 500.0, 1};
  const api::Plan plan = engine.compile(in, core::TunableParams{8, state.range(0) / 2, -1, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.estimate(plan).rtime_ns);
  }
}
BENCHMARK(BM_EstimateSingleGpu)->Arg(500)->Arg(1900)->Arg(3100);

void BM_EstimateDualGpuHalo(benchmark::State& state) {
  api::Engine& engine = micro_engine();
  const core::InputParams in{static_cast<std::size_t>(state.range(0)), 500.0, 1};
  const api::Plan plan = engine.compile(in, core::TunableParams{8, state.range(0) / 2, 8, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.estimate(plan).rtime_ns);
  }
}
BENCHMARK(BM_EstimateDualGpuHalo)->Arg(500)->Arg(1900)->Arg(3100);

void BM_PlanCacheCompile(benchmark::State& state) {
  // Steady-state compile cost of a served request: everything after the
  // first iteration is a plan-cache hit that skips validation.
  api::Engine& engine = micro_engine();
  const core::InputParams in{1024, 500.0, 1};
  const core::TunableParams p{8, 512, 8, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.compile(in, p).id());
  }
}
BENCHMARK(BM_PlanCacheCompile);

void BM_SearchInstance(benchmark::State& state) {
  autotune::ExhaustiveSearch search(sim::make_i7_2600k(), autotune::ParamSpace::reduced());
  const core::InputParams in{480, 1000.0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.search_instance(in).records.size());
  }
}
BENCHMARK(BM_SearchInstance);

void BM_FunctionalHybridRun(benchmark::State& state) {
  apps::SyntheticParams sp;
  sp.dim = static_cast<std::size_t>(state.range(0));
  sp.tsize = 50;
  sp.dsize = 1;
  sp.functional_iters = 4;
  const auto spec = apps::make_synthetic_spec(sp);
  api::Engine engine(sim::make_i7_2600k());
  const api::Plan plan =
      engine.compile(spec, core::TunableParams{8, static_cast<long long>(sp.dim) / 2, 2, 1});
  core::Grid grid(spec.dim, spec.elem_bytes);
  for (auto _ : state) {
    engine.run(plan, grid);
    benchmark::DoNotOptimize(grid.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sp.dim * sp.dim));
}
BENCHMARK(BM_FunctionalHybridRun)->Arg(64)->Arg(128);

void BM_EngineSubmitQueue(benchmark::State& state) {
  // Async-queue round trip: submit through the bounded job queue and wait
  // for the future; the delta to BM_FunctionalHybridRun is the queue +
  // future overhead a served request pays.
  apps::SyntheticParams sp;
  sp.dim = 64;
  sp.tsize = 50;
  sp.dsize = 1;
  sp.functional_iters = 4;
  const auto spec = apps::make_synthetic_spec(sp);
  api::Engine engine(sim::make_i7_2600k());
  const api::Plan plan =
      engine.compile(spec, core::TunableParams{8, static_cast<long long>(sp.dim) / 2, 2, 1});
  core::Grid grid(spec.dim, spec.elem_bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.submit(plan, grid).get().rtime_ns);
  }
}
BENCHMARK(BM_EngineSubmitQueue);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  cpu::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out(4096, 0.0);
  for (auto _ : state) {
    pool.parallel_for(0, out.size(), [&](std::size_t i) { out[i] += 1.0; });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(2)->Arg(4);

/// Lattice-path recurrence over uint32 cells as a native tile kernel (the
/// core/lowered.hpp pointer contract): the scheduler benchmarks' stand-in
/// for an app kernel.
void paths_tile_kernel(const void*, std::size_t i0, std::size_t i1, std::size_t j0,
                       std::size_t j1, std::size_t stride, const std::byte* west,
                       const std::byte* north, const std::byte*, std::byte* out) {
  for (std::size_t i = i0; i < i1; ++i) {
    const std::size_t r = i - i0;
    auto* row = reinterpret_cast<std::uint32_t*>(out + r * stride);
    const auto* nrow = r == 0 ? reinterpret_cast<const std::uint32_t*>(north)
                              : reinterpret_cast<const std::uint32_t*>(out + (r - 1) * stride);
    std::uint32_t w = west ? *reinterpret_cast<const std::uint32_t*>(west + r * stride) : 0;
    for (std::size_t c = 0; c < j1 - j0; ++c) {
      w = (i == 0 && j0 + c == 0) ? 1 : w + (nrow ? nrow[c] : 0);
      row[c] = w;
    }
  }
}

core::LoweredKernel paths_kernel(std::size_t dim) {
  core::LoweredKernel k;
  k.fn = &paths_tile_kernel;
  k.dim = dim;
  k.elem_bytes = sizeof(std::uint32_t);
  k.native = true;
  return k;
}

void BM_TiledWavefrontFunctional(benchmark::State& state) {
  const std::size_t dim = 128;
  std::vector<std::uint32_t> v(dim * dim, 0);
  const core::StorageView view{reinterpret_cast<std::byte*>(v.data()), 0};
  const core::LoweredKernel kernel = paths_kernel(dim);
  cpu::ThreadPool pool(2);
  const cpu::TiledRegion region{dim, 0, 2 * dim - 1, static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    cpu::run_tiled_wavefront(region, pool, kernel, {&view, 1});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * dim));
}
BENCHMARK(BM_TiledWavefrontFunctional)->Arg(1)->Arg(8)->Arg(32);

/// The --scheduler axis as a google-benchmark grid: barrier (0) vs
/// dataflow (1) over a tile size, full sweep of a 512-grid.
void BM_WavefrontScheduler(benchmark::State& state) {
  const std::size_t dim = 512;
  const auto sched =
      state.range(0) == 0 ? cpu::Scheduler::kBarrier : cpu::Scheduler::kDataflow;
  const cpu::TiledRegion region{dim, 0, 2 * dim - 1, static_cast<std::size_t>(state.range(1))};
  std::vector<std::uint32_t> v(dim * dim, 0);
  const core::StorageView view{reinterpret_cast<std::byte*>(v.data()), 0};
  const core::LoweredKernel kernel = paths_kernel(dim);
  cpu::ThreadPool pool(4);
  for (auto _ : state) {
    cpu::run_wavefront(sched, region, pool, kernel, {&view, 1});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetLabel(cpu::scheduler_name(sched));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * dim));
}
BENCHMARK(BM_WavefrontScheduler)
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({0, 64})
    ->Args({1, 64});

/// The dispatch shapes the nash tile kernel runs in at perfbench's
/// offload-stream size (k = 4, one fictitious-play round, dim 256):
///   0 one whole-grid block() call (the serial sweep);
///   1 swap epochs of halo + 1 = 5 diagonals, each one band-clamped tile()
///     call (the quad-GPU halo band at halo 4 computes each device's rows
///     one swap epoch at a time; 5 vector steps per 4-row group);
///   2 16x16 tiles in row-major order, one block() each (the CPU phases'
///     interior tiles at cpu tile 16);
///   3 bands of 129 diagonals, each one band-clamped tile() call (the
///     single-GPU band at band 64).
constexpr std::size_t kNashShapes = 4;
constexpr std::size_t kNashDim = 256;

const char* nash_shape_name(std::size_t shape) {
  switch (shape) {
    case 0: return "whole-grid block";
    case 1: return "halo-4 epochs (5-diagonal tile calls)";
    case 2: return "16x16 tiles";
    default: return "129-diagonal band tile calls";
  }
}

/// The offload-stream nash spec.
core::WavefrontSpec nash_micro_spec() {
  apps::NashParams p;
  p.dim = kNashDim;
  p.strategies = 4;
  p.fp_iterations = 1;
  return apps::make_nash_spec(p);
}

/// The nash tile kernel variants, by BM_NashTileKernel's isa argument.
constexpr const char* kNashIsaNames[] = {"scalar", "avx2", "avx512"};
constexpr std::size_t kNashIsas = std::size(kNashIsaNames);

/// The nash spec lowered onto tile kernel variant `isa` (0 scalar, 1
/// AVX2, 2 AVX-512), both of its entries swapped: a vector kernel's
/// band-clamped entry rides along with it, and the scalar kernel has
/// none. Its `fn` is null when this host cannot run the variant.
core::LoweredKernel nash_variant(const core::WavefrontSpec& spec, std::size_t isa) {
  core::LoweredKernel kernel = spec.lower();
  kernel.fn = isa == 0   ? apps::detail::nash_scalar_tile_kernel()
              : isa == 1 ? apps::detail::nash_avx2_tile_kernel()
                         : apps::detail::nash_avx512_tile_kernel();
  kernel.banded = isa == 0   ? nullptr
                  : isa == 1 ? apps::detail::nash_avx2_band_kernel()
                             : apps::detail::nash_avx512_band_kernel();
  return kernel;
}

/// One sweep of the whole grid in dispatch shape `shape`.
void nash_sweep(const core::LoweredKernel& kernel, core::StorageView view, std::size_t shape) {
  const std::size_t dim = kernel.dim;
  const std::size_t n_diags = core::num_diagonals(dim);
  if (shape == 0) {
    kernel.block(view, 0, dim, 0, dim);
  } else if (shape == 2) {
    for (std::size_t i = 0; i < dim; i += 16) {
      for (std::size_t j = 0; j < dim; j += 16) {
        kernel.block(view, i, std::min(dim, i + 16), j, std::min(dim, j + 16));
      }
    }
  } else {
    const std::size_t band = shape == 1 ? 5 : 129;
    for (std::size_t d = 0; d < n_diags; d += band) {
      kernel.tile(view, 0, dim, 0, dim, d, std::min(d + band, n_diags));
    }
  }
}

/// Args {shape, isa}: the nash tile kernel's dispatch shapes above, each
/// with the scalar (0), the AVX2 (1) and the AVX-512 (2) variant.
void BM_NashTileKernel(benchmark::State& state) {
  const auto shape = static_cast<std::size_t>(state.range(0));
  const auto isa = static_cast<std::size_t>(state.range(1));
  const core::WavefrontSpec spec = nash_micro_spec();
  const core::LoweredKernel kernel = nash_variant(spec, isa);
  if (!kernel.fn) {
    state.SkipWithError(isa == 1 ? "this host has no AVX2" : "this host has no AVX-512 F/DQ/VL");
    return;
  }
  core::Grid grid(spec.dim, spec.elem_bytes);
  for (auto _ : state) {
    nash_sweep(kernel, {grid.data(), 0}, shape);
    benchmark::DoNotOptimize(grid.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(nash_shape_name(shape)) + ", " + kNashIsaNames[isa]);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spec.dim * spec.dim));
}
BENCHMARK(BM_NashTileKernel)->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2}});

void BM_M5Predict(benchmark::State& state) {
  ml::Dataset d({"a", "b", "c"});
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform_real(0, 10);
    const double b = rng.uniform_real(0, 10);
    const double c = rng.uniform_real(0, 10);
    d.add({a, b, c}, a <= 5 ? 2 * a + b : 40 - 3 * a + c);
  }
  const ml::M5Tree tree = ml::M5Tree::fit(d);
  const std::vector<double> x{3.5, 2.0, 7.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.predict(x));
  }
}
BENCHMARK(BM_M5Predict);

void BM_JsonRoundtrip(benchmark::State& state) {
  util::Json j = util::Json::object();
  for (int i = 0; i < 50; ++i) {
    util::Json row = util::Json::array();
    for (int k = 0; k < 10; ++k) row.push_back(util::Json(i * 0.5 + k));
    j["row" + std::to_string(i)] = std::move(row);
  }
  const std::string text = j.dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Json::parse(text).size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonRoundtrip);

// --- per-cell vs segment dispatch comparison (--json mode) ---------------

core::WavefrontSpec micro_spec(const std::string& app, std::size_t dim) {
  if (app == "editdist") {
    apps::EditDistParams p;
    p.str_a = apps::random_dna(dim, 101);
    p.str_b = apps::random_dna(dim, 202);
    return apps::make_editdist_spec(p);
  }
  apps::SeqCmpParams p;
  p.seq_a = apps::random_dna(dim, 303);
  p.seq_b = apps::random_dna(dim, 404);
  return apps::make_seqcmp_spec(p);
}

struct MicroResult {
  // ABI axis (tile walk on the calling thread: dispatch + compute, no pool):
  double per_cell_ns = 0.0;  ///< ns/cell, cell-only spec (both fallbacks)
  double segment_ns = 0.0;   ///< ns/cell, segment-only spec (tile fallback)
  double tile_ns = 0.0;      ///< ns/cell, the spec's native tile kernel
  double lower_ns = 0.0;     ///< one-time plan lowering (spec.lower()), ns
  double dispatch_ns = 0.0;  ///< ns/cell, traversal+dispatch machinery only
                             ///< (no-op lowered kernel sweep)
  // Scheduler axis (>= 4-worker pool: contention is the signal):
  double barrier_ns = 0.0;   ///< ns/cell, lowered tile kernel, barrier sched
  double dataflow_ns = 0.0;  ///< ns/cell, lowered tile kernel, dataflow sched
  bool native_tile = false;  ///< lowering hit the spec's native TileKernel
};

/// Which schedulers the --scheduler axis measures.
enum class SchedAxis { kBarrier, kDataflow, kBoth };

/// Which rungs of the kernel ABI ladder the --kernel-abi axis measures.
enum class AbiAxis { kCell, kSegment, kTile, kAll };

/// Which schedule shapes the --phase-plan axis runs through the engine.
enum class PlanAxis { kNone, kPaper, kCpuOnly, kSplitBand, kAll };

/// One functional engine run of `plan`, timed: returns (RunResult, wall ns).
std::pair<core::RunResult, double> timed_engine_run(api::Engine& engine, const api::Plan& plan,
                                                    core::Grid& grid) {
  const auto t0 = std::chrono::steady_clock::now();
  core::RunResult r = engine.run(plan, grid);
  const auto t1 = std::chrono::steady_clock::now();
  return {std::move(r), std::chrono::duration<double, std::nano>(t1 - t0).count()};
}

/// The --phase-plan axis: compile one shape of the phase-program IR
/// (paper default / 4-phase CPU-only / GPU band split into 3 sub-bands),
/// run it functionally through api::Engine, and emit the per-phase
/// simulated ns the interpreter charged plus the measured wall time.
util::Json run_phase_plan(api::Engine& engine, const std::string& app, std::size_t dim,
                          const std::string& shape, int reps) {
  const core::WavefrontSpec spec = micro_spec(app, dim);
  const core::InputParams in = spec.inputs();

  api::CompileOptions options;
  if (shape == "paper") {
    options.params = core::TunableParams{8, static_cast<long long>(dim) / 2, -1, 1};
  } else if (shape == "cpu-only") {
    options.backend = api::kCpuTiledBackend;
    options.params = core::TunableParams{8, -1, -1, 1};
    options.program = core::make_cpu_only_program(in, 8, 4);
  } else {  // split-band
    options.params = core::TunableParams{8, static_cast<long long>(dim) / 2, -1, 1};
    options.program = core::split_gpu_band(core::plan_phases(in, *options.params), 3);
  }
  const api::Plan plan = engine.compile(spec, options);
  core::Grid grid(spec.dim, spec.elem_bytes);

  timed_engine_run(engine, plan, grid);  // warmup
  core::RunResult result;
  double best_wall = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto [r, wall] = timed_engine_run(engine, plan, grid);
    if (wall < best_wall) {
      best_wall = wall;
      result = std::move(r);
    }
  }

  util::Json row = util::Json::object();
  row["app"] = util::Json(app);
  row["dim"] = util::Json(dim);
  row["plan"] = util::Json(shape);
  row["program"] = util::Json(plan.program().describe());
  row["rtime_ns"] = util::Json(result.rtime_ns);
  row["wall_ns"] = util::Json(best_wall);
  util::Json phases = util::Json::array();
  for (const core::PhaseTiming& t : result.breakdown.phases) {
    util::Json ph = util::Json::object();
    ph["device"] = util::Json(core::phase_device_name(t.device));
    ph["d_begin"] = util::Json(t.d_begin);
    ph["d_end"] = util::Json(t.d_end);
    ph["sim_ns"] = util::Json(t.ns);
    phases.push_back(std::move(ph));
  }
  row["phases"] = std::move(phases);
  std::cout << app << " dim=" << dim << " plan=" << shape << ": "
            << result.breakdown.phases.size() << " phases, sim " << result.rtime_ns
            << " ns, wall " << best_wall << " ns\n";
  return row;
}

/// Wall-clock of one full CPU sweep through the lowered (tile-granular)
/// dispatch path — exactly what the executor's CPU phases run.
double time_lowered_sweep_ns(cpu::Scheduler sched, std::size_t dim, cpu::ThreadPool& pool,
                             std::size_t tile, const core::LoweredKernel& kernel,
                             std::byte* data) {
  const cpu::TiledRegion region{dim, 0, core::num_diagonals(dim), tile};
  const core::StorageView view{data, 0};
  const auto t0 = std::chrono::steady_clock::now();
  cpu::run_wavefront(sched, region, pool, kernel, {&view, 1});
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Wall-clock of one full sweep on the calling thread as one
/// LoweredKernel::tile call per tile, in tile-diagonal order — the order
/// bench/BENCH_micro.json was recorded in. The schedulers run a one-worker
/// pool as ONE serial call, which would time every tile width the same, so
/// the kernel-ABI axis walks its tiles here instead.
double time_tile_walk_ns(std::size_t dim, std::size_t tile, const core::LoweredKernel& kernel,
                         std::byte* data) {
  const core::StorageView view{data, 0};
  const std::size_t M = (dim + tile - 1) / tile;  // tiles per side
  const std::size_t d_end = core::num_diagonals(dim);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < core::num_diagonals(M); ++k) {
    for (std::size_t I = core::diag_row_lo(M, k); I <= core::diag_row_hi(M, k); ++I) {
      const std::size_t J = k - I;
      kernel.tile(view, I * tile, std::min(I * tile + tile, dim), J * tile,
                  std::min(J * tile + tile, dim), 0, d_end);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// No-op tile entry point: measuring a sweep through this isolates the
/// scheduler + lowered-dispatch machinery from kernel compute.
void noop_tile_kernel(const void*, std::size_t, std::size_t, std::size_t, std::size_t,
                      std::size_t, const std::byte*, const std::byte*, const std::byte*,
                      std::byte*) {}

/// The ABI axis walks tiles on the calling thread (time_tile_walk_ns), so
/// its numbers compare pure dispatch + compute with no pool-scheduling
/// noise masking the delta. `sched_pool` has >= 4 workers: the
/// scheduler-axis numbers (barrier vs dataflow) measure exactly that
/// contention.
MicroResult run_micro(const std::string& app, std::size_t dim, std::size_t tile,
                      cpu::ThreadPool& sched_pool, int reps,
                      bool sched_axis_on, SchedAxis sched_axis, AbiAxis abi_axis) {
  const core::WavefrontSpec spec = micro_spec(app, dim);
  core::Grid grid(spec.dim, spec.elem_bytes);
  std::byte* data = grid.data();

  const bool abi_cell = abi_axis == AbiAxis::kCell || abi_axis == AbiAxis::kAll;
  const bool abi_segment = abi_axis == AbiAxis::kSegment || abi_axis == AbiAxis::kAll;
  const bool abi_tile = abi_axis == AbiAxis::kTile || abi_axis == AbiAxis::kAll;
  const bool barrier = sched_axis_on && sched_axis != SchedAxis::kDataflow;
  const bool dataflow = sched_axis_on && sched_axis != SchedAxis::kBarrier;

  // Tile ABI: plan-time lowering resolved ONCE, one indirect call per
  // tile (exactly what HybridExecutor + Engine plans dispatch).
  MicroResult r;
  const auto l0 = std::chrono::steady_clock::now();
  const core::LoweredKernel lowered = spec.lower();
  const auto l1 = std::chrono::steady_clock::now();
  r.lower_ns = std::chrono::duration<double, std::nano>(l1 - l0).count();
  r.native_tile = lowered.native;
  core::LoweredKernel noop = lowered;
  noop.fn = &noop_tile_kernel;
  noop.ctx = nullptr;
  // Segment and cell ABI: the spec stripped down to that rung and lowered
  // the same way, so the sweep runs the fallback ladder a segment-only
  // spec (make_tile_fallback: one type-erased call per tile row) or a
  // cell-only spec (plus make_segment_fallback: one type-erased call per
  // cell) really runs.
  core::WavefrontSpec segment_only = spec;
  segment_only.tile = {};
  core::WavefrontSpec cell_only = segment_only;
  cell_only.segment = nullptr;
  const core::LoweredKernel segment = segment_only.lower();
  const core::LoweredKernel per_cell = cell_only.lower();

  const double cells = static_cast<double>(dim) * static_cast<double>(dim);
  double best_cell = 1e300;
  double best_seg = 1e300;
  double best_bar = 1e300;
  double best_flow = 1e300;
  double best_tile = 1e300;
  double best_dispatch = 1e300;
  const auto sweep = [&](cpu::Scheduler sched, const core::LoweredKernel& kernel) {
    return time_lowered_sweep_ns(sched, dim, sched_pool, tile, kernel, data);
  };
  const auto walk = [&](const core::LoweredKernel& kernel) {
    return time_tile_walk_ns(dim, tile, kernel, data);
  };
  // One warmup each, then best-of-reps to shed noise.
  for (int rep = -1; rep < reps; ++rep) {
    const bool warm = rep < 0;
    if (abi_cell) {
      const double t = walk(per_cell);
      if (!warm) best_cell = std::min(best_cell, t);
    }
    if (abi_segment) {
      const double t = walk(segment);
      if (!warm) best_seg = std::min(best_seg, t);
    }
    if (abi_tile) {
      const double t = walk(lowered);
      const double d = walk(noop);
      if (!warm) {
        best_tile = std::min(best_tile, t);
        best_dispatch = std::min(best_dispatch, d);
      }
    }
    if (barrier) {
      const double t = sweep(cpu::Scheduler::kBarrier, lowered);
      if (!warm) best_bar = std::min(best_bar, t);
    }
    if (dataflow) {
      const double t = sweep(cpu::Scheduler::kDataflow, lowered);
      if (!warm) best_flow = std::min(best_flow, t);
    }
  }
  r.per_cell_ns = best_cell / cells;
  r.segment_ns = best_seg / cells;
  r.barrier_ns = best_bar / cells;
  r.dataflow_ns = best_flow / cells;
  r.tile_ns = best_tile / cells;
  r.dispatch_ns = best_dispatch / cells;
  return r;
}

int run_json_mode(const std::string& path, SchedAxis sched_axis, bool sched_explicit,
                  AbiAxis abi_axis, PlanAxis plan_axis, bool quick,
                  const std::vector<std::size_t>& tiles) {
  if (path.empty()) {
    std::cerr << "bench_micro: --json needs a non-empty path (or omit '=' for the default)\n";
    return 1;
  }
  const bool abi_cell = abi_axis == AbiAxis::kCell || abi_axis == AbiAxis::kAll;
  const bool abi_segment = abi_axis == AbiAxis::kSegment || abi_axis == AbiAxis::kAll;
  const bool abi_tile = abi_axis == AbiAxis::kTile || abi_axis == AbiAxis::kAll;
  // The scheduler sweeps run the lowered tile kernel on their own pool;
  // they ride along with the full ABI ladder (the default) or when asked
  // for, so a single-rung run (the checked-in tile ledger) stays that.
  const bool sched_on = sched_explicit || abi_axis == AbiAxis::kAll;
  // The scheduler comparison needs real contention — at least 4 workers
  // (more when the host has them), per the perf-trajectory contract —
  // while the kernel-ABI comparison wants NO contention, so it walks its
  // tiles on this thread and pool-scheduling noise can't mask the
  // dispatch delta. The contended pool only spins up when a scheduler
  // sweep will actually use it.
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  cpu::ThreadPool sched_pool(sched_on ? std::max<std::size_t>(4, hw) : 1);
  const std::vector<std::size_t> dims =
      quick ? std::vector<std::size_t>{512} : std::vector<std::size_t>{512, 2048};
  // Best-of-N: single-run ratios are unstable on loaded hosts.
  const int reps = quick ? 2 : 7;
  util::Json runs = util::Json::array();
  for (const std::string app : {"editdist", "seqcmp"}) {
    for (const std::size_t dim : dims) {
      for (const std::size_t tile : tiles) {
        const MicroResult r =
            run_micro(app, dim, tile, sched_pool, reps, sched_on, sched_axis, abi_axis);
        util::Json row = util::Json::object();
        row["app"] = util::Json(app);
        row["dim"] = util::Json(dim);
        row["cpu_tile"] = util::Json(tile);
        std::cout << app << " dim=" << dim << " tile=" << tile << ":";
        if (abi_cell) {
          row["per_cell_ns_per_cell"] = util::Json(r.per_cell_ns);
          std::cout << " cell " << r.per_cell_ns;
        }
        if (abi_segment) {
          row["segment_ns_per_cell"] = util::Json(r.segment_ns);
          std::cout << " segment " << r.segment_ns;
        }
        if (abi_cell && abi_segment) {
          row["speedup"] = util::Json(r.per_cell_ns / r.segment_ns);
        }
        if (abi_tile) {
          row["tile_ns_per_cell"] = util::Json(r.tile_ns);
          row["native_tile_kernel"] = util::Json(r.native_tile);
          // Attribution of the tile-ABI time: one-time lowering,
          // traversal+dispatch machinery, kernel compute.
          row["lower_ns"] = util::Json(r.lower_ns);
          row["dispatch_ns_per_cell"] = util::Json(r.dispatch_ns);
          row["compute_ns_per_cell"] = util::Json(std::max(0.0, r.tile_ns - r.dispatch_ns));
          std::cout << " tile " << r.tile_ns;
        }
        if (abi_segment && abi_tile) {
          row["tile_speedup"] = util::Json(r.segment_ns / r.tile_ns);
          std::cout << " ns/cell (tile " << r.segment_ns / r.tile_ns << "x vs segment)";
        } else {
          std::cout << " ns/cell";
        }
        if (sched_on && sched_axis != SchedAxis::kDataflow) {
          row["barrier_ns_per_cell"] = util::Json(r.barrier_ns);
          std::cout << ", sched barrier " << r.barrier_ns;
        }
        if (sched_on && sched_axis != SchedAxis::kBarrier) {
          row["dataflow_ns_per_cell"] = util::Json(r.dataflow_ns);
          std::cout << " dataflow " << r.dataflow_ns << " ns/cell";
          if (sched_axis == SchedAxis::kBoth) {
            row["dataflow_speedup"] = util::Json(r.barrier_ns / r.dataflow_ns);
            std::cout << " (" << r.barrier_ns / r.dataflow_ns << "x)";
          }
        }
        std::cout << "\n";
        runs.push_back(std::move(row));
      }
    }
  }
  // The nash tile kernel in each dispatch shape and variant: best of
  // `reps` whole-grid sweeps on the calling thread.
  util::Json nash_runs = util::Json::array();
  const core::WavefrontSpec nash = nash_micro_spec();
  core::Grid nash_grid(nash.dim, nash.elem_bytes);
  for (std::size_t shape = 0; shape < kNashShapes; ++shape) {
    for (std::size_t isa = 0; isa < kNashIsas; ++isa) {
      const core::LoweredKernel kernel = nash_variant(nash, isa);
      if (!kernel.fn) continue;
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        nash_sweep(kernel, {nash_grid.data(), 0}, shape);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double, std::nano>(t1 - t0).count());
      }
      const double ns = best / static_cast<double>(nash.dim * nash.dim);
      util::Json row = util::Json::object();
      row["app"] = util::Json("nash");
      row["dim"] = util::Json(nash.dim);
      row["shape"] = util::Json(nash_shape_name(shape));
      row["isa"] = util::Json(kNashIsaNames[isa]);
      row["ns_per_cell"] = util::Json(ns);
      std::cout << "nash dim=" << nash.dim << " " << nash_shape_name(shape) << " "
                << kNashIsaNames[isa] << ": " << ns << " ns/cell\n";
      nash_runs.push_back(std::move(row));
    }
  }

  util::Json doc = util::Json::object();
  doc["schema"] = util::Json("wavetune.bench_micro.v5");
  doc["host_cores"] = util::Json(hw);
  doc["mode"] = util::Json("tiled_cpu");
  // Without the scheduler sweeps the header must say so rather than claim
  // an axis the file has no data for.
  doc["scheduler_axis"] =
      util::Json(!sched_on                           ? "none"
                 : sched_axis == SchedAxis::kBoth    ? "both"
                 : sched_axis == SchedAxis::kBarrier ? "barrier"
                                                     : "dataflow");
  doc["kernel_abi_axis"] = util::Json(abi_axis == AbiAxis::kAll       ? "all"
                                      : abi_axis == AbiAxis::kCell    ? "cell"
                                      : abi_axis == AbiAxis::kSegment ? "segment"
                                                                      : "tile");
  doc["quick"] = util::Json(quick);
  if (sched_on) doc["workers"] = util::Json(sched_pool.worker_count());
  doc["abi_workers"] = util::Json(1);  // the ABI axis runs on the calling thread
  doc["runs"] = std::move(runs);
  doc["nash_tile_kernel"] = std::move(nash_runs);

  // The --phase-plan axis: functional engine runs of whole phase-program
  // shapes, recording the interpreter's per-phase simulated ns.
  doc["phase_plan_axis"] = util::Json(plan_axis == PlanAxis::kNone      ? "none"
                                      : plan_axis == PlanAxis::kPaper   ? "paper"
                                      : plan_axis == PlanAxis::kCpuOnly ? "cpu-only"
                                      : plan_axis == PlanAxis::kSplitBand
                                          ? "split-band"
                                          : "all");
  if (plan_axis != PlanAxis::kNone) {
    api::EngineOptions eo;
    eo.pool_workers = std::max<std::size_t>(4, hw);
    eo.queue_workers = 1;
    api::Engine engine(sim::make_i7_2600k(), eo);
    util::Json plan_runs = util::Json::array();
    const int plan_reps = quick ? 2 : 5;
    for (const std::size_t dim : dims) {
      for (const char* shape : {"paper", "cpu-only", "split-band"}) {
        const bool selected = plan_axis == PlanAxis::kAll ||
                              (plan_axis == PlanAxis::kPaper && std::string(shape) == "paper") ||
                              (plan_axis == PlanAxis::kCpuOnly &&
                               std::string(shape) == "cpu-only") ||
                              (plan_axis == PlanAxis::kSplitBand &&
                               std::string(shape) == "split-band");
        if (!selected) continue;
        plan_runs.push_back(run_phase_plan(engine, "editdist", dim, shape, plan_reps));
      }
    }
    doc["phase_plans"] = std::move(plan_runs);
  }
  try {
    doc.save_file(path);
  } catch (const util::JsonError& e) {
    std::cerr << "bench_micro: " << e.what() << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool json_mode = false;
  bool quick = false;
  SchedAxis sched_axis = SchedAxis::kBoth;
  bool sched_explicit = false;
  AbiAxis abi_axis = AbiAxis::kAll;
  PlanAxis plan_axis = PlanAxis::kNone;
  const auto parse_plan = [&](const std::string& v) -> bool {
    if (v == "paper") {
      plan_axis = PlanAxis::kPaper;
    } else if (v == "cpu-only") {
      plan_axis = PlanAxis::kCpuOnly;
    } else if (v == "split-band") {
      plan_axis = PlanAxis::kSplitBand;
    } else if (v == "all") {
      plan_axis = PlanAxis::kAll;
    } else {
      return false;
    }
    return true;
  };
  const auto parse_abi = [&](const std::string& v) -> bool {
    if (v == "cell") {
      abi_axis = AbiAxis::kCell;
    } else if (v == "segment") {
      abi_axis = AbiAxis::kSegment;
    } else if (v == "tile") {
      abi_axis = AbiAxis::kTile;
    } else if (v == "all") {
      abi_axis = AbiAxis::kAll;
    } else {
      return false;
    }
    return true;
  };
  // Small tiles stress dispatch hardest (most tiles, most calls); 64 is
  // the historical per-cell-vs-segment configuration.
  std::vector<std::size_t> tiles{16, 64};
  const auto parse_tiles = [&](const std::string& v) -> bool {
    tiles.clear();
    std::istringstream list(v);
    for (std::string t; std::getline(list, t, ',');) {
      if (t.empty() || t.size() > 9 || t.find_first_not_of("0123456789") != std::string::npos) {
        return false;
      }
      const std::size_t tile = std::stoul(t);
      if (tile == 0) return false;
      tiles.push_back(tile);
    }
    return !tiles.empty();
  };
  std::vector<std::string> unrecognized;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
      json_path = "BENCH_micro.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    } else if (arg == "--quick") {
      // The CI smoke configuration; implies JSON mode.
      quick = true;
      json_mode = true;
      if (json_path.empty()) json_path = "BENCH_micro.json";
    } else if (arg.rfind("--tiles=", 0) == 0) {
      if (!parse_tiles(arg.substr(8))) {
        std::cerr << "bench_micro: --tiles expects positive integers, e.g. --tiles=8,16,64\n";
        return 1;
      }
      json_mode = true;
      if (json_path.empty()) json_path = "BENCH_micro.json";
    } else if (arg == "--scheduler") {
      // A bare/space-separated form would otherwise be silently dropped
      // and the run would measure the wrong thing.
      std::cerr << "bench_micro: use --scheduler=barrier|dataflow|both (with '=')\n";
      return 1;
    } else if (arg.rfind("--scheduler=", 0) == 0) {
      sched_explicit = true;
      const std::string v = arg.substr(12);
      if (v == "barrier") {
        sched_axis = SchedAxis::kBarrier;
      } else if (v == "dataflow") {
        sched_axis = SchedAxis::kDataflow;
      } else if (v == "both") {
        sched_axis = SchedAxis::kBoth;
      } else {
        std::cerr << "bench_micro: --scheduler expects barrier, dataflow or both\n";
        return 1;
      }
    } else if (arg == "--kernel-abi" || arg.rfind("--kernel-abi=", 0) == 0) {
      // Both `--kernel-abi=tile` and `--kernel-abi tile` are accepted
      // (CI uses the space form). Implies JSON mode.
      std::string v;
      if (arg == "--kernel-abi") {
        if (i + 1 >= argc) {
          std::cerr << "bench_micro: --kernel-abi expects cell, segment, tile or all\n";
          return 1;
        }
        v = argv[++i];
      } else {
        v = arg.substr(13);
      }
      if (!parse_abi(v)) {
        std::cerr << "bench_micro: --kernel-abi expects cell, segment, tile or all\n";
        return 1;
      }
      json_mode = true;
      if (json_path.empty()) json_path = "BENCH_micro.json";
    } else if (arg == "--phase-plan" || arg.rfind("--phase-plan=", 0) == 0) {
      // Both `--phase-plan=paper` and `--phase-plan paper` are accepted
      // (CI uses the space form). Implies JSON mode.
      std::string v;
      if (arg == "--phase-plan") {
        if (i + 1 >= argc) {
          std::cerr << "bench_micro: --phase-plan expects paper, cpu-only, split-band or all\n";
          return 1;
        }
        v = argv[++i];
      } else {
        v = arg.substr(13);
      }
      if (!parse_plan(v)) {
        std::cerr << "bench_micro: --phase-plan expects paper, cpu-only, split-band or all\n";
        return 1;
      }
      json_mode = true;
      if (json_path.empty()) json_path = "BENCH_micro.json";
    } else {
      // Remembered, not rejected here: google-benchmark mode forwards
      // these; JSON mode refuses them below so a typo can't silently
      // measure the wrong configuration.
      unrecognized.push_back(arg);
    }
  }
  if (json_mode) {
    if (!unrecognized.empty()) {
      std::cerr << "bench_micro: unrecognized argument(s) in JSON mode:";
      for (const std::string& a : unrecognized) std::cerr << " " << a;
      std::cerr << "\n  (known: --json[=PATH], --quick, --tiles=T1,T2,...,"
                   " --scheduler=barrier|dataflow|both,"
                   " --kernel-abi[=]cell|segment|tile|all,"
                   " --phase-plan[=]paper|cpu-only|split-band|all)\n";
      return 1;
    }
    return run_json_mode(json_path, sched_axis, sched_explicit, abi_axis, plan_axis, quick,
                         tiles);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
