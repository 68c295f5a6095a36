// The phase-program IR (core/phase_program.hpp) and its interpreter:
//
//   * plan_phases compiles the paper's default three-phase shape (and
//     degenerate variants) from a tuning;
//   * the validator accepts exactly the programs that cover every
//     diagonal once, contiguously, in dependency order — fuzzed over
//     randomized programs and randomized mutations;
//   * the executor interprets ANY valid program: functional runs on
//     poison-filled grids are bit-identical to run_serial across all four
//     apps and leave no 0xCD cell behind (an uncovered diagonal that a
//     timing walk would silently skip is loud here);
//   * run() and estimate() are ONE walk: simulated timings agree exactly
//     over randomized programs, not just the paper's shape;
//   * non-paper programs (cpu-only N-phase, split GPU band) execute
//     end-to-end through api::Engine via CompileOptions::program.
#include "core/phase_program.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "api/engine.hpp"
#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "core/executor.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::core {
namespace {

bool grids_equal(const Grid& a, const Grid& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// True if any cell of the grid is still the full 0xCD poison pattern —
/// i.e. was never written by any phase.
bool has_poison_cell(const Grid& g) {
  const std::size_t elem = g.elem_bytes();
  std::vector<std::byte> poison(elem, Grid::kPoison);
  for (std::size_t i = 0; i < g.dim(); ++i) {
    for (std::size_t j = 0; j < g.dim(); ++j) {
      if (std::memcmp(g.cell_unchecked(i, j), poison.data(), elem) == 0) return true;
    }
  }
  return false;
}

/// A randomized VALID program: random contiguous cut points over
/// [0, 2*dim-1), each slice assigned a random device (bounded by
/// max_gpus) with random per-device knobs. Multi-GPU slices stay inside
/// PhaseDesc::validate's range: at most dim devices, and a halo of at
/// most the narrowest device's rows (dim / gpu_count) - 1.
PhaseProgram random_program(std::size_t dim, std::mt19937& rng, int max_gpus) {
  const std::size_t d_total = num_diagonals(dim);
  std::uniform_int_distribution<std::size_t> n_cuts_dist(0, 5);
  std::uniform_int_distribution<std::size_t> cut_dist(1, d_total - 1);
  std::vector<std::size_t> cuts{0, d_total};
  for (std::size_t c = n_cuts_dist(rng); c > 0; --c) cuts.push_back(cut_dist(rng));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  PhaseProgram prog;
  prog.dim = dim;
  std::uniform_int_distribution<int> device_dist(0, max_gpus >= 2 ? 2 : (max_gpus >= 1 ? 1 : 0));
  std::uniform_int_distribution<int> tile_dist(1, 9);
  std::uniform_int_distribution<int> sched_dist(0, 1);
  std::uniform_int_distribution<int> gpu_tile_dist(1, 5);
  std::uniform_int_distribution<int> gpus_dist(
      2, std::min(std::max(2, max_gpus), static_cast<int>(std::min<std::size_t>(dim, 64))));
  for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
    PhaseDesc ph;
    ph.d_begin = cuts[s];
    ph.d_end = cuts[s + 1];
    switch (device_dist(rng)) {
      case 0:
        ph.device = PhaseDevice::kCpu;
        ph.cpu_tile = static_cast<std::size_t>(tile_dist(rng));
        ph.scheduler = sched_dist(rng) ? cpu::Scheduler::kDataflow : cpu::Scheduler::kBarrier;
        break;
      case 1:
        ph.device = PhaseDevice::kGpuSingle;
        ph.gpu_tile = static_cast<std::size_t>(gpu_tile_dist(rng));
        break;
      default:
        ph.device = PhaseDevice::kGpuMulti;
        ph.gpu_count = gpus_dist(rng);
        ph.halo = std::uniform_int_distribution<long long>(
            0, std::min<long long>(3, static_cast<long long>(dim) / ph.gpu_count - 1))(rng);
        break;
    }
    prog.phases.push_back(ph);
  }
  return prog;
}

// --- plan_phases: the default program IS the paper's shape ---------------

TEST(PlanPhases, DefaultProgramReproducesThePaperThreePhaseShape) {
  const InputParams in{64, 100.0, 1};
  const PhaseProgram p = plan_phases(in, TunableParams{4, 20, 3, 1});
  ASSERT_EQ(p.phases.size(), 3u);
  EXPECT_EQ(p.phases[0].device, PhaseDevice::kCpu);
  EXPECT_EQ(p.phases[1].device, PhaseDevice::kGpuMulti);
  EXPECT_EQ(p.phases[1].gpu_count, 2);
  EXPECT_EQ(p.phases[1].halo, 3);
  EXPECT_EQ(p.phases[2].device, PhaseDevice::kCpu);
  const TunableParams tuning{4, 20, 3, 1};
  EXPECT_EQ(p.phases[0].d_end, tuning.gpu_d_begin(64));
  EXPECT_EQ(p.phases[1].d_end, tuning.gpu_d_end(64));
  EXPECT_EQ(p.phases[2].d_end, num_diagonals(64));
  EXPECT_EQ(p.cpu_phase_count(), 2u);
  EXPECT_EQ(p.gpu_phase_count(), 1u);
}

TEST(PlanPhases, CpuOnlyTuningYieldsOneWholeGridPhase) {
  const InputParams in{40, 25.0, 2};
  const PhaseProgram p = plan_phases(in, TunableParams{8, -1, -1, 1}, cpu::Scheduler::kDataflow);
  ASSERT_EQ(p.phases.size(), 1u);
  EXPECT_EQ(p.phases[0].device, PhaseDevice::kCpu);
  EXPECT_EQ(p.phases[0].scheduler, cpu::Scheduler::kDataflow);
  EXPECT_EQ(p.phases[0].d_begin, 0u);
  EXPECT_EQ(p.phases[0].d_end, num_diagonals(40));
}

TEST(PlanPhases, FullBandYieldsOneGpuPhase) {
  const InputParams in{64, 100.0, 1};
  const PhaseProgram p = plan_phases(in, TunableParams{4, 63, -1, 8});
  ASSERT_EQ(p.phases.size(), 1u);
  EXPECT_EQ(p.phases[0].device, PhaseDevice::kGpuSingle);
  EXPECT_EQ(p.phases[0].gpu_tile, 8u);
}

// --- validator ------------------------------------------------------------

TEST(PhaseProgramValidate, RejectsGapOverlapDisorderAndBadDevices) {
  const InputParams in{32, 10.0, 1};
  PhaseProgram good = plan_phases(in, TunableParams{4, 10, -1, 1});
  EXPECT_NO_THROW(good.validate());

  PhaseProgram gap = good;
  gap.phases[1].d_begin += 1;  // diagonal uncovered
  EXPECT_THROW(gap.validate(), std::invalid_argument);

  PhaseProgram overlap = good;
  overlap.phases[1].d_begin -= 1;  // diagonal covered twice
  EXPECT_THROW(overlap.validate(), std::invalid_argument);

  PhaseProgram disorder = good;
  std::swap(disorder.phases[0], disorder.phases[1]);  // dependency order broken
  EXPECT_THROW(disorder.validate(), std::invalid_argument);

  PhaseProgram truncated = good;
  truncated.phases.pop_back();  // tail uncovered
  EXPECT_THROW(truncated.validate(), std::invalid_argument);

  PhaseProgram empty;
  empty.dim = 32;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  PhaseProgram bad_multi = good;
  bad_multi.phases[1].device = PhaseDevice::kGpuMulti;
  bad_multi.phases[1].gpu_count = 1;  // multi needs >= 2 devices
  EXPECT_THROW(bad_multi.validate(), std::invalid_argument);

  PhaseProgram neg_halo = good;
  neg_halo.phases[1].device = PhaseDevice::kGpuMulti;
  neg_halo.phases[1].gpu_count = 2;
  neg_halo.phases[1].halo = -1;
  EXPECT_THROW(neg_halo.validate(), std::invalid_argument);

  PhaseProgram zero_tile = good;
  zero_tile.phases[0].cpu_tile = 0;
  EXPECT_THROW(zero_tile.validate(), std::invalid_argument);
}

/// One kGpuMulti phase over the whole dim x dim grid.
PhaseProgram multi_gpu_program(std::size_t dim, int gpus, long long halo) {
  PhaseProgram p;
  p.dim = dim;
  PhaseDesc ph;
  ph.device = PhaseDevice::kGpuMulti;
  ph.d_begin = 0;
  ph.d_end = num_diagonals(dim);
  ph.gpu_count = gpus;
  ph.halo = halo;
  ph.gpu_tile = 1;
  p.phases.push_back(ph);
  return p;
}

/// The multi-GPU executor is exact only while every device owns a row
/// (gpu_count <= dim) and every swap copies rows the upstream device owns
/// (halo <= the narrowest device's rows - 1); validate() accepts each
/// bound and rejects one past it, naming the bound.
TEST(PhaseProgramValidate, MultiGpuPhaseNeedsARowPerDeviceAndAHaloInsideTheNarrowestDevice) {
  const auto rejects = [](const PhaseProgram& p, const std::string& bound) {
    try {
      p.validate();
      ADD_FAILURE() << p.describe() << " validated";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bound), std::string::npos) << e.what();
    }
  };
  EXPECT_NO_THROW(multi_gpu_program(4, 4, 0).validate());
  rejects(multi_gpu_program(4, 5, 0), "gpu_count 5 > dim 4");
  rejects(multi_gpu_program(2, 4, 0), "gpu_count 4 > dim 2");
  rejects(multi_gpu_program(4, 6, 0), "gpu_count 6 > dim 4");

  // 37 rows over 8 devices: the narrowest device has 4 rows.
  EXPECT_NO_THROW(multi_gpu_program(37, 8, 3).validate());
  rejects(multi_gpu_program(37, 8, 4), "rows - 1 = 3");
  // The program that returned a wrong grid before validate() checked it.
  rejects(multi_gpu_program(37, 8, 6), "rows - 1 = 3");
  // Two devices on 9 rows: 4 and 5 rows.
  EXPECT_NO_THROW(multi_gpu_program(9, 2, 3).validate());
  rejects(multi_gpu_program(9, 2, 4), "rows - 1 = 3");

  // A 1-row grid cannot hold two devices, so a dual-GPU tuning plans one.
  const PhaseProgram one_row = plan_phases(InputParams{1, 10.0, 1}, TunableParams{1, 0, 0, 1});
  for (const PhaseDesc& ph : one_row.phases) EXPECT_NE(ph.device, PhaseDevice::kGpuMulti);
}

/// At the bounds the executor's grid equals run_serial's.
TEST(PhaseProgramInterpreter, MultiGpuProgramsAtTheValidateBoundsMatchSerial) {
  sim::SystemProfile eight = sim::make_i7_2600k();
  eight.gpus.resize(8, eight.gpus.front());
  HybridExecutor ex(eight, 2);
  apps::SyntheticParams sp;
  sp.tsize = 20.0;
  sp.dsize = 2;
  sp.functional_iters = 3;
  for (const auto& [dim, gpus, halo] :
       {std::tuple<std::size_t, int, long long>{37, 8, 3}, {4, 4, 0}, {9, 2, 3}, {8, 8, 0}}) {
    sp.dim = dim;
    const WavefrontSpec spec = apps::make_synthetic_spec(sp);
    Grid ref(dim, spec.elem_bytes);
    ex.run_serial(spec, ref);
    Grid g(dim, spec.elem_bytes);
    g.fill_poison();
    ex.run(spec, multi_gpu_program(dim, gpus, halo), g);
    EXPECT_TRUE(grids_equal(ref, g)) << dim << " rows, " << gpus << " devices, halo " << halo;
  }
}

TEST(PhaseProgramValidate, FuzzRandomProgramsValidateAndMutationsDont) {
  std::mt19937 rng(20260728);
  std::uniform_int_distribution<std::size_t> dim_dist(2, 80);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t dim = dim_dist(rng);
    PhaseProgram p = random_program(dim, rng, 4);
    ASSERT_NO_THROW(p.validate()) << p.describe();

    // Exact-once coverage restated independently of the validator.
    std::vector<int> covered(num_diagonals(dim), 0);
    for (const PhaseDesc& ph : p.phases) {
      for (std::size_t d = ph.d_begin; d < ph.d_end; ++d) ++covered[d];
    }
    for (std::size_t d = 0; d < covered.size(); ++d) {
      ASSERT_EQ(covered[d], 1) << "diagonal " << d << " of " << p.describe();
    }

    // One random structural mutation must be rejected.
    PhaseProgram bad = p;
    std::uniform_int_distribution<std::size_t> pick(0, bad.phases.size() - 1);
    PhaseDesc& ph = bad.phases[pick(rng)];
    switch (iter % 4) {
      case 0:
        if (ph.d_end - ph.d_begin > 1) {
          ph.d_end -= 1;  // gap (or tail shortfall)
        } else {
          bad.phases.pop_back();
        }
        break;
      case 1:
        ph.d_end += 1;  // overlap (or runs past the last diagonal)
        break;
      case 2:
        bad.phases.push_back(bad.phases.front());  // duplicate: disorder
        break;
      default:
        // A multi-GPU phase just outside the executor's exact range: one
        // device more than rows, or a halo one past the narrowest
        // device's rows - 1.
        ph.device = PhaseDevice::kGpuMulti;
        ph.gpu_tile = 1;
        ph.strip_rows = 0;
        if (iter % 8 == 3) {
          ph.gpu_count = static_cast<int>(dim) + 1;
          ph.halo = 0;
        } else {
          ph.gpu_count = static_cast<int>(std::min<std::size_t>(dim, 4));
          ph.halo = static_cast<long long>(dim) / ph.gpu_count;
        }
        break;
    }
    EXPECT_THROW(bad.validate(), std::invalid_argument) << bad.describe();
  }
}

// --- interpreter: randomized programs, all four apps ---------------------

struct AppCase {
  const char* name;
  WavefrontSpec spec;
};

std::vector<AppCase> small_apps(std::size_t dim) {
  std::vector<AppCase> out;
  {
    apps::EditDistParams p;
    p.str_a = apps::random_dna(dim, 11);
    p.str_b = apps::random_dna(dim, 22);
    out.push_back({"editdist", apps::make_editdist_spec(p)});
  }
  {
    apps::SeqCmpParams p;
    p.seq_a = apps::random_dna(dim, 33);
    p.seq_b = apps::random_dna(dim, 44);
    out.push_back({"seqcmp", apps::make_seqcmp_spec(p)});
  }
  {
    apps::NashParams p;
    p.dim = dim;
    p.strategies = 3;
    p.fp_iterations = 4;
    out.push_back({"nash", apps::make_nash_spec(p)});
  }
  {
    apps::SyntheticParams p;
    p.dim = dim;
    p.tsize = 20.0;
    p.dsize = 2;
    p.functional_iters = 3;
    out.push_back({"synthetic", apps::make_synthetic_spec(p)});
  }
  return out;
}

TEST(PhaseProgramInterpreter, RandomProgramsBitIdenticalToSerialNoPoisonSurvives) {
  const std::size_t dim = 33;
  HybridExecutor ex(sim::make_i7_2600k(), 2);  // profile has 4 GPUs
  std::mt19937 rng(42);
  for (const AppCase& app : small_apps(dim)) {
    Grid ref(dim, app.spec.elem_bytes);
    ex.run_serial(app.spec, ref);
    for (int iter = 0; iter < 12; ++iter) {
      const PhaseProgram prog = random_program(dim, rng, 4);
      Grid g(dim, app.spec.elem_bytes);
      g.fill_poison();  // an uncovered diagonal must surface loudly
      ex.run(app.spec, prog, g);
      EXPECT_FALSE(has_poison_cell(g)) << app.name << " " << prog.describe();
      EXPECT_TRUE(grids_equal(ref, g)) << app.name << " " << prog.describe();
    }
  }
}

TEST(PhaseProgramInterpreter, RunAndEstimateAgreeOverRandomPrograms) {
  const std::size_t dim = 29;
  HybridExecutor ex(sim::make_i7_2600k(), 2);
  std::mt19937 rng(7);
  const auto app = small_apps(dim).front();
  const InputParams in = app.spec.inputs();
  for (int iter = 0; iter < 20; ++iter) {
    const PhaseProgram prog = random_program(dim, rng, 3);
    Grid g(dim, app.spec.elem_bytes);
    const RunResult r = ex.run(app.spec, prog, g);
    const RunResult est = ex.estimate(in, prog);
    ASSERT_EQ(r.breakdown.phases.size(), prog.phases.size());
    ASSERT_EQ(est.breakdown.phases.size(), prog.phases.size());
    EXPECT_DOUBLE_EQ(r.rtime_ns, est.rtime_ns) << prog.describe();
    for (std::size_t i = 0; i < prog.phases.size(); ++i) {
      EXPECT_DOUBLE_EQ(r.breakdown.phases[i].ns, est.breakdown.phases[i].ns)
          << "phase " << i << " of " << prog.describe();
      EXPECT_EQ(r.breakdown.phases[i].kernel_launches, est.breakdown.phases[i].kernel_launches);
      EXPECT_EQ(r.breakdown.phases[i].swap_count, est.breakdown.phases[i].swap_count);
      EXPECT_EQ(r.breakdown.phases[i].redundant_cells,
                est.breakdown.phases[i].redundant_cells);
    }
  }
}

TEST(PhaseProgramInterpreter, MismatchedDimAndExcessGpusThrow) {
  HybridExecutor ex(sim::make_i3_540(), 1);  // 1 GPU
  const InputParams in{32, 10.0, 1};
  const PhaseProgram wrong_dim = plan_phases(InputParams{33, 10.0, 1}, TunableParams{4, -1, -1, 1});
  EXPECT_THROW(ex.estimate(in, wrong_dim), std::invalid_argument);
  PhaseProgram greedy = plan_phases(in, TunableParams{4, 10, 2, 1});  // dual GPU
  EXPECT_THROW(ex.estimate(in, greedy), std::invalid_argument);
}

// --- split_gpu_band / make_cpu_only_program ------------------------------

TEST(ProgramBuilders, SplitGpuBandPartitionsTheBand) {
  const InputParams in{64, 100.0, 1};
  const PhaseProgram base = plan_phases(in, TunableParams{4, 20, -1, 4});
  const PhaseProgram split = split_gpu_band(base, 3);
  EXPECT_EQ(split.gpu_phase_count(), 3u);
  EXPECT_EQ(split.cpu_phase_count(), base.cpu_phase_count());
  EXPECT_NO_THROW(split.validate());
  // Splitting re-transfers frontiers: strictly more simulated GPU time.
  HybridExecutor ex(sim::make_i7_2600k(), 1);
  double split_gpu_ns = 0.0;
  for (const PhaseTiming& t : ex.estimate(in, split).breakdown.phases) {
    if (t.device != PhaseDevice::kCpu) split_gpu_ns += t.ns;
  }
  const RunResult whole = ex.estimate(in, base);
  ASSERT_EQ(whole.breakdown.phases[1].device, PhaseDevice::kGpuSingle);
  EXPECT_GT(split_gpu_ns, whole.breakdown.phases[1].ns);
  // k beyond the band width clamps instead of producing empty phases.
  const PhaseProgram narrow = plan_phases(in, TunableParams{4, 1, -1, 1});
  EXPECT_NO_THROW(split_gpu_band(narrow, 100).validate());
}

TEST(ProgramBuilders, CpuOnlyNPhaseCoversEverything) {
  const InputParams in{40, 25.0, 2};
  const PhaseProgram p = make_cpu_only_program(in, 8, 5);
  EXPECT_EQ(p.phases.size(), 5u);
  EXPECT_EQ(p.gpu_phase_count(), 0u);
  EXPECT_NO_THROW(p.validate());
  // n beyond the diagonal count clamps.
  EXPECT_NO_THROW(make_cpu_only_program(InputParams{3, 1.0, 0}, 2, 50).validate());
}

// --- non-paper programs end-to-end through api::Engine -------------------

TEST(EngineCustomProgram, CpuOnlyNPhaseAndSplitBandRunThroughTheEngine) {
  api::EngineOptions opts;
  opts.pool_workers = 2;
  opts.queue_workers = 1;
  api::Engine eng(sim::make_i7_2600k(), opts);

  for (const AppCase& app : small_apps(36)) {
    const InputParams in = app.spec.inputs();
    Grid ref(in.dim, app.spec.elem_bytes);
    eng.run(eng.compile(app.spec, TunableParams{}, api::kSerialBackend), ref);

    // Non-paper shape 1: a 4-phase CPU-only pipeline.
    api::CompileOptions cpu_only;
    cpu_only.backend = api::kCpuTiledBackend;
    cpu_only.params = TunableParams{4, -1, -1, 1};
    cpu_only.program = make_cpu_only_program(in, 4, 4);
    const api::Plan cpu_plan = eng.compile(app.spec, cpu_only);
    EXPECT_EQ(cpu_plan.program().phases.size(), 4u);
    Grid g1(in.dim, app.spec.elem_bytes);
    g1.fill_poison();
    const RunResult r1 = eng.run(cpu_plan, g1);
    EXPECT_TRUE(grids_equal(ref, g1)) << app.name << " cpu-only 4-phase";
    EXPECT_FALSE(has_poison_cell(g1));
    EXPECT_DOUBLE_EQ(r1.rtime_ns, eng.estimate(cpu_plan).rtime_ns);

    // Non-paper shape 2: the GPU band split into 3 sub-bands.
    api::CompileOptions split;
    split.params = TunableParams{4, 14, -1, 1};
    split.program = split_gpu_band(plan_phases(in, *split.params), 3);
    const api::Plan split_plan = eng.compile(app.spec, split);
    EXPECT_EQ(split_plan.program().gpu_phase_count(), 3u);
    Grid g2(in.dim, app.spec.elem_bytes);
    g2.fill_poison();
    const RunResult r2 = eng.run(split_plan, g2);
    EXPECT_TRUE(grids_equal(ref, g2)) << app.name << " split-band";
    EXPECT_FALSE(has_poison_cell(g2));
    EXPECT_DOUBLE_EQ(r2.rtime_ns, eng.estimate(split_plan).rtime_ns);
  }
}

TEST(EngineCustomProgram, ProgramShapeSaltsThePlanCache) {
  api::EngineOptions opts;
  opts.pool_workers = 1;
  opts.queue_workers = 1;
  api::Engine eng(sim::make_i7_2600k(), opts);
  apps::SyntheticParams sp;
  sp.dim = 32;
  sp.tsize = 10.0;
  sp.dsize = 1;
  const WavefrontSpec spec = apps::make_synthetic_spec(sp);
  const InputParams in = spec.inputs();

  api::CompileOptions two;
  two.backend = api::kCpuTiledBackend;
  two.params = TunableParams{4, -1, -1, 1};
  two.program = make_cpu_only_program(in, 4, 2);
  api::CompileOptions three = two;
  three.program = make_cpu_only_program(in, 4, 3);

  const api::Plan p2 = eng.compile(spec, two);
  const api::Plan p3 = eng.compile(spec, three);
  EXPECT_FALSE(p2.shares_state_with(p3));  // same params, different schedule
  EXPECT_TRUE(p2.shares_state_with(eng.compile(spec, two)));  // identical shape hits
}

TEST(EngineCustomProgram, InvalidCustomProgramsAreRejectedAtCompile) {
  api::EngineOptions opts;
  opts.pool_workers = 1;
  opts.queue_workers = 1;
  api::Engine eng(sim::make_i3_540(), opts);  // 1 GPU
  apps::SyntheticParams sp;
  sp.dim = 32;
  sp.tsize = 10.0;
  sp.dsize = 1;
  const WavefrontSpec spec = apps::make_synthetic_spec(sp);
  const InputParams in = spec.inputs();

  api::CompileOptions wrong_dim;
  wrong_dim.params = TunableParams{4, -1, -1, 1};
  wrong_dim.program = make_cpu_only_program(InputParams{33, 10.0, 1}, 4, 2);
  EXPECT_THROW(eng.compile(spec, wrong_dim), std::invalid_argument);

  api::CompileOptions gap;
  gap.params = TunableParams{4, -1, -1, 1};
  gap.program = make_cpu_only_program(in, 4, 2);
  gap.program->phases.pop_back();
  EXPECT_THROW(eng.compile(spec, gap), std::invalid_argument);

  api::CompileOptions greedy;
  greedy.params = TunableParams{4, -1, -1, 1};
  greedy.program = plan_phases(in, TunableParams{4, 10, 2, 1});  // dual GPU
  EXPECT_THROW(eng.compile(spec, greedy), std::invalid_argument);
}

}  // namespace
}  // namespace wavetune::core
