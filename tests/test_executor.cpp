// Executor semantics exercised through the api::Engine session API: every
// run/estimate below goes compile -> Plan -> run/estimate, so these tests
// double as coverage for plan preparation (validation + normalization at
// compile time) and the backend dispatch path. test_engine.cpp covers the
// session-level behaviour (cache, queue, concurrency) itself.
#include "api/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/executor.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::core {
namespace {

apps::SyntheticParams small_instance(std::size_t dim = 40, double tsize = 25.0, int dsize = 2) {
  apps::SyntheticParams p;
  p.dim = dim;
  p.tsize = tsize;
  p.dsize = dsize;
  p.functional_iters = 4;
  return p;
}

api::EngineOptions small_engine() {
  api::EngineOptions o;
  o.pool_workers = 2;
  o.queue_workers = 1;
  o.queue_capacity = 8;
  return o;
}

bool grids_equal(const Grid& a, const Grid& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

RunResult run(api::Engine& eng, const WavefrontSpec& spec, const TunableParams& p, Grid& g) {
  return eng.run(eng.compile(spec, p), g);
}

RunResult run_serial(api::Engine& eng, const WavefrontSpec& spec, Grid& g) {
  return eng.run(eng.compile(spec, TunableParams{}, api::kSerialBackend), g);
}

RunResult estimate(api::Engine& eng, const InputParams& in, const TunableParams& p) {
  return eng.estimate(eng.compile(in, p));
}

class ExecutorTest : public ::testing::Test {
protected:
  api::Engine eng_{sim::make_i7_2600k(), small_engine()};

  Grid reference(const WavefrontSpec& spec) {
    Grid ref(spec.dim, spec.elem_bytes);
    run_serial(eng_, spec, ref);
    return ref;
  }
};

TEST_F(ExecutorTest, RejectsMismatchedGrid) {
  const auto spec = apps::make_synthetic_spec(small_instance());
  const api::Plan plan = eng_.compile(spec, TunableParams{});
  Grid wrong_dim(spec.dim + 1, spec.elem_bytes);
  EXPECT_THROW(eng_.run(plan, wrong_dim), std::invalid_argument);
  EXPECT_THROW(eng_.submit(plan, wrong_dim), std::invalid_argument);
  Grid wrong_elem(spec.dim, spec.elem_bytes + 8);
  EXPECT_THROW(eng_.run(plan, wrong_elem), std::invalid_argument);
  EXPECT_THROW(eng_.submit(plan, wrong_elem), std::invalid_argument);
}

TEST_F(ExecutorTest, RejectsMoreGpusThanSystemHas) {
  // Validation is hoisted to compile time: the plan for a tuning the
  // system cannot execute never exists.
  api::Engine single(sim::make_i3_540(), small_engine());
  const InputParams in{64, 10.0, 1};
  EXPECT_NO_THROW(estimate(single, in, TunableParams{4, 10, -1, 1}));
  EXPECT_THROW(single.compile(in, TunableParams{4, 10, 2, 1}), std::invalid_argument);
}

TEST_F(ExecutorTest, CpuOnlyMatchesSerialValues) {
  const auto spec = apps::make_synthetic_spec(small_instance());
  const Grid ref = reference(spec);
  for (int ct : {1, 3, 8, 40}) {
    Grid g(spec.dim, spec.elem_bytes);
    run(eng_, spec, TunableParams{ct, -1, -1, 1}, g);
    EXPECT_TRUE(grids_equal(ref, g)) << "cpu_tile=" << ct;
  }
}

// The central property: for ANY tuning configuration, the hybrid backend
// computes exactly the same values as the sequential reference.
struct HybridCase {
  int cpu_tile;
  long long band;
  long long halo;
  int gpu_tile;
};

class HybridEqualsSerial : public ::testing::TestWithParam<HybridCase> {};

TEST_P(HybridEqualsSerial, Values) {
  const HybridCase c = GetParam();
  const auto spec = apps::make_synthetic_spec(small_instance(37, 30.0, 3));
  api::Engine eng(sim::make_i7_2600k(), small_engine());

  Grid ref(spec.dim, spec.elem_bytes);
  run_serial(eng, spec, ref);

  Grid g(spec.dim, spec.elem_bytes);
  g.fill_poison();  // stale reads must surface as wrong values
  const TunableParams p{c.cpu_tile, c.band, c.halo, c.gpu_tile};
  run(eng, spec, p, g);
  EXPECT_TRUE(grids_equal(ref, g)) << p.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HybridEqualsSerial,
    ::testing::Values(
        // CPU-only variants
        HybridCase{1, -1, -1, 1}, HybridCase{10, -1, -1, 1},
        // Single GPU, untiled, various bands (incl. whole grid)
        HybridCase{4, 0, -1, 1}, HybridCase{4, 5, -1, 1}, HybridCase{4, 18, -1, 1},
        HybridCase{4, 36, -1, 1}, HybridCase{2, 100, -1, 1},
        // Single GPU, tiled
        HybridCase{4, 10, -1, 2}, HybridCase{4, 18, -1, 8}, HybridCase{4, 36, -1, 16},
        HybridCase{4, 36, -1, 5},
        // Dual GPU, all halo regimes (0 = swap every diagonal)
        HybridCase{4, 10, 0, 1}, HybridCase{4, 10, 2, 1}, HybridCase{4, 18, 0, 1},
        HybridCase{4, 18, 5, 1}, HybridCase{4, 18, 11, 1}, HybridCase{4, 36, 0, 1},
        HybridCase{4, 36, 3, 1}, HybridCase{4, 36, 9, 1}, HybridCase{4, 36, 17, 1},
        HybridCase{8, 25, 1, 1},
        // Dual GPU with tiling requested (normalizes to untiled)
        HybridCase{4, 18, 4, 16}));

// Property sweep over dims x halos for dual GPU: the halo-swap machinery
// must be correct at every wedge size, including odd dims.
class DualGpuHaloSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, long long>> {};

TEST_P(DualGpuHaloSweep, Values) {
  const auto [dim, halo] = GetParam();
  const auto spec = apps::make_synthetic_spec(small_instance(dim, 15.0, 1));
  api::Engine eng(sim::make_i7_3820(), small_engine());

  Grid ref(spec.dim, spec.elem_bytes);
  run_serial(eng, spec, ref);

  Grid g(spec.dim, spec.elem_bytes);
  g.fill_poison();
  const auto band = static_cast<long long>(dim) / 2;
  run(eng, spec, TunableParams{4, band, halo, 1}, g);
  EXPECT_TRUE(grids_equal(ref, g)) << "dim=" << dim << " halo=" << halo;
}

INSTANTIATE_TEST_SUITE_P(DimsHalos, DualGpuHaloSweep,
                         ::testing::Combine(::testing::Values<std::size_t>(16, 21, 33, 48),
                                            ::testing::Values<long long>(0, 1, 2, 3, 5, 7)));

TEST_F(ExecutorTest, RunAndEstimateAgreeExactly) {
  const auto spec = apps::make_synthetic_spec(small_instance(45, 60.0, 1));
  const InputParams in = spec.inputs();
  const TunableParams cases[] = {
      {8, -1, -1, 1}, {4, 12, -1, 1}, {4, 44, -1, 8}, {4, 20, 0, 1}, {4, 30, 6, 1},
  };
  for (const auto& p : cases) {
    Grid g(spec.dim, spec.elem_bytes);
    const RunResult r = run(eng_, spec, p, g);
    const RunResult est = estimate(eng_, in, p);
    EXPECT_DOUBLE_EQ(r.rtime_ns, est.rtime_ns) << p.describe();
    ASSERT_EQ(r.breakdown.phases.size(), est.breakdown.phases.size()) << p.describe();
    for (std::size_t i = 0; i < r.breakdown.phases.size(); ++i) {
      EXPECT_EQ(r.breakdown.phases[i].device, est.breakdown.phases[i].device) << p.describe();
      EXPECT_DOUBLE_EQ(r.breakdown.phases[i].ns, est.breakdown.phases[i].ns) << p.describe();
    }
    EXPECT_EQ(r.breakdown.swap_count(), est.breakdown.swap_count()) << p.describe();
    EXPECT_EQ(r.breakdown.kernel_launches(), est.breakdown.kernel_launches()) << p.describe();
    EXPECT_EQ(r.breakdown.redundant_cells(), est.breakdown.redundant_cells()) << p.describe();
  }
}

TEST_F(ExecutorTest, BreakdownSumsToTotal) {
  const InputParams in{64, 100.0, 1};
  const RunResult r = estimate(eng_, in, TunableParams{4, 20, 3, 1});
  EXPECT_DOUBLE_EQ(r.rtime_ns, r.breakdown.total_ns());
  const std::vector<PhaseTiming>& phases = r.breakdown.phases;
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].device, PhaseDevice::kCpu);
  EXPECT_EQ(phases[1].device, PhaseDevice::kGpuMulti);
  EXPECT_EQ(phases[2].device, PhaseDevice::kCpu);
  EXPECT_GT(phases[0].ns, 0.0);
  EXPECT_GT(phases[1].ns, 0.0);
  EXPECT_GT(phases[2].ns, 0.0);
  EXPECT_GT(r.breakdown.transfer_in_ns(), 0.0);
  EXPECT_GT(r.breakdown.transfer_out_ns(), 0.0);
  EXPECT_GT(r.breakdown.swap_count(), 0u);
  // Transfers and swaps happen inside the GPU phase.
  EXPECT_LE(r.breakdown.transfer_in_ns() + r.breakdown.transfer_out_ns(), phases[1].ns);
}

TEST_F(ExecutorTest, FullBandHasNullCpuPhases) {
  const InputParams in{64, 100.0, 1};
  const RunResult r = estimate(eng_, in, TunableParams{4, 63, -1, 1});
  ASSERT_EQ(r.breakdown.phases.size(), 1u);
  EXPECT_EQ(r.breakdown.phases[0].device, PhaseDevice::kGpuSingle);
  EXPECT_GT(r.breakdown.phases[0].ns, 0.0);
}

TEST_F(ExecutorTest, CpuOnlyHasNoGpuPhase) {
  const InputParams in{64, 100.0, 1};
  const RunResult r = estimate(eng_, in, TunableParams{4, -1, -1, 1});
  ASSERT_EQ(r.breakdown.phases.size(), 1u);
  EXPECT_EQ(r.breakdown.phases[0].device, PhaseDevice::kCpu);
  EXPECT_EQ(r.breakdown.kernel_launches(), 0u);
  EXPECT_GT(r.breakdown.phases[0].ns, 0.0);
}

TEST_F(ExecutorTest, UntiledLaunchesOnePerDiagonal) {
  const InputParams in{64, 100.0, 1};
  // band=10 => 21 diagonals, single GPU.
  const RunResult r = estimate(eng_, in, TunableParams{4, 10, -1, 1});
  EXPECT_EQ(r.breakdown.kernel_launches(), 21u);
}

TEST_F(ExecutorTest, TilingReducesKernelLaunches) {
  const InputParams in{64, 100.0, 1};
  const RunResult untiled = estimate(eng_, in, TunableParams{4, 63, -1, 1});
  const RunResult tiled = estimate(eng_, in, TunableParams{4, 63, -1, 8});
  EXPECT_LT(tiled.breakdown.kernel_launches(), untiled.breakdown.kernel_launches());
}

TEST_F(ExecutorTest, LargerHaloMeansFewerSwapsMoreRedundancy) {
  const InputParams in{128, 100.0, 1};
  const RunResult h0 = estimate(eng_, in, TunableParams{4, 50, 0, 1});
  const RunResult h4 = estimate(eng_, in, TunableParams{4, 50, 4, 1});
  const RunResult h12 = estimate(eng_, in, TunableParams{4, 50, 12, 1});
  EXPECT_GT(h0.breakdown.swap_count(), h4.breakdown.swap_count());
  EXPECT_GT(h4.breakdown.swap_count(), h12.breakdown.swap_count());
  EXPECT_EQ(h0.breakdown.redundant_cells(), 0u);
  EXPECT_LT(h4.breakdown.redundant_cells(), h12.breakdown.redundant_cells());
}

TEST_F(ExecutorTest, SerialEstimateMatchesClosedForm) {
  const InputParams in{100, 50.0, 5};
  const double expected =
      100.0 * 100.0 * eng_.profile().cpu.element_ns(50.0, in.elem_bytes());
  EXPECT_DOUBLE_EQ(eng_.estimate_serial(in), expected);
  // The serial backend's estimate agrees with the convenience accessor.
  const api::Plan serial = eng_.compile(in, core::TunableParams{}, api::kSerialBackend);
  EXPECT_DOUBLE_EQ(eng_.estimate(serial).rtime_ns, expected);
}

TEST_F(ExecutorTest, EstimateMonotoneInTsize) {
  const TunableParams p{4, 30, -1, 1};
  double prev = 0.0;
  for (double ts : {1.0, 10.0, 100.0, 1000.0}) {
    const double t = estimate(eng_, InputParams{64, ts, 1}, p).rtime_ns;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_F(ExecutorTest, EstimateMonotoneInDsizeForGpuConfigs) {
  const TunableParams p{4, 63, -1, 1};
  double prev = 0.0;
  for (int ds : {0, 1, 3, 5}) {
    const double t = estimate(eng_, InputParams{64, 10.0, ds}, p).rtime_ns;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_F(ExecutorTest, ResultParamsAreNormalized) {
  const InputParams in{64, 10.0, 1};
  const api::Plan plan = eng_.compile(in, TunableParams{4, 1000, 1000, 16});
  // Normalization happens at compile: the plan itself carries canonical
  // parameters, and the result reports them unchanged.
  EXPECT_TRUE(plan.params().is_normalized(in.dim));
  const RunResult r = eng_.estimate(plan);
  EXPECT_TRUE(r.params.is_normalized(in.dim));
  EXPECT_EQ(r.params.band, 63);
}

TEST_F(ExecutorTest, RunSerialProducesDeterministicTiming) {
  const auto spec = apps::make_synthetic_spec(small_instance());
  Grid g1(spec.dim, spec.elem_bytes);
  Grid g2(spec.dim, spec.elem_bytes);
  const RunResult a = run_serial(eng_, spec, g1);
  const RunResult b = run_serial(eng_, spec, g2);
  EXPECT_DOUBLE_EQ(a.rtime_ns, b.rtime_ns);
  EXPECT_DOUBLE_EQ(a.rtime_ns, eng_.estimate_serial(spec.inputs()));
  EXPECT_TRUE(grids_equal(g1, g2));
}

TEST_F(ExecutorTest, DualGpuOnDualSystemOnly) {
  api::Engine dual(sim::make_i7_3820(), small_engine());
  const InputParams in{32, 10.0, 1};
  EXPECT_NO_THROW(estimate(dual, in, TunableParams{4, 10, 2, 1}));
}

// --- N-GPU extension (paper §6 future work: "more than two GPUs") ---

class MultiGpuSweep : public ::testing::TestWithParam<std::tuple<int, long long, std::size_t>> {};

TEST_P(MultiGpuSweep, ValuesMatchSerial) {
  const auto [n_gpus, halo, dim] = GetParam();
  const auto spec = apps::make_synthetic_spec([&] {
    apps::SyntheticParams sp;
    sp.dim = dim;
    sp.tsize = 20.0;
    sp.dsize = 2;
    sp.functional_iters = 3;
    return sp;
  }());
  api::Engine eng(sim::make_i7_2600k(), small_engine());  // 4 GPUs available

  Grid ref(spec.dim, spec.elem_bytes);
  run_serial(eng, spec, ref);

  Grid g(spec.dim, spec.elem_bytes);
  g.fill_poison();
  TunableParams p{4, static_cast<long long>(dim) / 2, halo, 1};
  p.gpus = n_gpus;
  run(eng, spec, p, g);
  EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0)
      << "gpus=" << n_gpus << " halo=" << halo << " dim=" << dim;
}

INSTANTIATE_TEST_SUITE_P(GpusHalosDims, MultiGpuSweep,
                         ::testing::Combine(::testing::Values(3, 4),
                                            ::testing::Values<long long>(0, 1, 3, 7),
                                            ::testing::Values<std::size_t>(24, 37, 64)));

TEST_F(ExecutorTest, MultiGpuFullBandMatchesSerial) {
  const auto spec = apps::make_synthetic_spec(small_instance(40, 15.0, 1));
  Grid ref(spec.dim, spec.elem_bytes);
  run_serial(eng_, spec, ref);
  Grid g(spec.dim, spec.elem_bytes);
  g.fill_poison();
  TunableParams p{4, 39, 2, 1};
  p.gpus = 4;
  run(eng_, spec, p, g);
  EXPECT_TRUE(grids_equal(ref, g));
}

TEST_F(ExecutorTest, MultiGpuRunMatchesEstimate) {
  const auto spec = apps::make_synthetic_spec(small_instance(45, 60.0, 1));
  TunableParams p{4, 20, 2, 1};
  p.gpus = 3;
  Grid g(spec.dim, spec.elem_bytes);
  const RunResult r = run(eng_, spec, p, g);
  const RunResult est = estimate(eng_, spec.inputs(), p);
  EXPECT_DOUBLE_EQ(r.rtime_ns, est.rtime_ns);
  EXPECT_EQ(r.breakdown.swap_count(), est.breakdown.swap_count());
  EXPECT_EQ(r.breakdown.redundant_cells(), est.breakdown.redundant_cells());
}

TEST_F(ExecutorTest, ExplicitGpus2MatchesEncodedDual) {
  // gpus=2 with halo h must be the same schedule as the paper encoding.
  const InputParams in{64, 500.0, 1};
  TunableParams explicit2{4, 30, 3, 1};
  explicit2.gpus = 2;
  const TunableParams encoded{4, 30, 3, 1};
  EXPECT_DOUBLE_EQ(estimate(eng_, in, explicit2).rtime_ns,
                   estimate(eng_, in, encoded).rtime_ns);
}

TEST_F(ExecutorTest, MoreGpusReduceComputeBoundRuntime) {
  // Compute-bound corner: each extra device shortens the GPU phase.
  const InputParams in{2048, 8000.0, 1};
  double prev = 1e300;
  for (int n : {1, 2, 3, 4}) {
    TunableParams p{4, 1000, n >= 2 ? 4LL : -1LL, 1};
    p.gpus = n;
    const double t = estimate(eng_, in, p).rtime_ns;
    EXPECT_LT(t, prev) << n << " GPUs";
    prev = t;
  }
}

TEST_F(ExecutorTest, MultiGpuRequestBeyondProfileThrows) {
  api::Engine two_gpu(sim::make_i7_3820(), small_engine());
  TunableParams p{4, 20, 2, 1};
  p.gpus = 3;
  EXPECT_THROW(two_gpu.compile(InputParams{64, 100.0, 1}, p), std::invalid_argument);
}

TEST_F(ExecutorTest, MultiGpuSwapsScaleWithBoundaries) {
  // N devices have N-1 internal boundaries; with the same halo the swap
  // count grows accordingly.
  const InputParams in{256, 100.0, 1};
  auto swaps = [&](int n) {
    TunableParams p{4, 100, 3, 1};
    p.gpus = n;
    return estimate(eng_, in, p).breakdown.swap_count();
  };
  EXPECT_GT(swaps(3), swaps(2));
  EXPECT_GT(swaps(4), swaps(3));
}

TEST(TunableParamsMulti, NormalizationOfGpusField) {
  TunableParams p{4, 50, -1, 8};
  p.gpus = 3;
  const TunableParams n = p.normalized(100);
  EXPECT_EQ(n.gpu_count(), 3);
  EXPECT_GE(n.halo, 0);  // N-way needs a halo
  EXPECT_EQ(n.gpu_tile, 1);
  // CPU-only collapses the field.
  TunableParams cpu{4, -1, -1, 1};
  cpu.gpus = 3;
  EXPECT_EQ(cpu.normalized(100).gpu_count(), 0);
}

TEST(TunableParamsMulti, MaxHaloMultiBoundedByNarrowestBand) {
  // dim=99, 4 GPUs: narrowest band is 24 rows -> halo <= 23.
  EXPECT_LE(TunableParams::max_halo_multi(99, 0, 4), 23);
  EXPECT_EQ(TunableParams::max_halo_multi(100, -1, 4), -1);
  EXPECT_EQ(TunableParams::max_halo_multi(100, 10, 2), TunableParams::max_halo(100, 10));
}

TEST(TunableParamsMulti, JsonRoundtripWithGpus) {
  TunableParams p{10, 1234, 17, 1};
  p.gpus = 4;
  EXPECT_EQ(TunableParams::from_json(p.to_json()), p);
  // Legacy payloads without the field still load.
  const TunableParams legacy{10, 1234, 17, 8};
  EXPECT_EQ(TunableParams::from_json(legacy.to_json()), legacy);
}

TEST_F(ExecutorTest, SwapCountMatchesIntervalFormula) {
  // With halo h the executor swaps every h+1 offloaded diagonals (once
  // GPU1 is active). Check against a hand-derived count.
  const InputParams in{64, 10.0, 1};
  const long long band = 20;  // diagonals [43, 84) of 127
  const RunResult r = estimate(eng_, in, TunableParams{4, band, 3, 1});
  // GPU1 is active on every offloaded diagonal (band < dim/2 keeps both
  // halves populated); the initial transfer seeds the first wedge, then a
  // swap fires every h+1 = 4 diagonals.
  const std::size_t n_diags = 2 * band + 1;
  const std::size_t expected = (n_diags - 1) / 4;
  EXPECT_EQ(r.breakdown.swap_count(), expected);
}

// --- multi-GPU row split range checks ------------------------------------

/// CPU [0, dim-1) | `gpus`-way halo band on the main diagonal | CPU rest.
PhaseProgram main_diagonal_multi_program(std::size_t dim, int gpus) {
  PhaseProgram prog;
  prog.dim = dim;
  PhaseDesc lo;
  lo.d_begin = 0;
  lo.d_end = dim - 1;
  lo.cpu_tile = 8;
  PhaseDesc band;
  band.device = PhaseDevice::kGpuMulti;
  band.d_begin = dim - 1;
  band.d_end = dim;
  band.gpu_count = gpus;
  band.halo = 4;
  PhaseDesc hi = lo;
  hi.d_begin = dim;
  hi.d_end = num_diagonals(dim);
  prog.phases = {lo, band, hi};
  return prog;
}

/// Runs `f`, which must throw std::invalid_argument naming `bound`.
template <typename F>
void expect_bound_error(F f, const std::string& bound) {
  try {
    f();
    ADD_FAILURE() << "no error naming " << bound;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(bound), std::string::npos) << e.what();
  }
}

TEST(MultiGpuRowSplit, DimAtAndPastKMaxGpuDim) {
  const std::size_t at = PhaseDesc::kMaxGpuDim;
  const PhaseProgram ok = main_diagonal_multi_program(at, 4);
  EXPECT_NO_THROW(ok.validate());
  const DeviceRows w = ok.phases[1].device_rows(at, 3);
  EXPECT_EQ(w.own_lo, at / 4 * 3);
  EXPECT_EQ(w.hi, at);
  EXPECT_EQ(w.lo, at / 4 * 3 - 5);  // halo 4: five rows of wedge

  const PhaseProgram past = main_diagonal_multi_program(at + 1, 4);
  expect_bound_error([&] { (void)past.phases[1].device_rows(at + 1, 0); }, "kMaxGpuDim");
  expect_bound_error([&] { past.validate(); }, "kMaxGpuDim");
  // Both interpreter modes validate the program before walking it: the
  // estimate, and a run handed the program (with any grid).
  HybridExecutor exec(sim::make_i7_2600k(), 1);
  expect_bound_error([&] { (void)exec.estimate(InputParams{at + 1, 1.0, 1}, past); },
                     "kMaxGpuDim");
  const auto spec = apps::make_synthetic_spec(small_instance());
  Grid g(spec.dim, spec.elem_bytes);
  expect_bound_error([&] { (void)exec.run(spec, past, g); }, "kMaxGpuDim");
}

TEST(MultiGpuRowSplit, SingleGpuPhaseHasTheSameDimBound) {
  // A single-GPU phase runs the same band walk at one device, so it takes
  // the same bound, whole-grid or streamed.
  auto single = [](std::size_t dim, std::size_t strip_rows) {
    PhaseProgram prog = main_diagonal_multi_program(dim, 4);
    prog.phases[1].device = PhaseDevice::kGpuSingle;
    prog.phases[1].gpu_count = 1;
    prog.phases[1].strip_rows = strip_rows;
    return prog;
  };
  const std::size_t at = PhaseDesc::kMaxGpuDim;
  for (std::size_t strip_rows : {std::size_t{0}, std::size_t{64}}) {
    SCOPED_TRACE(strip_rows);
    const PhaseProgram ok = single(at, strip_rows);
    EXPECT_NO_THROW(ok.validate());
    const DeviceRows w = ok.phases[1].device_rows(at, 0);
    EXPECT_EQ(w.lo, 0u);
    EXPECT_EQ(w.own_lo, 0u);
    EXPECT_EQ(w.hi, at);

    const PhaseProgram past = single(at + 1, strip_rows);
    expect_bound_error([&] { (void)past.phases[1].device_rows(at + 1, 0); }, "kMaxGpuDim");
    expect_bound_error([&] { past.validate(); }, "kMaxGpuDim");
    HybridExecutor exec(sim::make_i7_2600k(), 1);
    expect_bound_error([&] { (void)exec.estimate(InputParams{at + 1, 1.0, 1}, past); },
                       "kMaxGpuDim");
    const auto spec = apps::make_synthetic_spec(small_instance());
    Grid g(spec.dim, spec.elem_bytes);
    expect_bound_error([&] { (void)exec.run(spec, past, g); }, "kMaxGpuDim");
  }
}

TEST(MultiGpuRowSplit, SplitProductAtAndPastSizeMax) {
  // At 64 devices dim * gpu_count overflows before kMaxGpuDim does.
  const std::size_t at = SIZE_MAX / 64;
  ASSERT_LT(at, PhaseDesc::kMaxGpuDim);
  const PhaseProgram ok = main_diagonal_multi_program(at, 64);
  EXPECT_NO_THROW(ok.validate());
  const DeviceRows last = ok.phases[1].device_rows(at, 63);
  EXPECT_EQ(last.hi, at);
  EXPECT_EQ(last.own_lo, static_cast<std::size_t>(static_cast<unsigned __int128>(at) * 63 / 64));

  const PhaseProgram past = main_diagonal_multi_program(at + 1, 64);
  expect_bound_error([&] { (void)past.phases[1].device_rows(at + 1, 1); }, "SIZE_MAX");
  HybridExecutor exec(sim::make_i7_2600k(), 1);
  expect_bound_error([&] { (void)exec.estimate(InputParams{at + 1, 1.0, 1}, past); },
                     "SIZE_MAX");
  const auto spec = apps::make_synthetic_spec(small_instance());
  Grid g(spec.dim, spec.elem_bytes);
  expect_bound_error([&] { (void)exec.run(spec, past, g); }, "SIZE_MAX");
  // A device index outside the phase is rejected the same way.
  expect_bound_error([&] { (void)ok.phases[1].device_rows(at, 64); }, "64-device");
}

}  // namespace
}  // namespace wavetune::core
