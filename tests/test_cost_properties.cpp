// Randomised property tests over the cost model and executor: invariants
// that must hold for ANY configuration, probed with fuzzed parameters.
#include <gtest/gtest.h>

#include <cstring>

#include "apps/synthetic.hpp"
#include "core/executor.hpp"
#include "sim/system_profile.hpp"
#include "util/rng.hpp"

namespace wavetune::core {
namespace {

TunableParams random_params(util::Rng& rng, std::size_t dim, int max_gpus) {
  TunableParams p;
  p.cpu_tile = static_cast<int>(rng.uniform_int(1, 16));
  const double mode = rng.uniform_real();
  if (mode < 0.25) {
    p.band = -1;
  } else {
    p.band = rng.uniform_int(0, static_cast<long long>(2 * dim));  // may exceed; normalized
    if (mode < 0.5 || max_gpus < 2) {
      p.halo = -1;
      p.gpu_tile = static_cast<int>(rng.uniform_int(1, 25));
    } else {
      p.halo = rng.uniform_int(0, static_cast<long long>(dim));
      if (mode > 0.85 && max_gpus >= 3) {
        p.gpus = static_cast<int>(rng.uniform_int(3, max_gpus));
      }
    }
  }
  return p;
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, NormalizationIsIdempotentAndValid) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const auto dim = static_cast<std::size_t>(rng.uniform_int(1, 300));
    const TunableParams raw = random_params(rng, dim, 4);
    const TunableParams n = raw.normalized(dim);
    EXPECT_EQ(n, n.normalized(dim)) << raw.describe() << " dim=" << dim;
    EXPECT_GE(n.cpu_tile, 1);
    EXPECT_LE(n.band, static_cast<long long>(dim) - 1);
    if (n.band < 0) {
      EXPECT_EQ(n.gpu_count(), 0);
      EXPECT_EQ(n.halo, -1);
      EXPECT_EQ(n.gpu_tile, 1);
    }
    if (n.gpu_count() >= 2) {
      EXPECT_GE(n.halo, 0);
      EXPECT_EQ(n.gpu_tile, 1);
    }
  }
}

TEST_P(FuzzSweep, EstimateIsFiniteDeterministicAndDecomposed) {
  util::Rng rng(GetParam() + 1000);
  HybridExecutor ex(sim::make_i7_2600k(), 1);
  for (int trial = 0; trial < 60; ++trial) {
    const InputParams in{static_cast<std::size_t>(rng.uniform_int(2, 600)),
                         rng.uniform_real(0.1, 5000.0), static_cast<int>(rng.uniform_int(0, 5))};
    const TunableParams p = random_params(rng, in.dim, 4);
    const RunResult a = ex.estimate(in, plan_phases(in, p));
    const RunResult b = ex.estimate(in, plan_phases(in, p));
    EXPECT_TRUE(std::isfinite(a.rtime_ns)) << p.describe();
    EXPECT_GT(a.rtime_ns, 0.0) << p.describe();
    EXPECT_DOUBLE_EQ(a.rtime_ns, b.rtime_ns) << p.describe();
    EXPECT_DOUBLE_EQ(a.rtime_ns, a.breakdown.total_ns()) << p.describe();
    for (const PhaseTiming& t : a.breakdown.phases) EXPECT_GE(t.ns, 0.0) << p.describe();
    if (!a.params.uses_gpu()) {
      ASSERT_EQ(a.breakdown.phases.size(), 1u) << p.describe();
      EXPECT_EQ(a.breakdown.phases[0].device, PhaseDevice::kCpu) << p.describe();
      EXPECT_EQ(a.breakdown.swap_count(), 0u);
    }
    if (a.params.gpu_count() < 2) {
      EXPECT_EQ(a.breakdown.swap_count(), 0u) << p.describe();
      EXPECT_EQ(a.breakdown.redundant_cells(), 0u) << p.describe();
    }
  }
}

TEST_P(FuzzSweep, FunctionalRunMatchesSerialForRandomConfigs) {
  util::Rng rng(GetParam() + 2000);
  HybridExecutor ex(sim::make_i7_2600k(), 2);
  apps::SyntheticParams sp;
  sp.dim = 30 + static_cast<std::size_t>(GetParam() % 7);  // vary dim per seed
  sp.tsize = 25.0;
  sp.dsize = 1;
  sp.functional_iters = 2;
  const auto spec = apps::make_synthetic_spec(sp);

  Grid ref(spec.dim, spec.elem_bytes);
  ex.run_serial(spec, ref);

  for (int trial = 0; trial < 8; ++trial) {
    const TunableParams p = random_params(rng, spec.dim, 4);
    Grid g(spec.dim, spec.elem_bytes);
    g.fill_poison();
    const RunResult run = ex.run(spec, plan_phases(spec.inputs(), p), g);
    EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0)
        << p.describe() << " -> " << run.params.describe();
    // And run == estimate for the same (normalized) configuration.
    const RunResult est = ex.estimate(spec.inputs(), plan_phases(spec.inputs(), p));
    EXPECT_DOUBLE_EQ(run.rtime_ns, est.rtime_ns) << run.params.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Values(11, 22, 33, 44, 55, 66, 77));

TEST(CostProperties, EstimateMonotoneInDim) {
  HybridExecutor ex(sim::make_i7_3820(), 1);
  for (const auto& p :
       {TunableParams{8, -1, -1, 1}, TunableParams{8, 40, -1, 1}, TunableParams{8, 60, 2, 1}}) {
    double prev = 0.0;
    for (std::size_t dim : {128u, 256u, 512u, 1024u}) {
      const InputParams in{dim, 100.0, 1};
      const double t = ex.estimate(in, plan_phases(in, p)).rtime_ns;
      EXPECT_GT(t, prev) << p.describe() << " dim=" << dim;
      prev = t;
    }
  }
}

TEST(CostProperties, WiderBandMovesWorkToGpu) {
  // Phase structure: growing the band shrinks the CPU phases and grows
  // the GPU phase, monotonically.
  HybridExecutor ex(sim::make_i7_2600k(), 1);
  const InputParams in{512, 500.0, 1};
  double prev_cpu = 1e300;
  double prev_gpu = 0.0;
  for (long long band : {50LL, 150LL, 300LL, 511LL}) {
    const auto r = ex.estimate(in, plan_phases(in, TunableParams{8, band, -1, 1}));
    double cpu_time = 0.0;
    double gpu_time = 0.0;
    for (const PhaseTiming& t : r.breakdown.phases) {
      (t.device == PhaseDevice::kCpu ? cpu_time : gpu_time) += t.ns;
    }
    EXPECT_LT(cpu_time, prev_cpu) << band;
    EXPECT_GT(gpu_time, prev_gpu) << band;
    prev_cpu = cpu_time;
    prev_gpu = gpu_time;
  }
}

TEST(CostProperties, TransfersGrowWithDsize) {
  HybridExecutor ex(sim::make_i3_540(), 1);
  const TunableParams p{8, 255, -1, 1};
  double prev = 0.0;
  for (int dsize : {0, 1, 3, 5}) {
    const InputParams in{256, 100.0, dsize};
    const auto r = ex.estimate(in, plan_phases(in, p));
    const double xfer = r.breakdown.transfer_in_ns() + r.breakdown.transfer_out_ns();
    EXPECT_GT(xfer, prev) << dsize;
    prev = xfer;
  }
}

TEST(CostProperties, SerialBaselineIndependentOfTunables) {
  // estimate_serial must not depend on anything but the instance.
  HybridExecutor ex(sim::make_i7_2600k(), 1);
  const InputParams in{300, 77.0, 3};
  const double s = ex.estimate_serial(in);
  EXPECT_DOUBLE_EQ(s, ex.estimate_serial(in));
  EXPECT_GT(s, 0.0);
}

TEST(CostProperties, ThreeSystemsOrderSerialCost) {
  // Faster clocks -> cheaper serial execution for the same instance.
  const InputParams in{500, 1000.0, 1};
  const double i3 = HybridExecutor(sim::make_i3_540(), 1).estimate_serial(in);
  const double k26 = HybridExecutor(sim::make_i7_2600k(), 1).estimate_serial(in);
  const double k38 = HybridExecutor(sim::make_i7_3820(), 1).estimate_serial(in);
  EXPECT_GT(i3, k26);
  EXPECT_GT(k26, k38);
}

}  // namespace
}  // namespace wavetune::core
