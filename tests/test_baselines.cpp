#include "autotune/baselines.hpp"

#include <gtest/gtest.h>

#include "sim/system_profile.hpp"

namespace wavetune::autotune {
namespace {

const std::vector<int> kCpuTiles{1, 2, 4, 8, 10};
const std::vector<int> kGpuTiles{1, 4, 8, 16, 25};
const std::vector<double> kHaloFracs{0.0, 0.3, 1.0};

TEST(Baselines, AllThreeSchemesComputed) {
  core::HybridExecutor ex(sim::make_i7_2600k(), 1);
  const auto b = compute_baselines(ex, core::InputParams{100, 500.0, 1}, kCpuTiles, kGpuTiles,
                                   kHaloFracs);
  EXPECT_GT(b.serial_ns, 0.0);
  EXPECT_GT(b.cpu_parallel_ns, 0.0);
  EXPECT_GT(b.gpu_only_ns, 0.0);
  EXPECT_FALSE(b.cpu_parallel_params.uses_gpu());
  EXPECT_TRUE(b.gpu_only_params.uses_gpu());
  // GPU-only means the band covers the whole grid.
  EXPECT_EQ(b.gpu_only_params.band, 99);
}

TEST(Baselines, ParallelCpuBeatsSerialAtScale) {
  core::HybridExecutor ex(sim::make_i7_3820(), 1);
  const auto b = compute_baselines(ex, core::InputParams{256, 200.0, 1}, kCpuTiles, kGpuTiles,
                                   kHaloFracs);
  EXPECT_LT(b.cpu_parallel_ns, b.serial_ns);
}

TEST(Baselines, CpuParallelPicksBestTile) {
  core::HybridExecutor ex(sim::make_i7_2600k(), 1);
  const auto b = compute_baselines(ex, core::InputParams{128, 50.0, 1}, kCpuTiles, kGpuTiles,
                                   kHaloFracs);
  for (int ct : kCpuTiles) {
    const core::InputParams in{128, 50.0, 1};
    const double t =
        ex.estimate(in, core::plan_phases(in, core::TunableParams{ct, -1, -1, 1})).rtime_ns;
    EXPECT_LE(b.cpu_parallel_ns, t + 1e-9);
  }
}

TEST(Baselines, GpuOnlyWorseThanCpuAtLowGranularityOnI7) {
  // Paper §4.1.2: on the i7 systems "doing everything on the GPU is worse
  // than doing everything on the CPU" at low task granularity.
  core::HybridExecutor ex(sim::make_i7_2600k(), 1);
  const auto b = compute_baselines(ex, core::InputParams{100, 10.0, 1}, kCpuTiles, kGpuTiles,
                                   kHaloFracs);
  EXPECT_GT(b.gpu_only_ns, b.cpu_parallel_ns);
}

TEST(Baselines, GpuOnlyWinsAtHighGranularity) {
  core::HybridExecutor ex(sim::make_i7_2600k(), 1);
  const auto b = compute_baselines(ex, core::InputParams{1000, 8000.0, 1}, kCpuTiles, kGpuTiles,
                                   kHaloFracs);
  EXPECT_LT(b.gpu_only_ns, b.cpu_parallel_ns);
}

TEST(Baselines, SingleGpuSystemSkipsDualConfigs) {
  core::HybridExecutor ex(sim::make_i3_540(), 1);
  const auto b = compute_baselines(ex, core::InputParams{100, 1000.0, 1}, kCpuTiles, kGpuTiles,
                                   kHaloFracs);
  EXPECT_LE(b.gpu_only_params.gpu_count(), 1);
}

TEST(Baselines, DualGpuConsideredOnDualSystems) {
  core::HybridExecutor ex(sim::make_i7_3820(), 1);
  // Huge granularity: halving compute across two GPUs must win, so the
  // chosen gpu-only config should be dual.
  const auto b = compute_baselines(ex, core::InputParams{1000, 12000.0, 1}, kCpuTiles,
                                   kGpuTiles, kHaloFracs);
  EXPECT_EQ(b.gpu_only_params.gpu_count(), 2) << b.gpu_only_params.describe();
}

}  // namespace
}  // namespace wavetune::autotune
