#include "core/params.hpp"

#include <gtest/gtest.h>

namespace wavetune::core {
namespace {

TEST(InputParams, ElemBytesFollowsPaperFormula) {
  // "dsize=5 means size of each element is 8 + 5*8 = 48 bytes"
  EXPECT_EQ((InputParams{100, 1.0, 5}).elem_bytes(), 48u);
  EXPECT_EQ((InputParams{100, 1.0, 1}).elem_bytes(), 16u);
  EXPECT_EQ((InputParams{100, 1.0, 0}).elem_bytes(), 8u);
}

TEST(InputParams, Validation) {
  EXPECT_THROW((InputParams{0, 1.0, 1}).validate(), std::invalid_argument);
  EXPECT_THROW((InputParams{4, -1.0, 1}).validate(), std::invalid_argument);
  EXPECT_THROW((InputParams{4, 1.0, -1}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((InputParams{4, 0.0, 0}).validate());
}

TEST(InputParams, JsonRoundtrip) {
  const InputParams p{1900, 750.5, 4};
  const InputParams back = InputParams::from_json(p.to_json());
  EXPECT_EQ(back, p);
}

TEST(TunableParams, GpuCountEncoding) {
  // Paper §3.1.1: band -1 => no GPU; band >= 0, halo -1 => one GPU;
  // band >= 0 and halo >= 0 => two GPUs.
  EXPECT_EQ((TunableParams{8, -1, -1, 1}).gpu_count(), 0);
  EXPECT_EQ((TunableParams{8, 100, -1, 1}).gpu_count(), 1);
  EXPECT_EQ((TunableParams{8, 100, 0, 1}).gpu_count(), 2);
  EXPECT_EQ((TunableParams{8, 100, 7, 1}).gpu_count(), 2);
}

TEST(TunableParams, GpuRangeCenteredOnMainDiagonal) {
  // dim=100: main diagonal 99; band=10 covers [89, 110).
  const TunableParams p{8, 10, -1, 1};
  EXPECT_EQ(p.gpu_d_begin(100), 89u);
  EXPECT_EQ(p.gpu_d_end(100), 110u);
}

TEST(TunableParams, GpuRangeWholeGridAtMaxBand) {
  const TunableParams p{8, 99, -1, 1};
  EXPECT_EQ(p.gpu_d_begin(100), 0u);
  EXPECT_EQ(p.gpu_d_end(100), 199u);
}

TEST(TunableParams, GpuRangeEmptyWithoutGpu) {
  const TunableParams p{8, -1, -1, 1};
  EXPECT_EQ(p.gpu_d_begin(100), p.gpu_d_end(100));
}

TEST(TunableParams, NormalizeCpuOnlyCollapsesGpuKnobs) {
  const TunableParams p{4, -1, 7, 16};
  const TunableParams n = p.normalized(100);
  EXPECT_EQ(n.band, -1);
  EXPECT_EQ(n.halo, -1);
  EXPECT_EQ(n.gpu_tile, 1);
  EXPECT_EQ(n.cpu_tile, 4);
}

TEST(TunableParams, NormalizeClampsBand) {
  // Paper Table 3 allows band up to 2*dim-1; anything past dim-1 already
  // covers the whole grid.
  const TunableParams p{4, 2 * 100 - 1, -1, 1};
  EXPECT_EQ(p.normalized(100).band, 99);
}

TEST(TunableParams, NormalizeClampsHaloToHalfFirstDiagonal) {
  // dim=100, band=20: first offloaded diagonal d0=79 has length 80;
  // max halo = 40, also bounded by split-1 = 49.
  EXPECT_EQ(TunableParams::max_halo(100, 20), 40);
  const TunableParams p{4, 20, 1000, 1};
  EXPECT_EQ(p.normalized(100).halo, 40);
}

TEST(TunableParams, MaxHaloBoundedBySplit) {
  // Full band: first diagonal length = dim - band = 1, but with band=0 the
  // first diagonal is the main one (length dim): max halo = dim/2 bounded
  // by split - 1.
  EXPECT_EQ(TunableParams::max_halo(100, 0), 49);
  EXPECT_EQ(TunableParams::max_halo(100, 99), 0);  // first diag length 1
  EXPECT_EQ(TunableParams::max_halo(100, -1), -1);
}

TEST(TunableParams, NormalizeForcesUntiledDualGpu) {
  const TunableParams p{4, 50, 3, 16};
  const TunableParams n = p.normalized(100);
  EXPECT_EQ(n.gpu_count(), 2);
  EXPECT_EQ(n.gpu_tile, 1);
  EXPECT_EQ(n.halo, 3);
}

TEST(TunableParams, NormalizeClampsCpuTile) {
  EXPECT_EQ((TunableParams{0, -1, -1, 1}).normalized(100).cpu_tile, 1);
  EXPECT_EQ((TunableParams{-5, -1, -1, 1}).normalized(100).cpu_tile, 1);
  EXPECT_EQ((TunableParams{1000, -1, -1, 1}).normalized(100).cpu_tile, 100);
}

TEST(TunableParams, NormalizedIsIdempotent) {
  const TunableParams raw{7, 500, 300, 21};
  const TunableParams once = raw.normalized(200);
  EXPECT_TRUE(once.is_normalized(200));
  EXPECT_EQ(once.normalized(200), once);
}

TEST(TunableParams, NWayRequestOnGridTooSmallForThreeDevicesNormalizes) {
  // gpus = 4 on 1- and 2-row grids clamps below three devices; the result
  // follows the 1-/2-GPU rules (no std::clamp with hi < lo on the way).
  TunableParams raw{1, 0, 0, 1};
  raw.gpus = 4;
  for (const std::size_t dim : {std::size_t{1}, std::size_t{2}}) {
    const TunableParams n = raw.normalized(dim);
    EXPECT_TRUE(n.is_normalized(dim)) << "dim=" << dim;
    EXPECT_EQ(n.gpu_count(), static_cast<int>(dim)) << "dim=" << dim;
    EXPECT_EQ(n.gpu_tile, 1) << "dim=" << dim;
  }
  EXPECT_EQ(raw.normalized(1).halo, -1);
  EXPECT_EQ(raw.normalized(2).halo, 0);
}

TEST(TunableParams, PredicateHelpers) {
  EXPECT_FALSE((TunableParams{8, -1, -1, 1}).uses_gpu());
  EXPECT_TRUE((TunableParams{8, 5, -1, 1}).uses_gpu());
  EXPECT_TRUE((TunableParams{8, 5, 2, 1}).dual_gpu());
  EXPECT_FALSE((TunableParams{8, 5, -1, 1}).dual_gpu());
  EXPECT_TRUE((TunableParams{8, 5, -1, 4}).gpu_tiled());
  EXPECT_FALSE((TunableParams{8, -1, -1, 4}).gpu_tiled());
}

TEST(TunableParams, JsonRoundtrip) {
  const TunableParams p{10, 1234, 17, 8};
  EXPECT_EQ(TunableParams::from_json(p.to_json()), p);
}

TEST(TunableParams, DescribeMentionsEverything) {
  const std::string d = TunableParams{2, 30, 4, 1}.describe();
  EXPECT_NE(d.find("cpu-tile=2"), std::string::npos);
  EXPECT_NE(d.find("band=30"), std::string::npos);
  EXPECT_NE(d.find("halo=4"), std::string::npos);
  EXPECT_NE(d.find("gpu-count=2"), std::string::npos);
}

}  // namespace
}  // namespace wavetune::core
