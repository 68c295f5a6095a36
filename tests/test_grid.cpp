#include "core/grid.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

namespace wavetune::core {
namespace {

TEST(Grid, ConstructionValidation) {
  EXPECT_THROW(Grid(0, 8), std::invalid_argument);
  EXPECT_THROW(Grid(4, 0), std::invalid_argument);
  Grid g(4, 8);
  EXPECT_EQ(g.dim(), 4u);
  EXPECT_EQ(g.elem_bytes(), 8u);
  EXPECT_EQ(g.size_bytes(), 4u * 4u * 8u);
}

// The byte size dim * dim * elem_bytes must not wrap. Just inside the
// size_t range the guard passes and the allocation itself is refused;
// just outside it the guard throws before anything is allocated.
TEST(Grid, RejectsSizeOverflow) {
  const std::size_t root = std::size_t{1} << 32;  // root * root == 2^64
  EXPECT_THROW(Grid(root, 1), std::invalid_argument);
  EXPECT_THROW(Grid(root - 1, 1), std::length_error);
  EXPECT_THROW(Grid(root / 2, 4), std::invalid_argument);  // 2^62 * 4 == 2^64
  EXPECT_THROW(Grid(root / 2, 3), std::length_error);
}

TEST(Grid, ZeroInitialised) {
  Grid g(3, 4);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(g.as<std::uint32_t>(i, j), 0u);
    }
  }
}

TEST(Grid, OffsetRowMajor) {
  Grid g(4, 8);
  EXPECT_EQ(g.offset(0, 0), 0u);
  EXPECT_EQ(g.offset(0, 1), 8u);
  EXPECT_EQ(g.offset(1, 0), 32u);
  EXPECT_EQ(g.offset(3, 3), (3u * 4u + 3u) * 8u);
}

// The bounds check is debug-only: throws without NDEBUG, compiles to an
// assert (nothing) in release builds.
#ifndef NDEBUG
TEST(Grid, BoundsCheckedInDebugBuilds) {
  Grid g(4, 8);
  EXPECT_THROW(g.cell(4, 0), std::out_of_range);
  EXPECT_THROW(g.cell(0, 4), std::out_of_range);
  EXPECT_THROW(g.offset(5, 5), std::out_of_range);
}
#endif

TEST(Grid, UncheckedAccessorMatchesCheckedLayout) {
  Grid g(4, 8);
  const Grid& cg = g;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(g.cell_unchecked(i, j), g.data() + g.offset(i, j));
      EXPECT_EQ(cg.cell_unchecked(i, j), cg.data() + g.offset(i, j));
    }
  }
}

TEST(Grid, TypedAccessRoundtrip) {
  Grid g(3, sizeof(double));
  g.as<double>(1, 2) = 6.25;
  EXPECT_DOUBLE_EQ(g.as<double>(1, 2), 6.25);
  const Grid& cg = g;
  EXPECT_DOUBLE_EQ(cg.as<double>(1, 2), 6.25);
}

TEST(Grid, PoisonFill) {
  Grid g(2, 4);
  g.fill_poison();
  for (std::size_t b = 0; b < g.size_bytes(); ++b) {
    EXPECT_EQ(g.data()[b], Grid::kPoison);
  }
  g.fill_zero();
  for (std::size_t b = 0; b < g.size_bytes(); ++b) {
    EXPECT_EQ(g.data()[b], std::byte{0});
  }
}

}  // namespace
}  // namespace wavetune::core
