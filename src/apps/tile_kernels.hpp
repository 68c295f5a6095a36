// Internal: the native tile kernels of the integer apps (editdist,
// seqcmp) and the guard on their cost range. Not part of the public API —
// make_editdist_spec / make_seqcmp_spec pick a kernel and ship it through
// core::TileKernel; this header exists so the equivalence suite can call
// each ISA variant directly.
//
// Every app has two variants with one contract (core::TileKernelFn) and
// bit-identical results:
//   - the scalar kernel: pair-blocked row sweeps, the fallback on hosts
//     without AVX2 and the test oracle for the vector kernel;
//   - the AVX2 row-scan kernel (apps/avx2_scan.hpp): 8 cells per step,
//     the west carry chain resolved by an in-register prefix scan. Blocks
//     narrower than avx2::kMinVectorWidth run the scalar sweep inside it.
// The spec factories choose once, at spec construction: the AVX2 variant
// when the host has it, the scalar one otherwise.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/lowered.hpp"

namespace wavetune::apps::detail {

/// The scalar kernels.
core::TileKernelFn editdist_scalar_tile_kernel();
core::TileKernelFn seqcmp_scalar_tile_kernel();

/// The AVX2 row-scan variants, or null when the build target is not x86
/// or this CPU lacks AVX2. Both take the same ctx as the scalar kernel of
/// their app (the `ctx` of the spec's TileKernel).
core::TileKernelFn editdist_avx2_tile_kernel();
core::TileKernelFn seqcmp_avx2_tile_kernel();

/// Throws std::invalid_argument unless max |cost| * (2 * dim + 8) fits
/// in int32. Every DP value is the cost of a monotone path of at most
/// 2 * dim steps (negative costs can make it that long in magnitude), and
/// the vector sweep offsets a row by up to 8 more steps; inside this bound
/// no kernel variant can overflow.
inline void check_cost_range(const char* who, std::size_t dim,
                             std::initializer_list<std::int32_t> costs) {
  std::uint64_t cost = 0;  // max |cost|; |INT32_MIN| fits in 64 bits
  for (const std::int32_t c : costs) {
    cost = std::max(cost, static_cast<std::uint64_t>(std::llabs(c)));
  }
  if (cost == 0) return;
  const std::uint64_t max_steps = std::numeric_limits<std::int32_t>::max() / cost;
  if (max_steps < 8 || dim > (max_steps - 8) / 2) {
    throw std::invalid_argument(std::string(who) + ": max |cost| " + std::to_string(cost) +
                                " x (2 * dim + 8) with dim " + std::to_string(dim) +
                                " overflows int32");
  }
}

}  // namespace wavetune::apps::detail
