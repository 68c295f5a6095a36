// Internal: the native tile kernels with ISA variants (editdist, seqcmp,
// nash) and the guard on the integer apps' cost range. Not part of the
// public API — make_editdist_spec / make_seqcmp_spec / make_nash_spec pick
// a kernel and ship it through core::TileKernel; this header exists so the
// equivalence suite can call each ISA variant directly.
//
// Every variant of an app has one contract (core::TileKernelFn) and
// bit-identical results:
//   - the scalar kernel: the fallback on hosts without AVX2 and the test
//     oracle for the vector kernels;
//   - the AVX2 kernel. editdist and seqcmp scan rows (apps/avx2_scan.hpp):
//     8 cells per step, the west carry chain resolved by an in-register
//     prefix scan; blocks narrower than avx2::kMinVectorWidth run the
//     scalar sweep inside it. nash walks groups of 4 rows along their
//     anti-diagonals, one cell per row and step, each lane replaying the
//     scalar solve's operations; groups whose steps would average two
//     busy lanes or fewer run the scalar kernel row by row;
//   - nash only: the AVX-512 (F+DQ+VL) kernel, the same walk on groups of
//     8 rows with native 64-bit multiplies; a block's last 1-7 rows, and
//     groups whose steps would run mostly idle lanes, take the AVX2 walk.
// nash's two walks are one template over a lane-ops type, and each has a
// band-clamped entry that walks only the steps of a diagonal range, so a
// band-straddling tile is one call. No variant fuses a multiply with an
// add (the library builds with -ffp-contract=off).
// The spec factories choose once, at spec construction: the widest
// variant the host runs (nash: AVX-512, then AVX2, then scalar).
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
core::TileKernelFn nash_scalar_tile_kernel();

/// The AVX2 variants, or null when the build target is not x86 or this
/// CPU lacks AVX2. Each takes the same ctx as the scalar kernel of its app
/// (the `ctx` of the spec's TileKernel).
core::TileKernelFn editdist_avx2_tile_kernel();
core::TileKernelFn seqcmp_avx2_tile_kernel();
core::TileKernelFn nash_avx2_tile_kernel();

/// nash's AVX2 band-clamped entry (core::TileBandKernelFn), or null like
/// nash_avx2_tile_kernel. The scalar kernels have none: they compute a
/// row at a time, so LoweredKernel's per-row band clamp serves them.
core::TileBandKernelFn nash_avx2_band_kernel();

/// nash's AVX-512 kernel and its band-clamped entry, or null when the
/// build target is not x86 or this CPU lacks AVX-512 F, DQ or VL.
core::TileKernelFn nash_avx512_tile_kernel();
core::TileBandKernelFn nash_avx512_band_kernel();

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
