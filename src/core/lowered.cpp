#include "core/lowered.hpp"

#include <algorithm>

namespace wavetune::core {

void LoweredKernel::tile_banded(StorageView view, std::size_t i0, std::size_t i1,
                                std::size_t j0, std::size_t j1, std::size_t d_begin,
                                std::size_t d_end) const {
  for (std::size_t g = i0; g < i1 && g < d_end; g += kRowGroup) {
    const std::size_t g_end = std::min(g + kRowGroup, i1);
    // Band spans shrink from both sides down a group: row g starts
    // latest and row g_end - 1 ends earliest.
    const std::size_t lo = row_band_span(g, d_begin, d_end, j0, j1).first;
    const std::size_t hi = row_band_span(g_end - 1, d_begin, d_end, j0, j1).second;
    if (lo >= hi) {
      for (std::size_t i = g; i < g_end; ++i) {
        const auto [j_lo, j_hi] = row_band_span(i, d_begin, d_end, j0, j1);
        if (j_lo < j_hi) block(view, i, i + 1, j_lo, j_hi);
      }
      continue;
    }
    for (std::size_t i = g + 1; i < g_end; ++i) {
      const std::size_t j_lo = row_band_span(i, d_begin, d_end, j0, j1).first;
      if (j_lo < lo) block(view, i, i + 1, j_lo, lo);
    }
    block(view, g, g_end, lo, hi);
    for (std::size_t i = g; i + 1 < g_end; ++i) {
      const std::size_t j_hi = row_band_span(i, d_begin, d_end, j0, j1).second;
      if (hi < j_hi) block(view, i, i + 1, hi, j_hi);
    }
  }
}

}  // namespace wavetune::core
