#include "core/lowered.hpp"

#include "core/diag.hpp"

namespace wavetune::core {

void LoweredKernel::tile_banded(StorageView view, std::size_t i0, std::size_t i1,
                                std::size_t j0, std::size_t j1, std::size_t d_begin,
                                std::size_t d_end) const {
  for (std::size_t i = i0; i < i1 && i < d_end; ++i) {
    const auto [j_lo, j_hi] = row_band_span(i, d_begin, d_end, j0, j1);
    if (j_lo < j_hi) block(view, i, i + 1, j_lo, j_hi);
  }
}

}  // namespace wavetune::core
