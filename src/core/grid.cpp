#include "core/grid.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace wavetune::core {

Grid::Grid(std::size_t dim, std::size_t elem_bytes) : dim_(dim), elem_bytes_(elem_bytes) {
  if (dim == 0) throw std::invalid_argument("Grid: dim == 0");
  if (elem_bytes == 0) throw std::invalid_argument("Grid: elem_bytes == 0");
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  if (dim > max / dim || dim * dim > max / elem_bytes) {
    throw std::invalid_argument("Grid: dim * dim * elem_bytes overflows size_t");
  }
  storage_.assign(dim * dim * elem_bytes, std::byte{0});
}

void Grid::fill_zero() { std::fill(storage_.begin(), storage_.end(), std::byte{0}); }

void Grid::fill_poison() { std::fill(storage_.begin(), storage_.end(), kPoison); }

}  // namespace wavetune::core
