#include "apps/synthetic.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace wavetune::apps {

namespace {

struct View {
  SyntheticHeader header;
  // dsize doubles follow
};

SyntheticHeader read_header(const std::byte* p) {
  SyntheticHeader h;
  std::memcpy(&h, p, sizeof(h));
  return h;
}

double read_float(const std::byte* p, int k) {
  double v = 0.0;
  std::memcpy(&v, p + sizeof(SyntheticHeader) + static_cast<std::size_t>(k) * sizeof(double),
              sizeof(v));
  return v;
}

void write_cell(std::byte* out, const SyntheticHeader& h, const std::vector<double>& floats) {
  std::memcpy(out, &h, sizeof(h));
  std::memcpy(out + sizeof(h), floats.data(), floats.size() * sizeof(double));
}

/// One cell of the synthetic recurrence; `floats` is caller-provided
/// scratch of dsize entries so batched dispatch allocates once per
/// row-span instead of once per cell.
void compute_synthetic_cell(std::size_t iters, int dsize, std::uint64_t seed, std::size_t i,
                            std::size_t j, const std::byte* w, const std::byte* n,
                            const std::byte* nw, std::byte* out, std::vector<double>& floats) {
  SyntheticHeader h;
  // Lattice-path recurrence: paths(i,j) = paths(i-1,j) + paths(i,j-1),
  // borders have exactly one path. Unsigned wraparound is well defined
  // and exactly reproducible — the test suite checks it cell-for-cell.
  const std::uint32_t from_w = w ? read_header(w).paths : 0;
  const std::uint32_t from_n = n ? read_header(n).paths : 0;
  h.paths = (w || n) ? from_w + from_n : 1u;
  h.steps = static_cast<std::uint32_t>(i + j + 1);

  for (int k = 0; k < dsize; ++k) {
    // Deterministic per-cell source term.
    std::uint64_t sm = seed ^ (static_cast<std::uint64_t>(i) << 32) ^
                       static_cast<std::uint64_t>(j) ^ (static_cast<std::uint64_t>(k) << 17);
    const double source =
        static_cast<double>(util::splitmix64(sm) >> 11) * 0x1.0p-53;  // [0,1)
    double x = source;
    const double wf = w ? read_float(w, k) : 0.0;
    const double nf = n ? read_float(n, k) : 0.0;
    const double nwf = nw ? read_float(nw, k) : 0.0;
    // The nested mixing loop stands in for the synthetic kernel's
    // tsize-controlled inner iteration.
    for (std::size_t it = 0; it < iters; ++it) {
      x = 0.4987 * x + 0.25 * wf + 0.1875 * nf + 0.0625 * nwf + 1e-6 * source;
    }
    floats[static_cast<std::size_t>(k)] = x;
  }
  write_cell(out, h, floats);
}

/// Captured state of the native tile kernel (core::TileKernel ctx).
struct SyntheticTileCtx {
  std::size_t iters;
  int dsize;
  std::uint64_t seed;
  std::size_t elem;
};

/// Native tile kernel: one plain call per tile, per-thread scratch
/// resized only when dsize changes (compute_synthetic_cell writes every
/// entry before write_cell reads it), sliding neighbour pointers over the
/// contiguous output and north rows (rows past the first read their north
/// row from the block's own output).
void synthetic_tile_kernel(const void* pv, std::size_t i0, std::size_t i1, std::size_t j0,
                           std::size_t j1, std::size_t stride, const std::byte* w,
                           const std::byte* n, const std::byte* nw, std::byte* out) {
  const SyntheticTileCtx& c = *static_cast<const SyntheticTileCtx*>(pv);
  thread_local std::vector<double> floats;
  floats.resize(static_cast<std::size_t>(c.dsize));
  for (std::size_t i = i0; i < i1; ++i) {
    const std::size_t r = i - i0;
    std::byte* orow = out + r * stride;
    const std::byte* wr = w ? orow - c.elem : nullptr;
    const std::byte* nr = r == 0 ? n : orow - stride;
    const std::byte* nwr = r == 0 ? nw : (w ? orow - stride - c.elem : nullptr);
    for (std::size_t j = j0; j < j1; ++j) {
      compute_synthetic_cell(c.iters, c.dsize, c.seed, i, j, wr, nr, nwr, orow, floats);
      wr = orow;
      nwr = nr;
      if (nr) nr += c.elem;
      orow += c.elem;
    }
  }
}

}  // namespace

core::WavefrontSpec make_synthetic_spec(const SyntheticParams& params) {
  if (params.dim == 0) throw std::invalid_argument("make_synthetic_spec: dim == 0");
  if (params.dsize < 0) throw std::invalid_argument("make_synthetic_spec: negative dsize");

  std::size_t iters = params.functional_iters;
  if (iters == 0) {
    // Keep functional runs fast: the simulated cost tracks tsize exactly,
    // the functional work only needs to be non-trivial and deterministic.
    iters = std::clamp<std::size_t>(static_cast<std::size_t>(params.tsize), 1, 64);
  }
  const int dsize = params.dsize;
  const std::uint64_t seed = params.seed;

  core::WavefrontSpec spec;
  spec.dim = params.dim;
  spec.elem_bytes = sizeof(SyntheticHeader) + static_cast<std::size_t>(dsize) * sizeof(double);
  spec.tsize = params.tsize;
  spec.dsize = dsize;
  spec.content_key =
      "synthetic|" + std::to_string(iters) + '|' + std::to_string(seed);
  spec.kernel = [iters, dsize, seed](std::size_t i, std::size_t j, const std::byte* w,
                                     const std::byte* n, const std::byte* nw, std::byte* out) {
    std::vector<double> floats(static_cast<std::size_t>(dsize));
    compute_synthetic_cell(iters, dsize, seed, i, j, w, n, nw, out, floats);
  };
  // Native batched kernel: scratch hoisted out of the cell loop, sliding
  // neighbour pointers over the contiguous output and north rows.
  const std::size_t elem = spec.elem_bytes;
  spec.segment = [iters, dsize, seed, elem](std::size_t i, std::size_t j0, std::size_t j1,
                                            const std::byte* w, const std::byte* n,
                                            const std::byte* nw, std::byte* out) {
    std::vector<double> floats(static_cast<std::size_t>(dsize));
    for (std::size_t j = j0; j < j1; ++j) {
      compute_synthetic_cell(iters, dsize, seed, i, j, w, n, nw, out, floats);
      w = out;
      nw = n;
      if (n) n += elem;
      out += elem;
    }
  };
  // Native tile kernel (rung three): one plain-function call per tile.
  spec.tile = core::TileKernel{
      &synthetic_tile_kernel,
      std::make_shared<const SyntheticTileCtx>(SyntheticTileCtx{iters, dsize, seed, elem})};
  return spec;
}

SyntheticHeader synthetic_header(const core::Grid& grid, std::size_t i, std::size_t j) {
  return read_header(grid.cell(i, j));
}

double synthetic_float(const core::Grid& grid, std::size_t i, std::size_t j, int k) {
  if (k < 0) throw std::invalid_argument("synthetic_float: negative k");
  return read_float(grid.cell(i, j), k);
}

std::uint32_t synthetic_expected_paths(std::size_t i, std::size_t j) {
  // Independent rolling-array evaluation of C(i+j, i) mod 2^32 via the
  // Pascal recurrence (row-by-row, no diagonal sweep).
  std::vector<std::uint32_t> row(j + 1, 1u);
  for (std::size_t r = 1; r <= i; ++r) {
    for (std::size_t c = 1; c <= j; ++c) row[c] += row[c - 1];
  }
  return row[j];
}

}  // namespace wavetune::apps
