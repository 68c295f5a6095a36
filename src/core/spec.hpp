// Application-facing description of a wavefront computation.
//
// WavefrontSpec is the type-erased ABI the executor consumes: a kernel
// over opaque byte records plus the paper's input parameters
// (dim, tsize, dsize). Problem<T> below is the typed facade most users
// (and all examples) should prefer.
//
// The kernel ABI is a three-rung ladder of widening granularity:
//
//   cell    (ByteKernel)    one type-erased call per cell — the simplest
//                           contract, what Problem<T> wraps.
//   segment (SegmentKernel) one type-erased call per contiguous row run —
//                           neighbour pointers slide inside the call.
//   tile    (TileKernel)    one PLAIN-FUNCTION call per rows x cols block
//                           (core/lowered.hpp) — the row loop, pointer
//                           advance and border handling all live inside
//                           the kernel; nothing type-erased remains on
//                           the dispatch path.
//
// Each rung has a fallback adapter onto the rung below
// (make_segment_fallback, make_tile_fallback), so a spec shipping only a
// cell kernel still executes through the widest ABI — at the narrower
// rung's dispatch cost. The execution engine never dispatches the rungs
// directly: WavefrontSpec::lower() resolves the widest available rung
// into a core::LoweredKernel exactly once per compiled plan / run, and
// the hot loops call only that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "core/lowered.hpp"
#include "core/params.hpp"

namespace wavetune::core {

/// FNV-1a over a byte string: a cheap deterministic digest for building
/// WavefrontSpec::content_key values out of captured request payloads.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Type-erased cell kernel.
/// Computes cell (i, j) into `out`. Neighbour pointers are null on the
/// grid borders (i == 0 and/or j == 0). The kernel must be pure in the
/// neighbours (no hidden dependence on other cells) and thread-safe for
/// concurrent cells of one diagonal.
using ByteKernel =
    std::function<void(std::size_t i, std::size_t j, const std::byte* west,
                       const std::byte* north, const std::byte* northwest, std::byte* out)>;

/// Type-erased batched row-segment kernel.
///
/// Computes the contiguous run of cells (i, j) for j in [j0, j1) in ONE
/// call, writing elem_bytes-strided results starting at `out` (which points
/// at cell (i, j0) of row-major full-grid storage). This is the hot-path
/// ABI: the execution engine dispatches one call per row-span instead of
/// one type-erased call per cell.
///
/// Pointer contract (all pointers are into the same row-major storage):
///   - `north` points at cell (i-1, j0); null iff i == 0. The north row is
///     contiguous: the north neighbour of cell j is north + (j-j0)*elem.
///   - `west` points at cell (i, j0-1); null iff j0 == 0. For j > j0 the
///     west neighbour is the previously computed output cell.
///   - `northwest` points at cell (i-1, j0-1); null iff i == 0 or j0 == 0.
///     For j > j0 the northwest neighbour is the north row's previous cell.
///
/// Like ByteKernel, the kernel must be pure in the neighbours and safe to
/// call concurrently for disjoint segments of one wavefront step.
using SegmentKernel = std::function<void(
    std::size_t i, std::size_t j0, std::size_t j1, const std::byte* west,
    const std::byte* north, const std::byte* northwest, std::byte* out)>;

/// Fallback adapter: wraps a per-cell kernel as a segment kernel by walking
/// the run cell-by-cell with sliding neighbour pointers. Specs that ship no
/// native SegmentKernel execute through this, so every per-cell call site
/// keeps working unchanged (at per-cell dispatch cost).
inline SegmentKernel make_segment_fallback(ByteKernel kernel, std::size_t elem_bytes) {
  if (!kernel) throw std::invalid_argument("make_segment_fallback: null kernel");
  if (elem_bytes == 0) throw std::invalid_argument("make_segment_fallback: elem_bytes == 0");
  return [kernel = std::move(kernel), elem_bytes](
             std::size_t i, std::size_t j0, std::size_t j1, const std::byte* west,
             const std::byte* north, const std::byte* northwest, std::byte* out) {
    for (std::size_t j = j0; j < j1; ++j) {
      kernel(i, j, west, north, northwest, out);
      west = out;
      northwest = north;
      if (north) north += elem_bytes;
      out += elem_bytes;
    }
  };
}

/// Fallback adapter: wraps a segment kernel as a tile kernel by walking
/// the block row-by-row, deriving each row's neighbour pointers from the
/// block corner (rows past the first read their north row from the
/// block's own output; a null `west` at the corner means the j0 == 0
/// border for every row, a null `north` only affects row i0). Specs that
/// ship no native TileKernel lower through this, so every existing spec
/// keeps working — at one type-erased call per tile row.
inline TileKernel make_tile_fallback(SegmentKernel segment, std::size_t elem_bytes) {
  if (!segment) throw std::invalid_argument("make_tile_fallback: null segment kernel");
  if (elem_bytes == 0) throw std::invalid_argument("make_tile_fallback: elem_bytes == 0");
  struct Ctx {
    SegmentKernel seg;
    std::size_t elem;
  };
  auto ctx = std::make_shared<const Ctx>(Ctx{std::move(segment), elem_bytes});
  TileKernel t;
  t.fn = [](const void* pv, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
            std::size_t stride, const std::byte* w, const std::byte* n, const std::byte* nw,
            std::byte* out) {
    const Ctx& c = *static_cast<const Ctx*>(pv);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::size_t r = i - i0;
      std::byte* orow = out + r * stride;
      // Row r > 0: the north row is the block row above (always present in
      // storage since i - 1 >= i0 >= 0); west/northwest exist iff j0 > 0,
      // which the corner `w` witnesses.
      const std::byte* wr = w ? orow - c.elem : nullptr;
      const std::byte* nr = r == 0 ? n : orow - stride;
      const std::byte* nwr = r == 0 ? nw : (w ? orow - stride - c.elem : nullptr);
      c.seg(i, j0, j1, wr, nr, nwr, orow);
    }
  };
  t.ctx = std::move(ctx);
  return t;
}

struct WavefrontSpec {
  std::size_t dim = 0;
  std::size_t elem_bytes = 0;
  double tsize = 0.0;  ///< cost-model granularity, reference-core units
  int dsize = 0;       ///< cost-model data granularity (floats per element)
  ByteKernel kernel;

  /// Content identity of the kernel, folded into api::Engine's plan-cache
  /// key. Kernels capture their payload by value (sequences, payoff
  /// seeds, ...), which the cache cannot see — a spec whose kernel
  /// depends on anything beyond (dim, tsize, dsize) MUST identify that
  /// content here or two different requests with one signature alias to
  /// the same cached plan. Prefer embedding the exact (length-prefixed)
  /// payload, as the bundled apps do; fnv1a above is the cheaper
  /// trade-off for payloads too large to keep in a map key (64-bit
  /// digest: collisions are unlikely, not impossible). Empty is safe only
  /// for kernels that are pure functions of (i, j) and the neighbours —
  /// the engine refuses to cache identity-less executable specs.
  std::string content_key;

  /// Optional batched row-segment kernel (rung two of the ladder). When
  /// set, it MUST compute exactly the same values as `kernel` (the
  /// equivalence test suite enforces this for the bundled apps); when
  /// null, consumers fall back to the per-cell kernel via
  /// make_segment_fallback.
  SegmentKernel segment;

  /// Optional native tile kernel (rung three — the widest ABI, see
  /// core/lowered.hpp for the full contract), with its optional
  /// band-clamped entry. When set, it MUST compute exactly the same values
  /// as `kernel`/`segment`; when null, lower() adapts the next rung down.
  /// All bundled apps ship one.
  TileKernel tile;

  /// The segment-granular view: the native segment kernel when present,
  /// the wrapped per-cell kernel otherwise. NOT for hot loops — this
  /// constructs a std::function; resolve once per run (or use lower())
  /// and pass the result by reference.
  SegmentKernel segment_or_fallback() const {
    return segment ? segment : make_segment_fallback(kernel, elem_bytes);
  }

  /// Plan-time lowering: resolves the widest available rung into the
  /// plain-function dispatch form the execution engine consumes. Called
  /// exactly once per compiled plan (api::Engine::compile) or per direct
  /// run (top of HybridExecutor::run/run_serial) — never inside a
  /// per-tile, per-diagonal, or per-phase loop.
  LoweredKernel lower() const {
    LoweredKernel k;
    k.dim = dim;
    k.elem_bytes = elem_bytes;
    if (tile) {
      k.fn = tile.fn;
      k.banded = tile.banded;
      k.ctx = tile.ctx.get();
      k.keepalive = tile.ctx;
      k.native = true;
    } else {
      TileKernel fallback = make_tile_fallback(segment_or_fallback(), elem_bytes);
      k.fn = fallback.fn;
      k.ctx = fallback.ctx.get();
      k.keepalive = std::move(fallback.ctx);
    }
    return k;
  }

  InputParams inputs() const { return InputParams{dim, tsize, dsize}; }

  void validate() const {
    if (dim == 0) throw std::invalid_argument("WavefrontSpec: dim == 0");
    if (elem_bytes == 0) throw std::invalid_argument("WavefrontSpec: elem_bytes == 0");
    if (!kernel) throw std::invalid_argument("WavefrontSpec: null kernel");
    inputs().validate();  // finite non-negative tsize, dsize >= 0
  }
};

/// Typed wavefront problem over cell type T (trivially copyable).
///
///   struct Score { float v; };
///   Problem<Score> p(n, /*tsize=*/0.5, /*dsize=*/0,
///     [](std::size_t i, std::size_t j, const Score* w, const Score* n_,
///        const Score* nw) -> Score { ... });
///   WavefrontSpec spec = p.spec();
template <typename T>
class Problem {
public:
  /// Typed kernel: returns the new cell value; neighbour pointers are null
  /// at the borders.
  using Kernel = std::function<T(std::size_t i, std::size_t j, const T* west, const T* north,
                                 const T* northwest)>;

  /// Typed batched kernel: computes cells (i, j0..j1) into `out` (which
  /// points at cell (i, j0)). Same pointer contract as core::SegmentKernel
  /// with T-typed pointers: `north` is the contiguous north row (null iff
  /// i == 0), `west`/`northwest` are the neighbours of the FIRST cell (null
  /// on the j0 == 0 border); inside the run they slide over the output and
  /// north rows.
  using Segment = std::function<void(std::size_t i, std::size_t j0, std::size_t j1,
                                     const T* west, const T* north, const T* northwest, T* out)>;

  Problem(std::size_t dim, double tsize, int dsize, Kernel kernel)
      : dim_(dim), tsize_(tsize), dsize_(dsize), kernel_(std::move(kernel)) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Problem<T>: cell type must be trivially copyable");
    if (!kernel_) throw std::invalid_argument("Problem: null kernel");
  }

  /// Attaches a typed batched kernel; it must compute exactly the same
  /// values as the per-cell kernel. Returns *this for chaining.
  Problem& with_segment(Segment segment) {
    segment_ = std::move(segment);
    return *this;
  }

  /// Declares the kernel's content identity (see
  /// WavefrontSpec::content_key). Required whenever the kernel captures
  /// per-request data. Returns *this for chaining.
  Problem& with_content_key(std::string key) {
    content_key_ = std::move(key);
    return *this;
  }

  std::size_t dim() const { return dim_; }

  WavefrontSpec spec() const {
    WavefrontSpec s;
    s.dim = dim_;
    s.elem_bytes = sizeof(T);
    s.tsize = tsize_;
    s.dsize = dsize_;
    s.content_key = content_key_;
    Kernel k = kernel_;
    s.kernel = [k](std::size_t i, std::size_t j, const std::byte* w, const std::byte* n,
                   const std::byte* nw, std::byte* out) {
      const T* tw = reinterpret_cast<const T*>(w);
      const T* tn = reinterpret_cast<const T*>(n);
      const T* tnw = reinterpret_cast<const T*>(nw);
      const T value = k(i, j, tw, tn, tnw);
      *reinterpret_cast<T*>(out) = value;
    };
    if (segment_) {
      Segment seg = segment_;
      s.segment = [seg](std::size_t i, std::size_t j0, std::size_t j1, const std::byte* w,
                        const std::byte* n, const std::byte* nw, std::byte* out) {
        seg(i, j0, j1, reinterpret_cast<const T*>(w), reinterpret_cast<const T*>(n),
            reinterpret_cast<const T*>(nw), reinterpret_cast<T*>(out));
      };
    }
    s.validate();
    return s;
  }

private:
  std::size_t dim_;
  double tsize_;
  int dsize_;
  Kernel kernel_;
  Segment segment_;
  std::string content_key_;
};

}  // namespace wavetune::core
