// Residency-capped streaming-strip planning.
//
// Out-of-core execution: when a GPU phase's device footprint exceeds what
// the deployment wants resident, the planner reshapes the program onto
// row strips streamed through a fixed pool of
// strip_buffers x (strip_rows + 1) x dim element buffers instead of one
// whole-grid buffer. Both the strip height and the pool size are chosen
// by the executor's own cost model: every fitting candidate is priced
// with HybridExecutor::estimate — the exact schedule the executor will
// charge, on its profile — and the cheapest wins. A 2-buffer pool
// overlaps the next strip's upload with the current strip's kernels; a
// 1-buffer pool fits strips twice as tall under the same cap, which
// amortizes per-strip transfer latency instead. Which one pays depends on
// the workload and the hardware, so the planner measures rather than
// guesses.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/executor.hpp"
#include "core/phase_program.hpp"

namespace wavetune::core {

/// A residency cap no plan fits: a multi-GPU device window larger than
/// the cap, or a cap smaller than a pool of 1-row strips.
class StreamingPlanError : public std::invalid_argument {
public:
  using std::invalid_argument::invalid_argument;
};

/// Device bytes of a whole-grid GPU phase: one dim x dim buffer.
std::size_t whole_grid_resident_bytes(std::size_t dim, std::size_t elem_bytes);

/// Device bytes of a streamed GPU phase: strip_buffers pool buffers of
/// (strip_rows + 1) x dim elements (one halo row each).
std::size_t streamed_resident_bytes(std::size_t dim, std::size_t elem_bytes,
                                    std::size_t strip_rows, std::size_t strip_buffers);

/// Device bytes of the largest device window of a whole-grid GPU phase:
/// the whole grid for kGpuSingle, the tallest PhaseDesc::device_rows
/// window for kGpuMulti. 0 for CPU phases.
std::size_t largest_window_bytes(const PhaseDesc& ph, std::size_t dim,
                                 std::size_t elem_bytes);

/// Largest strip_rows whose pool fits `cap` bytes (clamped to dim).
/// Throws StreamingPlanError when even strip_rows == 1 does not fit.
std::size_t max_strip_rows_for_cap(std::size_t dim, std::size_t elem_bytes, std::size_t cap,
                                   std::size_t strip_buffers);

/// One strip axis: rows per strip and pool size (PhaseDesc fields).
struct StripShape {
  std::size_t strip_rows = 0;
  std::size_t strip_buffers = 0;
};

/// The strip axes apply_residency_cap prices under `cap`, in its order:
/// pool sizes 2 then 1, each with heights halving down from
/// max_strip_rows_for_cap. A cap too small for a 2-buffer pool yields
/// only 1-buffer candidates; throws StreamingPlanError when not even a
/// 1-buffer pool of 1-row strips fits.
std::vector<StripShape> strip_candidates(std::size_t dim, std::size_t elem_bytes,
                                         std::size_t cap);

/// Residency-capped strip selection over an already-compiled program.
/// `max_resident_bytes` bounds each device (0 = unlimited). When a
/// single-GPU phase's whole grid exceeds it, every non-multi-GPU phase
/// streams (so checkpoint points cover the whole run), with the strip
/// height and pool size that `executor` estimates cheapest among
/// strip_candidates; a tie keeps the earlier candidate.
/// Returns the program unchanged when there is no cap or every device
/// window fits. Throws StreamingPlanError when a multi-GPU phase's
/// largest device window exceeds the cap (multi-GPU phases do not
/// stream) or when even 1-row strips in a 1-buffer pool do not fit.
PhaseProgram apply_residency_cap(PhaseProgram program, const InputParams& in,
                                 std::size_t max_resident_bytes,
                                 const HybridExecutor& executor);

}  // namespace wavetune::core
