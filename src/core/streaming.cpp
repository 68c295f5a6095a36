#include "core/streaming.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace wavetune::core {

std::size_t whole_grid_resident_bytes(std::size_t dim, std::size_t elem_bytes) {
  return dim * dim * elem_bytes;
}

std::size_t streamed_resident_bytes(std::size_t dim, std::size_t elem_bytes,
                                    std::size_t strip_rows, std::size_t strip_buffers) {
  return strip_buffers * (strip_rows + 1) * dim * elem_bytes;
}

std::size_t largest_window_bytes(const PhaseDesc& ph, std::size_t dim,
                                 std::size_t elem_bytes) {
  std::size_t rows = 0;
  if (ph.is_gpu()) {
    for (std::size_t g = 0; g < static_cast<std::size_t>(ph.gpu_count); ++g) {
      rows = std::max(rows, ph.device_rows(dim, g).rows());
    }
  }
  return rows * dim * elem_bytes;
}

std::size_t max_strip_rows_for_cap(std::size_t dim, std::size_t elem_bytes, std::size_t cap,
                                   std::size_t strip_buffers) {
  const std::size_t row_bytes = dim * elem_bytes;
  const std::size_t pool_rows = cap / (strip_buffers * row_bytes);  // strip_rows + 1 halo
  if (pool_rows < 2) {
    throw StreamingPlanError(
        "streaming: max_resident_bytes " + std::to_string(cap) + " cannot hold even a " +
        std::to_string(strip_buffers) + "-buffer pool of 1-row strips for dim " +
        std::to_string(dim) + " (needs " +
        std::to_string(streamed_resident_bytes(dim, elem_bytes, 1, strip_buffers)) + " bytes)");
  }
  return std::min(pool_rows - 1, dim);
}

std::vector<StripShape> strip_candidates(std::size_t dim, std::size_t elem_bytes,
                                         std::size_t cap) {
  std::vector<StripShape> out;
  for (const std::size_t pool : {std::size_t{2}, std::size_t{1}}) {
    // A cap that fits no 2-buffer pool may still fit a 1-buffer one;
    // when not even that fits, max_strip_rows_for_cap throws.
    if (pool == 2 && cap < streamed_resident_bytes(dim, elem_bytes, 1, 2)) continue;
    for (std::size_t rows = max_strip_rows_for_cap(dim, elem_bytes, cap, pool); rows >= 1;
         rows /= 2) {
      out.push_back({rows, pool});
    }
  }
  return out;
}

PhaseProgram apply_residency_cap(PhaseProgram program, const InputParams& in,
                                 std::size_t max_resident_bytes,
                                 const HybridExecutor& executor) {
  if (max_resident_bytes == 0) return program;
  const std::size_t elem = in.elem_bytes();
  // The cap bounds each device: a phase fits when its largest device
  // window does. Only single-GPU phases can stream their way under it;
  // CPU phases keep the host grid and put nothing on a device.
  bool stream = false;
  for (std::size_t i = 0; i < program.phases.size(); ++i) {
    const PhaseDesc& ph = program.phases[i];
    const std::size_t bytes = largest_window_bytes(ph, in.dim, elem);
    if (bytes <= max_resident_bytes) continue;
    if (ph.device == PhaseDevice::kGpuMulti) {
      throw StreamingPlanError(
          "streaming: phase " + std::to_string(i) + " (gpu-multi [" +
          std::to_string(ph.d_begin) + "," + std::to_string(ph.d_end) +
          ")) has a device window of " + std::to_string(bytes) +
          " bytes, over max_resident_bytes " + std::to_string(max_resident_bytes) +
          "; multi-GPU phases do not stream");
    }
    stream = true;
  }
  if (!stream) return program;

  // Each candidate is priced by the executor's own estimate of the program
  // it would produce — the schedule it will charge, on its profile; strict
  // < keeps the earlier candidate on a tie.
  PhaseProgram best;
  double best_ns = std::numeric_limits<double>::infinity();
  for (const StripShape& shape : strip_candidates(in.dim, elem, max_resident_bytes)) {
    PhaseProgram cand = apply_strips(program, shape.strip_rows, shape.strip_buffers);
    const double ns = executor.estimate(in, cand).rtime_ns;
    if (ns < best_ns) {
      best_ns = ns;
      best = std::move(cand);
    }
  }
  return best;
}

}  // namespace wavetune::core
