#include "autotune/baselines.hpp"

#include <cmath>
#include <limits>

namespace wavetune::autotune {

BaselineTimes compute_baselines(const core::HybridExecutor& executor,
                                const core::InputParams& instance,
                                const std::vector<int>& cpu_tiles,
                                const std::vector<int>& gpu_tiles,
                                const std::vector<double>& halo_fractions) {
  BaselineTimes out;
  out.serial_ns = executor.estimate_serial(instance);

  // All-CPU: pick the best cpu-tile.
  out.cpu_parallel_ns = std::numeric_limits<double>::infinity();
  for (int ct : cpu_tiles) {
    const core::TunableParams p{ct, -1, -1, 1};
    const double t = executor.estimate(instance, core::plan_phases(instance, p)).rtime_ns;
    if (t < out.cpu_parallel_ns) {
      out.cpu_parallel_ns = t;
      out.cpu_parallel_params = p.normalized(instance.dim);
    }
  }

  // All-GPU: band covers the whole grid; phases 1 and 3 are null, so
  // cpu-tile is irrelevant. Sweep gpu-tile (single GPU) and halo (dual).
  out.gpu_only_ns = std::numeric_limits<double>::infinity();
  const auto full_band = static_cast<long long>(instance.dim) - 1;
  if (executor.profile().gpu_count() >= 1) {
    for (int gt : gpu_tiles) {
      const core::TunableParams p{1, full_band, -1, gt};
      const double t = executor.estimate(instance, core::plan_phases(instance, p)).rtime_ns;
      if (t < out.gpu_only_ns) {
        out.gpu_only_ns = t;
        out.gpu_only_params = p.normalized(instance.dim);
      }
    }
  }
  if (executor.profile().gpu_count() >= 2) {
    const long long hmax = core::TunableParams::max_halo(instance.dim, full_band);
    for (double f : halo_fractions) {
      const auto h = static_cast<long long>(std::llround(f * static_cast<double>(hmax)));
      const core::TunableParams p{1, full_band, h, 1};
      const double t = executor.estimate(instance, core::plan_phases(instance, p)).rtime_ns;
      if (t < out.gpu_only_ns) {
        out.gpu_only_ns = t;
        out.gpu_only_params = p.normalized(instance.dim);
      }
    }
  }
  return out;
}

}  // namespace wavetune::autotune
