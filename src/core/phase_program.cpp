#include "core/phase_program.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/diag.hpp"

namespace wavetune::core {

const char* phase_device_name(PhaseDevice d) {
  switch (d) {
    case PhaseDevice::kCpu:
      return "cpu";
    case PhaseDevice::kGpuSingle:
      return "gpu-single";
    case PhaseDevice::kGpuMulti:
      return "gpu-multi";
  }
  return "?";
}

DeviceRows PhaseDesc::device_rows(std::size_t dim, std::size_t g) const {
  const auto n = static_cast<std::size_t>(std::max(gpu_count, 0));
  if (g >= n) {
    throw std::invalid_argument("PhaseDesc::device_rows: device " + std::to_string(g) +
                                " of a " + std::to_string(n) + "-device phase");
  }
  if (dim > std::numeric_limits<std::size_t>::max() / n) {
    throw std::invalid_argument("PhaseDesc::device_rows: dim * gpu_count (" +
                                std::to_string(dim) + " * " + std::to_string(n) +
                                ") exceeds SIZE_MAX");
  }
  if (dim > kMaxGpuDim) {
    throw std::invalid_argument("PhaseDesc::device_rows: dim " + std::to_string(dim) +
                                " exceeds kMaxGpuDim = 2^60");
  }
  DeviceRows w;
  w.own_lo = dim * g / n;
  w.hi = dim * (g + 1) / n;
  const std::size_t reach = static_cast<std::size_t>(std::max(halo, 0LL)) + 1;
  w.lo = g == 0 ? 0 : w.own_lo - std::min(w.own_lo, reach);
  return w;
}

void PhaseDesc::validate(std::size_t dim) const {
  if (d_begin >= d_end) throw std::invalid_argument("PhaseDesc: empty diagonal range");
  if (d_end > num_diagonals(dim)) {
    throw std::invalid_argument("PhaseDesc: d_end beyond the last diagonal");
  }
  if (strip_rows > 0) {
    // Streaming strips: rows partition [0, dim) exactly once by
    // construction; what CAN go wrong is a strip taller than the grid
    // (meaningless) or a pool other than the serialized (1) or
    // double-buffered (2) one. The wedge split of kGpuMulti already owns
    // the row axis.
    if (device == PhaseDevice::kGpuMulti) {
      throw std::invalid_argument("PhaseDesc: gpu-multi phases cannot stream strips");
    }
    if (strip_rows > dim) {
      throw std::invalid_argument("PhaseDesc: strip_rows exceeds the grid side");
    }
    if (strip_buffers < 1 || strip_buffers > 2) {
      throw std::invalid_argument("PhaseDesc: strip_buffers " + std::to_string(strip_buffers) +
                                  " is outside [1, 2]");
    }
  }
  switch (device) {
    case PhaseDevice::kCpu:
      if (cpu_tile == 0) throw std::invalid_argument("PhaseDesc: cpu phase with tile == 0");
      break;
    case PhaseDevice::kGpuSingle:
      if (gpu_count != 1) {
        throw std::invalid_argument("PhaseDesc: gpu-single phase with gpu_count != 1");
      }
      if (gpu_tile == 0) throw std::invalid_argument("PhaseDesc: gpu phase with gpu_tile == 0");
      (void)device_rows(dim, 0);  // the GPU dim bound
      break;
    case PhaseDevice::kGpuMulti:
      if (gpu_count < 2) {
        throw std::invalid_argument("PhaseDesc: gpu-multi phase with gpu_count < 2");
      }
      if (halo < 0) throw std::invalid_argument("PhaseDesc: gpu-multi phase with halo < 0");
      (void)device_rows(dim, static_cast<std::size_t>(gpu_count) - 1);  // split range checks
      // The executor is exact only while every device owns a row and every
      // swap copies rows the upstream device owns: gpu_count <= dim and
      // halo <= the narrowest device's rows - 1 (the row split's shortest
      // share is dim / gpu_count), the range max_halo_multi clamps to.
      if (static_cast<std::size_t>(gpu_count) > dim) {
        throw std::invalid_argument("PhaseDesc: gpu-multi phase with gpu_count " +
                                    std::to_string(gpu_count) + " > dim " +
                                    std::to_string(dim) + " (every device needs a row)");
      }
      if (static_cast<std::size_t>(halo) >= dim / static_cast<std::size_t>(gpu_count)) {
        throw std::invalid_argument(
            "PhaseDesc: gpu-multi halo " + std::to_string(halo) +
            " exceeds the narrowest device's rows - 1 = " +
            std::to_string(dim / static_cast<std::size_t>(gpu_count) - 1));
      }
      if (gpu_tile != 1) {
        // Multi-GPU schedules run untiled (DESIGN.md §5, TunableParams::normalized).
        throw std::invalid_argument("PhaseDesc: gpu-multi phase must be untiled (gpu_tile == 1)");
      }
      break;
  }
}

void PhaseProgram::validate() const {
  if (dim == 0) throw std::invalid_argument("PhaseProgram: dim == 0");
  if (phases.empty()) throw std::invalid_argument("PhaseProgram: no phases");
  // Exact-once coverage in dependency order: contiguous, non-empty phases
  // from diagonal 0 to 2*dim-1. A gap would leave cells uncomputed (a
  // timing walk would silently skip them — the fuzz suite's poison runs
  // exist to catch exactly this); an overlap would compute cells twice.
  std::size_t expect = 0;
  for (const PhaseDesc& ph : phases) {
    ph.validate(dim);
    if (ph.d_begin != expect) {
      std::ostringstream ss;
      ss << "PhaseProgram: coverage break at diagonal " << expect << " (next phase starts at "
         << ph.d_begin << ")";
      throw std::invalid_argument(ss.str());
    }
    expect = ph.d_end;
  }
  if (expect != num_diagonals(dim)) {
    std::ostringstream ss;
    ss << "PhaseProgram: diagonals [" << expect << ", " << num_diagonals(dim)
       << ") are uncovered";
    throw std::invalid_argument(ss.str());
  }
}

void PhaseProgram::validate_for(std::size_t instance_dim, const sim::SystemProfile& system) const {
  validate();
  if (dim != instance_dim) {
    throw std::invalid_argument("PhaseProgram: dim " + std::to_string(dim) +
                                " does not match instance dim " + std::to_string(instance_dim));
  }
  if (max_gpu_count() > system.gpu_count()) {
    throw std::invalid_argument("PhaseProgram: requests " + std::to_string(max_gpu_count()) +
                                " GPU(s) but system '" + system.name + "' has " +
                                std::to_string(system.gpu_count()));
  }
}

int PhaseProgram::max_gpu_count() const {
  int n = 0;
  for (const PhaseDesc& ph : phases) {
    if (ph.is_gpu()) n = std::max(n, ph.gpu_count);
  }
  return n;
}

std::size_t PhaseProgram::cpu_phase_count() const {
  return static_cast<std::size_t>(
      std::count_if(phases.begin(), phases.end(), [](const PhaseDesc& p) { return p.is_cpu(); }));
}

std::size_t PhaseProgram::gpu_phase_count() const {
  return phases.size() - cpu_phase_count();
}

std::string PhaseProgram::describe() const {
  std::ostringstream ss;
  ss << "d" << num_diagonals(dim) << ":";
  bool first = true;
  for (const PhaseDesc& ph : phases) {
    if (!first) ss << ";";
    first = false;
    ss << "[" << ph.d_begin << "," << ph.d_end << ")";
    switch (ph.device) {
      case PhaseDevice::kCpu:
        ss << "cpu" << (ph.scheduler == cpu::Scheduler::kDataflow ? "f" : "b") << ph.cpu_tile;
        break;
      case PhaseDevice::kGpuSingle:
        ss << "gpu1t" << ph.gpu_tile;
        break;
      case PhaseDevice::kGpuMulti:
        ss << "gpu" << ph.gpu_count << "h" << ph.halo;
        break;
    }
    // Strip suffix only when streaming is on: whole-grid programs keep
    // their historical descriptions (and plan-cache keys) unchanged.
    if (ph.streamed()) ss << "s" << ph.strip_rows << "x" << ph.strip_buffers;
  }
  return ss.str();
}

PhaseProgram plan_phases(const InputParams& in, const TunableParams& raw,
                         cpu::Scheduler scheduler) {
  in.validate();
  const TunableParams p = raw.normalized(in.dim);
  const std::size_t dim = in.dim;
  const std::size_t d_total = num_diagonals(dim);
  const std::size_t d0 = p.uses_gpu() ? p.gpu_d_begin(dim) : d_total;
  const std::size_t d1 = p.uses_gpu() ? p.gpu_d_end(dim) : d_total;

  PhaseProgram prog;
  prog.dim = dim;
  prog.params = p;

  const auto cpu_phase = [&](std::size_t b, std::size_t e) {
    PhaseDesc ph;
    ph.device = PhaseDevice::kCpu;
    ph.d_begin = b;
    ph.d_end = e;
    ph.scheduler = scheduler;
    ph.cpu_tile = static_cast<std::size_t>(p.cpu_tile);
    prog.phases.push_back(ph);
  };

  if (d0 > 0) cpu_phase(0, d0);
  if (p.uses_gpu() && d0 < d1) {
    PhaseDesc ph;
    ph.d_begin = d0;
    ph.d_end = d1;
    ph.gpu_count = p.gpu_count();
    if (ph.gpu_count >= 2) {
      ph.device = PhaseDevice::kGpuMulti;
      ph.halo = p.halo;
      ph.gpu_tile = 1;
    } else {
      ph.device = PhaseDevice::kGpuSingle;
      ph.gpu_tile = static_cast<std::size_t>(p.gpu_tile);
      ph.halo = 0;  // single-GPU phases have no halo axis
    }
    prog.phases.push_back(ph);
  }
  if (d1 < d_total) cpu_phase(d1, d_total);

  prog.validate();
  return prog;
}

PhaseProgram make_cpu_only_program(const InputParams& in, int cpu_tile, std::size_t n_phases,
                                   cpu::Scheduler scheduler) {
  in.validate();
  const std::size_t d_total = num_diagonals(in.dim);
  const std::size_t n = std::clamp<std::size_t>(n_phases, 1, d_total);
  TunableParams p{cpu_tile, -1, -1, 1};
  p = p.normalized(in.dim);

  PhaseProgram prog;
  prog.dim = in.dim;
  prog.params = p;
  for (std::size_t s = 0; s < n; ++s) {
    PhaseDesc ph;
    ph.device = PhaseDevice::kCpu;
    ph.d_begin = d_total * s / n;
    ph.d_end = d_total * (s + 1) / n;
    ph.scheduler = scheduler;
    ph.cpu_tile = static_cast<std::size_t>(p.cpu_tile);
    prog.phases.push_back(ph);
  }
  prog.validate();
  return prog;
}

PhaseProgram split_gpu_band(PhaseProgram program, std::size_t k) {
  if (k <= 1) return program;
  std::vector<PhaseDesc> out;
  out.reserve(program.phases.size());
  for (const PhaseDesc& ph : program.phases) {
    if (ph.is_cpu()) {
      out.push_back(ph);
      continue;
    }
    const std::size_t width = ph.d_end - ph.d_begin;
    const std::size_t parts = std::min(k, width);
    for (std::size_t s = 0; s < parts; ++s) {
      PhaseDesc sub = ph;
      sub.d_begin = ph.d_begin + width * s / parts;
      sub.d_end = ph.d_begin + width * (s + 1) / parts;
      out.push_back(sub);
    }
  }
  program.phases = std::move(out);
  program.validate();
  return program;
}

PhaseProgram apply_strips(PhaseProgram program, std::size_t strip_rows,
                          std::size_t strip_buffers) {
  if (strip_rows == 0) return program;
  const std::size_t rows = std::min(strip_rows, program.dim);
  for (PhaseDesc& ph : program.phases) {
    if (ph.device == PhaseDevice::kGpuMulti) continue;
    ph.strip_rows = rows;
    ph.strip_buffers = strip_buffers;
  }
  program.validate();
  return program;
}

}  // namespace wavetune::core
