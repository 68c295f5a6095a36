#include "autotune/online.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

namespace wavetune::autotune {

namespace {

/// Candidate neighbour moves of one configuration.
std::vector<core::TunableParams> neighbours(const core::TunableParams& base,
                                            const core::InputParams& in, int max_gpus,
                                            double step) {
  std::vector<core::TunableParams> out;
  const auto dim_ll = static_cast<long long>(in.dim);

  auto push = [&](core::TunableParams p) { out.push_back(p.normalized(in.dim)); };

  // cpu-tile ladder (the paper's Table 3 values).
  static const int kTiles[] = {1, 2, 4, 8, 10, 16};
  for (int t : kTiles) {
    if (t != base.cpu_tile) {
      core::TunableParams p = base;
      p.cpu_tile = t;
      push(p);
      break;  // one tile probe per round keeps the budget for band/halo
    }
  }

  // band moves: multiplicative up/down, plus on/off transitions.
  const auto delta = std::max<long long>(1, static_cast<long long>(step * in.dim));
  if (base.band >= 0) {
    core::TunableParams up = base;
    up.band = std::min(dim_ll - 1, base.band + delta);
    push(up);
    core::TunableParams down = base;
    down.band = base.band - delta;  // may go to -1 (CPU-only): that is a move too
    if (down.band < 0) {
      down.band = -1;
      down.halo = -1;
      down.gpus = 0;
    }
    push(down);
  } else if (max_gpus >= 1) {
    core::TunableParams on = base;
    on.band = std::max<long long>(1, dim_ll / 2);
    on.halo = -1;
    push(on);
  }

  // halo moves (only meaningful with >= 2 devices in play).
  if (base.band >= 0 && max_gpus >= 2) {
    const long long hmax = base.gpu_count() >= 3
                               ? core::TunableParams::max_halo_multi(in.dim, base.band,
                                                                     base.gpu_count())
                               : core::TunableParams::max_halo(in.dim, base.band);
    const long long hdelta = std::max<long long>(1, static_cast<long long>(step * hmax));
    if (base.halo >= 0) {
      core::TunableParams up = base;
      up.halo = std::min(hmax, base.halo + hdelta);
      push(up);
      core::TunableParams down = base;
      down.halo = std::max<long long>(0, base.halo - hdelta);
      push(down);
      if (base.gpu_count() == 2) {
        core::TunableParams single = base;  // drop to one device
        single.halo = -1;
        single.gpus = 0;
        push(single);
      }
    } else {
      core::TunableParams dual = base;  // try a second device
      dual.halo = std::min(hmax, hdelta);
      push(dual);
    }
  }

  // gpu-count moves (the N-way extension).
  if (base.band >= 0 && base.gpu_count() >= 2) {
    if (base.gpu_count() < max_gpus) {
      core::TunableParams more = base;
      more.gpus = base.gpu_count() + 1;
      if (more.halo < 0) more.halo = 0;
      push(more);
    }
    if (base.gpu_count() > 2) {
      core::TunableParams fewer = base;
      fewer.gpus = base.gpu_count() - 1;
      push(fewer);
    }
  }
  return out;
}

}  // namespace

OnlineTuneResult refine_online(const core::HybridExecutor& executor,
                               const core::InputParams& instance,
                               const core::TunableParams& seed,
                               const OnlineTunerOptions& options) {
  instance.validate();
  const int max_gpus = executor.profile().gpu_count();

  OnlineTuneResult result;
  result.params = seed.normalized(instance.dim);
  result.seed_rtime_ns =
      executor.estimate(instance, core::plan_phases(instance, result.params)).rtime_ns;
  result.rtime_ns = result.seed_rtime_ns;
  ++result.evaluations;

  // Memoise probes: revisiting a configuration costs nothing at runtime
  // either (the measurement is cached).
  std::set<std::tuple<int, long long, long long, int, int>> seen;
  auto key = [](const core::TunableParams& p) {
    return std::make_tuple(p.cpu_tile, p.band, p.halo, p.gpu_tile, p.gpus);
  };
  seen.insert(key(result.params));

  double step = options.coarse_step;
  bool improved_at_step = false;
  while (result.evaluations < options.max_evaluations) {
    core::TunableParams best_move = result.params;
    double best_time = result.rtime_ns;
    for (const auto& cand : neighbours(result.params, instance, max_gpus, step)) {
      if (cand.gpu_count() > max_gpus) continue;
      if (!seen.insert(key(cand)).second) continue;
      if (result.evaluations >= options.max_evaluations) break;
      const double t = executor.estimate(instance, core::plan_phases(instance, cand)).rtime_ns;
      ++result.evaluations;
      if (t < best_time) {
        best_time = t;
        best_move = cand;
      }
    }
    if (best_time < result.rtime_ns) {
      result.params = best_move;
      result.rtime_ns = best_time;
      improved_at_step = true;
      continue;
    }
    // No improving neighbour at this step size: refine the step once,
    // then stop.
    if (step == options.coarse_step) {
      step = options.fine_step;
      improved_at_step = false;
      continue;
    }
    if (!improved_at_step) break;
    improved_at_step = false;
  }
  return result;
}

// --- profile-driven program refinement ------------------------------------

namespace {

/// Ladder step: the nearest values strictly below/above `current` on the
/// paper's Table 3 ladders.
template <std::size_t N>
void ladder_moves(const int (&ladder)[N], int current, std::vector<int>& out) {
  int below = -1;
  int above = -1;
  for (int v : ladder) {
    if (v < current) below = v;
    if (v > current && above < 0) above = v;
  }
  if (below > 0) out.push_back(below);
  if (above > 0) out.push_back(above);
}

/// All candidate single-mutation neighbours of `base` (validated; invalid
/// mutations are dropped). Mutations keep the diagonal coverage exact by
/// construction — only split/merge touch ranges, and both preserve the
/// partition — so validate() failures here mean a device-specific
/// constraint (e.g. halo bounds after a multi-GPU split), not a coverage
/// bug.
std::vector<core::PhaseProgram> program_neighbours(const core::PhaseProgram& base,
                                                   int max_gpus) {
  static const int kCpuTiles[] = {1, 2, 4, 8, 10, 16};
  static const int kGpuTiles[] = {1, 2, 4, 8, 16};

  std::vector<core::PhaseProgram> out;
  auto push = [&](core::PhaseProgram p) {
    try {
      p.validate();
    } catch (const std::invalid_argument&) {
      return;
    }
    out.push_back(std::move(p));
  };

  for (std::size_t i = 0; i < base.phases.size(); ++i) {
    const core::PhaseDesc& ph = base.phases[i];
    const std::size_t width = ph.d_end - ph.d_begin;

    if (ph.is_cpu()) {
      // Per-phase cpu_tile ladder — the whole point of program-space
      // tuning: a pre-band sliver and a post-band bulk phase can want
      // different tiles.
      std::vector<int> tiles;
      ladder_moves(kCpuTiles, static_cast<int>(ph.cpu_tile), tiles);
      for (int t : tiles) {
        core::PhaseProgram p = base;
        p.phases[i].cpu_tile = static_cast<std::size_t>(t);
        push(std::move(p));
      }
      // Re-device to a single GPU.
      if (max_gpus >= 1) {
        core::PhaseProgram p = base;
        p.phases[i].device = core::PhaseDevice::kGpuSingle;
        p.phases[i].gpu_count = 1;
        p.phases[i].gpu_tile = 1;
        p.phases[i].halo = 0;
        push(std::move(p));
      }
    } else if (ph.device == core::PhaseDevice::kGpuSingle) {
      std::vector<int> tiles;
      ladder_moves(kGpuTiles, static_cast<int>(ph.gpu_tile), tiles);
      for (int t : tiles) {
        core::PhaseProgram p = base;
        p.phases[i].gpu_tile = static_cast<std::size_t>(t);
        push(std::move(p));
      }
    }

    // Re-device any GPU phase back to the CPU (the escape hatch when
    // measurements say the offload never pays).
    if (ph.is_gpu()) {
      core::PhaseProgram p = base;
      p.phases[i] = core::PhaseDesc{};
      p.phases[i].device = core::PhaseDevice::kCpu;
      p.phases[i].d_begin = ph.d_begin;
      p.phases[i].d_end = ph.d_end;
      p.phases[i].cpu_tile = std::max<std::size_t>(1, static_cast<std::size_t>(std::max(
                                 1, base.params.cpu_tile)));
      push(std::move(p));
      if (ph.device == core::PhaseDevice::kGpuMulti) {
        core::PhaseProgram q = base;
        q.phases[i].device = core::PhaseDevice::kGpuSingle;
        q.phases[i].gpu_count = 1;
        q.phases[i].gpu_tile = 1;
        q.phases[i].halo = 0;
        push(std::move(q));
      }
    }

    // Split at the diagonal midpoint: both halves inherit the knobs, so
    // a follow-up round can tune them apart.
    if (width >= 2) {
      core::PhaseProgram p = base;
      core::PhaseDesc tail = p.phases[i];
      const std::size_t mid = ph.d_begin + width / 2;
      p.phases[i].d_end = mid;
      tail.d_begin = mid;
      p.phases.insert(p.phases.begin() + static_cast<std::ptrdiff_t>(i) + 1, tail);
      push(std::move(p));
    }

    // Merge with the next phase when both run on the same device class
    // (the merged phase adopts this phase's knobs).
    if (i + 1 < base.phases.size() && base.phases[i + 1].device == ph.device) {
      core::PhaseProgram p = base;
      p.phases[i].d_end = p.phases[i + 1].d_end;
      p.phases.erase(p.phases.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      push(std::move(p));
    }
  }
  return out;
}

}  // namespace

double scaled_program_cost_ns(const core::HybridExecutor& executor,
                              const core::InputParams& instance,
                              const core::PhaseProgram& program,
                              const PhaseCostScales& scales) {
  const core::RunResult est = executor.estimate(instance, program);
  double total = 0.0;
  for (const core::PhaseTiming& t : est.breakdown.phases) {
    total += t.ns * scales.for_device(t.device);
  }
  return total;
}

ProgramTuneResult refine_program(const core::HybridExecutor& executor,
                                 const core::InputParams& instance,
                                 const core::PhaseProgram& seed,
                                 const PhaseCostScales& scales,
                                 const ProgramTuneOptions& options) {
  instance.validate();
  seed.validate();
  const int max_gpus = executor.profile().gpu_count();

  ProgramTuneResult result;
  result.program = seed;
  result.seed_cost_ns = scaled_program_cost_ns(executor, instance, seed, scales);
  result.cost_ns = result.seed_cost_ns;
  ++result.evaluations;

  std::set<std::string> seen;
  seen.insert(seed.describe());

  while (result.evaluations < options.max_evaluations) {
    core::PhaseProgram best_move;
    double best_cost = result.cost_ns;
    bool found = false;
    for (core::PhaseProgram& cand : program_neighbours(result.program, max_gpus)) {
      if (!seen.insert(cand.describe()).second) continue;
      if (result.evaluations >= options.max_evaluations) break;
      const double c = scaled_program_cost_ns(executor, instance, cand, scales);
      ++result.evaluations;
      if (c < best_cost) {
        best_cost = c;
        best_move = std::move(cand);
        found = true;
      }
    }
    if (!found) break;
    result.program = std::move(best_move);
    result.cost_ns = best_cost;
  }
  return result;
}

}  // namespace wavetune::autotune
