// Schedule visualisation: ASCII Gantt charts of the simulated GPU phase
// for representative tunings — single GPU, dual GPU with small and large
// halos, and the N-GPU extension. Makes the cost model's behaviour
// (launch gaps, PCIe serialisation, swap stalls) directly inspectable.
#include <iostream>

#include "common.hpp"
#include "ocl/trace.hpp"

using namespace wavetune;

int main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  ctx.systems = {sim::profile_by_name("i7-2600K")};
  core::HybridExecutor ex(ctx.systems.front(), 1);

  const std::size_t dim = ctx.fast ? 256 : 1024;
  const core::InputParams in{dim, 1000.0, 1};
  const auto band = static_cast<long long>(dim) / 2;

  struct Scenario {
    const char* label;
    core::TunableParams params;
  };
  Scenario scenarios[] = {
      {"single GPU, untiled", {8, band, -1, 1}},
      {"single GPU, tiled g=16", {8, band, -1, 16}},
      {"dual GPU, halo=0 (swap every diagonal)", {8, band, 0, 1}},
      {"dual GPU, halo=32", {8, band, 32, 1}},
      {"four GPUs, halo=16", {8, band, 16, 1}},
  };
  scenarios[4].params.gpus = 4;

  for (const auto& s : scenarios) {
    ocl::Trace trace;
    const core::RunResult r = ex.estimate(in, core::plan_phases(in, s.params), &trace);
    double gpu_ns = 0.0;
    for (const core::PhaseTiming& t : r.breakdown.phases) {
      if (t.device != core::PhaseDevice::kCpu) gpu_ns += t.ns;
    }
    std::cout << "== " << s.label << " — " << r.params.describe() << " ==\n"
              << "gpu phase: " << sim::format_time(gpu_ns) << ", "
              << trace.count(ocl::CommandKind::Kernel) << " kernels, "
              << r.breakdown.swap_count() << " swaps, " << r.breakdown.redundant_cells()
              << " redundant cells\n"
              << trace.render_gantt(96) << '\n';
  }
  return 0;
}
