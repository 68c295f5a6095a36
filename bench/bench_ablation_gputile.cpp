// Ablation: intra-GPU tiling (DESIGN.md §5, paper §4.1.1).
// Sweeps gpu-tile for a whole-grid single-GPU schedule across task
// granularities, reporting runtime and kernel-launch counts. Expected
// shape: tiling reduces launches and wins only at tiny tsize (where the
// CPU-only configuration dominates anyway); at realistic granularity the
// work-group serialisation makes it lose.
#include <iostream>

#include "common.hpp"

using namespace wavetune;

int main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  ctx.systems = {sim::profile_by_name("i7-2600K")};
  const auto& sys = ctx.systems.front();
  core::HybridExecutor ex(sys, 1);

  const std::size_t dim = ctx.fast ? 480 : 1900;
  const auto band = static_cast<long long>(dim) - 1;

  util::Table table({"tsize", "gpu-tile", "rtime (s)", "launches", "vs untiled",
                     "cpu-only (s)"});
  for (const double tsize : {30.0, 500.0, 8000.0}) {
    const core::InputParams in{dim, tsize, 1};
    const double cpu_only =
        ex.estimate(in, core::plan_phases(in, core::TunableParams{8, -1, -1, 1})).rtime_ns;
    const auto untiled =
        ex.estimate(in, core::plan_phases(in, core::TunableParams{4, band, -1, 1}));
    for (const int gt : {1, 4, 8, 11, 16, 21, 25}) {
      const auto r =
          ex.estimate(in, core::plan_phases(in, core::TunableParams{4, band, -1, gt}));
      table.row()
          .add(tsize, 0)
          .add(gt)
          .add(bench::secs(r.rtime_ns))
          .add(r.breakdown.kernel_launches())
          .add(r.rtime_ns / untiled.rtime_ns, 3)
          .add(bench::secs(cpu_only))
          .done();
    }
  }
  bench::emit(ctx, table,
              "Ablation [i7-2600K, dim=" + std::to_string(dim) +
                  ", band=full]: gpu-tile launch-count vs work-group-serialisation");
  std::cout << "expected shape: vs-untiled < 1 only at tiny tsize, where cpu-only wins "
               "anyway (paper Sec. 4.1.1)\n";
  return 0;
}
