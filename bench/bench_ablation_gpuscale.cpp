// Ablation: GPU-count scaling (the paper's §6 future work, implemented).
// Sweeps 1..4 devices on the i7-2600K (4x GTX 590 dies in Table 4) across
// task granularities, reporting runtime and the swap/transfer overheads
// that limit scaling.
#include <iostream>

#include "common.hpp"

using namespace wavetune;

int main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  ctx.systems = {sim::profile_by_name("i7-2600K")};
  const auto& sys = ctx.systems.front();
  core::HybridExecutor ex(sys, 1);

  // Near-full band: phases 1 and 3 are tiny, so the reported scaling is
  // essentially the GPU phase's own — but the first offloaded diagonal
  // stays long enough that the paper's halo constraint (halo <= half the
  // first diagonal) does not force swap-every-diagonal.
  const std::size_t dim = ctx.fast ? 1000 : 2700;
  const long long band = static_cast<long long>(dim) * 9 / 10;

  util::Table table({"tsize", "gpus", "rtime (s)", "speedup vs 1 GPU", "swaps", "swap (ms)",
                     "transfers (ms)"});
  for (const double tsize : {100.0, 1000.0, 8000.0}) {
    const core::InputParams in{dim, tsize, 1};
    double one_gpu = 0.0;
    for (const int n : {1, 2, 3, 4}) {
      core::TunableParams p{8, band, n >= 2 ? 4LL : -1LL, 1};
      p.gpus = n;
      const auto r = ex.estimate(in, core::plan_phases(in, p));
      if (n == 1) one_gpu = r.rtime_ns;
      table.row()
          .add(tsize, 0)
          .add(n)
          .add(bench::secs(r.rtime_ns))
          .add(one_gpu / r.rtime_ns, 2)
          .add(r.breakdown.swap_count())
          .add(r.breakdown.swap_ns() / 1e6, 2)
          .add((r.breakdown.transfer_in_ns() + r.breakdown.transfer_out_ns()) / 1e6, 2)
          .done();
    }
  }
  bench::emit(ctx, table,
              "Ablation [i7-2600K, dim=" + std::to_string(dim) +
                  "]: multi-GPU scaling (paper future work, implemented)");
  std::cout << "expected shape: scaling improves with tsize (compute-bound) and is capped "
               "by the shared PCIe link at low tsize\n";
  return 0;
}
