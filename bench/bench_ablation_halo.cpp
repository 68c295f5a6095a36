// Ablation: the halo trade-off (DESIGN.md §5, paper §2.1).
// Sweeps halo for fixed dual-GPU instances and reports runtime, swap count
// and redundant cells — exposing the "fewer swaps vs more redundant
// computation" curve and how its minimum moves with task granularity.
#include <iostream>

#include "common.hpp"

using namespace wavetune;

int main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  ctx.systems = {sim::profile_by_name("i7-3820")};  // the dual-Tesla system
  const auto& sys = ctx.systems.front();
  core::HybridExecutor ex(sys, 1);

  const std::size_t dim = ctx.fast ? 480 : 1900;
  const long long band = static_cast<long long>(dim) / 2;

  util::Table table({"tsize", "halo", "rtime (s)", "swaps", "swap (ms)", "redundant cells",
                     "best?"});
  for (const double tsize : {100.0, 1000.0, 8000.0}) {
    const core::InputParams in{dim, tsize, 1};
    double best_t = 1e300;
    long long best_h = -2;
    std::vector<core::RunResult> rows;
    std::vector<long long> halos{0, 1, 2, 5, 10, 20, 40, 80, 160};
    for (long long h : halos) {
      const auto r = ex.estimate(in, core::plan_phases(in, core::TunableParams{4, band, h, 1}));
      rows.push_back(r);
      if (r.rtime_ns < best_t) {
        best_t = r.rtime_ns;
        best_h = h;
      }
    }
    for (std::size_t i = 0; i < halos.size(); ++i) {
      const auto& r = rows[i];
      table.row()
          .add(tsize, 0)
          .add(halos[i])
          .add(bench::secs(r.rtime_ns))
          .add(r.breakdown.swap_count())
          .add(r.breakdown.swap_ns() / 1e6, 2)
          .add(r.breakdown.redundant_cells())
          .add(halos[i] == best_h ? "*" : "")
          .done();
    }
  }
  bench::emit(ctx, table,
              "Ablation [i7-3820, dim=" + std::to_string(dim) +
                  "]: halo swap-frequency vs redundancy trade-off");
  std::cout << "expected shape: the starred (best) halo shrinks as tsize grows\n";
  return 0;
}
