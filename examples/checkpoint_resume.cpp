// Out-of-core streaming with checkpoint/resume through the api::Engine
// session API.
//
//   ./checkpoint_resume [--dim=N] [--cap-divisor=K] [--path=FILE]
//
// The engine compiles a plan under a residency cap (a 1/K fraction of the
// whole grid's device footprint), which reshapes the schedule onto row
// strips streamed through a fixed buffer pool: peak device residency
// stays bounded by the pool instead of the whole grid. The planner picks
// the strip height and the pool size (a double-buffered pool that stages
// strip K+1's frontier while strip K computes, or a 1-buffer pool of
// strips twice as tall) by the executor's estimate; the plan line shows
// the choice as s<rows>x<buffers>. Strip boundaries are checkpoint
// points — run_checkpointed() persists a snapshot after each one, and a
// process that dies mid-run resumes from the last snapshot with
// resume_from_file(), reproducing the exact grid and simulated timing of
// an uninterrupted run.
//
// This example plays both halves of that story in one process: it runs
// the checkpointed job, "forgets" everything but the snapshot file, and
// resumes into a fresh grid.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "api/engine.hpp"
#include "apps/synthetic.hpp"
#include "core/checkpoint.hpp"
#include "core/streaming.hpp"
#include "sim/system_profile.hpp"
#include "util/cli.hpp"

using namespace wavetune;

int main(int argc, char** argv) {
  const util::Cli cli = util::Cli::parse_or_exit(argc, argv, {"dim", "cap-divisor", "path"});
  apps::SyntheticParams params;
  params.dim = static_cast<std::size_t>(cli.get_int_or("dim", 256));
  params.tsize = 500.0;
  params.dsize = 3;
  const auto divisor = static_cast<std::size_t>(cli.get_int_or("cap-divisor", 8));
  const std::string path = cli.get_or("path", "checkpoint_resume.ckpt");

  const core::WavefrontSpec spec = apps::make_synthetic_spec(params);
  api::Engine engine(sim::make_i7_2600k());

  // A residency cap forces the compile onto the streaming-strip axis.
  api::CompileOptions copts;
  copts.params = core::TunableParams{4, static_cast<long long>(spec.dim - 1), -1, 8};
  copts.max_resident_bytes =
      core::whole_grid_resident_bytes(spec.dim, spec.elem_bytes) / divisor;
  const api::Plan plan = engine.compile(spec, copts);

  std::cout << "plan: " << plan.program().describe() << '\n'
            << "whole-grid footprint: "
            << core::whole_grid_resident_bytes(spec.dim, spec.elem_bytes) << " B, cap: "
            << *copts.max_resident_bytes << " B\n\n";

  // Leg 1: the checkpointed run. Every completed strip persists a
  // snapshot to `path` (atomically: temp file + rename), so the file
  // always holds the most recent consistent strip boundary.
  api::CheckpointPolicy policy;
  policy.path = path;
  core::Grid full(spec.dim, spec.elem_bytes);
  const core::RunResult full_r = engine.run_checkpointed(plan, full, policy);
  std::cout << "checkpointed run: rtime " << full_r.rtime_ns / 1e6 << " ms, "
            << engine.stats().checkpoints_written << " snapshots written\n";

  // Leg 2: the "restarted process". Nothing survives but the plan (any
  // equivalent compile reproduces it — the cache key includes the cap)
  // and the snapshot file. resume() validates the snapshot against the
  // plan's program digest and grid geometry, restores the covered rows,
  // and re-executes only the remaining strips.
  core::Grid resumed(spec.dim, spec.elem_bytes);
  resumed.fill_poison();
  const core::RunResult res_r = engine.resume_from_file(plan, resumed, path);

  const bool identical =
      std::memcmp(full.data(), resumed.data(), full.size_bytes()) == 0 &&
      res_r.rtime_ns == full_r.rtime_ns;
  std::cout << "resumed run:      rtime " << res_r.rtime_ns / 1e6 << " ms, grid "
            << (identical ? "bit-identical to the uninterrupted run" : "DIVERGED") << '\n';

  std::remove(path.c_str());
  return identical ? 0 : 1;
}
