// Out-of-core streaming harness: quantifies what the double-buffered
// strip pool buys over serialized strips, proves the residency cap holds
// under a functional run, and drills the checkpoint -> kill -> resume
// path end to end. Three experiments, each with a hard acceptance gate
// (the process exits nonzero if any gate fails, so CI can run this as a
// check, not just a report):
//
//   overlap     a transfer-bound split-band workload swept over strip
//               sizes; per cell the phase's overlapped schedule (ns) vs
//               the 1-buffer serialized-strip baseline (serialized_ns),
//               and overlap_ratio = hidden / min(transfer, kernel_busy)
//               — the fraction of the hideable time the pipeline
//               actually hid. GATE: best ratio >= 0.5.
//   residency   a grid whose whole-grid footprint exceeds the configured
//               max_resident_bytes completes via the capped plan with
//               the accounting allocator's peak under the cap and the
//               result bit-identical to the whole-grid run. GATE: both.
//               Also reports the planner's decision: the chosen strip
//               height and pool size, how many candidates it priced and
//               the candidate loop's wall time.
//   checkpoint  a checkpointed streamed run is "killed" at a mid-run
//               strip boundary; resuming from that snapshot reproduces
//               the full run's grid bit-identically with identical
//               simulated timing. GATE: both.
//
//   bench_streaming [--quick] [--json=BENCH_streaming.json] [--dim=N]
//
// --quick shrinks the grid and the strip sweep for CI smoke runs.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/phase_program.hpp"
#include "core/streaming.hpp"
#include "ocl/buffer.hpp"
#include "sim/system_profile.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace wavetune;

struct OverlapCell {
  std::size_t strip_rows = 0;
  std::size_t strips = 0;
  double ns = 0.0;             // overlapped schedule (2-buffer pool)
  double serialized_ns = 0.0;  // 1-buffer baseline of the same strips
  double transfer_ns = 0.0;
  double kernel_busy_ns = 0.0;
  double overlap_ratio = 0.0;
};

/// Aggregates the streamed-GPU-phase timing of one result into a cell.
OverlapCell make_cell(std::size_t strip_rows, const core::RunResult& r) {
  OverlapCell c;
  c.strip_rows = strip_rows;
  for (const core::PhaseTiming& t : r.breakdown.phases) {
    if (t.device != core::PhaseDevice::kGpuSingle || t.strips == 0) continue;
    c.strips += t.strips;
    c.ns += t.ns;
    c.serialized_ns += t.serialized_ns;
    c.transfer_ns += t.transfer_in_ns + t.transfer_out_ns;
    c.kernel_busy_ns += t.kernel_busy_ns;
  }
  const double hideable = std::min(c.transfer_ns, c.kernel_busy_ns);
  if (hideable > 0.0) c.overlap_ratio = (c.serialized_ns - c.ns) / hideable;
  return c;
}

bool grids_equal(const core::Grid& a, const core::Grid& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

core::WavefrontSpec spec_for(std::size_t dim) {
  apps::SyntheticParams p;
  p.dim = dim;
  p.tsize = 500.0;
  p.dsize = 3;
  p.functional_iters = 1;
  return apps::make_synthetic_spec(p);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli = util::Cli::parse_or_exit(argc, argv, {"quick", "json", "dim"});
  const bool quick = cli.has("quick");
  const std::string json_path = cli.get_or("json", "");
  const std::size_t dim =
      static_cast<std::size_t>(cli.get_int_or("dim", quick ? 512 : 1536));

  const sim::SystemProfile sys = sim::make_i7_2600k();
  core::HybridExecutor ex(sys, /*pool_workers=*/1);
  const core::InputParams in{dim, 500.0, 3};
  bool all_pass = true;

  // ---- experiment 1: transfer/compute overlap ---------------------------
  // Split-band single-GPU program: each sub-band re-stages its frontier,
  // so the strip pipeline has real PCIe traffic to hide behind kernels.
  const core::TunableParams gpu_params{4, static_cast<long long>(dim - 1), -1, 8};
  const core::PhaseProgram split2 =
      core::split_gpu_band(core::plan_phases(in, gpu_params), 2);

  std::vector<std::size_t> strip_sweep =
      quick ? std::vector<std::size_t>{16, 32, 64}
            : std::vector<std::size_t>{8, 16, 32, 64, 128, 256};
  std::vector<OverlapCell> cells;
  OverlapCell best;
  for (std::size_t s : strip_sweep) {
    const core::PhaseProgram streamed = core::apply_strips(split2, s, 2);
    cells.push_back(make_cell(s, ex.estimate(in, streamed)));
    if (cells.back().overlap_ratio > best.overlap_ratio) best = cells.back();
  }

  util::Table overlap_tbl({"strip_rows", "strips", "overlapped_ms", "serialized_ms",
                           "transfer_ms", "kernel_ms", "overlap_ratio"});
  for (const OverlapCell& c : cells) {
    overlap_tbl.row()
        .add(c.strip_rows)
        .add(c.strips)
        .add(c.ns / 1e6)
        .add(c.serialized_ns / 1e6)
        .add(c.transfer_ns / 1e6)
        .add(c.kernel_busy_ns / 1e6)
        .add(c.overlap_ratio)
        .done();
  }
  std::printf("== overlap: split-band dim=%zu, 2-buffer pool vs serialized strips ==\n%s\n",
              dim, overlap_tbl.to_aligned().c_str());
  const bool overlap_pass = best.overlap_ratio >= 0.5;
  std::printf("best overlap ratio: %.3f at strip_rows=%zu (gate >= 0.5: %s)\n\n",
              best.overlap_ratio, best.strip_rows, overlap_pass ? "PASS" : "FAIL");
  all_pass = all_pass && overlap_pass;

  // ---- experiment 2: bounded residency under a functional run -----------
  // Functional grids are expensive; a smaller dim keeps the bench quick
  // while the footprint argument is exact (bytes, not time).
  const std::size_t fdim = quick ? 192 : 384;
  const core::WavefrontSpec spec = spec_for(fdim);
  const core::InputParams fin = spec.inputs();
  const core::TunableParams fparams{4, static_cast<long long>(fdim - 1), -1, 8};
  const core::PhaseProgram whole = core::plan_phases(fin, fparams);

  const std::size_t whole_bytes = core::whole_grid_resident_bytes(fdim, spec.elem_bytes);
  const std::size_t cap = whole_bytes / 8;
  const std::size_t candidates =
      core::strip_candidates(fdim, fin.elem_bytes(), cap).size();
  const auto plan_start = std::chrono::steady_clock::now();
  const core::PhaseProgram capped = core::apply_residency_cap(whole, fin, cap, ex);
  const double plan_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - plan_start)
                             .count();
  const core::PhaseDesc& chosen = capped.phases.front();

  core::Grid ga(fdim, spec.elem_bytes), gb(fdim, spec.elem_bytes);
  ocl::Buffer::reset_peak();
  ex.run(spec, whole, ga);
  const std::size_t whole_peak = ocl::Buffer::peak_bytes();
  ocl::Buffer::reset_peak();
  ex.run(spec, capped, gb);
  const std::size_t capped_peak = ocl::Buffer::peak_bytes();

  const bool under_cap = capped_peak <= cap;
  const bool identical = grids_equal(ga, gb);
  const bool residency_pass = under_cap && identical && whole_peak > cap;
  std::printf("== residency: dim=%zu, cap=%zu B ==\n", fdim, cap);
  std::printf("chosen strips s%zux%zu of %zu candidates, priced in %.0f us\n",
              chosen.strip_rows, chosen.strip_buffers, candidates, plan_us);
  std::printf("whole-grid peak %zu B, capped peak %zu B, bit-identical: %s (gate: %s)\n\n",
              whole_peak, capped_peak, identical ? "yes" : "NO",
              residency_pass ? "PASS" : "FAIL");
  all_pass = all_pass && residency_pass;

  // ---- experiment 3: checkpoint -> kill -> resume -----------------------
  // Capture every strip-boundary snapshot of a full run, then pretend the
  // process died mid-run: resume from the middle snapshot into a poisoned
  // grid and demand bit-identity plus identical simulated timing.
  std::vector<core::RunCheckpoint> snaps;
  core::StreamControl capture;
  capture.on_checkpoint = [&snaps](const core::RunCheckpoint& cp) { snaps.push_back(cp); };
  core::Grid full(fdim, spec.elem_bytes);
  const core::RunResult full_r =
      ex.run(spec, capped, full, nullptr, nullptr, nullptr, &capture);

  bool ckpt_pass = false;
  double resumed_rtime = 0.0;
  if (!snaps.empty()) {
    const core::RunCheckpoint& mid = snaps[snaps.size() / 2];
    core::StreamControl resume;
    resume.resume = &mid;
    core::Grid g(fdim, spec.elem_bytes);
    g.fill_poison();
    const core::RunResult r = ex.run(spec, capped, g, nullptr, nullptr, nullptr, &resume);
    resumed_rtime = r.rtime_ns;
    ckpt_pass = grids_equal(full, g) && r.rtime_ns == full_r.rtime_ns;
  }
  std::printf("== checkpoint: %zu snapshots, resumed from the middle one ==\n", snaps.size());
  std::printf("bit-identical grid and timing after resume: %s\n\n", ckpt_pass ? "PASS" : "FAIL");
  all_pass = all_pass && ckpt_pass;

  if (!json_path.empty()) {
    util::JsonObject root;
    root["bench"] = util::Json("streaming");
    root["quick"] = util::Json(quick);
    util::JsonObject ov;
    ov["dim"] = util::Json(dim);
    util::JsonArray arr;
    for (const OverlapCell& c : cells) {
      util::JsonObject o;
      o["strip_rows"] = util::Json(c.strip_rows);
      o["strips"] = util::Json(c.strips);
      o["overlapped_ns"] = util::Json(c.ns);
      o["serialized_ns"] = util::Json(c.serialized_ns);
      o["transfer_ns"] = util::Json(c.transfer_ns);
      o["kernel_busy_ns"] = util::Json(c.kernel_busy_ns);
      o["overlap_ratio"] = util::Json(c.overlap_ratio);
      arr.push_back(util::Json(std::move(o)));
    }
    ov["cells"] = util::Json(std::move(arr));
    ov["best_overlap_ratio"] = util::Json(best.overlap_ratio);
    ov["best_strip_rows"] = util::Json(best.strip_rows);
    ov["pass"] = util::Json(overlap_pass);
    root["overlap"] = util::Json(std::move(ov));
    util::JsonObject res;
    res["dim"] = util::Json(fdim);
    res["cap_bytes"] = util::Json(cap);
    res["strip_rows"] = util::Json(chosen.strip_rows);
    res["strip_buffers"] = util::Json(chosen.strip_buffers);
    res["candidates"] = util::Json(candidates);
    res["candidate_loop_us"] = util::Json(plan_us);
    res["whole_peak_bytes"] = util::Json(whole_peak);
    res["capped_peak_bytes"] = util::Json(capped_peak);
    res["bit_identical"] = util::Json(identical);
    res["pass"] = util::Json(residency_pass);
    root["residency"] = util::Json(std::move(res));
    util::JsonObject ck;
    ck["snapshots"] = util::Json(snaps.size());
    ck["full_rtime_ns"] = util::Json(full_r.rtime_ns);
    ck["resumed_rtime_ns"] = util::Json(resumed_rtime);
    ck["pass"] = util::Json(ckpt_pass);
    root["checkpoint"] = util::Json(std::move(ck));
    std::ofstream out(json_path);
    out << util::Json(std::move(root)).dump(2) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  return all_pass ? 0 : 1;
}
