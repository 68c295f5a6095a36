// The hybrid wavefront executor: a single interpreter over a
// core::PhaseProgram (core/phase_program.hpp).
//
// The paper's §2 strategy — CPU tiled before the band, the GPU band
// (single or multi device), CPU tiled after — is the DEFAULT program that
// core::plan_phases compiles from a TunableParams tuning; the executor
// itself knows nothing about that shape. It walks whatever valid program
// it is handed, phase by phase:
//
//   kCpu        diagonals [d_begin, d_end) tiled-parallel across the
//               cores, under the phase's scheduler (barriered sweep or
//               dependency-counter dataflow).
//   kGpuSingle  the range on one simulated GPU, untiled (one kernel per
//               diagonal) or tiled (work-groups of gpu_tile x gpu_tile
//               cells, one kernel per tile-diagonal).
//   kGpuMulti   N-way fixed row split at rows dim*g/N with chained halo
//               exchanges through host memory every halo+1 diagonals.
//
// run() interprets the program functionally (real values, real threads
// for the CPU phases) while charging simulated time; estimate() interprets
// the IDENTICAL program charging time only. Parity is structural: both are
// the same walk of the same data, differing only in whether a functional
// context is attached — a property the test suite still checks over
// randomized programs.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/phase_program.hpp"
#include "core/run_control.hpp"
#include "core/spec.hpp"
#include "cpu/dataflow_wavefront.hpp"
#include "cpu/thread_pool.hpp"
#include "ocl/buffer.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::ocl {
class Trace;
}

namespace wavetune::core {

/// Simulated-time accounting of one executed phase.
struct PhaseTiming {
  PhaseDevice device = PhaseDevice::kCpu;
  std::size_t d_begin = 0;  ///< diagonal range the phase covered
  std::size_t d_end = 0;
  double ns = 0.0;  ///< simulated time of the whole phase

  /// MEASURED wall time of the phase (steady_clock), populated only in
  /// run mode — exactly 0 on estimate(), which executes nothing. This is
  /// what the profile subsystem (src/profile/) aggregates and compares
  /// against `ns` to close the measure -> attribute -> replan loop.
  double wall_ns = 0.0;

  // GPU-phase detail (already included in ns; zero for CPU phases):
  double transfer_in_ns = 0.0;
  double transfer_out_ns = 0.0;
  double swap_ns = 0.0;
  std::size_t kernel_launches = 0;
  std::size_t swap_count = 0;
  std::size_t redundant_cells = 0;  ///< halo cells computed twice

  // Streaming-strip detail (zero for whole-grid phases):
  std::size_t strips = 0;  ///< row strips the phase executed as
  /// Simulated time of the SAME strip schedule with a 1-buffer pool (no
  /// transfer/compute overlap) — the serialized-strip baseline charged by
  /// a second timing-only walk. ns <= serialized_ns; the difference is
  /// the simulated overlap the double buffering bought. Equal to ns for
  /// streamed CPU phases (host strips have nothing to overlap).
  double serialized_ns = 0.0;
  /// Sum of this phase's simulated kernel durations (streamed GPU phases
  /// only) — the denominator bound for the overlap ratio.
  double kernel_busy_ns = 0.0;
};

/// Simulated-time accounting of one execution: one PhaseTiming per program
/// phase, in execution order. The legacy three-phase fields
/// (phase1/gpu/phase3) are DERIVED accessors over the vector — for the
/// paper's default program they mean exactly what they always did; for
/// arbitrary programs they partition the total as documented.
struct PhaseBreakdown {
  std::vector<PhaseTiming> phases;

  double total_ns() const;
  /// Measured wall time summed over every phase (0 for estimates).
  double total_wall_ns() const;

  /// CPU time before the first GPU phase (all CPU time for pure-CPU
  /// programs) — the paper's "phase 1".
  double phase1_ns() const;
  /// Total GPU time (transfers + kernels + swaps) across every GPU phase.
  double gpu_ns() const;
  /// CPU time from the first GPU phase onward — the paper's "phase 3".
  /// phase1_ns() + gpu_ns() + phase3_ns() == total_ns() for any program.
  double phase3_ns() const;

  // GPU-phase detail, summed over every GPU phase:
  double transfer_in_ns() const;
  double transfer_out_ns() const;
  double swap_ns() const;
  std::size_t kernel_launches() const;
  std::size_t swap_count() const;
  std::size_t redundant_cells() const;
};

struct RunResult {
  PhaseBreakdown breakdown;
  double rtime_ns = 0.0;  ///< == breakdown.total_ns()
  double wall_ns = 0.0;   ///< == breakdown.total_wall_ns(); 0 for estimates
  TunableParams params;   ///< normalized parameters the program was built from
};

/// One job of a fused batch: its grid plus its (optional) cancellation/
/// deadline control. Grids must be distinct objects matching the spec.
struct BatchMember {
  Grid* grid = nullptr;
  const RunControl* control = nullptr;
};

/// Per-member outcome of run_batch. `stop == kNone` means the member ran
/// to completion and `result` is valid (bit-identical grid and simulated
/// timing to a lone run); otherwise the member was shed at a phase
/// boundary — its grid contents are unspecified, mirroring what
/// ExecutionInterrupted means on the single-run path.
struct BatchOutcome {
  RunResult result;
  RunControl::Stop stop = RunControl::Stop::kNone;
};

/// Checkpoint/resume plumbing for a streamed run() (single-grid path).
/// Strip boundaries are the checkpoint points: after each strip's results
/// land in the host grid, `on_checkpoint` (if set, and the cadence says
/// so) receives a consistent RunCheckpoint snapshot. A non-null `resume`
/// makes the run SKIP the functional work before the checkpoint's
/// (phase, strip) cursor — the grid is restored from the snapshot first —
/// while still charging the FULL simulated schedule, so the RunResult's
/// simulated fields stay a pure function of (inputs, program).
struct StreamControl {
  /// Snapshot to resume from; validated against the program's describe()
  /// digest and the grid geometry (throws CheckpointError on mismatch).
  const RunCheckpoint* resume = nullptr;
  /// Called after every `checkpoint_every_strips`-th completed strip of a
  /// streamed phase (and never in estimate mode or fused batches).
  std::function<void(const RunCheckpoint&)> on_checkpoint;
  std::size_t checkpoint_every_strips = 1;
};

class HybridExecutor {
public:
  /// `pool_workers == 0` sizes the pool from hardware_concurrency.
  explicit HybridExecutor(sim::SystemProfile profile, std::size_t pool_workers = 0);

  const sim::SystemProfile& profile() const { return profile_; }

  /// Functionally computes every cell of `grid` (whose dimensions must
  /// match the spec) by interpreting `program`, and returns the simulated
  /// timing. Throws std::invalid_argument on spec/grid/program mismatch or
  /// if any phase requests more GPUs than the profile has. A non-null
  /// `trace` receives every GPU-phase command (see ocl/trace.hpp).
  ///
  /// `lowered` is the plan-time kernel resolution (core/lowered.hpp):
  /// callers that compiled the spec once (api::Engine plans) pass their
  /// cached LoweredKernel so repeated runs skip re-lowering; when null,
  /// the spec is lowered once at the top of the call — never inside any
  /// per-tile, per-diagonal, or per-phase loop.
  ///
  /// A non-null `control` is polled at every phase boundary (and once
  /// before the first phase): when it asks to stop, the run is abandoned
  /// by throwing core::ExecutionInterrupted and the grid's contents are
  /// unspecified (core/run_control.hpp). Cancellation latency is
  /// therefore bounded by one phase, not one grid.
  /// A non-null `stream` enables strip-boundary checkpointing and/or
  /// resume (see StreamControl); it only has effect on programs with
  /// streamed phases.
  RunResult run(const WavefrontSpec& spec, const PhaseProgram& program, Grid& grid,
                ocl::Trace* trace = nullptr, const LoweredKernel* lowered = nullptr,
                const RunControl* control = nullptr, const StreamControl* stream = nullptr);

  /// Continuous-batching entry point: interprets `program` ONCE for all
  /// members' grids. CPU phases drive every grid through one scheduling
  /// structure (one barrier sweep or one dep-counter graph, grids
  /// innermost); GPU phases run one simulated charging pass per phase
  /// with the functional transfers/kernels looped per member — so the
  /// per-phase fixed costs are paid once per batch, not once per grid.
  /// Each member keeps its own storage and simulated timing: a surviving
  /// member's grid and RunResult simulated fields are bit-identical to a
  /// lone run() of the same program (measured wall_ns is attributed as
  /// the fused phase wall divided by that phase's active member count).
  /// Members whose control asks to stop at a phase boundary are SHED from
  /// the batch (their BatchOutcome::stop records why) without aborting
  /// the rest; the call throws only on spec/program mismatch or a
  /// non-control execution failure (e.g. an injected fault), never for a
  /// member stop.
  std::vector<BatchOutcome> run_batch(const WavefrontSpec& spec, const PhaseProgram& program,
                                      const std::vector<BatchMember>& members,
                                      ocl::Trace* trace = nullptr,
                                      const LoweredKernel* lowered = nullptr);

  /// Simulated timing of the IDENTICAL program walk, without functional
  /// execution — the same interpreter as run(), minus the kernel calls.
  RunResult estimate(const InputParams& in, const PhaseProgram& program,
                     ocl::Trace* trace = nullptr) const;

  /// Convenience: compiles the paper's default program via
  /// core::plan_phases(spec.inputs(), params, scheduler) and runs it.
  RunResult run(const WavefrontSpec& spec, const TunableParams& params, Grid& grid,
                ocl::Trace* trace = nullptr,
                cpu::Scheduler scheduler = cpu::Scheduler::kBarrier,
                const LoweredKernel* lowered = nullptr);

  /// Convenience: compiles the same default program and estimates it —
  /// by construction the exact program the run() convenience executes.
  RunResult estimate(const InputParams& in, const TunableParams& params,
                     ocl::Trace* trace = nullptr,
                     cpu::Scheduler scheduler = cpu::Scheduler::kBarrier) const;

  /// Optimized sequential baseline: functional + simulated timing. Same
  /// `lowered` contract as run().
  RunResult run_serial(const WavefrontSpec& spec, Grid& grid,
                       const LoweredKernel* lowered = nullptr) const;

  /// Simulated time of the sequential baseline.
  double estimate_serial(const InputParams& in) const;

private:
  sim::SystemProfile profile_;
  mutable cpu::ThreadPool pool_;
  /// Device-buffer storage reused across GPU phases, runs and batch
  /// members (thread-safe: concurrent run() callers share it).
  mutable ocl::BufferArena arena_;

  struct FunctionalCtx;  // run-mode state (spec, host grid, device buffers)

  /// Shared body of run() and run_batch(): validates the grids, lowers
  /// the spec when `lowered` is null, sets up one FunctionalCtx member per
  /// grid, and interprets `program` once. `stream` applies to
  /// single-member calls only (the checkpoint snapshots members[0]).
  std::vector<BatchOutcome> run_members(const WavefrontSpec& spec, const PhaseProgram& program,
                                        const std::vector<BatchMember>& members,
                                        ocl::Trace* trace, const LoweredKernel* lowered,
                                        const StreamControl* stream);

  /// THE interpreter: the only walk of a program. `fctx == nullptr` is
  /// timing-only mode (estimate); non-null executes functionally too.
  RunResult execute(const InputParams& in, const PhaseProgram& program, FunctionalCtx* fctx,
                    ocl::Trace* trace) const;

  void gpu_phase(const InputParams& in, const PhaseDesc& ph, FunctionalCtx* fctx,
                 std::size_t resume_strip, std::size_t phase_index, ocl::Trace* trace,
                 PhaseTiming& out) const;
  void gpu_phase_single(const InputParams& in, const PhaseDesc& ph, FunctionalCtx* fctx,
                        ocl::Trace* trace, PhaseTiming& out) const;
  /// Streamed single-GPU phase: W/H/K/R per strip through the fixed
  /// buffer pool (async staged uploads overlapping kernels when
  /// strip_buffers >= 2), plus a second timing-only 1-buffer walk for
  /// PhaseTiming::serialized_ns. `resume_strip` strips are charged but
  /// not functionally executed; `phase_index` labels checkpoints.
  void gpu_phase_single_streamed(const InputParams& in, const PhaseDesc& ph,
                                 FunctionalCtx* fctx, std::size_t resume_strip,
                                 std::size_t phase_index, ocl::Trace* trace,
                                 PhaseTiming& out) const;
  /// N-way row split (N >= 2) with chained halo exchanges; N == 2 is the
  /// paper's dual-GPU schedule, N >= 3 the §6 future-work extension.
  void gpu_phase_multi(const InputParams& in, const PhaseDesc& ph, FunctionalCtx* fctx,
                       ocl::Trace* trace, PhaseTiming& out) const;
};

}  // namespace wavetune::core
