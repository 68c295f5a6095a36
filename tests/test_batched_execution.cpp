// Continuous batching (ISSUE 9): the fused multi-grid sweep must be
// OBSERVABLY EQUIVALENT to running each job alone, just cheaper.
//
//   1. CORE: HybridExecutor::run_batch over G grids is bit-identical —
//      grid bytes AND simulated timing — to G lone run() calls, for every
//      app and every program shape (barrier, dataflow, single-GPU band,
//      multi-GPU band, dataflow CPU phases around a GPU band).
//   2. ENGINE: a parked worker that returns to a backlog of same-plan
//      jobs forms ONE fused batch (jobs_batched / batches_formed / the
//      occupancy histogram / Submission::history().rode_batch all agree).
//   3. POLICY: expired or cancelled members are shed from a batch
//      without aborting the survivors; a group runs through its backend's
//      own run() — a failing group re-runs each member alone, under its
//      own retry and fallback policy — and the "serial" backend sheds per
//      member.
//   4. CONCURRENCY: batched and lone submitters interleaving across
//      shards stay conservation-clean (the TSan job runs this file).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "core/executor.hpp"
#include "core/phase_program.hpp"
#include "core/run_control.hpp"
#include "cpu/dataflow_wavefront.hpp"
#include "sim/system_profile.hpp"

namespace wavetune {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------
// 1. Core equivalence: run_batch == G lone runs, all apps x schedulers.
// ---------------------------------------------------------------------

struct ProgramCase {
  const char* name;
  core::TunableParams params;
  cpu::Scheduler scheduler;
};

/// Every scheduling shape the interpreter can fuse: pure-CPU barrier and
/// dataflow, plus hybrid programs whose band runs on one GPU, on multiple
/// GPUs (halo exchange), and with dataflow CPU phases around the band.
const std::vector<ProgramCase>& program_cases() {
  static const std::vector<ProgramCase> cases = {
      {"cpu-barrier", core::TunableParams{4, -1, -1, 1}, cpu::Scheduler::kBarrier},
      {"cpu-dataflow", core::TunableParams{4, -1, -1, 1}, cpu::Scheduler::kDataflow},
      {"hybrid-1gpu", core::TunableParams{4, 8, -1, 1}, cpu::Scheduler::kBarrier},
      {"hybrid-2gpu", core::TunableParams{4, 8, 2, 1}, cpu::Scheduler::kBarrier},
      {"hybrid-dataflow", core::TunableParams{4, 8, 1, 1}, cpu::Scheduler::kDataflow},
  };
  return cases;
}

void expect_fused_matches_lone(const core::WavefrontSpec& spec) {
  core::HybridExecutor ex(sim::make_i7_2600k(), 2);

  core::Grid ref(spec.dim, spec.elem_bytes);
  ex.run_serial(spec, ref);

  for (const ProgramCase& pc : program_cases()) {
    SCOPED_TRACE(pc.name);
    const core::PhaseProgram program = core::plan_phases(spec.inputs(), pc.params, pc.scheduler);

    core::Grid lone(spec.dim, spec.elem_bytes);
    lone.fill_poison();
    const core::RunResult lone_result = ex.run(spec, program, lone);
    ASSERT_EQ(std::memcmp(lone.data(), ref.data(), ref.size_bytes()), 0);

    constexpr std::size_t kG = 3;
    std::vector<core::Grid> grids;
    grids.reserve(kG);
    std::vector<core::BatchMember> members;
    for (std::size_t g = 0; g < kG; ++g) {
      grids.emplace_back(spec.dim, spec.elem_bytes).fill_poison();
      members.push_back(core::BatchMember{&grids.back(), nullptr});
    }

    const std::vector<core::BatchOutcome> outcomes = ex.run_batch(spec, program, members);
    ASSERT_EQ(outcomes.size(), kG);
    for (std::size_t g = 0; g < kG; ++g) {
      SCOPED_TRACE("member " + std::to_string(g));
      ASSERT_EQ(outcomes[g].stop, core::RunControl::Stop::kNone);
      // Grid bytes: bit-identical to the serial reference.
      EXPECT_EQ(std::memcmp(grids[g].data(), ref.data(), ref.size_bytes()), 0);
      // Simulated timing: bit-identical to the lone run — fusion must not
      // perturb what the run "cost" in model time, phase by phase.
      const core::RunResult& r = outcomes[g].result;
      EXPECT_EQ(r.rtime_ns, lone_result.rtime_ns);
      ASSERT_EQ(r.breakdown.phases.size(), lone_result.breakdown.phases.size());
      for (std::size_t p = 0; p < r.breakdown.phases.size(); ++p) {
        EXPECT_EQ(r.breakdown.phases[p].ns, lone_result.breakdown.phases[p].ns)
            << "phase " << p;
      }
    }
  }
}

TEST(BatchedExecutionCore, SyntheticFusedEqualsLone) {
  apps::SyntheticParams p;
  p.dim = 24;
  p.tsize = 10.0;
  p.dsize = 1;
  p.functional_iters = 2;
  expect_fused_matches_lone(apps::make_synthetic_spec(p));
}

TEST(BatchedExecutionCore, SeqCmpFusedEqualsLone) {
  apps::SeqCmpParams p;
  p.seq_a = apps::random_dna(20, 11);
  p.seq_b = apps::random_dna(20, 12);
  expect_fused_matches_lone(apps::make_seqcmp_spec(p));
}

TEST(BatchedExecutionCore, EditDistFusedEqualsLone) {
  apps::EditDistParams p;
  p.str_a = apps::random_dna(20, 21);
  p.str_b = apps::random_dna(20, 22);
  expect_fused_matches_lone(apps::make_editdist_spec(p));
}

TEST(BatchedExecutionCore, NashFusedEqualsLone) {
  apps::NashParams p;
  p.dim = 10;
  p.strategies = 4;
  p.fp_iterations = 8;
  expect_fused_matches_lone(apps::make_nash_spec(p));
}

TEST(BatchedExecutionCore, SingleMemberBatchMatchesPlainRun) {
  apps::SyntheticParams sp;
  sp.dim = 16;
  sp.tsize = 10.0;
  sp.dsize = 1;
  const auto spec = apps::make_synthetic_spec(sp);
  core::HybridExecutor ex(sim::make_i7_2600k(), 2);
  const auto program = core::plan_phases(spec.inputs(), core::TunableParams{4, 6, -1, 1});

  core::Grid lone(spec.dim, spec.elem_bytes);
  const core::RunResult lr = ex.run(spec, program, lone);

  core::Grid g(spec.dim, spec.elem_bytes);
  const auto outcomes = ex.run_batch(spec, program, {core::BatchMember{&g, nullptr}});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].stop, core::RunControl::Stop::kNone);
  EXPECT_EQ(std::memcmp(g.data(), lone.data(), lone.size_bytes()), 0);
  EXPECT_EQ(outcomes[0].result.rtime_ns, lr.rtime_ns);
}

// ---------------------------------------------------------------------
// 2 + 3. Engine-level batch formation, the lone-job guarantee, and
// deadline/cancel shedding inside a batch.
// ---------------------------------------------------------------------

namespace eng {

using namespace wavetune::api;

core::WavefrontSpec batch_spec() {
  apps::SyntheticParams p;
  p.dim = 24;
  p.tsize = 10.0;
  p.dsize = 1;
  p.functional_iters = 2;
  return apps::make_synthetic_spec(p);
}

/// Worker-parking gate (same technique as test_engine_serving.cpp, local
/// backend name so the registries never collide): the queue worker blocks
/// inside a gate job while the test builds a deterministic same-plan
/// backlog, so the batch the worker forms on return is exact.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  int arrived = 0;
  void open_all() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
  void reset() {
    std::lock_guard<std::mutex> lock(m);
    open = false;
    arrived = 0;
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  void wait_arrived(int n) {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return arrived >= n; });
  }
};

Gate& gate() {
  static Gate g;
  return g;
}

class BatchGateBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = "test-batch-gate";
    return n;
  }
  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams&,
                              const sim::SystemProfile&) const override {
    in.validate();
    return core::TunableParams{1, -1, -1, 1};
  }
  std::vector<core::BatchOutcome> run(
      core::HybridExecutor& executor, const core::WavefrontSpec& spec, const core::PhaseProgram&,
      const core::LoweredKernel& lowered,
      const std::vector<core::BatchMember>& members) const override {
    gate().wait();
    std::vector<core::BatchOutcome> out(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      out[m].result = executor.run_serial(spec, *members[m].grid, &lowered);
    }
    return out;
  }
  core::RunResult estimate(const core::HybridExecutor& executor, const core::InputParams& in,
                           const core::PhaseProgram& program) const override {
    core::RunResult r;
    core::PhaseTiming t;
    t.d_end = program.phases.empty() ? core::num_diagonals(in.dim) : program.phases.back().d_end;
    t.ns = executor.estimate_serial(in);
    r.breakdown.phases.push_back(t);
    r.rtime_ns = r.breakdown.total_ns();
    return r;
  }
};

/// Overrides only run(), which always throws, and counts its calls: the
/// probe that a user backend's run() is the one execution path for a
/// same-plan group too — no engine-side interpreter may run the group in
/// its place. prepare() keeps only the CPU tile, so the "cpu-dataflow"
/// fallback rung can compile the same tuning.
class ThrowingRunBackend final : public Backend {
public:
  static std::atomic<int>& calls() {
    static std::atomic<int> n{0};
    return n;
  }
  const std::string& name() const override {
    static const std::string n = "test-batch-throwing-run";
    return n;
  }
  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams& params,
                              const sim::SystemProfile&) const override {
    in.validate();
    core::TunableParams p;
    p.cpu_tile = params.cpu_tile;
    return p.normalized(in.dim);
  }
  std::vector<core::BatchOutcome> run(core::HybridExecutor&, const core::WavefrontSpec&,
                                      const core::PhaseProgram&, const core::LoweredKernel&,
                                      const std::vector<core::BatchMember>&) const override {
    calls().fetch_add(1);
    throw std::runtime_error("test-batch-throwing-run always fails");
  }
};

void register_gate_backend() {
  auto& reg = BackendRegistry::instance();
  if (!reg.find("test-batch-gate")) reg.add(std::make_shared<BatchGateBackend>());
  if (!reg.find("test-batch-throwing-run")) reg.add(std::make_shared<ThrowingRunBackend>());
}

EngineOptions one_worker_options() {
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.queue_shards = 1;
  o.queue_capacity = 16;
  return o;
}

TEST(BatchedExecutionEngine, BackloggedSamePlanJobsFuseIntoOneBatch) {
  register_gate_backend();
  gate().reset();
  EngineOptions o = one_worker_options();
  o.batch_limit = 8;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = batch_spec();
  const Plan gate_plan = eng.compile(spec, core::TunableParams{}, "test-batch-gate");
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});

  // Reference for correctness of every fused member.
  core::Grid ref(spec.dim, spec.elem_bytes);
  eng.run(eng.compile(spec, core::TunableParams{}, kSerialBackend), ref);

  std::vector<core::Grid> grids;
  grids.reserve(6);
  std::vector<std::future<core::RunResult>> futures;
  futures.push_back(eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
  gate().wait_arrived(1);  // worker parked; the queue is empty

  std::vector<Submission> subs;
  for (int i = 0; i < 5; ++i) {
    core::Grid& g = grids.emplace_back(spec.dim, spec.elem_bytes);
    g.fill_poison();
    subs.push_back(eng.submit(plan, g, SubmitOptions{}));
  }
  gate().open_all();

  EXPECT_GT(futures[0].get().rtime_ns, 0.0);
  for (auto& s : subs) EXPECT_GT(s.future.get().rtime_ns, 0.0);
  for (std::size_t i = 1; i < grids.size(); ++i) {
    EXPECT_EQ(std::memcmp(grids[i].data(), ref.data(), ref.size_bytes()), 0) << "grid " << i;
  }

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_completed, 7u);  // gate + 5 batched + the serial reference
  EXPECT_EQ(s.jobs_batched, 5u);
  EXPECT_EQ(s.batches_formed, 1u);
  EXPECT_EQ(s.batch_occupancy[0], 1u);  // the gate job, alone
  EXPECT_EQ(s.batch_occupancy[4], 1u);  // one group of exactly 5
  for (const auto& sub : subs) {
    const JobHistory h = sub.history();
    EXPECT_TRUE(h.rode_batch);
    EXPECT_EQ(h.attempts, 1u);
    ASSERT_EQ(h.backends.size(), 1u);
    EXPECT_EQ(h.backends[0], kHybridBackend);
  }
}

TEST(BatchedExecutionEngine, BatchLimitCapsFusedGroupSize) {
  register_gate_backend();
  gate().reset();
  EngineOptions o = one_worker_options();
  o.batch_limit = 3;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = batch_spec();
  const Plan gate_plan = eng.compile(spec, core::TunableParams{}, "test-batch-gate");
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});

  std::vector<core::Grid> grids;
  grids.reserve(7);
  std::vector<std::future<core::RunResult>> futures;
  futures.push_back(eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
  gate().wait_arrived(1);
  for (int i = 0; i < 6; ++i) {
    futures.push_back(eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
  }
  gate().open_all();
  for (auto& f : futures) EXPECT_GT(f.get().rtime_ns, 0.0);

  const EngineStats s = eng.stats();
  // Six same-plan jobs under batch_limit=3: no gather may exceed 3, so at
  // least two separate sweeps formed and no occupancy bucket above 3 is
  // populated.
  EXPECT_EQ(s.jobs_completed, 7u);
  EXPECT_GE(s.batches_formed, 2u);
  EXPECT_EQ(s.jobs_batched, 6u);
  for (std::size_t b = 3; b < EngineStats::kBatchOccupancyBuckets; ++b) {
    EXPECT_EQ(s.batch_occupancy[b], 0u) << "bucket " << b;
  }
}

TEST(BatchedExecutionEngine, ExpiredAndCancelledMembersAreShedSurvivorsComplete) {
  register_gate_backend();
  gate().reset();
  EngineOptions o = one_worker_options();
  o.batch_limit = 8;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = batch_spec();
  const Plan gate_plan = eng.compile(spec, core::TunableParams{}, "test-batch-gate");
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});

  std::vector<core::Grid> grids;
  grids.reserve(5);
  std::vector<std::future<core::RunResult>> futures;
  futures.push_back(eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
  gate().wait_arrived(1);

  // Four same-plan jobs arrive behind the gate; one carries a deadline
  // that expires while the worker is still parked, one is cancelled
  // outright. Both must be shed at batch formation; the two survivors
  // must still fuse and complete.
  SubmitOptions expiring;
  expiring.deadline = std::chrono::milliseconds(5);
  Submission doomed = eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes), expiring);
  Submission cancelled =
      eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes), SubmitOptions{});
  Submission live_a =
      eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes), SubmitOptions{});
  Submission live_b =
      eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes), SubmitOptions{});
  eng.cancel(cancelled);
  std::this_thread::sleep_for(20ms);  // the 5 ms deadline is now past
  gate().open_all();

  EXPECT_GT(futures[0].get().rtime_ns, 0.0);
  EXPECT_THROW(doomed.future.get(), JobTimedOut);
  EXPECT_THROW(cancelled.future.get(), JobCancelled);
  EXPECT_GT(live_a.future.get().rtime_ns, 0.0);
  EXPECT_GT(live_b.future.get().rtime_ns, 0.0);

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_timed_out, 1u);
  EXPECT_EQ(s.jobs_cancelled, 1u);
  EXPECT_EQ(s.jobs_completed, 3u);  // gate + the two survivors
  EXPECT_EQ(s.jobs_batched, 2u);    // only live members enter the fused sweep
  EXPECT_EQ(s.batches_formed, 1u);
  EXPECT_TRUE(live_a.history().rode_batch);
  EXPECT_FALSE(doomed.history().rode_batch);
  EXPECT_EQ(s.jobs_submitted,
            s.jobs_completed + s.jobs_failed + s.jobs_timed_out + s.jobs_cancelled);
}

// A same-plan group on a backend that overrides only run(): the override
// must execute the group (here: fail it), never be bypassed.
TEST(BatchedExecutionEngine, GroupedJobsRunThroughTheBackendsOwnRun) {
  register_gate_backend();
  gate().reset();
  ThrowingRunBackend::calls().store(0);
  Engine eng(sim::make_i7_2600k(), one_worker_options());
  const auto spec = batch_spec();
  const Plan gate_plan = eng.compile(spec, core::TunableParams{}, "test-batch-gate");
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1}, "test-batch-throwing-run");

  std::vector<core::Grid> grids;
  grids.reserve(3);
  std::future<core::RunResult> gated =
      eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes));
  gate().wait_arrived(1);  // worker parked; the two jobs below queue behind it
  Submission a = eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes), SubmitOptions{});
  Submission b = eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes), SubmitOptions{});
  gate().open_all();

  EXPECT_GT(gated.get().rtime_ns, 0.0);
  EXPECT_THROW(a.future.get(), std::runtime_error);
  EXPECT_THROW(b.future.get(), std::runtime_error);
  EXPECT_GE(ThrowingRunBackend::calls().load(), 1);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.batches_formed, 1u);  // the two jobs did group
  EXPECT_EQ(s.jobs_failed, 2u);
  EXPECT_EQ(s.jobs_completed, 1u);  // the gate job only
  EXPECT_TRUE(a.history().rode_batch);
}

// The same group under allow_fallback: the failed call degrades each
// member to "cpu-dataflow", whose grids must match the serial reference.
TEST(BatchedExecutionEngine, FailedGroupDegradesEachMemberToTheFallbackChain) {
  register_gate_backend();
  gate().reset();
  ThrowingRunBackend::calls().store(0);
  Engine eng(sim::make_i7_2600k(), one_worker_options());
  const auto spec = batch_spec();
  const Plan gate_plan = eng.compile(spec, core::TunableParams{}, "test-batch-gate");
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1}, "test-batch-throwing-run");
  core::Grid ref(spec.dim, spec.elem_bytes);
  eng.executor().run_serial(spec, ref);

  std::vector<core::Grid> grids;
  grids.reserve(3);
  std::future<core::RunResult> gated =
      eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes));
  gate().wait_arrived(1);
  SubmitOptions fallback;
  fallback.allow_fallback = true;
  std::vector<Submission> subs;
  for (int i = 0; i < 2; ++i) {
    core::Grid& g = grids.emplace_back(spec.dim, spec.elem_bytes);
    g.fill_poison();
    subs.push_back(eng.submit(plan, g, fallback));
  }
  gate().open_all();

  EXPECT_GT(gated.get().rtime_ns, 0.0);
  for (std::size_t i = 0; i < subs.size(); ++i) {
    EXPECT_GT(subs[i].future.get().rtime_ns, 0.0);
    EXPECT_EQ(std::memcmp(grids[i + 1].data(), ref.data(), ref.size_bytes()), 0) << "job " << i;
    const JobHistory h = subs[i].history();
    EXPECT_TRUE(h.rode_batch);
    EXPECT_TRUE(h.degraded);
    ASSERT_EQ(h.backends.size(), 2u);
    EXPECT_EQ(h.backends[0], "test-batch-throwing-run");
    EXPECT_EQ(h.backends[1], kCpuDataflowBackend);
  }
  EXPECT_GE(ThrowingRunBackend::calls().load(), 1);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.batches_formed, 1u);
  EXPECT_EQ(s.jobs_degraded, 2u);
  EXPECT_EQ(s.jobs_completed, 3u);
  EXPECT_EQ(s.jobs_failed, 0u);
}

/// Returns no outcomes at all: a backend that breaks run()'s
/// one-outcome-per-member contract.
class NoOutcomesBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = "test-batch-no-outcomes";
    return n;
  }
  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams&,
                              const sim::SystemProfile&) const override {
    in.validate();
    return core::TunableParams{1, -1, -1, 1};
  }
  std::vector<core::BatchOutcome> run(core::HybridExecutor&, const core::WavefrontSpec&,
                                      const core::PhaseProgram&, const core::LoweredKernel&,
                                      const std::vector<core::BatchMember>&) const override {
    return {};
  }
};

// The engine checks the outcome count instead of indexing past the end:
// the job fails with a logic_error naming the backend.
TEST(BatchedExecutionEngine, BackendReturningTooFewOutcomesFailsItsJob) {
  auto& reg = BackendRegistry::instance();
  if (!reg.find("test-batch-no-outcomes")) reg.add(std::make_shared<NoOutcomesBackend>());
  Engine eng(sim::make_i7_2600k(), one_worker_options());
  const auto spec = batch_spec();
  core::Grid g(spec.dim, spec.elem_bytes);
  EXPECT_THROW(eng.run(eng.compile(spec, core::TunableParams{}, "test-batch-no-outcomes"), g),
               std::logic_error);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_failed, 1u);
  EXPECT_EQ(s.jobs_completed, 0u);
}

/// A control that has already asked to stop.
class CancelledControl final : public core::RunControl {
public:
  Stop should_stop() const override { return Stop::kCancelled; }
};

// The built-in "serial" backend's run() over a batch: each member's
// control is polled before that member's sweep, a stop is recorded in its
// outcome (no throw), and the live member matches run_serial bit for bit.
TEST(BatchedExecutionBackend, SerialRunShedsAStoppedMemberAndRunsTheRest) {
  const auto spec = batch_spec();
  core::HybridExecutor ex(sim::make_i7_2600k(), 1);
  core::Grid ref(spec.dim, spec.elem_bytes);
  ex.run_serial(spec, ref);

  const auto serial = BackendRegistry::instance().require(kSerialBackend);
  const core::PhaseProgram program =
      core::plan_phases(spec.inputs(), core::TunableParams{1, -1, -1, 1});
  const core::LoweredKernel lowered = spec.lower();
  core::Grid stopped(spec.dim, spec.elem_bytes);
  core::Grid live(spec.dim, spec.elem_bytes);
  core::Grid poison(spec.dim, spec.elem_bytes);
  stopped.fill_poison();
  live.fill_poison();
  poison.fill_poison();
  const CancelledControl cancelled;

  const std::vector<core::BatchOutcome> out =
      serial->run(ex, spec, program, lowered, {{&stopped, &cancelled}, {&live, nullptr}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].stop, core::RunControl::Stop::kCancelled);
  EXPECT_EQ(out[1].stop, core::RunControl::Stop::kNone);
  EXPECT_EQ(std::memcmp(live.data(), ref.data(), ref.size_bytes()), 0);
  EXPECT_EQ(out[1].result.rtime_ns, ex.estimate_serial(spec.inputs()));
  EXPECT_EQ(std::memcmp(stopped.data(), poison.data(), poison.size_bytes()), 0)
      << "a stopped member's grid was touched";
}

// ---------------------------------------------------------------------
// 4. Mixed batched/lone submitter stress (exercised under TSan in CI).
// ---------------------------------------------------------------------

TEST(BatchedExecutionStress, MixedBatchedAndLoneSubmittersStayConservationClean) {
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 2;
  o.queue_shards = 2;
  o.queue_capacity = 64;
  o.batch_limit = 4;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = batch_spec();

  // One hot plan shared by the burst submitters, plus per-thread cold
  // plans so lone jobs interleave with fused batches on the same shards.
  const Plan hot = eng.compile(spec, core::TunableParams{4, 8, 1, 1});
  const std::vector<Plan> cold = {
      eng.compile(spec, core::TunableParams{2, -1, -1, 1}, kCpuTiledBackend),
      eng.compile(spec, core::TunableParams{4, -1, -1, 1}, kCpuDataflowBackend),
  };

  core::Grid ref(spec.dim, spec.elem_bytes);
  eng.run(eng.compile(spec, core::TunableParams{}, kSerialBackend), ref);

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  constexpr std::size_t kBurst = 4;
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const bool bursty = (t % 2 == 0);
      std::vector<core::Grid> grids;
      for (std::size_t g = 0; g < kBurst; ++g) grids.emplace_back(spec.dim, spec.elem_bytes);
      for (int i = 0; i < kIters; ++i) {
        if (bursty) {
          std::vector<std::future<core::RunResult>> futs;
          for (auto& g : grids) futs.push_back(eng.submit(hot, g));
          for (auto& f : futs) {
            EXPECT_GT(f.get().rtime_ns, 0.0);
            ok.fetch_add(1);
          }
          EXPECT_EQ(std::memcmp(grids[0].data(), ref.data(), ref.size_bytes()), 0);
        } else {
          const Plan& plan = cold[static_cast<std::size_t>(t / 2) % cold.size()];
          EXPECT_GT(eng.submit(plan, grids[0]).get().rtime_ns, 0.0);
          ok.fetch_add(1);
          EXPECT_EQ(std::memcmp(grids[0].data(), ref.data(), ref.size_bytes()), 0);
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_completed, ok.load() + 1);  // +1 for the serial reference run
  EXPECT_EQ(s.jobs_failed, 0u);
  EXPECT_EQ(s.jobs_submitted,
            s.jobs_completed + s.jobs_failed + s.jobs_timed_out + s.jobs_cancelled);
}

}  // namespace eng

}  // namespace
}  // namespace wavetune
