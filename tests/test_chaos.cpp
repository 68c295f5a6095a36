// The chaos suite: seeded fault schedules against a live Engine, many
// times over, holding four invariants that define "fault-tolerant
// serving" (ISSUE 8):
//
//   1. EVERY future resolves — with a result, the injected fault, or a
//      typed JobCancelled/JobTimedOut. Never a broken promise, never a
//      future that hangs.
//   2. NO HANGS — a watchdog aborts the process if an iteration stops
//      making progress (a deadlocked futex path, a worker that died with
//      jobs queued, a drain that never drains).
//   3. STATS CONSERVE — once quiescent,
//      submitted == completed + failed + timed_out + cancelled, whatever
//      mix of faults, retries, fallbacks, cancels, and deadlines hit.
//   4. COMPLETED RESULTS STAY CORRECT — every successfully-completed grid
//      is bit-identical to the serial reference, including jobs that
//      retried into a dirty grid or degraded to a fallback backend.
//
// Each iteration derives an InjectionPlan (sites x rates x severities)
// and a client workload (8 threads, mixed submit modes) from one seed, so
// any failure replays from its printed seed. This file links against
// GTest WITHOUT gtest_main: its own main() understands --quick (CI's
// sanitizer jobs) and --chaos_iterations=N / --chaos_seed=N for replays.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "apps/synthetic.hpp"
#include "core/checkpoint.hpp"
#include "core/streaming.hpp"
#include "fault/injector.hpp"
#include "sim/system_profile.hpp"
#include "util/rng.hpp"

namespace wavetune::api {
namespace {

using namespace std::chrono_literals;

std::size_t g_iterations = 1200;  // >= 1000 in full mode; --quick lowers it
std::uint64_t g_base_seed = 0xC4A05u;

core::WavefrontSpec chaos_spec() {
  apps::SyntheticParams p;
  p.dim = 16;
  p.tsize = 10.0;
  p.dsize = 1;
  p.functional_iters = 2;
  return apps::make_synthetic_spec(p);
}

/// Progress-watchdog: iterations bump `progress`; if it stalls for the
/// budget, the suite prints the stuck iteration's seed and aborts — a
/// hang is a test FAILURE with a core dump, not a CI timeout.
class Watchdog {
public:
  explicit Watchdog(const std::atomic<std::uint64_t>& progress,
                    const std::atomic<std::uint64_t>& current_seed,
                    std::chrono::seconds budget)
      : thread_([&progress, &current_seed, budget, this] {
          std::uint64_t last = progress.load();
          auto last_change = std::chrono::steady_clock::now();
          while (!stop_.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(200ms);
            const std::uint64_t now_val = progress.load();
            if (now_val != last) {
              last = now_val;
              last_change = std::chrono::steady_clock::now();
              continue;
            }
            if (std::chrono::steady_clock::now() - last_change > budget) {
              std::fprintf(stderr,
                           "chaos watchdog: no progress for %lld s at iteration %llu "
                           "(seed %llu) — aborting\n",
                           static_cast<long long>(budget.count()),
                           static_cast<unsigned long long>(now_val),
                           static_cast<unsigned long long>(current_seed.load()));
              std::abort();
            }
          }
        }) {}

  ~Watchdog() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Derives the iteration's fault schedule: 1–3 armed sites, rates from a
/// small ladder, ~1 in 4 armed sites permanent. All pure functions of the
/// iteration seed.
fault::InjectionPlan make_plan(util::Rng& rng, std::uint64_t seed) {
  static constexpr double kRates[] = {0.002, 0.01, 0.05};
  fault::InjectionPlan plan;
  plan.seed = seed;
  const std::size_t armed = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t i = 0; i < armed; ++i) {
    const auto site =
        static_cast<fault::Site>(rng.uniform_int(0, static_cast<std::int64_t>(
                                                        fault::kSiteCount - 1)));
    auto& sp = plan.at(site);
    sp.probability = kRates[rng.uniform_int(0, 2)];
    sp.severity = rng.bernoulli(0.25) ? fault::Severity::kPermanent
                                      : fault::Severity::kTransient;
    if (rng.bernoulli(0.2)) sp.countdown = static_cast<std::uint64_t>(rng.uniform_int(1, 40));
  }
  return plan;
}

struct PendingJob {
  std::future<core::RunResult> future;
  core::Grid* grid = nullptr;
};

/// One full chaos iteration: arm, serve a mixed 8-client workload, drain,
/// check all four invariants. Returns false (with ADD_FAILURE already
/// recorded) on any violation.
void chaos_iteration(std::uint64_t seed, const core::WavefrontSpec& spec,
                     const core::Grid& reference, bool with_faults = true) {
  util::Rng rng(seed);
  const fault::InjectionPlan fplan =
      with_faults ? make_plan(rng, seed) : fault::InjectionPlan{};
  if (!with_faults) make_plan(rng, seed);  // keep the rng stream identical either way

  EngineOptions opts;
  opts.pool_workers = 1;
  opts.queue_workers = 2;
  opts.queue_capacity = 16;
  opts.queue_shards = 2;
  // Continuous batching stays ON under chaos: fused multi-grid sweeps
  // must hold the same four invariants, faults landing mid-batch
  // included. A quarter of iterations also arm the admission window.
  opts.batch_limit = 4;
  if (rng.bernoulli(0.25)) opts.batch_window = std::chrono::microseconds(50);
  opts.plan_cache_capacity = 4;  // small: the eviction site gets traffic
  opts.profiling = rng.bernoulli(0.25);
  opts.retry_backoff_base = std::chrono::microseconds(2);
  opts.retry_backoff_max = std::chrono::microseconds(50);

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kJobsPerClient = 3;

  // Arm BEFORE the engine exists, disarm after it is destroyed: thread
  // creation/join are the happens-before edges the injector's quiescence
  // contract wants, so this is TSan-clean.
  fault::ScopedInjection arm(fplan);
  std::uint64_t submitted_observed = 0;
  std::size_t resolved = 0, completed = 0;
  {
    Engine engine(sim::make_i7_2600k(), opts);

    std::deque<core::Grid> grids;  // deque: stable addresses while growing
    std::vector<PendingJob> pending;
    std::mutex collect_mutex;

    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        util::Rng crng(seed ^ (0x9E3779B97F4A7C15ULL * (c + 1)));
        for (std::size_t j = 0; j < kJobsPerClient; ++j) {
          // A rotating mix of backends/tunings, all bit-identical by
          // construction — hybrid's single-GPU band exercises the
          // kGpuTransfer site, cpu-dataflow the pool, serial the
          // degenerate path.
          CompileOptions copts;
          switch (crng.uniform_int(0, 3)) {
            case 0: copts.backend = kSerialBackend; break;
            case 1: copts.backend = kCpuDataflowBackend; break;
            case 2:
              copts.backend = kHybridBackend;
              copts.params = core::TunableParams{4, 6, -1, 1};
              break;
            default: copts.backend = kCpuTiledBackend; break;
          }
          Plan plan;
          try {
            plan = engine.compile(spec, copts);
          } catch (const std::exception&) {
            continue;  // an injected compile-path fault sheds this job pre-submit
          }

          PendingJob pj;
          {
            std::lock_guard<std::mutex> lock(collect_mutex);
            grids.emplace_back(spec.dim, spec.elem_bytes);
            pj.grid = &grids.back();
          }
          pj.grid->fill_poison();

          if (crng.bernoulli(0.4)) {
            // Legacy path: no control token, no retries.
            try {
              pj.future = engine.submit(plan, *pj.grid);
            } catch (const std::exception&) {
              continue;  // shutdown-race contract; nothing enqueued
            }
          } else {
            SubmitOptions so;
            so.max_retries = static_cast<std::size_t>(crng.uniform_int(0, 3));
            so.allow_fallback = crng.bernoulli(0.5);
            if (crng.bernoulli(0.3)) {
              so.deadline = std::chrono::microseconds(crng.uniform_int(20, 2000));
            }
            Submission sub;
            try {
              sub = engine.submit(plan, *pj.grid, so);
            } catch (const std::exception&) {
              continue;
            }
            if (crng.bernoulli(0.2)) engine.cancel(sub);
            pj.future = std::move(sub.future);
          }
          std::lock_guard<std::mutex> lock(collect_mutex);
          pending.push_back(std::move(pj));
        }
      });
    }
    for (auto& t : clients) t.join();

    // Drain: a third of iterations use a bounded drain (shedding what the
    // budget cuts off), the rest drain fully. Either way every pending
    // future must resolve before shutdown returns.
    if (rng.bernoulli(0.33)) {
      engine.shutdown(std::chrono::milliseconds(2));
    } else {
      engine.shutdown();
    }

    for (PendingJob& pj : pending) {
      ASSERT_TRUE(pj.future.valid());
      ASSERT_EQ(pj.future.wait_for(0s), std::future_status::ready)
          << "seed " << seed << ": a future is unresolved after shutdown";
      ++resolved;
      try {
        (void)pj.future.get();
        ++completed;
        // Invariant 4: a completed job's grid is bit-identical to serial,
        // retries and fallbacks included.
        ASSERT_EQ(std::memcmp(pj.grid->data(), reference.data(), reference.size_bytes()), 0)
            << "seed " << seed << ": completed grid diverged from the serial reference";
      } catch (const JobCancelled&) {
      } catch (const JobTimedOut&) {
      } catch (const fault::InjectedError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "seed " << seed << ": unexpected job error: " << e.what();
      }
    }

    // Invariant 3: quiescent conservation, every accepted job in exactly
    // one terminal bucket.
    const EngineStats s = engine.stats();
    submitted_observed = s.jobs_submitted;
    ASSERT_EQ(s.jobs_submitted,
              s.jobs_completed + s.jobs_failed + s.jobs_timed_out + s.jobs_cancelled)
        << "seed " << seed << ": stats do not conserve (submitted=" << s.jobs_submitted
        << " completed=" << s.jobs_completed << " failed=" << s.jobs_failed
        << " timed_out=" << s.jobs_timed_out << " cancelled=" << s.jobs_cancelled << ")";
    ASSERT_EQ(s.queue_depth, 0u) << "seed " << seed << ": jobs left in the queue";
    ASSERT_GE(s.jobs_completed, completed);
  }
  ASSERT_GE(submitted_observed, resolved);
}

TEST(Chaos, SeededFaultSchedulesHoldTheServingInvariants) {
  const core::WavefrontSpec spec = chaos_spec();

  // The reference: one serial run with no faults armed.
  core::Grid reference(spec.dim, spec.elem_bytes);
  {
    EngineOptions ropts;
    ropts.pool_workers = 1;
    ropts.queue_workers = 1;
    ropts.profiling = false;
    Engine ref_engine(sim::make_i7_2600k(), ropts);
    ref_engine.run(ref_engine.compile(spec, core::TunableParams{}, kSerialBackend), reference);
  }

  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> current_seed{0};
  Watchdog watchdog(progress, current_seed, std::chrono::seconds(60));

  for (std::size_t i = 0; i < g_iterations; ++i) {
    const std::uint64_t seed = g_base_seed + i;
    current_seed.store(seed);
    chaos_iteration(seed, spec, reference);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "chaos iteration " << i << " (seed " << seed << ") violated an invariant";
    }
    progress.fetch_add(1);
  }
}

// Fault-free control: with nothing armed the suite is just a concurrency
// smoke over the same workload shape — pins that the chaos scaffolding
// itself (options submits, cancels, bounded drains) is sound.
TEST(Chaos, FaultFreeControlRunStaysClean) {
  const core::WavefrontSpec spec = chaos_spec();
  core::Grid reference(spec.dim, spec.elem_bytes);
  {
    EngineOptions ropts;
    ropts.pool_workers = 1;
    ropts.queue_workers = 1;
    ropts.profiling = false;
    Engine ref_engine(sim::make_i7_2600k(), ropts);
    ref_engine.run(ref_engine.compile(spec, core::TunableParams{}, kSerialBackend), reference);
  }
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> current_seed{0};
  Watchdog watchdog(progress, current_seed, std::chrono::seconds(60));
  for (std::size_t i = 0; i < std::max<std::size_t>(g_iterations / 20, 5); ++i) {
    // An all-zero InjectionPlan arms nothing; the workload still mixes
    // deadlines, cancels, and bounded drains.
    const std::uint64_t seed = (g_base_seed << 1) + i;
    current_seed.store(seed);
    chaos_iteration(seed, spec, reference, /*with_faults=*/false);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "control iteration " << i << " (seed " << seed << ") failed";
    }
    progress.fetch_add(1);
  }
}

// --- faults inside a fused batch ---------------------------------------

/// Worker-parking gate backend (local name; same technique as
/// test_engine_serving.cpp): lets the test build a deterministic
/// same-plan backlog so the worker provably forms ONE fused batch.
class ChaosGateBackend final : public Backend {
public:
  static std::mutex& mutex() {
    static std::mutex m;
    return m;
  }
  static std::condition_variable& cv() {
    static std::condition_variable c;
    return c;
  }
  static bool& open_flag() {
    static bool open = false;
    return open;
  }
  static int& arrived() {
    static int n = 0;
    return n;
  }
  const std::string& name() const override {
    static const std::string n = "chaos-gate";
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
    {
      std::unique_lock<std::mutex> lock(mutex());
      ++arrived();
      cv().notify_all();
      cv().wait(lock, [] { return open_flag(); });
    }
    std::vector<core::BatchOutcome> out(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      out[m].result = executor.run_serial(spec, *members[m].grid, &lowered);
    }
    return out;
  }
  core::RunResult estimate(const core::HybridExecutor& executor, const core::InputParams& in,
                           const core::PhaseProgram&) const override {
    core::RunResult r;
    core::PhaseTiming t;
    t.d_end = core::num_diagonals(in.dim);
    t.ns = executor.estimate_serial(in);
    r.breakdown.phases.push_back(t);
    r.rtime_ns = r.breakdown.total_ns();
    return r;
  }
};

// The dataflow scheduler's spawn/steal fault sites, fired INSIDE a fused
// multi-grid sweep: the batch provably forms (worker parked behind a
// gate, six same-plan dataflow jobs queued), the steal site's countdown
// trigger guarantees at least one injection mid-batch, and the four
// serving invariants must still hold — the fused path falls back to
// per-member execution and the retry budget absorbs the transients.
TEST(Chaos, FaultsInsideAFusedBatchHoldTheInvariants) {
  {
    auto& reg = BackendRegistry::instance();
    if (!reg.find("chaos-gate")) reg.add(std::make_shared<ChaosGateBackend>());
  }
  const core::WavefrontSpec spec = chaos_spec();
  core::Grid reference(spec.dim, spec.elem_bytes);
  {
    EngineOptions ropts;
    ropts.pool_workers = 1;
    ropts.queue_workers = 1;
    ropts.profiling = false;
    Engine ref_engine(sim::make_i7_2600k(), ropts);
    ref_engine.run(ref_engine.compile(spec, core::TunableParams{}, kSerialBackend), reference);
  }

  fault::InjectionPlan fplan;
  fplan.seed = 0xFA57BA7CULL;
  fplan.at(fault::Site::kDataflowSpawn).probability = 0.02;
  fplan.at(fault::Site::kDataflowSpawn).severity = fault::Severity::kTransient;
  fplan.at(fault::Site::kDataflowSteal).countdown = 3;  // guaranteed mid-batch fire
  fplan.at(fault::Site::kDataflowSteal).severity = fault::Severity::kTransient;
  fault::ScopedInjection arm(fplan);

  std::uint64_t spawn_visits = 0, steal_injected = 0;
  {
    EngineOptions opts;
    opts.pool_workers = 2;
    opts.queue_workers = 1;
    opts.queue_shards = 1;
    opts.queue_capacity = 16;
    opts.batch_limit = 8;
    Engine engine(sim::make_i7_2600k(), opts);
    const Plan gate_plan = engine.compile(spec, core::TunableParams{}, "chaos-gate");
    const Plan plan =
        engine.compile(spec, core::TunableParams{4, -1, -1, 1}, kCpuDataflowBackend);

    constexpr std::size_t kJobs = 6;
    std::vector<core::Grid> grids;
    grids.reserve(kJobs + 1);
    std::vector<std::future<core::RunResult>> futures;
    futures.push_back(engine.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
    {
      std::unique_lock<std::mutex> lock(ChaosGateBackend::mutex());
      ChaosGateBackend::cv().wait(lock, [] { return ChaosGateBackend::arrived() >= 1; });
    }
    SubmitOptions so;
    so.max_retries = 4;
    for (std::size_t j = 0; j < kJobs; ++j) {
      core::Grid& g = grids.emplace_back(spec.dim, spec.elem_bytes);
      g.fill_poison();
      futures.push_back(engine.submit(plan, g, so).future);
    }
    {
      std::lock_guard<std::mutex> lock(ChaosGateBackend::mutex());
      ChaosGateBackend::open_flag() = true;
    }
    ChaosGateBackend::cv().notify_all();

    for (std::size_t i = 0; i < futures.size(); ++i) {
      try {
        (void)futures[i].get();
        if (i > 0) {
          ASSERT_EQ(std::memcmp(grids[i].data(), reference.data(), reference.size_bytes()), 0)
              << "job " << i << " completed with a wrong grid";
        }
      } catch (const fault::InjectedError&) {
        // Retry budget exhausted — legal; accounted as failed below.
      }
    }
    engine.shutdown();

    const EngineStats s = engine.stats();
    EXPECT_EQ(s.jobs_batched, kJobs) << "the backlog did not fuse";
    EXPECT_GE(s.batches_formed, 1u);
    ASSERT_EQ(s.jobs_submitted,
              s.jobs_completed + s.jobs_failed + s.jobs_timed_out + s.jobs_cancelled);
    spawn_visits = fault::Injector::instance().visits(fault::Site::kDataflowSpawn);
    steal_injected = fault::Injector::instance().injected(fault::Site::kDataflowSteal);
  }
  // The schedule really exercised the new dataflow sites while the batch
  // was in flight: spawns were visited, and the steal countdown fired.
  EXPECT_GT(spawn_visits, 0u);
  EXPECT_GE(steal_injected, 1u);
}

// --- faults inside a streamed (out-of-core) run -------------------------

// The strip transfer queue's fault site, fired mid-strip inside a
// residency-capped streamed plan: the countdown trigger guarantees an
// injection after some strips have already staged and retired, and the
// four serving invariants must still hold — every future resolves (with
// the result or the injected fault), completed grids stay bit-identical,
// and the stats conserve.
TEST(Chaos, MidStripTransferFaultsHoldTheServingInvariants) {
  const core::WavefrontSpec spec = chaos_spec();
  core::Grid reference(spec.dim, spec.elem_bytes);
  {
    EngineOptions ropts;
    ropts.pool_workers = 1;
    ropts.queue_workers = 1;
    ropts.profiling = false;
    Engine ref_engine(sim::make_i7_2600k(), ropts);
    ref_engine.run(ref_engine.compile(spec, core::TunableParams{}, kSerialBackend), reference);
  }

  fault::InjectionPlan fplan;
  fplan.seed = 0x57121FA0ULL;
  fplan.at(fault::Site::kStripTransfer).countdown = 3;  // guaranteed mid-strip fire
  fplan.at(fault::Site::kStripTransfer).probability = 0.01;
  fplan.at(fault::Site::kStripTransfer).severity = fault::Severity::kTransient;
  fault::ScopedInjection arm(fplan);

  std::uint64_t strip_visits = 0, strip_injected = 0;
  {
    EngineOptions opts;
    opts.pool_workers = 1;
    opts.queue_workers = 2;
    opts.queue_capacity = 16;
    opts.batch_limit = 4;
    Engine engine(sim::make_i7_2600k(), opts);

    // A residency cap a quarter of the whole grid forces the compile onto
    // the strip axis; every functional strip stage/readback then visits
    // the kStripTransfer site.
    CompileOptions copts;
    copts.backend = kHybridBackend;
    copts.params = core::TunableParams{4, 6, -1, 1};
    copts.max_resident_bytes = core::whole_grid_resident_bytes(spec.dim, spec.elem_bytes) / 4;
    const Plan plan = engine.compile(spec, copts);
    bool saw_strips = false;
    for (const core::PhaseDesc& ph : plan.program().phases) {
      if (ph.streamed()) saw_strips = true;
    }
    ASSERT_TRUE(saw_strips) << "the cap did not reshape the plan onto strips";

    constexpr std::size_t kJobs = 8;
    std::deque<core::Grid> grids;
    std::vector<std::future<core::RunResult>> futures;
    for (std::size_t j = 0; j < kJobs; ++j) {
      core::Grid& g = grids.emplace_back(spec.dim, spec.elem_bytes);
      g.fill_poison();
      if (j % 2 == 0) {
        futures.push_back(engine.submit(plan, g));  // no retry budget
      } else {
        SubmitOptions so;
        so.max_retries = 4;  // transients absorbed by the retry budget
        futures.push_back(engine.submit(plan, g, so).future);
      }
    }
    engine.shutdown();

    std::size_t completed = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      ASSERT_TRUE(futures[i].valid());
      ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready)
          << "a streamed job's future is unresolved after shutdown";
      try {
        (void)futures[i].get();
        ++completed;
        ASSERT_EQ(std::memcmp(grids[i].data(), reference.data(), reference.size_bytes()), 0)
            << "streamed job " << i << " completed with a wrong grid";
      } catch (const fault::InjectedError& e) {
        EXPECT_EQ(e.site(), fault::Site::kStripTransfer);
      }
    }
    EXPECT_GT(completed, 0u) << "the retry budget never got a streamed job through";

    const EngineStats s = engine.stats();
    ASSERT_EQ(s.jobs_submitted,
              s.jobs_completed + s.jobs_failed + s.jobs_timed_out + s.jobs_cancelled);
    ASSERT_EQ(s.queue_depth, 0u);
    strip_visits = fault::Injector::instance().visits(fault::Site::kStripTransfer);
    strip_injected = fault::Injector::instance().injected(fault::Site::kStripTransfer);
  }
  EXPECT_GT(strip_visits, 0u);
  EXPECT_GE(strip_injected, 1u);
}

// The checkpoint write path's fault site: the FIRST strip-boundary write
// of a checkpointed run fails, the job fails cleanly (counted, no partial
// file left behind — save_file fires the site before any byte is
// written), and the very next attempt checkpoints, resumes, and
// reproduces the reference grid bit-identically.
TEST(Chaos, CheckpointWriteFaultFailsCleanlyAndTheRetryResumes) {
  const core::WavefrontSpec spec = chaos_spec();
  core::Grid reference(spec.dim, spec.elem_bytes);
  {
    EngineOptions ropts;
    ropts.pool_workers = 1;
    ropts.queue_workers = 1;
    ropts.profiling = false;
    Engine ref_engine(sim::make_i7_2600k(), ropts);
    ref_engine.run(ref_engine.compile(spec, core::TunableParams{}, kSerialBackend), reference);
  }

  const std::string path = "test_chaos_ckpt.bin";
  std::remove(path.c_str());

  fault::InjectionPlan fplan;
  fplan.seed = 0xC4EC0B01ULL;
  fplan.at(fault::Site::kCheckpointWrite).countdown = 1;  // first write only
  fplan.at(fault::Site::kCheckpointWrite).severity = fault::Severity::kTransient;
  fault::ScopedInjection arm(fplan);
  {
    EngineOptions opts;
    opts.pool_workers = 1;
    opts.queue_workers = 1;
    Engine engine(sim::make_i7_2600k(), opts);
    CompileOptions copts;
    copts.backend = kHybridBackend;
    copts.params = core::TunableParams{4, 6, -1, 1};
    copts.max_resident_bytes = core::whole_grid_resident_bytes(spec.dim, spec.elem_bytes) / 4;
    const Plan plan = engine.compile(spec, copts);

    CheckpointPolicy policy;
    policy.path = path;
    core::Grid g1(spec.dim, spec.elem_bytes);
    EXPECT_THROW(engine.run_checkpointed(plan, g1, policy), fault::InjectedError);
    // The site fires before any byte hits disk: no stale/partial file.
    core::Grid scratch(spec.dim, spec.elem_bytes);
    EXPECT_THROW(engine.resume_from_file(plan, scratch, path), core::CheckpointError);

    // The countdown was one-shot; the retry checkpoints and resumes.
    core::Grid g2(spec.dim, spec.elem_bytes);
    const core::RunResult full = engine.run_checkpointed(plan, g2, policy);
    EXPECT_EQ(std::memcmp(g2.data(), reference.data(), reference.size_bytes()), 0);
    core::Grid g3(spec.dim, spec.elem_bytes);
    g3.fill_poison();
    const core::RunResult resumed = engine.resume_from_file(plan, g3, path);
    EXPECT_EQ(std::memcmp(g3.data(), reference.data(), reference.size_bytes()), 0);
    EXPECT_DOUBLE_EQ(resumed.rtime_ns, full.rtime_ns);

    const EngineStats s = engine.stats();
    EXPECT_EQ(s.jobs_failed, 1u);
    EXPECT_EQ(s.jobs_resumed, 1u);
    ASSERT_EQ(s.jobs_submitted,
              s.jobs_completed + s.jobs_failed + s.jobs_timed_out + s.jobs_cancelled);
  }
  EXPECT_GE(fault::Injector::instance().injected(fault::Site::kCheckpointWrite), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wavetune::api

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      wavetune::api::g_iterations = 120;
    } else if (arg.rfind("--chaos_iterations=", 0) == 0) {
      wavetune::api::g_iterations = std::strtoull(arg.c_str() + 19, nullptr, 10);
    } else if (arg.rfind("--chaos_seed=", 0) == 0) {
      wavetune::api::g_base_seed = std::strtoull(arg.c_str() + 13, nullptr, 10);
    }
  }
  return RUN_ALL_TESTS();
}
