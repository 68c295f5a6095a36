// Session-level tests of the api::Engine facade: plan-cache reuse,
// autotuned vs explicit compiles, backend selection through the registry,
// the bounded async job queue, and concurrent multi-request serving
// against one Engine. Executor *semantics* (values, timings, schedules)
// are covered in test_executor.cpp; here the subject is the session API
// itself.
#include "api/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "autotune/search.hpp"
#include "autotune/tuner.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::api {
namespace {

core::WavefrontSpec small_spec(std::size_t dim = 40, double tsize = 25.0, int dsize = 2) {
  apps::SyntheticParams p;
  p.dim = dim;
  p.tsize = tsize;
  p.dsize = dsize;
  p.functional_iters = 4;
  return apps::make_synthetic_spec(p);
}

EngineOptions small_engine(std::size_t queue_workers = 2, std::size_t queue_capacity = 8) {
  EngineOptions o;
  o.pool_workers = 2;
  o.queue_workers = queue_workers;
  o.queue_capacity = queue_capacity;
  return o;
}

// --- plan cache ---------------------------------------------------------

TEST(EnginePlanCache, SecondCompileOfIdenticalInputsReturnsCachedPlan) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const core::TunableParams p{4, 10, 2, 1};

  const Plan first = eng.compile(spec, p);
  const Plan second = eng.compile(spec, p);
  EXPECT_TRUE(first.shares_state_with(second));
  EXPECT_EQ(first.id(), second.id());
  EXPECT_EQ(eng.stats().plans_compiled, 1u);
  EXPECT_EQ(eng.stats().plan_cache_hits, 1u);
  EXPECT_EQ(eng.plan_cache_size(), 1u);
}

TEST(EnginePlanCache, DistinctParamsOrBackendMissTheCache) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();

  const Plan a = eng.compile(spec, core::TunableParams{4, 10, 2, 1});
  const Plan b = eng.compile(spec, core::TunableParams{4, 12, 2, 1});
  const Plan c = eng.compile(spec, core::TunableParams{4, 10, 2, 1}, kCpuTiledBackend);
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_EQ(eng.stats().plans_compiled, 3u);
  EXPECT_EQ(eng.stats().plan_cache_hits, 0u);
}

TEST(EnginePlanCache, EstimateOnlyPlansShareTheCacheButNotExecutableEntries) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const core::TunableParams p{4, 10, -1, 1};

  const Plan executable = eng.compile(spec, p);
  const Plan estimate_only = eng.compile(spec.inputs(), p);
  EXPECT_FALSE(executable.shares_state_with(estimate_only));
  EXPECT_TRUE(executable.executable());
  EXPECT_FALSE(estimate_only.executable());
  // Re-estimating the same instance hits the cache.
  const Plan again = eng.compile(spec.inputs(), p);
  EXPECT_TRUE(estimate_only.shares_state_with(again));
  // Both agree on the simulated timing.
  EXPECT_DOUBLE_EQ(eng.estimate(executable).rtime_ns, eng.estimate(estimate_only).rtime_ns);
}

TEST(EnginePlanCache, SpecContentKeySeparatesSameSignatureRequests) {
  // The serving hazard: seqcmp kernels capture the request's sequences,
  // and every length-N request has the identical (dim, tsize, dsize)
  // signature. The spec's content_key must keep them apart — and a true
  // repeat of one request must still hit.
  Engine eng(sim::make_i7_2600k(), small_engine());
  apps::SeqCmpParams req1;
  req1.seq_a = apps::random_dna(64, 1);
  req1.seq_b = apps::random_dna(64, 2);
  apps::SeqCmpParams req2;
  req2.seq_a = apps::random_dna(64, 3);
  req2.seq_b = apps::random_dna(64, 4);
  const core::TunableParams p{4, -1, -1, 1};

  const Plan p1 = eng.compile(apps::make_seqcmp_spec(req1), p);
  const Plan p2 = eng.compile(apps::make_seqcmp_spec(req2), p);
  EXPECT_FALSE(p1.shares_state_with(p2));

  const Plan p1_again = eng.compile(apps::make_seqcmp_spec(req1), p);
  EXPECT_TRUE(p1.shares_state_with(p1_again));

  // The cached plan really carries request 1's kernel.
  core::Grid direct(64, sizeof(apps::SeqCell));
  core::Grid via_cache(64, sizeof(apps::SeqCell));
  eng.run(p1, direct);
  eng.run(p1_again, via_cache);
  EXPECT_EQ(std::memcmp(direct.data(), via_cache.data(), direct.size_bytes()), 0);
  EXPECT_EQ(apps::seqcmp_best_score(direct), apps::smith_waterman_reference(req1));
}

TEST(EnginePlanCache, IdentitylessExecutableSpecsAreNeverCached) {
  // A spec with no content_key and no cache_tag gives the cache nothing
  // to tell its kernel apart by, so caching it would risk silently
  // running the wrong kernel. Such compiles work but stay uncached.
  Engine eng(sim::make_i7_2600k(), small_engine());
  core::WavefrontSpec anon = small_spec();
  anon.content_key.clear();
  const core::TunableParams p{4, 10, -1, 1};
  const Plan p1 = eng.compile(anon, p);
  const Plan p2 = eng.compile(anon, p);
  EXPECT_FALSE(p1.shares_state_with(p2));
  EXPECT_EQ(eng.plan_cache_size(), 0u);
  // A cache_tag restores identity, and with it caching.
  CompileOptions tagged;
  tagged.params = p;
  tagged.cache_tag = "anon-kernel";
  EXPECT_TRUE(eng.compile(anon, tagged).shares_state_with(eng.compile(anon, tagged)));
}

TEST(EnginePlanCache, CacheTagSeparatesSignatureCollidingKernels) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  CompileOptions a;
  a.params = core::TunableParams{4, 10, -1, 1};
  a.cache_tag = "kernel-a";
  CompileOptions b = a;
  b.cache_tag = "kernel-b";
  const auto spec = small_spec();
  EXPECT_NE(eng.compile(spec, a).id(), eng.compile(spec, b).id());
}

TEST(EnginePlanCache, DisablingTheCacheCompilesFreshPlans) {
  EngineOptions o = small_engine();
  o.plan_cache = false;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = small_spec();
  const core::TunableParams p{4, 10, 2, 1};
  EXPECT_NE(eng.compile(spec, p).id(), eng.compile(spec, p).id());
  EXPECT_EQ(eng.plan_cache_size(), 0u);
}

TEST(EnginePlanCache, CapacityEvictsColdEntriesNeverTouchedSinceInsertion) {
  // Clock second-chance: with no hits at all, eviction degenerates to
  // FIFO — the oldest never-referenced entry goes first.
  EngineOptions o = small_engine();
  o.plan_cache_capacity = 2;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = small_spec();
  const Plan a = eng.compile(spec, core::TunableParams{4, 10, -1, 1});
  const Plan b = eng.compile(spec, core::TunableParams{4, 12, -1, 1});
  // Third distinct recipe: cached, evicting the oldest untouched (a).
  const Plan c1 = eng.compile(spec, core::TunableParams{4, 14, -1, 1});
  const Plan c2 = eng.compile(spec, core::TunableParams{4, 14, -1, 1});
  EXPECT_EQ(eng.plan_cache_size(), 2u);
  EXPECT_TRUE(c1.shares_state_with(c2));
  EXPECT_EQ(eng.stats().plan_cache_evictions, 1u);
  // a was evicted: recompiling it is a fresh plan (which evicts again).
  EXPECT_FALSE(a.shares_state_with(eng.compile(spec, core::TunableParams{4, 10, -1, 1})));
  EXPECT_EQ(eng.plan_cache_size(), 2u);
  EXPECT_EQ(eng.stats().plan_cache_evictions, 2u);
  (void)b;
}

TEST(EnginePlanCache, HitEntriesSurviveTheClockSweepOnce) {
  // Second chance proper: an entry whose referenced bit was set by a hit
  // since the last sweep is skipped (bit cleared, requeued) and the next
  // cold entry is evicted instead — hot plans survive one-shot sweeps.
  EngineOptions o = small_engine();
  o.plan_cache_capacity = 3;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = small_spec();
  const Plan a = eng.compile(spec, core::TunableParams{4, 10, -1, 1});
  const Plan b = eng.compile(spec, core::TunableParams{4, 12, -1, 1});
  const Plan c = eng.compile(spec, core::TunableParams{4, 14, -1, 1});
  // Touch a: the oldest entry is now marked referenced.
  EXPECT_TRUE(a.shares_state_with(eng.compile(spec, core::TunableParams{4, 10, -1, 1})));
  // Insert d at capacity: the clock hand reaches a first, grants it a
  // second chance, and evicts b (oldest cold) instead.
  const Plan d = eng.compile(spec, core::TunableParams{4, 16, -1, 1});
  EXPECT_EQ(eng.plan_cache_size(), 3u);
  EXPECT_EQ(eng.stats().plan_cache_evictions, 1u);
  EXPECT_TRUE(a.shares_state_with(eng.compile(spec, core::TunableParams{4, 10, -1, 1})));
  EXPECT_TRUE(c.shares_state_with(eng.compile(spec, core::TunableParams{4, 14, -1, 1})));
  EXPECT_TRUE(d.shares_state_with(eng.compile(spec, core::TunableParams{4, 16, -1, 1})));
  EXPECT_FALSE(b.shares_state_with(eng.compile(spec, core::TunableParams{4, 12, -1, 1})));
}

TEST(EnginePlanCache, NonFiniteTsizeIsRejectedBeforeTouchingTheCache) {
  // NaN would break the cache map's strict weak ordering; validation must
  // stop it at the door.
  Engine eng(sim::make_i7_2600k(), small_engine());
  const core::TunableParams p{4, 10, -1, 1};
  EXPECT_THROW(eng.compile(core::InputParams{64, std::nan(""), 1}, p), std::invalid_argument);
  EXPECT_THROW(eng.compile(core::InputParams{64, HUGE_VAL, 1}, p), std::invalid_argument);
  EXPECT_EQ(eng.plan_cache_size(), 0u);
}

TEST(EnginePlanCache, ClearEmptiesTheCache) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  eng.compile(small_spec(), core::TunableParams{4, 10, 2, 1});
  EXPECT_EQ(eng.plan_cache_size(), 1u);
  eng.clear_plan_cache();
  EXPECT_EQ(eng.plan_cache_size(), 0u);
}

// --- autotuned vs explicit compile --------------------------------------

TEST(EngineCompile, ExplicitParamsAreNormalizedAtCompileTime) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const Plan plan = eng.compile(small_spec(), core::TunableParams{4, 1000, 1000, 16});
  EXPECT_FALSE(plan.autotuned());
  EXPECT_TRUE(plan.params().is_normalized(40));
  EXPECT_EQ(plan.params().band, 39);
}

TEST(EngineCompile, AutotunedWithoutTunerFallsBackToNormalizedDefaults) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  EXPECT_FALSE(eng.has_tuner());
  const Plan plan = eng.compile(small_spec());
  EXPECT_TRUE(plan.autotuned());
  EXPECT_TRUE(plan.params().is_normalized(40));
}

TEST(EngineCompile, AutotunedWithTunerMatchesThePrediction) {
  const sim::SystemProfile sys = sim::make_i7_2600k();
  autotune::ExhaustiveSearch search(sys, autotune::ParamSpace::reduced());
  const autotune::Autotuner tuner = autotune::Autotuner::train(search.sweep(), sys);
  Engine eng(sys, tuner, small_engine());
  ASSERT_TRUE(eng.has_tuner());

  const core::InputParams in{1000, 6000.0, 4};
  const Plan plan = eng.compile(in);
  EXPECT_TRUE(plan.autotuned());
  EXPECT_EQ(plan.params(), tuner.predict(in).params.normalized(in.dim));

  // Autotuned and explicit compiles of one instance are separate cache
  // entries even when the predicted params coincide.
  const Plan explicit_plan = eng.compile(in, plan.params());
  EXPECT_FALSE(explicit_plan.autotuned());
  EXPECT_FALSE(plan.shares_state_with(explicit_plan));

  // A second autotuned compile skips prediction: pure cache hit.
  const auto before = eng.stats();
  const Plan again = eng.compile(in);
  EXPECT_TRUE(plan.shares_state_with(again));
  EXPECT_EQ(eng.stats().plan_cache_hits, before.plan_cache_hits + 1);
}

// --- backend selection --------------------------------------------------

TEST(EngineBackends, SerialCpuTiledAndHybridProduceIdenticalValues) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const core::TunableParams p{4, 18, 3, 1};

  core::Grid serial(spec.dim, spec.elem_bytes);
  eng.run(eng.compile(spec, p, kSerialBackend), serial);

  for (const char* backend :
       {kCpuTiledBackend, kCpuDataflowBackend, kCpuAutoBackend, kHybridBackend}) {
    core::Grid g(spec.dim, spec.elem_bytes);
    g.fill_poison();
    const Plan plan = eng.compile(spec, p, backend);
    EXPECT_EQ(plan.backend_name(), backend);
    eng.run(plan, g);
    EXPECT_EQ(std::memcmp(g.data(), serial.data(), g.size_bytes()), 0) << backend;
  }
}

TEST(EngineBackends, CpuTiledStripsGpuOffloadAtPrepare) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const Plan plan = eng.compile(small_spec(), core::TunableParams{6, 18, 3, 4}, kCpuTiledBackend);
  EXPECT_EQ(plan.params().cpu_tile, 6);
  EXPECT_EQ(plan.params().band, -1);
  EXPECT_EQ(plan.params().gpu_count(), 0);
  EXPECT_DOUBLE_EQ(eng.estimate(plan).breakdown.gpu_ns(), 0.0);
}

TEST(EngineBackends, CpuDataflowStripsGpuAndChargesBarrierFreeTime) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const Plan flow = eng.compile(spec, core::TunableParams{6, 18, 3, 4}, kCpuDataflowBackend);
  EXPECT_EQ(flow.params().cpu_tile, 6);
  EXPECT_EQ(flow.params().band, -1);
  EXPECT_EQ(flow.params().gpu_count(), 0);
  EXPECT_DOUBLE_EQ(eng.estimate(flow).breakdown.gpu_ns(), 0.0);
  // Same prepared tuning through the barriered backend: the dataflow
  // schedule must charge strictly less simulated CPU time (no barriers).
  const Plan tiled = eng.compile(spec, core::TunableParams{6, 18, 3, 4}, kCpuTiledBackend);
  EXPECT_EQ(flow.params(), tiled.params());
  EXPECT_LT(eng.estimate(flow).rtime_ns, eng.estimate(tiled).rtime_ns);
}

TEST(EngineBackends, CpuAutoEstimatesTheCheaperSchedule) {
  // "cpu-auto" consults the analytic cost models per input: its estimate
  // must equal the cheaper of the two fixed-scheduler backends for the
  // same tuning.
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const core::TunableParams p{4, -1, -1, 1};
  const double tiled = eng.estimate(eng.compile(spec, p, kCpuTiledBackend)).rtime_ns;
  const double flow = eng.estimate(eng.compile(spec, p, kCpuDataflowBackend)).rtime_ns;
  const double autod = eng.estimate(eng.compile(spec, p, kCpuAutoBackend)).rtime_ns;
  EXPECT_DOUBLE_EQ(autod, std::min(tiled, flow));
}

TEST(EngineBackends, SerialBackendIgnoresTheTuning) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  // Whatever tuning is passed, the prepared plan is the canonical
  // sequential configuration.
  const Plan a = eng.compile(spec, core::TunableParams{4, 18, 3, 1}, kSerialBackend);
  const Plan b = eng.compile(spec, core::TunableParams{8, -1, -1, 1}, kSerialBackend);
  EXPECT_EQ(a.params(), b.params());
  EXPECT_EQ(a.params(), (core::TunableParams{1, -1, -1, 1}));
  EXPECT_DOUBLE_EQ(eng.estimate(a).rtime_ns, eng.estimate_serial(spec.inputs()));
}

TEST(EngineBackends, UnknownBackendThrowsListingRegisteredNames) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  try {
    eng.compile(small_spec(), core::TunableParams{}, "gpu-direct");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gpu-direct"), std::string::npos);
    EXPECT_NE(what.find(kHybridBackend), std::string::npos);
    EXPECT_NE(what.find(kSerialBackend), std::string::npos);
  }
}

/// User-registered backend: serial execution under a custom name, to prove
/// the registry route end to end.
class EchoBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = "test-echo";
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

TEST(EngineBackends, UserBackendIsAddressableByNameAfterRegistration) {
  if (!BackendRegistry::instance().find("test-echo")) {
    BackendRegistry::instance().add(std::make_shared<EchoBackend>());
  }
  EXPECT_THROW(BackendRegistry::instance().add(std::make_shared<EchoBackend>()),
               std::invalid_argument);

  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  core::Grid ref(spec.dim, spec.elem_bytes);
  eng.run(eng.compile(spec, core::TunableParams{}, kSerialBackend), ref);

  core::Grid g(spec.dim, spec.elem_bytes);
  g.fill_poison();
  const Plan plan = eng.compile(spec, core::TunableParams{}, "test-echo");
  eng.run(plan, g);
  EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0);
}

// --- submit / async queue -----------------------------------------------

TEST(EngineSubmit, FutureDeliversTheRunResult) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const Plan plan = eng.compile(spec, core::TunableParams{4, 18, 3, 1});
  core::Grid g(spec.dim, spec.elem_bytes);
  const core::RunResult r = eng.submit(plan, g).get();
  EXPECT_GT(r.rtime_ns, 0.0);
  EXPECT_DOUBLE_EQ(r.rtime_ns, eng.estimate(plan).rtime_ns);
  EXPECT_EQ(eng.stats().jobs_submitted, 1u);
  EXPECT_EQ(eng.stats().jobs_completed, 1u);
}

TEST(EngineSubmit, EstimateOnlyPlanCannotBeSubmitted) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const Plan plan = eng.compile(spec.inputs(), core::TunableParams{4, 10, -1, 1});
  core::Grid g(spec.dim, spec.elem_bytes);
  EXPECT_THROW(eng.submit(plan, g), std::invalid_argument);
  EXPECT_THROW(eng.run(plan, g), std::invalid_argument);
  EXPECT_NO_THROW(eng.estimate(plan));
}

TEST(EngineSubmit, InvalidPlanThrows) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  core::Grid g(8, 8);
  EXPECT_THROW(eng.submit(Plan{}, g), std::invalid_argument);
  EXPECT_THROW(eng.run(Plan{}, g), std::invalid_argument);
  EXPECT_THROW(eng.estimate(Plan{}), std::invalid_argument);
}

TEST(EngineSubmit, BatchFansOutOneJobPerGrid) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const Plan plan = eng.compile(spec, core::TunableParams{4, 18, 3, 1});

  core::Grid ref(spec.dim, spec.elem_bytes);
  eng.run(eng.compile(spec, core::TunableParams{}, kSerialBackend), ref);

  std::vector<core::Grid> grids;
  std::vector<core::Grid*> ptrs;
  for (int i = 0; i < 5; ++i) {
    grids.emplace_back(spec.dim, spec.elem_bytes).fill_poison();
  }
  for (auto& g : grids) ptrs.push_back(&g);

  auto futures = eng.submit_batch(plan, ptrs);
  ASSERT_EQ(futures.size(), 5u);
  for (auto& f : futures) f.get();
  for (const auto& g : grids) {
    EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0);
  }
}

TEST(EngineSubmit, BatchWithBadGridEnqueuesNothing) {
  // Whole-batch validation: a mismatched grid anywhere in the batch must
  // throw before any job is enqueued, or the unwinding caller would
  // discard futures of jobs still writing into its grids.
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const Plan plan = eng.compile(spec, core::TunableParams{4, 18, 3, 1});
  core::Grid good(spec.dim, spec.elem_bytes);
  core::Grid bad(spec.dim + 1, spec.elem_bytes);
  EXPECT_THROW(eng.submit_batch(plan, {&good, &bad}), std::invalid_argument);
  EXPECT_THROW(eng.submit_batch(plan, {&good, nullptr}), std::invalid_argument);
  // A repeated grid would be raced by two workers.
  EXPECT_THROW(eng.submit_batch(plan, {&good, &good}), std::invalid_argument);
  EXPECT_EQ(eng.stats().jobs_submitted, 0u);
}

TEST(EngineSubmit, TinyQueueBackpressureStillCompletesEveryJob) {
  // Capacity 2, one consumer: producers block on push instead of growing
  // the queue without bound, and every future still resolves.
  Engine eng(sim::make_i7_2600k(), small_engine(/*queue_workers=*/1, /*queue_capacity=*/2));
  const auto spec = small_spec(24, 10.0, 1);
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});

  std::vector<core::Grid> grids;
  for (int i = 0; i < 12; ++i) grids.emplace_back(spec.dim, spec.elem_bytes);
  std::vector<std::future<core::RunResult>> futures;
  for (auto& g : grids) futures.push_back(eng.submit(plan, g));
  for (auto& f : futures) EXPECT_GT(f.get().rtime_ns, 0.0);
  EXPECT_EQ(eng.stats().jobs_completed, 12u);
}

TEST(EngineSubmit, DestructionDrainsQueuedJobs) {
  const auto spec = small_spec(24, 10.0, 1);
  std::vector<core::Grid> grids;
  for (int i = 0; i < 6; ++i) grids.emplace_back(spec.dim, spec.elem_bytes);
  std::vector<std::future<core::RunResult>> futures;
  {
    Engine eng(sim::make_i7_2600k(), small_engine(/*queue_workers=*/1, /*queue_capacity=*/8));
    const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});
    for (auto& g : grids) futures.push_back(eng.submit(plan, g));
    // Engine goes out of scope with jobs still queued: the destructor
    // finishes them rather than breaking the promises.
  }
  for (auto& f : futures) EXPECT_GT(f.get().rtime_ns, 0.0);
}

// --- concurrent serving (the stress satellite) --------------------------

TEST(EngineConcurrency, ManyThreadsCompileAndSubmitMixedBackendsBitIdentical) {
  // >= 4 threads hammer one Engine with mixed-backend compiles and
  // submits; every produced grid must be bit-identical to the serial
  // reference.
  const auto spec = small_spec(37, 30.0, 3);
  Engine eng(sim::make_i7_2600k(), small_engine(/*queue_workers=*/3, /*queue_capacity=*/4));

  core::Grid ref(spec.dim, spec.elem_bytes);
  eng.run(eng.compile(spec, core::TunableParams{}, kSerialBackend), ref);

  struct Request {
    const char* backend;
    core::TunableParams params;
  };
  const std::vector<Request> mix = {
      {kHybridBackend, {4, 18, 3, 1}},  {kHybridBackend, {4, 10, -1, 1}},
      {kHybridBackend, {2, 36, 0, 1}},  {kCpuTiledBackend, {6, -1, -1, 1}},
      {kSerialBackend, {1, -1, -1, 1}}, {kHybridBackend, {4, 18, -1, 8}},
  };

  constexpr int kThreads = 6;
  constexpr int kIterations = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const Request& req = mix[static_cast<std::size_t>(t + i) % mix.size()];
        try {
          const Plan plan = eng.compile(spec, req.params, req.backend);
          core::Grid g(spec.dim, spec.elem_bytes);
          g.fill_poison();
          eng.submit(plan, g).get();
          if (std::memcmp(g.data(), ref.data(), g.size_bytes()) != 0) ++mismatches;
        } catch (...) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(eng.stats().jobs_completed, eng.stats().jobs_submitted);
  // Six distinct recipes were compiled (plus the serial reference); the
  // other 6*8 - 6 compiles were cache hits.
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.plans_compiled + s.plan_cache_hits, 1u + kThreads * kIterations);
  EXPECT_GT(s.plan_cache_hits, 0u);
}

// --- profiling counters (stats-before-set_value audit) -------------------

TEST(EngineStatsAudit, ProfileSamplesNeverLagAJoinedFuture) {
  // Same contract as jobs_completed: the sample counter is bumped
  // (release) before the promise resolves, so a caller that joined N
  // futures must observe >= N samples — checked immediately after every
  // single join, which is exactly where a stats-after-set_value ordering
  // would flake.
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec(32);
  const Plan plan = eng.compile(spec, core::TunableParams{4, -1, -1, 1});

  constexpr int kJobs = 12;
  std::vector<core::Grid> grids;
  grids.reserve(kJobs);
  std::vector<std::future<core::RunResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    grids.emplace_back(spec.dim, spec.elem_bytes);
    futures.push_back(eng.submit(plan, grids.back()));
  }
  std::uint64_t joined = 0;
  for (auto& f : futures) {
    f.get();
    ++joined;
    EXPECT_GE(eng.stats().profile_samples_recorded, joined);
  }
  EXPECT_EQ(eng.stats().profile_samples_recorded, static_cast<std::uint64_t>(kJobs));

  // Synchronous run() counts too, and flushes straight through.
  core::Grid g(spec.dim, spec.elem_bytes);
  eng.run(plan, g);
  const EngineStats after = eng.stats();
  EXPECT_EQ(after.profile_samples_recorded, static_cast<std::uint64_t>(kJobs) + 1);
  EXPECT_GE(after.profile_flushes, 1u);

  // Every buffered sample lands in the store on an explicit flush.
  eng.flush_profiles();
  EXPECT_EQ(eng.profile_store().samples_recorded(), static_cast<std::uint64_t>(kJobs) + 1);
}

}  // namespace
}  // namespace wavetune::api
