// EngineOptions validation (api::EngineConfigError) and the engine-level
// out-of-core surface: residency-capped compiles reshape backend-planned
// programs onto the strip axis (and salt the plan cache), run_checkpointed
// persists strip-boundary snapshots, resume_from_file reproduces the
// interrupted run bit-identically, and the stats counters audit both.
//
// Previously EngineOptions was accepted silently whatever it carried: a
// zero queue_capacity wedged the first submit forever and a zero
// batch_limit made the batch former misbehave. These are now loud,
// typed, constructor-time errors.
#include "api/engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "api/errors.hpp"
#include "apps/synthetic.hpp"
#include "core/checkpoint.hpp"
#include "core/streaming.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::api {
namespace {

core::WavefrontSpec small_spec(std::size_t dim = 48, double tsize = 25.0, int dsize = 2) {
  apps::SyntheticParams p;
  p.dim = dim;
  p.tsize = tsize;
  p.dsize = dsize;
  p.functional_iters = 4;
  return apps::make_synthetic_spec(p);
}

EngineOptions small_engine() {
  EngineOptions o;
  o.pool_workers = 2;
  o.queue_workers = 1;
  o.queue_capacity = 8;
  return o;
}

bool grids_equal(const core::Grid& a, const core::Grid& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// --- constructor validation ----------------------------------------------

TEST(EngineOptionsValidation, ZeroQueueCapacityIsATypedConstructorError) {
  EngineOptions o = small_engine();
  o.queue_capacity = 0;
  EXPECT_THROW(Engine(sim::make_i7_2600k(), o), EngineConfigError);
}

TEST(EngineOptionsValidation, ZeroBatchLimitIsATypedConstructorError) {
  EngineOptions o = small_engine();
  o.batch_limit = 0;
  EXPECT_THROW(Engine(sim::make_i7_2600k(), o), EngineConfigError);
  o.batch_limit = 1;  // 1 = fusion disabled, perfectly valid
  Engine ok(sim::make_i7_2600k(), o);
}

TEST(EngineOptionsValidation, EngineConfigErrorIsAlsoAnInvalidArgument) {
  EngineOptions o = small_engine();
  o.queue_capacity = 0;
  EXPECT_THROW(Engine(sim::make_i7_2600k(), o), std::invalid_argument);
}

// --- residency-capped compiles -------------------------------------------

TEST(EngineStreaming, CappedCompileStreamsThePlanAndStaysBitIdentical) {
  const auto spec = small_spec();
  const std::size_t dim = spec.dim;
  Engine eng(sim::make_i7_2600k(), small_engine());
  const core::TunableParams params{4, 30, -1, 5};  // single-GPU band

  const Plan whole = eng.compile(spec, params);
  CompileOptions capped;
  capped.params = params;
  capped.max_resident_bytes = core::whole_grid_resident_bytes(dim, spec.elem_bytes) / 4;
  const Plan streamed = eng.compile(spec, capped);

  // The cap reshaped the plan onto the strip axis...
  bool saw_strips = false;
  for (const core::PhaseDesc& ph : streamed.program().phases) {
    if (ph.streamed()) saw_strips = true;
    if (ph.device == core::PhaseDevice::kGpuSingle) {
      EXPECT_LE(core::streamed_resident_bytes(dim, spec.elem_bytes, ph.strip_rows,
                                              ph.strip_buffers),
                *capped.max_resident_bytes);
    }
  }
  EXPECT_TRUE(saw_strips);
  // ...and salted the cache: capped and uncapped compiles never alias.
  EXPECT_FALSE(whole.shares_state_with(streamed));
  EXPECT_TRUE(eng.compile(spec, capped).shares_state_with(streamed));

  core::Grid a(dim, spec.elem_bytes), b(dim, spec.elem_bytes);
  eng.run(whole, a);
  eng.run(streamed, b);
  EXPECT_TRUE(grids_equal(a, b));
}

TEST(EngineStreaming, EngineWideCapAppliesWithoutPerCompileOptions) {
  const auto spec = small_spec();
  EngineOptions o = small_engine();
  o.max_resident_bytes = core::whole_grid_resident_bytes(spec.dim, spec.elem_bytes) / 4;
  Engine eng(sim::make_i7_2600k(), o);
  const Plan plan = eng.compile(spec, core::TunableParams{4, 30, -1, 5});
  bool saw_strips = false;
  for (const core::PhaseDesc& ph : plan.program().phases) {
    if (ph.streamed()) saw_strips = true;
  }
  EXPECT_TRUE(saw_strips);
  // A per-compile 0 opts back out of the engine-wide cap.
  CompileOptions uncapped;
  uncapped.params = core::TunableParams{4, 30, -1, 5};
  uncapped.max_resident_bytes = 0;
  for (const core::PhaseDesc& ph : eng.compile(spec, uncapped).program().phases) {
    EXPECT_FALSE(ph.streamed());
  }
}

// --- checkpoint / resume through the session API -------------------------

TEST(EngineStreaming, RunCheckpointedThenResumeFromFileReproducesTheGrid) {
  const auto spec = small_spec();
  const std::size_t dim = spec.dim;
  Engine eng(sim::make_i7_2600k(), small_engine());
  CompileOptions copts;
  copts.params = core::TunableParams{4, 30, -1, 5};
  copts.max_resident_bytes = core::whole_grid_resident_bytes(dim, spec.elem_bytes) / 4;
  const Plan plan = eng.compile(spec, copts);

  const std::string path = "test_engine_options_ckpt.bin";
  CheckpointPolicy policy;
  policy.path = path;
  core::Grid full(dim, spec.elem_bytes);
  const core::RunResult full_r = eng.run_checkpointed(plan, full, policy);
  EXPECT_GT(eng.stats().checkpoints_written, 0u);

  // The file left behind is the LAST checkpoint; a process killed
  // mid-run would hold an earlier one — resume is the same call either
  // way. The resumed run restores the grid, skips covered work, and
  // reports the identical simulated timing.
  core::Grid resumed(dim, spec.elem_bytes);
  resumed.fill_poison();
  const core::RunResult res_r = eng.resume_from_file(plan, resumed, path);
  EXPECT_TRUE(grids_equal(full, resumed));
  EXPECT_DOUBLE_EQ(res_r.rtime_ns, full_r.rtime_ns);
  EXPECT_EQ(eng.stats().jobs_resumed, 1u);

  // Resuming under a different program shape is a typed refusal.
  const Plan other = eng.compile(spec, core::TunableParams{4, 30, -1, 5});
  core::Grid g(dim, spec.elem_bytes);
  EXPECT_THROW(eng.resume_from_file(other, g, path), core::CheckpointError);

  std::remove(path.c_str());
  EXPECT_THROW(eng.resume_from_file(plan, g, path), core::CheckpointError);
}

TEST(EngineStreaming, RunCheckpointedRequiresAPath) {
  Engine eng(sim::make_i7_2600k(), small_engine());
  const auto spec = small_spec();
  const Plan plan = eng.compile(spec, core::TunableParams{4, -1, -1, 1});
  core::Grid g(spec.dim, spec.elem_bytes);
  EXPECT_THROW(eng.run_checkpointed(plan, g, CheckpointPolicy{}), std::invalid_argument);
}

}  // namespace
}  // namespace wavetune::api
