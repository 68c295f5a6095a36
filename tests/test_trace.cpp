#include "ocl/trace.hpp"

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/executor.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::ocl {
namespace {

TEST(Trace, EmptyTrace) {
  Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.span_ns(), 0.0);
  EXPECT_EQ(t.render_gantt(), "(empty trace)\n");
}

TEST(Trace, CountsAndTotals) {
  Trace t;
  t.add({0, CommandKind::Kernel, 0.0, 10.0, 0, 5});
  t.add({1, CommandKind::Kernel, 0.0, 20.0, 0, 5});
  t.add({0, CommandKind::HostToDevice, 20.0, 25.0, 64, 0});
  EXPECT_EQ(t.count(CommandKind::Kernel), 2u);
  EXPECT_EQ(t.count(CommandKind::Kernel, 0), 1u);
  EXPECT_EQ(t.count(CommandKind::HostToDevice), 1u);
  EXPECT_EQ(t.count(CommandKind::DeviceToHost), 0u);
  EXPECT_DOUBLE_EQ(t.total_ns(CommandKind::Kernel), 30.0);
  EXPECT_DOUBLE_EQ(t.span_ns(), 25.0);
}

TEST(Trace, KindNames) {
  EXPECT_STREQ(to_string(CommandKind::Kernel), "kernel");
  EXPECT_STREQ(to_string(CommandKind::HostToDevice), "h2d");
  EXPECT_STREQ(to_string(CommandKind::DeviceToHost), "d2h");
}

TEST(Trace, GanttContainsLanes) {
  Trace t;
  t.add({0, CommandKind::Kernel, 0.0, 50.0, 0, 1});
  t.add({1, CommandKind::Kernel, 50.0, 100.0, 0, 1});
  t.add({0, CommandKind::HostToDevice, 0.0, 10.0, 8, 0});
  t.add({0, CommandKind::DeviceToHost, 90.0, 100.0, 8, 0});
  const std::string g = t.render_gantt(40);
  EXPECT_NE(g.find("gpu0"), std::string::npos);
  EXPECT_NE(g.find("gpu1"), std::string::npos);
  EXPECT_NE(g.find("pcie"), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);
  EXPECT_NE(g.find('v'), std::string::npos);
  EXPECT_NE(g.find('^'), std::string::npos);
}

TEST(Trace, LogListsRecords) {
  Trace t;
  t.add({2, CommandKind::HostToDevice, 0.0, 1000.0, 4096, 0});
  const std::string log = t.render_log();
  EXPECT_NE(log.find("gpu2 h2d"), std::string::npos);
  EXPECT_NE(log.find("4096 B"), std::string::npos);
}

class ExecutorTraceTest : public ::testing::Test {
protected:
  core::HybridExecutor ex_{sim::make_i7_2600k(), 1};
  core::InputParams in_{64, 200.0, 1};
};

TEST_F(ExecutorTraceTest, KernelCountMatchesBreakdown) {
  Trace trace;
  const auto r = ex_.estimate(in_, core::plan_phases(in_, core::TunableParams{4, 20, 3, 1}), &trace);
  EXPECT_EQ(trace.count(CommandKind::Kernel), r.breakdown.kernel_launches());
}

TEST_F(ExecutorTraceTest, SingleGpuTransfersAreTwoBulkMoves) {
  Trace trace;
  ex_.estimate(in_, core::plan_phases(in_, core::TunableParams{4, 20, -1, 1}), &trace);
  // Paper §2.1: "data is transferred from/to CPU only twice".
  EXPECT_EQ(trace.count(CommandKind::HostToDevice), 1u);
  EXPECT_EQ(trace.count(CommandKind::DeviceToHost), 1u);
}

TEST_F(ExecutorTraceTest, SwapLegsAppearAsPairedTransfers) {
  Trace trace;
  const auto r = ex_.estimate(in_, core::plan_phases(in_, core::TunableParams{4, 20, 2, 1}), &trace);
  // Dual GPU: 2 initial h2d + 2 final d2h + one (d2h + h2d) pair per swap.
  EXPECT_EQ(trace.count(CommandKind::HostToDevice), 2u + r.breakdown.swap_count());
  EXPECT_EQ(trace.count(CommandKind::DeviceToHost), 2u + r.breakdown.swap_count());
}

TEST_F(ExecutorTraceTest, PerDeviceIntervalsDoNotOverlap) {
  Trace trace;
  ex_.estimate(in_, core::plan_phases(in_, core::TunableParams{4, 30, 4, 1}), &trace);
  // Commands on one in-order device queue must not overlap in time.
  for (std::size_t dev = 0; dev < 2; ++dev) {
    std::vector<TraceRecord> mine;
    for (const auto& rec : trace.records()) {
      if (rec.device == dev) mine.push_back(rec);
    }
    std::sort(mine.begin(), mine.end(),
              [](const TraceRecord& a, const TraceRecord& b) { return a.start_ns < b.start_ns; });
    for (std::size_t i = 1; i < mine.size(); ++i) {
      EXPECT_GE(mine[i].start_ns, mine[i - 1].end_ns - 1e-9)
          << "device " << dev << " record " << i;
    }
  }
}

TEST_F(ExecutorTraceTest, SpanMatchesGpuPhase) {
  Trace trace;
  const auto r = ex_.estimate(in_, core::plan_phases(in_, core::TunableParams{4, 30, 2, 1}), &trace);
  ASSERT_EQ(r.breakdown.phases.size(), 3u);
  EXPECT_EQ(r.breakdown.phases[1].device, core::PhaseDevice::kGpuMulti);
  EXPECT_DOUBLE_EQ(trace.span_ns(), r.breakdown.phases[1].ns);
}

TEST_F(ExecutorTraceTest, FunctionalRunProducesIdenticalTrace) {
  const auto spec = apps::make_synthetic_spec([] {
    apps::SyntheticParams sp;
    sp.dim = 64;
    sp.tsize = 200.0;
    sp.dsize = 1;
    sp.functional_iters = 2;
    return sp;
  }());
  Trace t_run;
  Trace t_est;
  core::Grid g(spec.dim, spec.elem_bytes);
  const core::TunableParams p{4, 20, 2, 1};
  ex_.run(spec, core::plan_phases(spec.inputs(), p), g, &t_run);
  ex_.estimate(in_, core::plan_phases(in_, p), &t_est);
  ASSERT_EQ(t_run.size(), t_est.size());
  for (std::size_t i = 0; i < t_run.size(); ++i) {
    EXPECT_EQ(t_run.records()[i].device, t_est.records()[i].device) << i;
    EXPECT_EQ(t_run.records()[i].kind, t_est.records()[i].kind) << i;
    EXPECT_DOUBLE_EQ(t_run.records()[i].start_ns, t_est.records()[i].start_ns) << i;
    EXPECT_DOUBLE_EQ(t_run.records()[i].end_ns, t_est.records()[i].end_ns) << i;
  }
}

TEST_F(ExecutorTraceTest, CpuOnlyLeavesTraceEmpty) {
  Trace trace;
  ex_.estimate(in_, core::plan_phases(in_, core::TunableParams{4, -1, -1, 1}), &trace);
  EXPECT_TRUE(trace.empty());
}

}  // namespace
}  // namespace wavetune::ocl
