// The benchmark's own tests: percentile math (including refusing an
// unresolved tail), the base of each derived ratio, traced-span nesting,
// and the workload tuples' validity checks.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace pb = perfbench;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

TEST(Percentile, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(pb::median({7.0}), 7.0);
}

TEST(Percentile, LinearInterpolationBetweenRanks) {
  const std::vector<double> v = one_to(11);  // 1..11
  EXPECT_DOUBLE_EQ(pb::quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pb::quantile(v, 1.0), 11.0);
  EXPECT_DOUBLE_EQ(pb::quantile(v, 0.25), 3.5);
  EXPECT_DOUBLE_EQ(pb::quantile(v, 0.95), 10.5);
  EXPECT_DOUBLE_EQ(pb::quantile({10.0, 20.0}, 0.3), 13.0);
}

TEST(Percentile, UnsortedInputAndBadArguments) {
  EXPECT_DOUBLE_EQ(pb::quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.5), 3.0);
  EXPECT_THROW(pb::quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(pb::quantile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(pb::quantile({1.0}, -0.1), std::invalid_argument);
}

TEST(Percentile, P95RefusedWithFewerThanTenSamplesBeyond) {
  // 181 samples 1..181: the interpolated p95 is 172, with only 9 above it.
  EXPECT_FALSE(pb::tail_quantile(one_to(181), 0.95, 10).has_value());
  // 182 samples: p95 = 172.95 and exactly 10 samples (173..182) lie beyond.
  const std::optional<double> p95 = pb::tail_quantile(one_to(182), 0.95, 10);
  ASSERT_TRUE(p95.has_value());
  EXPECT_DOUBLE_EQ(*p95, 172.95);
  EXPECT_EQ(pb::count_beyond(one_to(182), *p95), 10u);
  EXPECT_FALSE(pb::tail_quantile({}, 0.95, 10).has_value());
}

TEST(Percentile, TiesAboveTheTailCountOnlyWhenStrictlyBeyond) {
  // 300 samples whose top 20 are all equal: the p95 value equals them, so
  // none lies strictly beyond it and the tail is unresolved.
  std::vector<double> v = one_to(280);
  v.insert(v.end(), 20, 1000.0);
  EXPECT_FALSE(pb::tail_quantile(v, 0.95, 10).has_value());
}

TEST(Ratios, ShareIsZeroWithoutABase) {
  EXPECT_DOUBLE_EQ(pb::share(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(pb::share(3.0, 0.0), 0.0);
}

TEST(Ratios, MeanGroupSizeIsJobsOverGroups) {
  // 4 lone jobs, 2 pairs, 1 group of 8+ (counted at its lower edge, 8):
  // (4*1 + 2*2 + 1*8) jobs / 7 groups.
  std::array<std::uint64_t, 8> groups{4, 2, 0, 0, 0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(pb::mean_group_size(groups), 16.0 / 7.0);
  EXPECT_DOUBLE_EQ(pb::mean_group_size(std::array<std::uint64_t, 8>{}), 0.0);
}

TEST(Ratios, ParallelEfficiencyBaseIsKernelCostTimesThreads) {
  // 10 ns/cell single-threaded; 2 threads at 5 ns/cell is perfect.
  EXPECT_DOUBLE_EQ(pb::parallel_efficiency(10.0, 5.0, 2), 1.0);
  EXPECT_DOUBLE_EQ(pb::parallel_efficiency(10.0, 10.0, 2), 0.5);
}

TEST(Ratios, SpeedupAndPctOfBestUseThePlanAsBase) {
  EXPECT_DOUBLE_EQ(pb::speedup(300.0, 100.0), 3.0);
  // Tuner's plan takes 125 ns where the best found takes 100 ns: 80%.
  EXPECT_DOUBLE_EQ(pb::pct_of_best(100.0, 125.0), 80.0);
  EXPECT_DOUBLE_EQ(pb::pct_of_best(100.0, 100.0), 100.0);
}

TEST(Ratios, OverlapBaseIsTheSerializedSchedule) {
  EXPECT_DOUBLE_EQ(pb::overlap_fraction(75.0, 100.0), 0.25);
  EXPECT_DOUBLE_EQ(pb::overlap_fraction(0.0, 0.0), 0.0);
}

TEST(Spans, ChildrenNestWithinParents) {
  pb::SpanLog log;
  log.set_enabled(true);
  {
    auto job = log.open("job", "client", 1);
    {
      auto submit = log.open("api.submit", "api", 1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    auto wait = log.open("api.wait", "api", 1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const auto& spans = log.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_TRUE(pb::spans_nest(spans));
  EXPECT_GE(spans[2].end_ns - spans[2].start_ns, 50000);
}

TEST(Spans, NestingViolationsAreDetected) {
  std::vector<pb::Span> spans(2);
  spans[0] = {1, 0, 0, "parent", "client", 100, 200};
  spans[1] = {2, 1, 0, "child", "api", 150, 250};  // ends after its parent
  EXPECT_FALSE(pb::spans_nest(spans));
  spans[1] = {2, 1, 0, "child", "api", 50, 150};  // starts before its parent
  EXPECT_FALSE(pb::spans_nest(spans));
  spans[1] = {2, 9, 0, "child", "api", 150, 160};  // unknown parent
  EXPECT_FALSE(pb::spans_nest(spans));
  spans[1] = {2, 1, 0, "child", "api", 150, 160};
  EXPECT_TRUE(pb::spans_nest(spans));
}

TEST(Spans, DisabledLogRecordsNothing) {
  pb::SpanLog log;
  {
    auto s = log.open("job", "client");
    auto child = log.open("api.run", "api");
  }
  EXPECT_TRUE(log.spans().empty());
}

TEST(Spans, ChromeTraceHasOneCompleteEventPerSpan) {
  pb::SpanLog log;
  log.set_enabled(true);
  { auto s = log.open("job", "client", 3); }
  const auto json = log.chrome_trace();
  const auto& events = json.as_object().at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].as_object().at("ph").as_string(), "X");
  EXPECT_EQ(events[0].as_object().at("cat").as_string(), "client");
}

TEST(Workloads, EveryWorkloadIsValidAndSelfDescribing) {
  ASSERT_EQ(pb::all_workloads().size(), 2u);
  for (const pb::WorkloadParams& w : pb::all_workloads()) {
    EXPECT_TRUE(w.isValid()) << w;
    std::ostringstream os;
    os << w;
    EXPECT_NE(os.str().find(w.name), std::string::npos);
    EXPECT_NE(os.str().find("valid=yes"), std::string::npos);
    EXPECT_NE(os.str().find("clients=1, queue_workers=1, pool_workers=1"), std::string::npos);
    EXPECT_EQ(pb::find_workload(w.name), &w);
  }
  EXPECT_EQ(pb::find_workload("no-such-workload"), nullptr);
}

TEST(Workloads, ValidityCheckRejectsBrokenTuples) {
  pb::WorkloadParams w = *pb::find_workload("solve-cpu");
  w.pattern.clear();
  EXPECT_FALSE(w.isValid());
  w = *pb::find_workload("offload-stream");
  w.recipes[1].grain = 0.0;  // nash needs fictitious-play rounds
  EXPECT_FALSE(w.isValid());
  w = *pb::find_workload("solve-cpu");
  w.pattern.push_back(99);  // no such recipe
  EXPECT_FALSE(w.isValid());
  w = *pb::find_workload("offload-stream");
  w.recipes[0].cap_divisor = 4;  // a residency cap on a quad-GPU band
  EXPECT_FALSE(w.isValid());
}
