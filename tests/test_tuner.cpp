#include "autotune/tuner.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "sim/system_profile.hpp"

namespace wavetune::autotune {
namespace {

/// Shared fixture: one trained tuner per system (training is the slow part).
class TunerTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    {
      ExhaustiveSearch search(sim::make_i7_2600k(), ParamSpace::reduced());
      i7_results_ = new std::vector<InstanceResult>(search.sweep());
      i7_tuner_ = new Autotuner(Autotuner::train(*i7_results_, sim::make_i7_2600k()));
    }
    {
      ExhaustiveSearch search(sim::make_i3_540(), ParamSpace::reduced());
      i3_results_ = new std::vector<InstanceResult>(search.sweep());
      i3_tuner_ = new Autotuner(Autotuner::train(*i3_results_, sim::make_i3_540()));
    }
  }
  static void TearDownTestSuite() {
    delete i7_tuner_;
    delete i7_results_;
    delete i3_tuner_;
    delete i3_results_;
    i7_tuner_ = i3_tuner_ = nullptr;
    i7_results_ = i3_results_ = nullptr;
  }

  static std::vector<InstanceResult>* i7_results_;
  static Autotuner* i7_tuner_;
  static std::vector<InstanceResult>* i3_results_;
  static Autotuner* i3_tuner_;
};

std::vector<InstanceResult>* TunerTest::i7_results_ = nullptr;
Autotuner* TunerTest::i7_tuner_ = nullptr;
std::vector<InstanceResult>* TunerTest::i3_results_ = nullptr;
Autotuner* TunerTest::i3_tuner_ = nullptr;

TEST_F(TunerTest, TrainRejectsEmptyInput) {
  EXPECT_THROW(Autotuner::train({}, sim::make_i3_540()), std::invalid_argument);
}

TEST_F(TunerTest, RecordsSystemIdentity) {
  EXPECT_EQ(i7_tuner_->system_name(), "i7-2600K");
  EXPECT_EQ(i7_tuner_->system_gpus(), 4);
  EXPECT_EQ(i3_tuner_->system_name(), "i3-540");
  EXPECT_EQ(i3_tuner_->system_gpus(), 1);
}

TEST_F(TunerTest, PredictionsAreNormalized) {
  for (double tsize : {10.0, 100.0, 1000.0, 6000.0}) {
    const Prediction p = i7_tuner_->predict(core::InputParams{100, tsize, 1});
    EXPECT_TRUE(p.params.is_normalized(100)) << tsize;
  }
}

TEST_F(TunerTest, SingleGpuSystemNeverPredictsDual) {
  for (double tsize : {10.0, 100.0, 1000.0, 6000.0}) {
    for (std::size_t dim : {240u, 480u, 1000u}) {
      const Prediction p = i3_tuner_->predict(core::InputParams{dim, tsize, 1});
      EXPECT_LE(p.params.gpu_count(), 1) << p.params.describe();
    }
  }
}

TEST_F(TunerTest, HighGranularityPredictsGpuUse) {
  const Prediction p = i7_tuner_->predict(core::InputParams{1000, 8000.0, 1});
  EXPECT_TRUE(p.params.uses_gpu()) << p.params.describe();
}

TEST_F(TunerTest, LowGranularityPredictsCpuOnly) {
  const Prediction p = i7_tuner_->predict(core::InputParams{240, 10.0, 1});
  EXPECT_FALSE(p.params.uses_gpu()) << p.params.describe();
}

TEST_F(TunerTest, GateMarksParallelWorthwhileAtScale) {
  const Prediction p = i7_tuner_->predict(core::InputParams{1000, 1000.0, 1});
  EXPECT_TRUE(p.parallel);
}

TEST_F(TunerTest, DescribeShowsAllFiveModels) {
  const std::string d = i7_tuner_->describe();
  EXPECT_NE(d.find("parallel gate"), std::string::npos);
  EXPECT_NE(d.find("gpu-use"), std::string::npos);
  EXPECT_NE(d.find("cpu-tile"), std::string::npos);
  EXPECT_NE(d.find("band"), std::string::npos);
  EXPECT_NE(d.find("halo"), std::string::npos);
  EXPECT_NE(d.find("M5"), std::string::npos);
}

TEST_F(TunerTest, HaloModelIsTheFig9Artefact) {
  const std::string tree =
      i7_tuner_->halo_model().describe({"dim", "tsize", "dsize", "cpu_tile", "band"});
  EXPECT_NE(tree.find("LM1"), std::string::npos);
}

TEST_F(TunerTest, JsonRoundtripPreservesPredictions) {
  const Autotuner back = Autotuner::from_json(i7_tuner_->to_json());
  for (double tsize : {10.0, 500.0, 6000.0}) {
    const core::InputParams in{480, tsize, 3};
    const Prediction a = i7_tuner_->predict(in);
    const Prediction b = back.predict(in);
    EXPECT_EQ(a.parallel, b.parallel);
    EXPECT_EQ(a.params, b.params) << tsize;
  }
}

TEST_F(TunerTest, SaveLoadFile) {
  const std::string path = ::testing::TempDir() + "wavetune_tuner_test.json";
  i7_tuner_->save(path);
  const Autotuner back = Autotuner::load(path);
  EXPECT_EQ(back.system_name(), i7_tuner_->system_name());
  const core::InputParams in{1000, 2000.0, 1};
  EXPECT_EQ(back.predict(in).params, i7_tuner_->predict(in).params);
  std::remove(path.c_str());
}

TEST_F(TunerTest, AchievesMostOfExhaustiveBestOnHoldout) {
  // The paper's headline: tuned configurations reach ~98% of the
  // exhaustive-search speed-up. On the reduced space, require >= 80% of
  // the best speed-up on the held-out instances, on geometric average.
  core::HybridExecutor ex(sim::make_i7_2600k(), 1);
  TrainingOptions opt;
  const TrainingTables tables = build_training(*i7_results_, opt);
  double log_ratio_sum = 0.0;
  std::size_t n = 0;
  for (const InstanceResult& res : tables.holdout) {
    const auto best = res.best();
    if (!best) continue;
    const Prediction pred = i7_tuner_->predict(res.instance);
    const double tuned_ns =
        ex.estimate(res.instance, core::plan_phases(res.instance, pred.params)).rtime_ns;
    const double best_speedup = res.serial_ns / best->rtime_ns;
    const double tuned_speedup = res.serial_ns / tuned_ns;
    log_ratio_sum += std::log(tuned_speedup / best_speedup);
    ++n;
  }
  ASSERT_GT(n, 0u);
  const double geo_mean_ratio = std::exp(log_ratio_sum / static_cast<double>(n));
  EXPECT_GE(geo_mean_ratio, 0.8) << "tuner reaches only " << geo_mean_ratio * 100
                                 << "% of exhaustive best";
}

}  // namespace
}  // namespace wavetune::autotune
