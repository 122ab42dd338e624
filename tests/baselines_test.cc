// Baseline models: forward contracts, gradient flow, registry coverage.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "baselines/gru_forecaster.h"
#include "baselines/linear_forecaster.h"
#include "baselines/lstnet.h"
#include "baselines/naive.h"
#include "baselines/nbeats.h"
#include "baselines/registry.h"
#include "baselines/timesnet_lite.h"
#include "baselines/transformer_forecaster.h"
#include "baselines/ts2vec.h"
#include "data/dataset_registry.h"
#include "data/time_features.h"

namespace conformer::models {
namespace {

data::WindowConfig SmallWindow() {
  return {.input_len = 16, .label_len = 8, .pred_len = 8};
}

data::Batch SmallBatch() {
  data::TimeSeries ts = data::MakeDataset("etth1", 0.07, 31).value();
  data::DatasetSplits splits = data::MakeSplits(ts, SmallWindow());
  return splits.train.GetRange(0, 4);
}

// Parameterized over all registry names: every model obeys the Forecaster
// contract.
class RegistryModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryModelTest, ForwardShapeContract) {
  data::Batch batch = SmallBatch();
  auto model = MakeForecaster(GetParam(), SmallWindow(), batch.x.size(2));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  Tensor pred = model.value()->Forward(batch);
  EXPECT_EQ(pred.shape(), (Shape{4, 8, batch.x.size(2)}));
}

TEST_P(RegistryModelTest, LossIsFiniteAndTrainsParameters) {
  data::Batch batch = SmallBatch();
  auto model = MakeForecaster(GetParam(), SmallWindow(), batch.x.size(2));
  ASSERT_TRUE(model.ok());
  Tensor loss = model.value()->Loss(batch);
  EXPECT_TRUE(std::isfinite(loss.item()));
  loss.Backward();
  int64_t with_grad = 0;
  for (Tensor& p : model.value()->Parameters()) with_grad += p.has_grad();
  if (model.value()->NumParameters() > 0) {
    EXPECT_GT(with_grad, 0);
  } else {
    SUCCEED() << "parameter-free reference model";
  }
}

TEST_P(RegistryModelTest, EvalIsDeterministic) {
  data::Batch batch = SmallBatch();
  auto model = MakeForecaster(GetParam(), SmallWindow(), batch.x.size(2));
  ASSERT_TRUE(model.ok());
  model.value()->SetTraining(false);
  NoGradGuard guard;
  Tensor a = model.value()->Forward(batch);
  Tensor b = model.value()->Forward(batch);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
}

INSTANTIATE_TEST_SUITE_P(AllModels, RegistryModelTest,
                         ::testing::ValuesIn(AvailableModels()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(RegistryTest, UnknownNameFails) {
  auto r = MakeForecaster("not_a_model", SmallWindow(), 3);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, NamesRoundTrip) {
  data::Batch batch = SmallBatch();
  auto informer = MakeForecaster("informer", SmallWindow(), batch.x.size(2));
  ASSERT_TRUE(informer.ok());
  EXPECT_EQ(informer.value()->name(), "Informer");
  auto conformer = MakeForecaster("conformer", SmallWindow(), batch.x.size(2));
  ASSERT_TRUE(conformer.ok());
  EXPECT_EQ(conformer.value()->name(), "Conformer");
}

TEST(RegistryTest, LookupIsCaseInsensitive) {
  data::Batch batch = SmallBatch();
  auto conformer = MakeForecaster("CONFORMER", SmallWindow(), batch.x.size(2));
  ASSERT_TRUE(conformer.ok()) << conformer.status().ToString();
  EXPECT_EQ(conformer.value()->name(), "Conformer");
}

// -- model-specific behaviour ------------------------------------------------

TEST(GruForecasterTest, LearnsConstantSeries) {
  // A constant (standardized to zero) series: a few steps of training should
  // push predictions toward zero.
  data::WindowConfig cfg = SmallWindow();
  GruForecaster model(cfg, 2, 8, 1);

  std::vector<int64_t> ts(64);
  std::vector<float> vals(64 * 2, 0.0f);
  for (int64_t i = 0; i < 64; ++i) ts[i] = i * 3600;
  data::TimeSeries series("zeros", std::move(ts), std::move(vals), 2);
  data::WindowDataset ds(series, cfg);
  data::Batch batch = ds.GetRange(0, 8);

  // Initial predictions are nonzero; train a few steps with plain SGD.
  std::vector<Tensor> params = model.Parameters();
  for (int step = 0; step < 30; ++step) {
    for (Tensor& p : params) p.ZeroGrad();
    Tensor loss = model.Loss(batch);
    loss.Backward();
    for (Tensor& p : params) {
      if (!p.has_grad()) continue;
      for (int64_t j = 0; j < p.numel(); ++j) {
        p.data()[j] -= 0.1f * p.grad_data()[j];
      }
    }
  }
  EXPECT_LT(model.Loss(batch).item(), 0.01f);
}

TEST(LstNetTest, RequiresInputLongerThanKernel) {
  EXPECT_DEATH(LstNet({.input_len = 4, .label_len = 2, .pred_len = 2}, 3,
                      8, /*kernel=*/6, 8),
               "");
}

TEST(NBeatsTest, BlocksRefineResidually) {
  data::Batch batch = SmallBatch();
  NBeats one_block(SmallWindow(), batch.x.size(2), 1, 16);
  NBeats three_blocks(SmallWindow(), batch.x.size(2), 3, 16);
  EXPECT_GT(three_blocks.NumParameters(), one_block.NumParameters() * 2);
}

TEST(Ts2VecTest, ContrastiveLossDecreasesUnderTraining) {
  data::Batch batch = SmallBatch();
  Ts2Vec model(SmallWindow(), batch.x.size(2), 8);
  std::vector<Tensor> params = model.Parameters();
  const float initial = model.Loss(batch).item();
  for (int step = 0; step < 20; ++step) {
    for (Tensor& p : params) p.ZeroGrad();
    model.Loss(batch).Backward();
    for (Tensor& p : params) {
      if (!p.has_grad()) continue;
      for (int64_t j = 0; j < p.numel(); ++j) {
        p.data()[j] -= 0.05f * p.grad_data()[j];
      }
    }
  }
  EXPECT_LT(model.Loss(batch).item(), initial);
}

TEST(NaiveTest, RepeatsLastValue) {
  data::Batch batch = SmallBatch();
  NaiveForecaster model(SmallWindow(), batch.x.size(2));
  Tensor pred = model.Forward(batch);
  const int64_t lx = batch.x.size(1);
  for (int64_t t = 0; t < 8; ++t) {
    EXPECT_EQ(pred.at({0, t, 0}), batch.x.at({0, lx - 1, 0}));
  }
}

TEST(LinearForecasterTest, ClosedFormFitBeatsRandomInit) {
  data::TimeSeries ts = data::MakeDataset("etth1", 0.07, 33).value();
  data::DatasetSplits splits = data::MakeSplits(ts, SmallWindow());
  LinearForecaster model(SmallWindow(), ts.dims());

  auto mse_on = [&](const data::WindowDataset& ds) {
    NoGradGuard guard;
    data::Batch batch = ds.GetRange(0, std::min<int64_t>(ds.size(), 32));
    const int64_t total = batch.y.size(1);
    Tensor target = Slice(batch.y, 1, total - 8, total);
    Tensor diff = Sub(model.Forward(batch), target);
    return Mean(Mul(diff, diff)).item();
  };

  const float before = mse_on(splits.test);
  ASSERT_TRUE(model.FitLeastSquares(splits.train).ok());
  const float after = mse_on(splits.test);
  EXPECT_LT(after, before);
  EXPECT_LT(after, 1.5f);  // sane error on standardized data
}

TEST(LinearForecasterTest, ClosedFormInterpolatesNoiselessLinearData) {
  // Target = previous value (identity dynamics): the least-squares fit
  // should achieve near-zero training error.
  const data::WindowConfig cfg{.input_len = 8, .label_len = 4, .pred_len = 2};
  std::vector<int64_t> stamps(80);
  std::vector<float> vals(80);
  for (int64_t i = 0; i < 80; ++i) {
    stamps[i] = i * 3600;
    vals[i] = std::sin(0.3f * static_cast<float>(i));
  }
  data::TimeSeries ts("sine", std::move(stamps), std::move(vals), 1);
  data::WindowDataset ds(ts, cfg);
  LinearForecaster model(cfg, 1);
  ASSERT_TRUE(model.FitLeastSquares(ds, 1e-8).ok());
  NoGradGuard guard;
  data::Batch batch = ds.GetRange(0, ds.size());
  const int64_t total = batch.y.size(1);
  Tensor target = Slice(batch.y, 1, total - cfg.pred_len, total);
  Tensor diff = Sub(model.Forward(batch), target);
  EXPECT_LT(Mean(Mul(diff, diff)).item(), 1e-4f);
}

TEST(LinearForecasterTest, FitFailsOnTinyDataset) {
  const data::WindowConfig cfg{.input_len = 4, .label_len = 2, .pred_len = 2};
  std::vector<int64_t> stamps(7);
  std::vector<float> vals(7, 1.0f);
  for (int64_t i = 0; i < 7; ++i) stamps[i] = i;
  data::TimeSeries ts("tiny", std::move(stamps), std::move(vals), 1);
  data::WindowDataset ds(ts, cfg);  // 2 windows
  LinearForecaster model(cfg, 1);
  // 2 windows >= 2 passes the row check but the fit itself must at least
  // not crash; with ridge it succeeds.
  EXPECT_TRUE(model.FitLeastSquares(ds, 1.0).ok());
}

TEST(TransformerForecasterTest, NamedConfigsMatchPaperSettings) {
  EXPECT_EQ(LongformerConfig().kind, attention::AttentionKind::kSlidingWindow);
  EXPECT_TRUE(InformerConfig().distill);
  EXPECT_TRUE(AutoformerConfig().decomposition);
  EXPECT_FALSE(AutoformerConfig().positional);
  EXPECT_EQ(ReformerConfig().attn.lsh_chunk, 24);
  EXPECT_EQ(LogTransConfig().kind, attention::AttentionKind::kLogSparse);
}

TEST(TransformerForecasterTest, DistillingHalvesMemoryLength) {
  // Informer-style encoder with 3 layers pools twice: the model must still
  // produce the full-length forecast.
  TransformerConfig config = InformerConfig();
  config.d_model = 8;
  config.n_heads = 2;
  config.enc_layers = 3;
  data::Batch batch = SmallBatch();
  TransformerForecaster model(config, SmallWindow(), batch.x.size(2));
  EXPECT_EQ(model.Forward(batch).shape(), (Shape{4, 8, batch.x.size(2)}));
}

TEST(ForecasterTest, ZeroLabelLengthWorks) {
  // DecoderInput degenerates to all zeros when label_len == 0; the models
  // must still produce the full horizon.
  data::TimeSeries ts = data::MakeDataset("etth1", 0.07, 32).value();
  data::WindowConfig cfg{.input_len = 16, .label_len = 0, .pred_len = 8};
  data::DatasetSplits splits = data::MakeSplits(ts, cfg);
  data::Batch batch = splits.train.GetRange(0, 2);
  for (const std::string& name : AvailableModels()) {
    models::ModelHyperParams params;
    params.d_model = 8;
    params.n_heads = 2;
    params.ma_kernel = 5;
    auto model = models::MakeForecaster(name, cfg, ts.dims(), params);
    ASSERT_TRUE(model.ok()) << name;
    Tensor pred = model.value()->Forward(batch);
    EXPECT_EQ(pred.shape(), (Shape{2, 8, ts.dims()})) << name;
    EXPECT_TRUE(std::isfinite(model.value()->Loss(batch).item())) << name;
  }
}

TEST(TimesNetLiteTest, SelectsDominantPeriodFromCleanSinusoid) {
  // A pure 3-cycles-per-window sinusoid: bin 3 dominates, period = 24/3 = 8.
  data::WindowConfig cfg{.input_len = 24, .label_len = 8, .pred_len = 8};
  TimesNetLite model(cfg, /*dims=*/1, /*d_model=*/8, /*top_k=*/2);
  std::vector<float> vals(24);
  for (int64_t t = 0; t < 24; ++t) {
    vals[t] = std::sin(2.0 * M_PI * 3.0 * t / 24.0);
  }
  Tensor row = Tensor::FromVector(std::move(vals), {1, 24, 1});
  const std::vector<fft::PeriodCandidate> periods = model.SelectPeriods(row);
  ASSERT_FALSE(periods.empty());
  EXPECT_EQ(periods[0].frequency, 3);
  EXPECT_EQ(periods[0].period, 8);
}

TEST(TimesNetLiteTest, RaggedPeriodStillMatchesShapeContract) {
  // input_len = 16 with a 3-cycle sinusoid selects period 16/3 = 5, which
  // does not divide the window: the ragged-tail zero-pad path must still
  // produce the contract shape.
  data::WindowConfig cfg{.input_len = 16, .label_len = 8, .pred_len = 8};
  TimesNetLite model(cfg, /*dims=*/2, /*d_model=*/8, /*top_k=*/1);
  std::vector<float> vals(16 * 2);
  for (int64_t t = 0; t < 16; ++t) {
    const float v = static_cast<float>(std::sin(2.0 * M_PI * 3.0 * t / 16.0));
    vals[t * 2] = v;
    vals[t * 2 + 1] = v;
  }
  Tensor x = Tensor::FromVector(std::move(vals), {1, 16, 2});
  const std::vector<fft::PeriodCandidate> periods = model.SelectPeriods(x);
  ASSERT_FALSE(periods.empty());
  EXPECT_EQ(periods[0].period, 5);  // 16 / 3, the ragged case.
  data::Batch batch;
  batch.x = x;
  EXPECT_EQ(model.Forward(batch).shape(), (Shape{1, 8, 2}));
}

TEST(ForecasterTest, TargetBlockIsSuffix) {
  data::Batch batch = SmallBatch();
  GruForecaster model(SmallWindow(), batch.x.size(2), 8, 1);
  Tensor loss_direct = MseLoss(model.Forward(batch),
                               Slice(batch.y, 1, batch.y.size(1) - 8,
                                     batch.y.size(1)));
  Tensor loss_api = model.Loss(batch);
  EXPECT_NEAR(loss_direct.item(), loss_api.item(), 1e-5);
}

// -- config validation -------------------------------------------------------
//
// These build many models from the process-wide GlobalRng(), so they form
// the last suite registered: gtest runs them after the tests whose outcome
// depends on their own initial weights.

// Every window, width and hyperparameter value that used to reach a CHECK in
// a constructor or in Predict (and so could abort a whole serving fleet
// from AddTenant) comes back as InvalidArgument, for every registry model.
TEST(ConfigValidationTest, BadConfigsReturnStatusForEveryModel) {
  struct BadConfig {
    std::string what;
    data::WindowConfig window = SmallWindow();
    int64_t dims = 3;
    ModelHyperParams params;
  };
  std::vector<BadConfig> bad(14);
  bad[0].what = "d_model % n_heads", bad[0].params.d_model = 30;
  bad[1].what = "n_heads = 0", bad[1].params.n_heads = 0;
  bad[2].what = "n_heads < 0", bad[2].params.n_heads = -2;
  bad[3].what = "d_model = 0", bad[3].params.d_model = 0;
  bad[4].what = "hidden = 0", bad[4].params.hidden = 0;
  bad[5].what = "ma_kernel = 0", bad[5].params.ma_kernel = 0;
  bad[6].what = "dropout = 1", bad[6].params.dropout = 1.0f;
  bad[7].what = "dropout < 0", bad[7].params.dropout = -0.1f;
  bad[8].what = "dims = 0", bad[8].dims = 0;
  bad[9].what = "input_len = 0", bad[9].window = {0, 0, 8};
  bad[10].what = "pred_len = 0", bad[10].window.pred_len = 0;
  bad[11].what = "pred_len < 0", bad[11].window.pred_len = -1;
  bad[12].what = "label_len < 0", bad[12].window.label_len = -1;
  bad[13].what = "label_len > input_len", bad[13].window.label_len = 17;
  for (const std::string& name : AvailableModels()) {
    for (const BadConfig& c : bad) {
      auto model = MakeForecaster(name, c.window, c.dims, c.params);
      ASSERT_FALSE(model.ok()) << name << " accepted " << c.what;
      EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument)
          << name << ", " << c.what;
    }
  }
}

TEST(ConfigValidationTest, ShortWindowsFollowEachArchitecture) {
  // Rejected: windows shorter than the architecture needs.
  for (auto [name, window] :
       std::vector<std::pair<std::string, data::WindowConfig>>{
           {"lstnet", {6, 2, 2}},
           {"timesnet", {1, 0, 2}},
           {"informer", {1, 0, 2}},
           {"autoformer", {1, 0, 2}},
           {"autoformer", {4, 0, 1}}}) {
    auto model = MakeForecaster(name, window, 2);
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << name;
  }
  // Accepted: every model builds, trains and predicts at its shortest
  // window with the smallest widths, without a CHECK abort.
  ModelHyperParams tiny;
  tiny.d_model = 2;
  tiny.n_heads = 2;
  tiny.hidden = 1;
  tiny.ma_kernel = 30;
  const data::WindowConfig window = {7, 0, 2};
  Rng rng(3);
  data::Batch batch;
  batch.x = Tensor::Randn({2, 7, 1}, &rng);
  batch.x_mark = Tensor::Zeros({2, 7, data::kNumTimeFeatures});
  batch.y = Tensor::Randn({2, 2, 1}, &rng);
  batch.y_mark = Tensor::Zeros({2, 2, data::kNumTimeFeatures});
  for (const std::string& name : AvailableModels()) {
    auto model = MakeForecaster(name, window, 1, tiny);
    ASSERT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    model.value()->Loss(batch).Backward();
    model.value()->SetTraining(false);
    EXPECT_EQ(model.value()->Predict(batch).shape(), (Shape{2, 2, 1})) << name;
  }
}

}  // namespace
}  // namespace conformer::models
