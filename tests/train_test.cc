// Adam, metrics, and the training loop (convergence on a synthetic
// problem, early stopping, best-weights restore).

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/gru_forecaster.h"
#include "baselines/nbeats.h"
#include "data/dataset_registry.h"
#include "train/backtest.h"
#include "train/metrics.h"
#include "train/optimizer.h"
#include "train/trainer.h"

namespace conformer::train {
namespace {

// -- optimizer ---------------------------------------------------------------

TEST(AdamTest, MinimizesQuadratic) {
  Tensor x = Tensor::Full({4}, 3.0f);
  x.set_requires_grad(true);
  Adam opt({x}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Sum(Mul(x, x)).Backward();
    opt.Step();
  }
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(x.data()[i], 0.0f, 1e-2);
}

TEST(AdamTest, SolvesLinearRegression) {
  // Fit y = 2x + 1.
  Rng rng(1);
  Tensor w = Tensor::Zeros({1, 1}).set_requires_grad(true);
  Tensor b = Tensor::Zeros({1}).set_requires_grad(true);
  Tensor x = Tensor::Randn({64, 1}, &rng);
  Tensor y = Add(MulScalar(x, 2.0f), Tensor::Full({64, 1}, 1.0f));
  Adam opt({w, b}, 0.05f);
  for (int i = 0; i < 400; ++i) {
    opt.ZeroGrad();
    Tensor pred = Add(MatMul(x, w), b);
    MseLoss(pred, y).Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.item(), 2.0f, 0.05f);
  EXPECT_NEAR(b.item(), 1.0f, 0.05f);
}

TEST(AdamTest, SkipsParamsWithoutGrad) {
  Tensor used = Tensor::Full({1}, 1.0f).set_requires_grad(true);
  Tensor unused = Tensor::Full({1}, 7.0f).set_requires_grad(true);
  Adam opt({used, unused}, 0.1f);
  opt.ZeroGrad();
  Sum(Mul(used, used)).Backward();
  opt.Step();
  EXPECT_EQ(unused.item(), 7.0f);
  EXPECT_NE(used.item(), 1.0f);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  Tensor x = Tensor::Full({1}, 1.0f).set_requires_grad(true);
  Adam opt({x}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/1.0f);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    // Constant zero loss gradient; only decay drives the update.
    Sum(MulScalar(x, 0.0f)).Backward();
    opt.Step();
  }
  EXPECT_LT(x.item(), 1.0f);
}

TEST(ClipTest, ClipsLargeGradients) {
  Tensor x = Tensor::Full({4}, 0.0f).set_requires_grad(true);
  Sum(MulScalar(x, 100.0f)).Backward();  // grad = 100 each, norm = 200
  std::vector<Tensor> params = {x};
  const double norm = ClipGradNorm(params, 1.0);
  EXPECT_NEAR(norm, 200.0, 1e-3);
  double clipped = 0.0;
  for (int64_t i = 0; i < 4; ++i) {
    clipped += x.grad_data()[i] * x.grad_data()[i];
  }
  EXPECT_NEAR(std::sqrt(clipped), 1.0, 1e-4);
}

TEST(ClipTest, LeavesSmallGradientsAlone) {
  Tensor x = Tensor::Full({1}, 0.0f).set_requires_grad(true);
  Sum(MulScalar(x, 0.5f)).Backward();
  std::vector<Tensor> params = {x};
  ClipGradNorm(params, 10.0);
  EXPECT_NEAR(x.grad_data()[0], 0.5f, 1e-6);
}

// -- metrics -----------------------------------------------------------------

TEST(MetricsTest, MseMaeAccumulation) {
  MetricAccumulator acc;
  acc.Add(Tensor::FromVector({1, 2}, {2}), Tensor::FromVector({0, 0}, {2}));
  EXPECT_NEAR(acc.mse(), (1.0 + 4.0) / 2.0, 1e-9);
  EXPECT_NEAR(acc.mae(), (1.0 + 2.0) / 2.0, 1e-9);
  acc.Add(Tensor::FromVector({3}, {1}), Tensor::FromVector({0}, {1}));
  EXPECT_NEAR(acc.mse(), (1.0 + 4.0 + 9.0) / 3.0, 1e-9);
  EXPECT_EQ(acc.count(), 3);
}

TEST(MetricsTest, EmptyIsZero) {
  MetricAccumulator acc;
  EXPECT_EQ(acc.mse(), 0.0);
  EXPECT_EQ(acc.mae(), 0.0);
  EXPECT_EQ(acc.mape(), 0.0);
}

TEST(MetricsTest, RmseIsSqrtOfMse) {
  MetricAccumulator acc;
  acc.Add(Tensor::FromVector({3, 0}, {2}), Tensor::FromVector({0, 4}, {2}));
  EXPECT_NEAR(acc.rmse(), std::sqrt(acc.mse()), 1e-12);
}

TEST(MetricsTest, MapeAgainstKnownValues) {
  MetricAccumulator acc;
  acc.Add(Tensor::FromVector({110, 90}, {2}),
          Tensor::FromVector({100, 100}, {2}));
  EXPECT_NEAR(acc.mape(), 0.1, 1e-9);
}

// -- trainer -----------------------------------------------------------------------

data::DatasetSplits SmallSplits() {
  data::TimeSeries ts = data::MakeDataset("etth1", 0.07, 11).value();
  data::WindowConfig cfg{.input_len = 16, .label_len = 8, .pred_len = 8};
  return data::MakeSplits(ts, cfg);
}

TEST(TrainerTest, LossDecreasesOnRealModel) {
  data::DatasetSplits splits = SmallSplits();
  models::GruForecaster model(splits.train.config(), splits.train.dims(), 16, 1);
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 16;
  config.learning_rate = 5e-3f;
  config.max_train_batches = 20;
  config.max_eval_batches = 5;
  Trainer trainer(config);
  FitResult result = trainer.Fit(&model, splits.train, splits.val);
  ASSERT_GE(result.train_losses.size(), 2u);
  EXPECT_LT(result.train_losses.back(), result.train_losses.front());
}

TEST(TrainerTest, EvaluateProducesFiniteMetrics) {
  data::DatasetSplits splits = SmallSplits();
  models::NBeats model(splits.train.config(), splits.train.dims(), 2, 32);
  TrainConfig config;
  config.max_eval_batches = 4;
  Trainer trainer(config);
  EvalMetrics m = trainer.Evaluate(&model, splits.test);
  EXPECT_TRUE(std::isfinite(m.mse));
  EXPECT_TRUE(std::isfinite(m.mae));
  EXPECT_GT(m.mse, 0.0);
}

TEST(TrainerTest, EarlyStoppingTriggersWithZeroPatience) {
  data::DatasetSplits splits = SmallSplits();
  models::GruForecaster model(splits.train.config(), splits.train.dims(), 8, 1);
  TrainConfig config;
  config.epochs = 10;
  config.patience = 1;
  config.learning_rate = 1.0f;  // absurd LR forces val degradation
  config.max_train_batches = 5;
  config.max_eval_batches = 3;
  Trainer trainer(config);
  FitResult result = trainer.Fit(&model, splits.train, splits.val);
  EXPECT_LT(result.epochs_run, 10);
  EXPECT_TRUE(result.early_stopped);
}

// -- backtest -----------------------------------------------------------------

TEST(BacktestTest, ProfileShapeAndAggregates) {
  data::DatasetSplits splits = SmallSplits();
  models::GruForecaster model(splits.train.config(), splits.train.dims(), 8, 1);
  BacktestResult r = Backtest(&model, splits.test, /*stride=*/4,
                              /*max_windows=*/10, /*batch_size=*/4);
  EXPECT_EQ(static_cast<int64_t>(r.per_step_mse.size()),
            splits.test.config().pred_len);
  EXPECT_LE(r.windows, 10);
  EXPECT_GT(r.windows, 0);
  // Aggregate equals the mean of the per-step values (uniform counts).
  double mean_of_steps = 0.0;
  for (double v : r.per_step_mse) mean_of_steps += v;
  mean_of_steps /= static_cast<double>(r.per_step_mse.size());
  EXPECT_NEAR(r.mse, mean_of_steps, 1e-9);
}

TEST(BacktestTest, StrideReducesWindows) {
  data::DatasetSplits splits = SmallSplits();
  models::GruForecaster model(splits.train.config(), splits.train.dims(), 8, 1);
  BacktestResult dense = Backtest(&model, splits.test, 1, 0, 8);
  BacktestResult sparse = Backtest(&model, splits.test, 5, 0, 8);
  EXPECT_GT(dense.windows, sparse.windows);
  EXPECT_EQ(dense.windows, splits.test.size());
}

TEST(BacktestTest, PerStepErrorGrowsForUntrainedModelOnTrendingData) {
  // On standardized trending data, later steps are further from the input
  // context, so an untrained model's error profile generally rises.
  data::DatasetSplits splits = SmallSplits();
  models::GruForecaster model(splits.train.config(), splits.train.dims(), 8, 1);
  BacktestResult r = Backtest(&model, splits.test, 2, 20, 8);
  double early = 0.0;
  double late = 0.0;
  const int64_t half = static_cast<int64_t>(r.per_step_mse.size()) / 2;
  for (int64_t t = 0; t < half; ++t) early += r.per_step_mse[t];
  for (int64_t t = half; t < static_cast<int64_t>(r.per_step_mse.size()); ++t) {
    late += r.per_step_mse[t];
  }
  // Not a strict law; allow equality with slack.
  EXPECT_GT(late, early * 0.5);
}

TEST(TrainerTest, BestWeightsRestored) {
  data::DatasetSplits splits = SmallSplits();
  models::GruForecaster model(splits.train.config(), splits.train.dims(), 8, 1);
  TrainConfig config;
  config.epochs = 4;
  config.patience = 10;
  config.learning_rate = 0.3f;  // noisy training: best epoch is rarely last
  config.max_train_batches = 10;
  config.max_eval_batches = 4;
  Trainer trainer(config);
  FitResult result = trainer.Fit(&model, splits.train, splits.val);
  // Post-restore evaluation must match the best recorded val MSE.
  EvalMetrics after = trainer.Evaluate(&model, splits.val);
  EXPECT_NEAR(after.mse, result.best_val_mse, 1e-6);
}

}  // namespace
}  // namespace conformer::train
