// End-to-end integration: full pipeline (synthetic dataset -> splits ->
// training -> evaluation) for Conformer and a baseline, checkpointing, and
// the key qualitative claims the benches rely on.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>

#include "baselines/registry.h"
#include "core/conformer_model.h"
#include "data/dataset_registry.h"
#include "train/checkpoint.h"
#include "train/optimizer.h"
#include "train/trainer.h"

namespace conformer {
namespace {

data::DatasetSplits Splits(const std::string& dataset, uint64_t seed) {
  data::TimeSeries ts = data::MakeDataset(dataset, 0.07, seed).value();
  data::WindowConfig cfg{.input_len = 16, .label_len = 8, .pred_len = 8};
  return data::MakeSplits(ts, cfg);
}

train::TrainConfig FastTrainConfig() {
  train::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 16;
  config.learning_rate = 2e-3f;
  config.max_train_batches = 15;
  config.max_eval_batches = 4;
  return config;
}

TEST(IntegrationTest, ConformerTrainsEndToEnd) {
  data::DatasetSplits splits = Splits("etth1", 41);
  core::ConformerConfig config;
  config.d_model = 8;
  config.n_heads = 2;
  config.ma_kernel = 5;
  core::ConformerModel model(config, splits.train.config(),
                             splits.train.dims());

  train::Trainer trainer(FastTrainConfig());
  train::FitResult fit = trainer.Fit(&model, splits.train, splits.val);
  EXPECT_GE(fit.epochs_run, 1);
  for (double loss : fit.train_losses) EXPECT_TRUE(std::isfinite(loss));

  train::EvalMetrics test = trainer.Evaluate(&model, splits.test);
  EXPECT_TRUE(std::isfinite(test.mse));
  EXPECT_GT(test.mse, 0.0);
  EXPECT_GT(test.mae, 0.0);
  // Standardized data: anything wildly above the variance means divergence.
  EXPECT_LT(test.mse, 25.0);
}

TEST(IntegrationTest, TrainingImprovesOverUntrainedModel) {
  data::DatasetSplits splits = Splits("ettm1", 42);
  auto untrained =
      models::MakeForecaster("conformer", splits.train.config(),
                             splits.train.dims());
  auto trained =
      models::MakeForecaster("conformer", splits.train.config(),
                             splits.train.dims());
  ASSERT_TRUE(untrained.ok() && trained.ok());

  train::TrainConfig config = FastTrainConfig();
  config.epochs = 3;
  config.max_train_batches = 25;
  train::Trainer trainer(config);
  trainer.Fit(trained.value().get(), splits.train, splits.val);

  const double before =
      trainer.Evaluate(untrained.value().get(), splits.test).mse;
  const double after = trainer.Evaluate(trained.value().get(), splits.test).mse;
  EXPECT_LT(after, before);
}

TEST(IntegrationTest, CheckpointRoundTripPreservesPredictions) {
  data::DatasetSplits splits = Splits("etth1", 43);
  core::ConformerConfig config;
  config.d_model = 8;
  config.n_heads = 2;
  config.ma_kernel = 5;
  core::ConformerModel model(config, splits.train.config(),
                             splits.train.dims());

  const std::string dir = "/tmp/conformer_integration_ckpt_" +
                          std::to_string(static_cast<int64_t>(::getpid()));
  std::filesystem::remove_all(dir);
  train::Adam optimizer(model.Parameters());
  train::TrainProgress progress;
  progress.epoch_rng_state = Rng(1).Serialize();
  ASSERT_TRUE(
      train::CheckpointManager(dir).Save(model, optimizer, progress).ok());

  core::ConformerModel restored(config, splits.train.config(),
                                splits.train.dims());
  ASSERT_TRUE(train::LoadCheckpointParams(dir, &restored).ok());

  model.SetTraining(false);
  restored.SetTraining(false);
  NoGradGuard guard;
  data::Batch batch = splits.test.GetRange(0, 3);
  Tensor a = model.Forward(batch);
  Tensor b = restored.Forward(batch);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, MultipleDatasetsTrainWithoutDivergence) {
  for (const std::string name : {"exchange", "wind", "airdelay"}) {
    data::DatasetSplits splits = Splits(name, 44);
    auto model = models::MakeForecaster("gru", splits.train.config(),
                                        splits.train.dims());
    ASSERT_TRUE(model.ok());
    train::Trainer trainer(FastTrainConfig());
    train::FitResult fit =
        trainer.Fit(model.value().get(), splits.train, splits.val);
    EXPECT_TRUE(std::isfinite(fit.best_val_mse)) << name;
  }
}

TEST(IntegrationTest, UnivariatePipeline) {
  data::TimeSeries full = data::MakeDataset("etth1", 0.07, 45).value();
  data::TimeSeries uni = full.Column(full.target_column());
  data::WindowConfig cfg{.input_len = 16, .label_len = 8, .pred_len = 8};
  data::DatasetSplits splits = data::MakeSplits(uni, cfg);

  models::ModelHyperParams params;
  params.d_model = 8;
  params.n_heads = 2;
  params.univariate = true;
  auto model = models::MakeForecaster("conformer", cfg, 1, params);
  ASSERT_TRUE(model.ok());
  train::Trainer trainer(FastTrainConfig());
  train::FitResult fit =
      trainer.Fit(model.value().get(), splits.train, splits.val);
  EXPECT_TRUE(std::isfinite(fit.best_val_mse));
}

TEST(IntegrationTest, UncertaintyBandsCoverSomeTruth) {
  data::DatasetSplits splits = Splits("ettm1", 46);
  core::ConformerConfig config;
  config.d_model = 8;
  config.n_heads = 2;
  config.ma_kernel = 5;
  config.lambda = 0.5f;  // weight the flow so bands have width
  core::ConformerModel model(config, splits.train.config(),
                             splits.train.dims());
  train::Trainer trainer(FastTrainConfig());
  trainer.Fit(&model, splits.train, splits.val);

  data::Batch batch = splits.test.GetRange(0, 2);
  flow::UncertaintyBand band = model.PredictWithUncertainty(batch, 16, 0.9);
  const int64_t total = batch.y.size(1);
  Tensor target = Slice(batch.y, 1, total - 8, total);
  int64_t covered = 0;
  for (int64_t i = 0; i < target.numel(); ++i) {
    if (target.data()[i] >= band.lower.data()[i] - 1.0f &&
        target.data()[i] <= band.upper.data()[i] + 1.0f) {
      ++covered;
    }
  }
  // Loose sanity bound: a trained model's +-1 widened 90% band should cover
  // a majority of points.
  EXPECT_GT(covered, target.numel() / 2);
}

}  // namespace
}  // namespace conformer
