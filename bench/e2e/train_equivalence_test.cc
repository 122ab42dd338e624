// The train_conformer workload must time the same computation
// train::Trainer::Fit runs: for one seed, three bench steps and a
// three-batch epoch of Fit give the bitwise-same mean loss.

#include <gtest/gtest.h>

#include <cstring>

#include "bench/e2e/train_loop.h"
#include "train/trainer.h"
#include "util/thread_pool.h"

namespace conformer::bench_e2e {
namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(TrainEquivalence, StepLoopMatchesTrainerFitBitwise) {
  constexpr uint64_t kSeed = 3;
  constexpr int kSteps = 3;
  ThreadPool::Global().SetNumThreads(2);

  TrainLoop loop(kSeed);
  double loss_sum = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const StepTiming step = loop.Step();
    ASSERT_TRUE(step.finite);
    loss_sum += step.loss;
  }
  const double bench_mean = loss_sum / kSteps;

  // The same construction order TrainLoop uses: global RNG, data, model.
  SeedGlobalRng(kSeed);
  const data::TimeSeries series = MakeBenchSeries(kSeed);
  const data::DatasetSplits splits = data::MakeSplits(series, TrainWindow());
  auto model = models::MakeForecaster("conformer", TrainWindow(),
                                      series.dims(), BenchHyperParams());
  ASSERT_TRUE(model.ok());
  train::TrainConfig config;
  config.epochs = 1;
  config.batch_size = kTrainBatch;
  config.learning_rate = kLearningRate;
  config.clip_norm = kClipNorm;
  config.max_train_batches = kSteps;
  config.max_eval_batches = 1;
  config.seed = kSeed;
  const train::FitResult fit =
      train::Trainer(config).Fit(model.value().get(), splits.train, splits.val);
  ASSERT_EQ(fit.train_losses.size(), 1u);
  EXPECT_EQ(Bits(bench_mean), Bits(fit.train_losses[0]))
      << "bench " << bench_mean << " vs Fit " << fit.train_losses[0];
}

}  // namespace
}  // namespace conformer::bench_e2e
