#include "bench/e2e/train_loop.h"

#include <cmath>

#include "bench/e2e/harness.h"
#include "data/dataset_registry.h"
#include "util/logging.h"

namespace conformer::bench_e2e {

data::WindowConfig TrainWindow() {
  return {.input_len = 48, .label_len = 24, .pred_len = 24};
}

models::ModelHyperParams BenchHyperParams() {
  models::ModelHyperParams params;
  params.d_model = 16;
  params.n_heads = 2;
  params.hidden = 16;
  params.ma_kernel = 13;
  return params;
}

data::TimeSeries MakeBenchSeries(uint64_t seed) {
  Result<data::TimeSeries> series =
      data::MakeDataset("etth1", kDatasetScale, seed);
  CONFORMER_CHECK(series.ok()) << series.status().ToString();
  return std::move(series).value();
}

TrainLoop::TrainLoop(uint64_t seed) : shuffle_rng_(seed) {
  SeedGlobalRng(seed);
  series_ = MakeBenchSeries(seed);
  splits_ = std::make_unique<data::DatasetSplits>(
      data::MakeSplits(series_, TrainWindow()));
  Result<std::unique_ptr<models::Forecaster>> model = models::MakeForecaster(
      "conformer", TrainWindow(), series_.dims(), BenchHyperParams());
  CONFORMER_CHECK(model.ok()) << model.status().ToString();
  model_ = std::move(model).value();
  model_->SetTraining(true);
  params_ = model_->Parameters();
  optimizer_ = std::make_unique<train::Adam>(params_, kLearningRate);
  batches_ = std::make_unique<data::BatchIterator>(
      splits_->train, kTrainBatch, /*shuffle=*/true, &shuffle_rng_);
}

StepTiming TrainLoop::Step() {
  prof::ScopedTimer step_span("train_step", "bench");
  StepTiming t;
  const int64_t start = NowNs();
  data::Batch batch;
  {
    prof::ScopedTimer span("data", "bench");
    if (!batches_->Next(&batch)) {
      batches_->Reset();
      CONFORMER_CHECK(batches_->Next(&batch)) << "empty training split";
    }
  }
  const int64_t data_end = NowNs();
  {
    prof::ScopedTimer span("zero_grad", "bench");
    optimizer_->ZeroGrad();
  }
  const int64_t zero_end = NowNs();
  Tensor loss;
  {
    prof::ScopedTimer span("forward", "bench");
    loss = model_->Loss(batch);
    t.loss = loss.item();
  }
  const int64_t forward_end = NowNs();
  {
    prof::ScopedTimer span("backward", "bench");
    loss.Backward();
  }
  const int64_t backward_end = NowNs();
  double grad_norm = 0.0;
  {
    prof::ScopedTimer span("clip", "bench");
    grad_norm = train::ClipGradNorm(params_, kClipNorm);
  }
  const int64_t clip_end = NowNs();
  t.finite = std::isfinite(t.loss) && std::isfinite(grad_norm);
  if (t.finite) {
    prof::ScopedTimer span("optimizer", "bench");
    optimizer_->Step();
  }
  const int64_t end = NowNs();
  t.data_ns = data_end - start;
  t.optimizer_ns = (zero_end - data_end) + (end - clip_end);
  t.forward_ns = forward_end - zero_end;
  t.backward_ns = backward_end - forward_end;
  t.clip_ns = clip_end - backward_end;
  t.total_ns = end - start;
  return t;
}

}  // namespace conformer::bench_e2e
