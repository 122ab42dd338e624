// Serving-layer suite (docs/SERVING.md): inference-mode bitwise parity with
// the recording forward pass, the inference guard's state handling, params-only
// checkpoint loading, checkpoint -> InferenceSession -> Predict round-trips,
// the session's request contract, the default plan-replay path, and
// batched-vs-single bitwise transparency for every registry model on both
// the plan and the eager path,
// one-tenant fleet coalescing/drain behaviour, and the latency quantile
// helper behind the CLI's p50/p95/p99 summary.

#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "data/time_features.h"
#include "serve/stats.h"
#include "serve_test_util.h"

namespace conformer::serve {
namespace {

// -- Inference mode vs. recording forward ---------------------------------

TEST(InferenceModeTest, BitwiseEqualsRecordingForward) {
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch batch = splits.test.GetRange(0, 3);
  for (const std::string& name : models::AvailableModels()) {
    auto model = models::MakeForecaster(name, TestWindow(),
                                        splits.test.dims())
                     .value();
    model->SetTraining(false);
    // Recording path: parameters require grad, so this builds a tape
    // (parameterless models such as "naive" have nothing to record).
    const Tensor recorded = model->Forward(batch);
    EXPECT_EQ(recorded.requires_grad(), model->NumParameters() > 0) << name;

    Tensor inference;
    {
      NoGradGuard guard;
      inference = model->Forward(batch);
    }
    EXPECT_FALSE(inference.requires_grad()) << name;
    ASSERT_EQ(inference.impl()->autograd, nullptr) << name;
    ExpectTensorsBitwiseEqual(recorded, inference, name + " inference");
  }
}

TEST(InferenceModeTest, GuardDisablesRecordingAndRestoresPreviousState) {
  EXPECT_TRUE(GradRecordingEnabled());
  {
    NoGradGuard outer;
    EXPECT_FALSE(GradRecordingEnabled());
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradRecordingEnabled());
    }
    EXPECT_FALSE(GradRecordingEnabled());
  }
  EXPECT_TRUE(GradRecordingEnabled());
}

// -- Params-only checkpoint loading ---------------------------------------

TEST(LoadCheckpointParamsTest, RestoresModelSectionOnly) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("params_only");

  auto src =
      models::MakeForecaster("gru", TestWindow(), splits.test.dims()).value();
  train::Adam optimizer(src->Parameters());
  train::TrainProgress progress;
  progress.global_step = 7;
  progress.epoch_rng_state = Rng(3).Serialize();
  train::CheckpointManager manager(dir);
  ASSERT_TRUE(manager.Save(*src, optimizer, progress).ok());
  const std::string path = manager.ListCheckpoints().value().back();

  auto dst =
      models::MakeForecaster("gru", TestWindow(), splits.test.dims(),
                             {.seed = 99})
          .value();
  ASSERT_TRUE(train::LoadCheckpointParams(path, dst.get()).ok());
  src->SetTraining(false);
  dst->SetTraining(false);
  const data::Batch batch = splits.test.GetRange(0, 2);
  ExpectTensorsBitwiseEqual(src->Predict(batch), dst->Predict(batch),
                            "params-only restore");
  std::filesystem::remove_all(dir);
}

TEST(LoadCheckpointParamsTest, RejectsCorruptionAnywhereInFile) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("params_corrupt");

  auto model =
      models::MakeForecaster("gru", TestWindow(), splits.test.dims()).value();
  train::Adam optimizer(model->Parameters());
  train::TrainProgress progress;
  progress.global_step = 1;
  progress.epoch_rng_state = Rng(3).Serialize();
  train::CheckpointManager manager(dir);
  ASSERT_TRUE(manager.Save(*model, optimizer, progress).ok());
  const std::string path = manager.ListCheckpoints().value().back();

  // Flip one byte near the end of the file — inside the trainer section,
  // which a params-only load never applies but must still validate.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() - 3] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(train::LoadCheckpointParams(path, model.get()).ok());
  std::filesystem::remove_all(dir);
}

// -- Checkpoint -> InferenceSession -> Predict round-trip ------------------

TEST(InferenceSessionTest, TrainerCheckpointRoundTripAllModels) {
  data::DatasetSplits splits = MakeTestSplits();
  for (const std::string& name : models::AvailableModels()) {
    const std::string dir = MakeTempDir("roundtrip_" + name);
    auto model =
        models::MakeForecaster(name, TestWindow(), splits.test.dims()).value();

    train::TrainConfig config;
    config.epochs = 1;
    config.max_train_batches = 4;
    config.max_eval_batches = 2;
    config.batch_size = 8;
    config.checkpoint_dir = dir;
    train::Trainer(config).Fit(model.get(), splits.train, splits.val);

    SessionConfig session_config;
    session_config.model_name = name;
    session_config.window = TestWindow();
    session_config.dims = splits.test.dims();
    auto session = InferenceSession::Open(session_config, dir);
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    model->SetTraining(false);
    const data::Batch batch = splits.test.GetRange(1, 2);
    const Forecast served = session.value()->Predict(batch);
    ExpectTensorsBitwiseEqual(model->Predict(batch), served.point,
                              name + " round trip");
    std::filesystem::remove_all(dir);
  }
}

TEST(InferenceSessionTest, EarlyStoppedRunServesFitsBestWeights) {
  // Fit returns the best-validation weights; its checkpoint directory is the
  // trained model and must hold exactly those, not the last epoch's.
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("early_stop");
  SeedGlobalRng(5);
  auto model =
      models::MakeForecaster("gru", TestWindow(), splits.test.dims()).value();
  train::TrainConfig config;
  config.epochs = 10;
  config.patience = 1;
  config.learning_rate = 2e-2f;
  config.batch_size = 8;
  config.max_train_batches = 8;
  config.max_eval_batches = 4;
  config.checkpoint_dir = dir;
  const train::FitResult fit =
      train::Trainer(config).Fit(model.get(), splits.train, splits.val);
  // The last epoch must be worse than the best one, or the last epoch's
  // weights would be the best weights anyway.
  ASSERT_TRUE(fit.early_stopped);
  ASSERT_GT(fit.val_mses.back(), fit.best_val_mse);

  auto loaded =
      models::MakeForecaster("gru", TestWindow(), splits.test.dims()).value();
  ASSERT_TRUE(train::LoadCheckpointParams(dir, loaded.get()).ok());
  const std::vector<Tensor> want = model->Parameters();
  const std::vector<Tensor> got = loaded->Parameters();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectTensorsBitwiseEqual(got[i], want[i],
                              "checkpoint parameter " + std::to_string(i));
  }

  SessionConfig session_config;
  session_config.model_name = "gru";
  session_config.window = TestWindow();
  session_config.dims = splits.test.dims();
  auto session = InferenceSession::Open(session_config, dir);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  model->SetTraining(false);
  const data::Batch batch = splits.test.GetRange(0, 4);
  ExpectTensorsBitwiseEqual(session.value()->Predict(batch).point,
                            model->Predict(batch), "served vs Fit's model");
  std::filesystem::remove_all(dir);
}

TEST(InferenceSessionTest, OpenRejectsMissingCheckpoint) {
  SessionConfig config;
  config.model_name = "gru";
  config.window = TestWindow();
  config.dims = 7;
  EXPECT_FALSE(InferenceSession::Open(config, "/tmp/does-not-exist-xyz").ok());
}

TEST(InferenceSessionTest, ConformerQuantileBandOrdersAroundPoint) {
  data::DatasetSplits splits = MakeTestSplits();
  SessionConfig config;
  config.model_name = "conformer";
  config.window = TestWindow();
  config.dims = splits.test.dims();
  config.quantile_samples = 4;
  auto session = InferenceSession::Open(config, "");
  ASSERT_TRUE(session.ok());

  const data::Batch batch = splits.test.GetRange(0, 2);
  const Forecast forecast = session.value()->Predict(batch);
  ASSERT_TRUE(forecast.lower.defined());
  ASSERT_TRUE(forecast.upper.defined());
  ASSERT_EQ(forecast.lower.shape(), forecast.point.shape());
  for (int64_t i = 0; i < forecast.lower.numel(); ++i) {
    EXPECT_LE(forecast.lower.data()[i], forecast.upper.data()[i]);
  }
  // Sampling advances the session's RNG between calls; the point path must
  // not notice (eval-mode forward never samples).
  const Forecast again = session.value()->Predict(batch);
  ExpectTensorsBitwiseEqual(again.point, forecast.point,
                            "point forecast across sampling calls");
}

// -- Request contract and the default plan ---------------------------------

TEST(InferenceSessionTest, ValidateRejectsEachMalformedField) {
  data::DatasetSplits splits = MakeTestSplits();
  auto session = InferenceSession::Open(LinearConfig(splits.test.dims()), "");
  ASSERT_TRUE(session.ok());
  const data::Batch good = splits.test.GetRange(0, 2);
  EXPECT_TRUE(session.value()->Validate(good).ok());

  const int64_t dims = splits.test.dims();
  const int64_t in_len = TestWindow().input_len;
  const int64_t dec_len = TestWindow().label_len + TestWindow().pred_len;
  const int64_t f = data::kNumTimeFeatures;
  struct Case {
    const char* what;
    Tensor data::Batch::*field;
    Tensor value;
  };
  const Case cases[] = {
      {"undefined x", &data::Batch::x, Tensor()},
      {"mis-shaped x", &data::Batch::x, Tensor::Zeros({2, in_len, dims + 1})},
      {"rank-2 x", &data::Batch::x, Tensor::Zeros({2, in_len})},
      {"empty x", &data::Batch::x, Tensor::Zeros({0, in_len, dims})},
      {"undefined x_mark", &data::Batch::x_mark, Tensor()},
      {"mis-shaped x_mark", &data::Batch::x_mark,
       Tensor::Zeros({2, in_len - 1, f})},
      {"undefined y", &data::Batch::y, Tensor()},
      {"mis-shaped y", &data::Batch::y, Tensor::Zeros({2, dec_len, dims - 1})},
      {"undefined y_mark", &data::Batch::y_mark, Tensor()},
      {"mis-shaped y_mark", &data::Batch::y_mark,
       Tensor::Zeros({2, dec_len, f + 1})},
      {"row-count mismatch", &data::Batch::y,
       Tensor::Zeros({3, dec_len, dims})},
  };
  for (const Case& c : cases) {
    data::Batch bad = good;
    bad.*c.field = c.value;
    EXPECT_EQ(session.value()->Validate(bad).code(),
              StatusCode::kInvalidArgument)
        << c.what;
  }
}

TEST(InferenceSessionDeathTest, PredictAbortsWithTheValidatorsMessage) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  data::DatasetSplits splits = MakeTestSplits();
  auto session = InferenceSession::Open(LinearConfig(splits.test.dims()), "");
  ASSERT_TRUE(session.ok());
  data::Batch bad = splits.test.GetRange(0, 1);
  bad.y = Tensor::Zeros({1, TestWindow().label_len, splits.test.dims()});
  EXPECT_DEATH(session.value()->Predict(bad),
               "request y geometry does not match the session window");
}

TEST(InferenceSessionTest, DefaultConfigServesFromThePlan) {
  data::DatasetSplits splits = MakeTestSplits();
  SessionConfig config;
  config.window = TestWindow();
  config.dims = splits.test.dims();
  auto session = InferenceSession::Open(config, "");
  ASSERT_TRUE(session.ok());
  const data::Batch batch = splits.test.GetRange(0, 3);
  EXPECT_EQ(session.value()->plan_for(batch), nullptr);
  const Tensor traced = session.value()->Predict(batch).point;
  ASSERT_NE(session.value()->plan_for(batch), nullptr);
  const Tensor replayed = session.value()->Predict(batch).point;
  const Tensor eager = session.value()->model().Predict(batch);
  ExpectTensorsBitwiseEqual(traced, eager, "traced vs eager");
  ExpectTensorsBitwiseEqual(replayed, eager, "replayed vs eager");
}

// -- Batching transparency -------------------------------------------------

TEST(InferenceSessionTest, BatchedPredictBitwiseEqualsSingles) {
  data::DatasetSplits splits = MakeTestSplits();
  // Data-dependent host logic (TimesNet-lite's per-series FFT periods,
  // Autoformer's per-row top-k lags) must still be a pure function of each
  // row.
  // Both serving paths: plan replay (the default) and the eager forward.
  for (const bool plan : {true, false}) {
    for (const std::string& name : models::AvailableModels()) {
      SessionConfig config;
      config.model_name = name;
      config.window = TestWindow();
      config.dims = splits.test.dims();
      config.use_static_plan = plan;
      auto session = InferenceSession::Open(config, "");
      ASSERT_TRUE(session.ok()) << name;

      const int64_t kBatch = 4;
      const data::Batch merged = splits.test.GetRange(0, kBatch);
      const Tensor batched = session.value()->Predict(merged).point;
      for (int64_t r = 0; r < kBatch; ++r) {
        const Tensor single =
            session.value()->Predict(splits.test.GetRange(r, 1)).point;
        const Tensor row = Slice(batched, 0, r, r + 1);
        ExpectTensorsBitwiseEqual(single, row,
                                  name + (plan ? " plan" : " eager") +
                                      " row " + std::to_string(r) +
                                      " of micro-batch");
      }
    }
  }
}

// -- One-tenant fleet -------------------------------------------------------

TEST(OneTenantFleetTest, CoalescesAndMatchesDirectPredict) {
  data::DatasetSplits splits = MakeTestSplits();
  TenantSpec spec;
  spec.session.model_name = "gru";
  spec.session.window = TestWindow();
  spec.session.dims = splits.test.dims();
  const int64_t kRequests = 8;
  spec.queue = {.max_batch_size = kRequests, .max_queue_delay_us = 50 * 1000};
  FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(fleet.AddTenant("gru@8", spec).ok());

  metrics::Registry& registry = metrics::Registry::Global();
  const int64_t batches_before = registry.GetCounter("serve.batches").value();

  std::vector<Tensor> direct;
  for (int64_t r = 0; r < kRequests; ++r) {
    direct.push_back(
        fleet.session("gru@8")->Predict(splits.test.GetRange(r, 1)).point);
  }

  std::vector<std::future<Result<Forecast>>> futures;
  for (int64_t r = 0; r < kRequests; ++r) {
    futures.push_back(fleet.Submit("gru@8", splits.test.GetRange(r, 1)));
  }
  for (int64_t r = 0; r < kRequests; ++r) {
    Result<Forecast> result = futures[r].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTensorsBitwiseEqual(result.value().point, direct[r],
                              "queued request " + std::to_string(r));
  }
  fleet.Shutdown();
  EXPECT_EQ(fleet.pending("gru@8"), 0);

  // All eight requests arrived well inside the 50ms window, so the
  // dispatcher must have coalesced them into very few batches.
  const int64_t batches = registry.GetCounter("serve.batches").value() -
                          batches_before;
  EXPECT_GE(batches, 1);
  EXPECT_LE(batches, 3);
  EXPECT_GT(registry.GetHistogram("serve.request_latency_seconds")
                .GetSnapshot()
                .count,
            0);
}

TEST(OneTenantFleetTest, ShutdownDrainsPendingRequests) {
  data::DatasetSplits splits = MakeTestSplits();
  std::vector<std::future<Result<Forecast>>> futures;
  {
    // Long delay + immediate destruction: every future must still resolve.
    FleetServer fleet({.num_dispatchers = 1});
    const TenantSpec spec = LinearTenant(
        splits.test.dims(),
        {.max_batch_size = 64, .max_queue_delay_us = 10 * 1000 * 1000});
    ASSERT_TRUE(fleet.AddTenant("linear@8", spec).ok());
    for (int64_t r = 0; r < 5; ++r) {
      futures.push_back(fleet.Submit("linear@8", splits.test.GetRange(r, 1)));
    }
  }
  for (auto& f : futures) {
    Result<Forecast> result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Forecast& forecast = result.value();
    EXPECT_EQ(forecast.point.size(0), 1);
    EXPECT_EQ(forecast.point.size(1), TestWindow().pred_len);
  }
}

TEST(OneTenantFleetTest, MultiSeriesRequestsSliceCorrectly) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 1});
  const TenantSpec spec =
      LinearTenant(splits.test.dims(),
                   {.max_batch_size = 8, .max_queue_delay_us = 20 * 1000});
  ASSERT_TRUE(fleet.AddTenant("linear@8", spec).ok());
  InferenceSession* session = fleet.session("linear@8");
  std::future<Result<Forecast>> two =
      fleet.Submit("linear@8", splits.test.GetRange(0, 2));
  std::future<Result<Forecast>> three =
      fleet.Submit("linear@8", splits.test.GetRange(2, 3));
  ExpectTensorsBitwiseEqual(two.get().value().point,
                            session->Predict(splits.test.GetRange(0, 2)).point,
                            "two-series request");
  ExpectTensorsBitwiseEqual(three.get().value().point,
                            session->Predict(splits.test.GetRange(2, 3)).point,
                            "three-series request");
}

// -- Latency quantiles -----------------------------------------------------

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  metrics::Histogram histogram({1.0, 2.0, 4.0});
  // 10 observations in (1, 2]: the p50 rank (5th of 10) sits mid-bucket.
  for (int i = 0; i < 10; ++i) histogram.Observe(1.5);
  const metrics::Histogram::Snapshot snapshot = histogram.GetSnapshot();
  const double p50 = HistogramQuantile(snapshot, 0.5);
  EXPECT_DOUBLE_EQ(p50, 1.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 1.0), 2.0);
}

TEST(HistogramQuantileTest, EmptyAndOverflowEdgeCases) {
  metrics::Histogram histogram({1.0, 2.0});
  EXPECT_EQ(HistogramQuantile(histogram.GetSnapshot(), 0.5), 0.0);
  histogram.Observe(100.0);  // Overflow bucket.
  EXPECT_EQ(HistogramQuantile(histogram.GetSnapshot(), 0.99), 2.0);
}

TEST(HistogramQuantileTest, RankOnBucketBoundaryReportsThatBucketsUpperEdge) {
  // 5 samples <= 1 and 5 in (1, 2]: the p50 target is the 5th observation,
  // which lives in the first bucket — exactly its upper edge. The old
  // continuous-rank comparison drifted into the neighbor for q just below
  // the boundary.
  metrics::Histogram histogram({1.0, 2.0});
  for (int i = 0; i < 5; ++i) histogram.Observe(0.5);
  for (int i = 0; i < 5; ++i) histogram.Observe(1.5);
  const metrics::Histogram::Snapshot snapshot = histogram.GetSnapshot();
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 0.5), 1.0);
  // Just past the boundary the target is the 6th observation: bucket 2.
  EXPECT_GT(HistogramQuantile(snapshot, 0.51), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 1.0), 2.0);
}

TEST(HistogramQuantileTest, EmptyBucketsAreSkippedNotInterpolated) {
  // Samples only in buckets 1 and 4; the quantile must never land inside an
  // intermediate empty bucket.
  metrics::Histogram histogram({1.0, 2.0, 3.0, 4.0});
  for (int i = 0; i < 4; ++i) histogram.Observe(0.5);
  for (int i = 0; i < 4; ++i) histogram.Observe(3.5);
  const metrics::Histogram::Snapshot snapshot = histogram.GetSnapshot();
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 0.5), 1.0);
  const double p75 = HistogramQuantile(snapshot, 0.75);
  EXPECT_GT(p75, 3.0);
  EXPECT_LE(p75, 4.0);
}

TEST(HistogramQuantileTest, TrailingEmptyBucketsDoNotInflateTheMax) {
  // All samples in the first bucket: q=1.0 must report that bucket's upper
  // edge, not the histogram's largest bound.
  metrics::Histogram histogram({1.0, 2.0, 8.0});
  for (int i = 0; i < 5; ++i) histogram.Observe(0.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(histogram.GetSnapshot(), 1.0), 1.0);
}

TEST(HistogramQuantileTest, OverflowSamplesPinToLargestFiniteBound) {
  // q=1.0 with overflow samples is deliberately bounds.back(): the histogram
  // cannot measure past its largest finite boundary.
  metrics::Histogram histogram({1.0, 2.0});
  histogram.Observe(0.5);
  for (int i = 0; i < 9; ++i) histogram.Observe(50.0);
  const metrics::Histogram::Snapshot snapshot = histogram.GetSnapshot();
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 0.5), 2.0);
}

TEST(HistogramQuantileTest, ExtremeQsClampAndStayInNonEmptyBuckets) {
  metrics::Histogram histogram({1.0, 2.0});
  for (int i = 0; i < 4; ++i) histogram.Observe(1.5);
  const metrics::Histogram::Snapshot snapshot = histogram.GetSnapshot();
  // q=0 targets the first observation (rank clamped to 1): inside bucket 2.
  const double p0 = HistogramQuantile(snapshot, 0.0);
  EXPECT_GT(p0, 1.0);
  EXPECT_LE(p0, 2.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, -0.5),
                   HistogramQuantile(snapshot, 0.0));
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 1.5),
                   HistogramQuantile(snapshot, 1.0));
}

}  // namespace
}  // namespace conformer::serve
