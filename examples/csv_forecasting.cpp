// Forecasting your own data: writes a small CSV (standing in for a file you
// bring, e.g. ETTh1.csv), loads it with the CSV loader, trains Conformer
// into a checkpoint directory, loads the trained weights back from it, and
// forecasts — the full bring-your-own-data workflow.
//
//   $ ./build/examples/example_csv_forecasting [path/to/your.csv]

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numbers>

#include "core/conformer_model.h"
#include "data/csv_loader.h"
#include "train/checkpoint.h"
#include "train/trainer.h"
#include "util/civil_time.h"

namespace {

// Creates a demo CSV (hourly, two coupled variables) when the user did not
// pass their own file.
std::string WriteDemoCsv() {
  const std::string path = "/tmp/conformer_demo_series.csv";
  std::ofstream out(path);
  out << "date,load,temperature\n";
  conformer::Rng rng(3);
  for (int64_t i = 0; i < 1600; ++i) {
    const int64_t ts = 1577836800 + i * 3600;
    const double daily = std::sin(2.0 * std::numbers::pi * i / 24.0);
    const double load = 10.0 + 3.0 * daily + rng.Normal(0.0, 0.4);
    const double temp = 15.0 - 4.0 * daily + rng.Normal(0.0, 0.6);
    out << conformer::FormatTimestamp(ts) << "," << load << "," << temp << "\n";
  }
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace conformer;

  const std::string csv_path = argc > 1 ? argv[1] : WriteDemoCsv();
  Result<data::TimeSeries> loaded = data::LoadCsv(csv_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load %s: %s\n", csv_path.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  data::TimeSeries series = std::move(loaded).value();
  std::printf("loaded %s: %lld rows x %lld columns (target '%s')\n",
              csv_path.c_str(), static_cast<long long>(series.num_points()),
              static_cast<long long>(series.dims()),
              series.column_names()[series.target_column()].c_str());

  data::WindowConfig window{.input_len = 48, .label_len = 24, .pred_len = 24};
  if (Status valid = data::ValidateSplits(series, window); !valid.ok()) {
    std::fprintf(stderr, "cannot split %s: %s\n", csv_path.c_str(),
                 valid.ToString().c_str());
    return 1;
  }
  data::DatasetSplits splits = data::MakeSplits(series, window);

  core::ConformerConfig config;
  config.d_model = 16;
  config.n_heads = 2;
  core::ConformerModel model(config, window, series.dims());

  // Fit resumes a checkpoint directory that already holds a run, so start
  // from an empty one to train from scratch.
  const std::string ckpt_dir = "/tmp/conformer_demo_checkpoints";
  std::filesystem::remove_all(ckpt_dir);
  train::TrainConfig tc;
  tc.epochs = 3;
  tc.learning_rate = 1.5e-3f;
  tc.max_train_batches = 40;
  tc.max_eval_batches = 8;
  tc.checkpoint_dir = ckpt_dir;
  train::Trainer trainer(tc);
  trainer.Fit(&model, splits.train, splits.val);
  train::EvalMetrics m = trainer.Evaluate(&model, splits.test);
  std::printf("test MSE %.4f MAE %.4f (standardized)\n", m.mse, m.mae);

  // Deployment: the run's last checkpoint holds the best-validation weights
  // Fit returned; load them the way InferenceSession does.
  core::ConformerModel deployed(config, window, series.dims());
  Status restored = train::LoadCheckpointParams(ckpt_dir, &deployed);
  if (!restored.ok()) {
    std::fprintf(stderr, "load failed: %s\n", restored.ToString().c_str());
    return 1;
  }
  deployed.SetTraining(false);

  // Forecast the most recent window, in original units.
  NoGradGuard guard;
  data::Batch batch = splits.test.GetRange(splits.test.size() - 1, 1);
  Tensor pred = deployed.Forward(batch);
  const int64_t target = series.target_column();
  std::printf("\nnext %lld hours of '%s':\n",
              static_cast<long long>(window.pred_len),
              series.column_names()[target].c_str());
  for (int64_t t = 0; t < window.pred_len; ++t) {
    std::printf("  t+%-3lld %8.3f\n", static_cast<long long>(t + 1),
                splits.scaler.InverseValue(pred.at({0, t, target}), target));
  }
  return 0;
}
