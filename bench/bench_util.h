// Shared harness for the table/figure reproduction benches: scaled-down
// experiment configs, a train-and-evaluate runner, and the table printer
// emitting the same row structure the paper reports. Also the timer, row
// type and JSON printer shared by the micro-benches (bench_parallel_kernels,
// bench_fft, bench_serving, bench_fleet).
//
// Scaling: the paper trains input-96 models with d_model 512 on an A100;
// this repo runs on one CPU core, so the default "quick" scale shrinks
// sequence lengths, model width, and epochs while keeping every structural
// knob identical. Set CONFORMER_BENCH_SCALE=full for paper-sized runs.

#ifndef CONFORMER_BENCH_BENCH_UTIL_H_
#define CONFORMER_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "data/dataset_registry.h"
#include "train/trainer.h"
#include "util/env.h"
#include "util/string_util.h"

namespace conformer::bench {

/// \brief Global bench scale resolved from CONFORMER_BENCH_SCALE.
struct BenchScale {
  bool full = false;
  double dataset_scale = 0.06;  ///< Fraction of Table I point counts.
  /// Quick scale: input 48 covers two daily cycles of the hourly datasets,
  /// mirroring input-96's two-cycle coverage in the paper.
  int64_t input_len = 48;       ///< Paper: 96.
  int64_t label_len = 24;
  /// Paper horizons {48, 96, 192, 384, 768} map onto these.
  std::vector<int64_t> horizons = {24, 48};
  int64_t d_model = 16;
  int64_t n_heads = 2;
  /// Decomposition moving-average width, scaled with input_len (paper: 25
  /// on 96-step inputs -> 13 on 48-step inputs).
  int64_t ma_kernel = 13;
  int64_t epochs = 3;
  int64_t batch_size = 16;
  int64_t max_train_batches = 25;
  int64_t max_eval_batches = 6;
};

inline BenchScale GetBenchScale() {
  BenchScale s;
  if (GetEnv("CONFORMER_BENCH_SCALE") == "full") {
    s.full = true;
    s.dataset_scale = 1.0;
    s.input_len = 96;
    s.label_len = 48;
    s.horizons = {48, 96, 192, 384, 768};
    s.d_model = 64;
    s.n_heads = 8;
    s.ma_kernel = 25;
    s.epochs = 10;
    s.batch_size = 32;
    s.max_train_batches = 0;
    s.max_eval_batches = 0;
  }
  return s;
}

/// \brief One (model, dataset, horizon) score.
struct Score {
  double mse = 0.0;
  double mae = 0.0;
};

/// Trains `model` on chronological splits of `series` and returns test
/// MSE/MAE, mirroring Section V-A3's protocol.
inline Score RunExperiment(models::Forecaster* model,
                           const data::TimeSeries& series,
                           const data::WindowConfig& window,
                           const BenchScale& scale, uint64_t seed = 1) {
  data::DatasetSplits splits = data::MakeSplits(series, window);
  train::TrainConfig config;
  config.epochs = scale.epochs;
  config.batch_size = scale.batch_size;
  config.learning_rate = scale.full ? 1e-4f : 2e-3f;
  config.max_train_batches = scale.max_train_batches;
  config.max_eval_batches = scale.max_eval_batches;
  config.seed = seed;
  train::Trainer trainer(config);
  trainer.Fit(model, splits.train, splits.val);
  train::EvalMetrics m = trainer.Evaluate(model, splits.test);
  return Score{m.mse, m.mae};
}

/// Convenience: build the named model with bench-scaled hyper-params.
inline std::unique_ptr<models::Forecaster> MakeBenchModel(
    const std::string& name, const data::WindowConfig& window, int64_t dims,
    const BenchScale& scale, bool univariate = false) {
  models::ModelHyperParams params;
  params.d_model = scale.d_model;
  params.n_heads = scale.n_heads;
  params.hidden = scale.d_model;
  params.ma_kernel = scale.ma_kernel;
  params.univariate = univariate;
  auto result = models::MakeForecaster(name, window, dims, params);
  CONFORMER_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// \brief Accumulates rows and prints a paper-style table:
/// rows = (dataset, horizon), columns = models, cells = MSE / MAE.
class ResultTable {
 public:
  explicit ResultTable(std::string title) : title_(std::move(title)) {}

  void Add(const std::string& row, const std::string& model, Score score) {
    if (std::find(rows_.begin(), rows_.end(), row) == rows_.end()) {
      rows_.push_back(row);
    }
    if (std::find(models_.begin(), models_.end(), model) == models_.end()) {
      models_.push_back(model);
    }
    cells_[{row, model}] = score;
  }

  void Print() const {
    std::printf("\n== %s ==\n", title_.c_str());
    std::printf("%-18s", "");
    for (const std::string& m : models_) std::printf("| %-17s", m.c_str());
    std::printf("\n%-18s", "dataset/horizon");
    for (size_t i = 0; i < models_.size(); ++i) std::printf("| %-8s %-8s", "MSE", "MAE");
    std::printf("\n");
    for (const std::string& row : rows_) {
      std::printf("%-18s", row.c_str());
      // Mark the best MSE in the row.
      double best = 1e30;
      for (const std::string& m : models_) {
        auto it = cells_.find({row, m});
        if (it != cells_.end()) best = std::min(best, it->second.mse);
      }
      for (const std::string& m : models_) {
        auto it = cells_.find({row, m});
        if (it == cells_.end()) {
          std::printf("| %-17s", "-");
          continue;
        }
        const char marker = it->second.mse == best ? '*' : ' ';
        std::printf("|%c%-8s %-8s", marker,
                    FormatFixed(it->second.mse, 4).c_str(),
                    FormatFixed(it->second.mae, 4).c_str());
      }
      std::printf("\n");
    }
    std::fflush(stdout);
  }

  /// Wins by lowest MSE per row, for the summary line.
  std::map<std::string, int> WinsByModel() const {
    std::map<std::string, int> wins;
    for (const std::string& row : rows_) {
      std::string best_model;
      double best = 1e30;
      for (const std::string& m : models_) {
        auto it = cells_.find({row, m});
        if (it != cells_.end() && it->second.mse < best) {
          best = it->second.mse;
          best_model = m;
        }
      }
      if (!best_model.empty()) wins[best_model] += 1;
    }
    return wins;
  }

 private:
  std::string title_;
  std::vector<std::string> rows_;
  std::vector<std::string> models_;
  std::map<std::pair<std::string, std::string>, Score> cells_;
};

/// Per-measurement wall budget of the micro-benches: longer windows tighten
/// run-to-run variance on noisy machines. CONFORMER_BENCH_MIN_MILLIS
/// overrides the default 100ms.
inline double MinSeconds() {
  static const double min_seconds =
      static_cast<double>(GetEnvInt("CONFORMER_BENCH_MIN_MILLIS", 100)) * 1e-3;
  return min_seconds;
}

/// Runs `fn` once untimed (absorbing one-off costs: plan capture, FFT plan
/// builds, first-touch of pooled buffers), then repeatedly until
/// MinSeconds() have elapsed; returns calls per second.
template <typename Fn>
double MeasureOpsPerSec(Fn fn) {
  using Clock = std::chrono::steady_clock;
  fn();
  int64_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < MinSeconds());
  return static_cast<double>(iters) / elapsed;
}

inline int64_t HardwareThreads() {
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::thread::hardware_concurrency()));
}

/// \brief One micro-bench measurement.
struct BenchRow {
  std::string kernel;
  int64_t threads;
  double ops_per_sec;
};

/// Prints `rows` as the JSON document tools/compare_bench.py diffs:
///
///   {"hardware_concurrency": N,
///    "results": [{"kernel": "gemm_512", "threads": 1, "ops_per_sec": ...}]}
inline void PrintBenchJson(const std::vector<BenchRow>& rows) {
  std::printf("{\"hardware_concurrency\": %lld, \"results\": [",
              static_cast<long long>(HardwareThreads()));
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf(
        "%s\n  {\"kernel\": \"%s\", \"threads\": %lld, \"ops_per_sec\": %.3f}",
        i == 0 ? "" : ",", rows[i].kernel.c_str(),
        static_cast<long long>(rows[i].threads), rows[i].ops_per_sec);
  }
  std::printf("\n]}\n");
}

}  // namespace conformer::bench

#endif  // CONFORMER_BENCH_BENCH_UTIL_H_
