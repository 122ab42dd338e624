// The train_conformer workload's unit of work: one optimizer step of the
// Conformer at bench quick scale, making exactly the calls
// train::Trainer::Fit makes per step (ZeroGrad -> Loss -> item -> Backward
// -> ClipGradNorm -> Step), each phase timed from outside.
// train_equivalence_test pins the loop to Trainer::Fit bitwise.

#ifndef CONFORMER_BENCH_E2E_TRAIN_LOOP_H_
#define CONFORMER_BENCH_E2E_TRAIN_LOOP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "data/window_dataset.h"
#include "train/optimizer.h"

namespace conformer::bench_e2e {

// Bench quick scale (bench/bench_util.h): window 48/24/24, d_model 16,
// 2 heads, decomposition kernel 13, batch 16, Adam 2e-3, clip 5, synthetic
// ETTh1 at 6% of its Table I length.
inline constexpr double kDatasetScale = 0.06;
inline constexpr int64_t kTrainBatch = 16;
inline constexpr float kLearningRate = 2e-3f;
inline constexpr float kClipNorm = 5.0f;

data::WindowConfig TrainWindow();
models::ModelHyperParams BenchHyperParams();

/// The seeded synthetic ETTh1 stand-in every workload draws from.
data::TimeSeries MakeBenchSeries(uint64_t seed);

/// \brief Wall time of each phase of one step, nanoseconds.
struct StepTiming {
  int64_t data_ns = 0;       ///< BatchIterator::Next (+ epoch reshuffle).
  int64_t forward_ns = 0;    ///< Forecaster::Loss + Tensor::item.
  int64_t backward_ns = 0;   ///< Tensor::Backward.
  int64_t clip_ns = 0;       ///< train::ClipGradNorm.
  int64_t optimizer_ns = 0;  ///< Optimizer::ZeroGrad + Adam::Step.
  int64_t total_ns = 0;
  float loss = 0.0f;
  /// Loss and gradient norm were finite, so the update was applied (a
  /// non-finite step is skipped, as Trainer::Fit skips it).
  bool finite = true;
};

/// \brief A freshly initialised Conformer, its data and its optimizer.
class TrainLoop {
 public:
  /// Seeds the global RNG (weight init, dropout) with `seed`, builds the
  /// dataset seeded by `seed`, the model and Adam, and a shuffling batch
  /// iterator seeded like Trainer::Fit's (TrainConfig::seed = `seed`).
  explicit TrainLoop(uint64_t seed);

  /// Runs one step. Epochs wrap around with a fresh shuffle.
  StepTiming Step();

 private:
  data::TimeSeries series_;
  std::unique_ptr<data::DatasetSplits> splits_;
  std::unique_ptr<models::Forecaster> model_;
  std::vector<Tensor> params_;
  std::unique_ptr<train::Adam> optimizer_;
  Rng shuffle_rng_;
  std::unique_ptr<data::BatchIterator> batches_;
};

}  // namespace conformer::bench_e2e

#endif  // CONFORMER_BENCH_E2E_TRAIN_LOOP_H_
