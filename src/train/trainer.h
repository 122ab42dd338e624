// Training loop: Adam, gradient clipping, early stopping on validation MSE
// with best-weights restore — the protocol of Section V-A3 — plus the
// crash-safety layer of docs/ROBUSTNESS.md: atomic checkpointing with exact
// resume and non-finite-loss recovery.

#ifndef CONFORMER_TRAIN_TRAINER_H_
#define CONFORMER_TRAIN_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/forecaster.h"
#include "data/window_dataset.h"
#include "train/metrics.h"

namespace conformer::train {

/// \brief Knobs of one training run.
struct TrainConfig {
  int64_t epochs = 10;        ///< Paper: early stopping within 10 epochs.
  int64_t batch_size = 32;
  float learning_rate = 1e-4f;
  int64_t patience = 3;       ///< Epochs without val improvement tolerated.
  float clip_norm = 5.0f;     ///< 0 disables clipping.
  /// Caps batches per epoch / per evaluation (0 = no cap). The scaled-down
  /// bench configs rely on these to keep single-core runs tractable.
  int64_t max_train_batches = 0;
  int64_t max_eval_batches = 0;
  uint64_t seed = 42;
  bool verbose = false;

  // -- Crash safety (docs/ROBUSTNESS.md) ------------------------------------

  /// Directory for checkpoints; empty disables checkpointing entirely.
  /// Fit checkpoints at every epoch boundary and, when the directory already
  /// holds a valid checkpoint, continues from it: a resumed run reproduces
  /// the uninterrupted run bitwise (same shuffles, same updates, same
  /// FitResult history). The run's final checkpoint holds the restored
  /// best-validation weights, so the directory is the trained model.
  std::string checkpoint_dir;
  /// Also checkpoint every N optimizer steps (0 = epoch boundaries only).
  int64_t checkpoint_every_n_steps = 0;
  /// Retained checkpoint count; older ones are pruned from the manifest.
  int64_t checkpoint_keep_last = 2;

  // -- Fault injection (tests / docs only) ----------------------------------

  /// When > 0, Fit returns abruptly after this many global steps without
  /// running validation or restoring best weights — simulating a crash so
  /// kill-and-resume behaviour is testable in-process.
  int64_t debug_abort_after_steps = 0;
};

/// \brief Outcome of Trainer::Fit.
struct FitResult {
  int64_t epochs_run = 0;
  double best_val_mse = 0.0;
  bool early_stopped = false;
  std::vector<double> train_losses;  ///< Mean loss per epoch (finite steps).
  std::vector<double> val_mses;      ///< Validation MSE per epoch.
  int64_t nonfinite_steps = 0;  ///< Steps skipped for NaN/Inf loss or grad.
  bool resumed = false;         ///< True when Fit continued from a checkpoint.
};

class Trainer {
 public:
  explicit Trainer(TrainConfig config) : config_(config) {}

  /// Trains `model` and restores the best-validation weights before
  /// returning (and before writing the run's final checkpoint). A step whose
  /// loss or gradient norm is NaN/Inf is skipped (no optimizer update) and
  /// counted in train.nonfinite_steps; after 3 consecutive skipped steps,
  /// parameters and optimizer state are restored from the last known-good
  /// snapshot (docs/ROBUSTNESS.md).
  FitResult Fit(models::Forecaster* model, const data::WindowDataset& train,
                const data::WindowDataset& val) const;

  /// MSE/MAE of `model` on `dataset` (standardized space, as in the paper).
  EvalMetrics Evaluate(models::Forecaster* model,
                       const data::WindowDataset& dataset) const;

  const TrainConfig& config() const { return config_; }

 private:
  TrainConfig config_;
};

}  // namespace conformer::train

#endif  // CONFORMER_TRAIN_TRAINER_H_
