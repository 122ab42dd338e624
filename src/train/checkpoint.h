// Crash-safe training checkpoints (docs/ROBUSTNESS.md).
//
// A checkpoint is one binary file holding four CRC32-protected sections —
// model parameters, optimizer state, RNG engine state, and the trainer's
// epoch/step/early-stopping cursor — written atomically (temp file + fsync
// + rename). A plain-text MANIFEST in the checkpoint directory lists the
// retained files oldest-first; restore walks it newest-first and falls back
// to an older checkpoint when the newest fails validation, so a crash
// mid-write (or bit rot caught by CRC) never loses the run.
//
// File layout (little-endian):
//   u32 magic, u32 version, u32 section_count
//   per section: string name, u64 payload_len, u32 crc32(payload), payload
//
// Section payloads:
//   "model"      nn::SerializeModule stream
//   "optimizer"  string "adam" + Adam::SaveState stream
//   "rng"        Rng::Serialize() text (state at the start of the epoch)
//   "trainer"    TrainProgress fields (cursor, accumulators, FitResult
//                history, best-validation parameter snapshot)

#ifndef CONFORMER_TRAIN_CHECKPOINT_H_
#define CONFORMER_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "nn/module.h"
#include "train/optimizer.h"
#include "train/trainer.h"
#include "util/status.h"

namespace conformer::train {

/// \brief Everything Trainer::Fit needs to resume a run bitwise-identically:
/// where it was, the partial-epoch accumulators, the early-stopping state,
/// and the RNG state from which the current epoch's shuffle was drawn.
struct TrainProgress {
  int64_t epoch = 0;           ///< Epoch the next step belongs to.
  int64_t step_in_epoch = 0;   ///< Batches already consumed this epoch.
  int64_t global_step = 0;     ///< Steps across all epochs (checkpoint id).
  double loss_sum = 0.0;       ///< Partial-epoch loss accumulator.
  int64_t finite_batches = 0;  ///< Batches contributing to loss_sum.
  double best_val = std::numeric_limits<double>::infinity();
  int64_t bad_epochs = 0;
  /// Rng state at the start of `epoch`, before the shuffle: re-creating the
  /// BatchIterator from it reproduces the identical batch order.
  std::string epoch_rng_state;
  FitResult result;  ///< Per-epoch history accumulated so far.
  /// Parameter values at the best validation epoch (empty before the first
  /// validation improvement).
  std::vector<std::vector<float>> best_snapshot;
};

/// Reads one checkpoint file into `model`, `optimizer` (which must track
/// `model->Parameters()`), and `progress`. Every section is validated —
/// CRCs, the optimizer type ("adam"), buffer counts and sizes, the model
/// stream, the best snapshot's geometry — before any state is written, so a
/// rejected file leaves the inputs unchanged.
Status LoadCheckpointFile(const std::string& path, nn::Module* model,
                          Adam* optimizer, TrainProgress* progress);

/// Reads only the "model" section of a checkpoint into `model` — the
/// serving path's loader (docs/SERVING.md). `path` is a .ckpt file or a
/// checkpoint directory, whose MANIFEST is walked newest-first like
/// CheckpointManager::RestoreLatest, loading the newest checkpoint whose
/// sections all validate. Every section's CRC is still validated
/// (corruption anywhere in the file rejects it), but no optimizer / RNG /
/// trainer state is required, matched, or touched.
Status LoadCheckpointParams(const std::string& path, nn::Module* model);

/// \brief Owns a checkpoint directory: atomic writes, a manifest of the
/// last K checkpoints, and newest-first restore with fallback.
class CheckpointManager {
 public:
  /// `keep_last` < 1 is clamped to 1.
  explicit CheckpointManager(std::string dir, int64_t keep_last = 2);

  /// Atomically writes a checkpoint named after `progress.global_step`,
  /// appends it to the manifest, and prunes checkpoints beyond the
  /// retention window. Bumps train.checkpoint_writes / observes
  /// train.checkpoint_seconds.
  Status Save(const nn::Module& model, const Adam& optimizer,
              const TrainProgress& progress);

  /// Restores the newest manifest entry that validates, trying older ones
  /// on failure. Returns NotFound when the directory holds no manifest or
  /// the manifest is empty; IOError when every retained checkpoint fails.
  Status RestoreLatest(nn::Module* model, Adam* optimizer,
                       TrainProgress* progress) const;

  /// Manifest entries as absolute paths, oldest first. NotFound without a
  /// manifest.
  Result<std::vector<std::string>> ListCheckpoints() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  int64_t keep_last_;
};

}  // namespace conformer::train

#endif  // CONFORMER_TRAIN_CHECKPOINT_H_
