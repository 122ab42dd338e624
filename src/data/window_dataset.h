// Rolling-window forecasting dataset (input-Lx-predict-Ly with stride one,
// Section V-A3) plus chronological train/val/test splitting and batching.
//
// Samples follow the Informer convention shared by all baselines: the
// decoder target block covers label_len known steps followed by pred_len
// steps to forecast.

#ifndef CONFORMER_DATA_WINDOW_DATASET_H_
#define CONFORMER_DATA_WINDOW_DATASET_H_

#include <cstdint>
#include <vector>

#include "data/scaler.h"
#include "data/time_series.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace conformer::data {

/// \brief One minibatch of windowed samples.
struct Batch {
  Tensor x;       ///< [B, input_len, D] encoder input (standardized).
  Tensor x_mark;  ///< [B, input_len, F] calendar features.
  Tensor y;       ///< [B, label_len + pred_len, D] decoder block.
  Tensor y_mark;  ///< [B, label_len + pred_len, F].
  int64_t size() const { return x.defined() ? x.size(0) : 0; }
};

/// \brief Window geometry.
struct WindowConfig {
  int64_t input_len = 96;
  int64_t label_len = 48;
  int64_t pred_len = 96;
};

/// \brief Windowed view over a (standardized) TimeSeries.
class WindowDataset {
 public:
  WindowDataset(TimeSeries series, WindowConfig config);

  /// Number of complete windows.
  int64_t size() const;

  const WindowConfig& config() const { return config_; }
  int64_t dims() const { return series_.dims(); }
  const TimeSeries& series() const { return series_; }

  /// Materializes the samples at `indices` into one batch.
  Batch GetBatch(const std::vector<int64_t>& indices) const;

  /// Sequential batch [first, first+count).
  Batch GetRange(int64_t first, int64_t count) const;

 private:
  TimeSeries series_;
  WindowConfig config_;
  std::vector<float> marks_;  // [N, kNumTimeFeatures]
};

/// \brief The three chronological splits, standardized with train statistics.
struct DatasetSplits {
  WindowDataset train;
  WindowDataset val;
  WindowDataset test;
  StandardScaler scaler;
};

/// InvalidArgument unless `config` is a valid window geometry and each split
/// MakeSplits would cut from `series` holds at least one window. Callers
/// with untrusted data or geometry check this first: MakeSplits itself
/// aborts on what it rejects.
Status ValidateSplits(const TimeSeries& series, const WindowConfig& config);

/// Splits n rows 70 / 10 / 20: train ends at row n * 7 / 10 and val at
/// n * 8 / 10, both in integer arithmetic. Val/test segments keep
/// `input_len` context rows from the preceding split so their first windows
/// exist (the Informer border convention). Aborts on any split
/// ValidateSplits would reject.
DatasetSplits MakeSplits(const TimeSeries& series, const WindowConfig& config);

/// \brief Iterates a dataset in shuffled minibatches.
class BatchIterator {
 public:
  BatchIterator(const WindowDataset& dataset, int64_t batch_size, bool shuffle,
                Rng* rng = nullptr);

  /// Next minibatch; false when the epoch is exhausted.
  bool Next(Batch* batch);

  /// Advances past `n` batches without materializing them (checkpoint
  /// resume: re-shuffle, then skip the batches the interrupted run already
  /// consumed).
  void Skip(int64_t n);

  /// Restarts the epoch (reshuffling when enabled).
  void Reset();

  int64_t num_batches() const;

 private:
  const WindowDataset& dataset_;
  int64_t batch_size_;
  bool shuffle_;
  Rng* rng_;
  std::vector<int64_t> order_;
  int64_t cursor_ = 0;
};

}  // namespace conformer::data

#endif  // CONFORMER_DATA_WINDOW_DATASET_H_
