// Evaluation metrics (MSE / MAE, the paper's Table II-IX metrics).

#ifndef CONFORMER_TRAIN_METRICS_H_
#define CONFORMER_TRAIN_METRICS_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace conformer::train {

/// \brief Accumulates squared / absolute / percentage error over
/// evaluation batches.
class MetricAccumulator {
 public:
  /// Adds every element of pred vs target (same shape).
  void Add(const Tensor& pred, const Tensor& target);

  double mse() const;
  double mae() const;
  double rmse() const;
  /// Mean absolute percentage error; denominators are floored at 1e-3 to
  /// survive (standardized) near-zero targets.
  double mape() const;
  int64_t count() const { return count_; }

 private:
  double sum_sq_ = 0.0;
  double sum_abs_ = 0.0;
  double sum_ape_ = 0.0;
  int64_t count_ = 0;
};

/// \brief Final evaluation scores.
struct EvalMetrics {
  double mse = 0.0;
  double mae = 0.0;
};

}  // namespace conformer::train

#endif  // CONFORMER_TRAIN_METRICS_H_
