// Per-column standardization fitted on the training split, applied to all
// splits (the evaluation convention of Informer/Autoformer that the paper
// follows).

#ifndef CONFORMER_DATA_SCALER_H_
#define CONFORMER_DATA_SCALER_H_

#include <vector>

#include "data/time_series.h"

namespace conformer::data {

class StandardScaler {
 public:
  /// Estimates per-column mean/std from `series` (std floors at 1e-8).
  void Fit(const TimeSeries& series);

  /// Returns a standardized copy.
  TimeSeries Transform(const TimeSeries& series) const;

  /// Undoes the transform for column `dim` of a scalar value.
  float InverseValue(float standardized, int64_t dim) const;

  bool fitted() const { return !mean_.empty(); }
  const std::vector<float>& mean() const { return mean_; }
  const std::vector<float>& std() const { return std_; }

 private:
  std::vector<float> mean_;
  std::vector<float> std_;
};

}  // namespace conformer::data

#endif  // CONFORMER_DATA_SCALER_H_
