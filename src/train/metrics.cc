#include "train/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace conformer::train {

void MetricAccumulator::Add(const Tensor& pred, const Tensor& target) {
  CONFORMER_CHECK_EQ(pred.numel(), target.numel());
  const float* p = pred.data();
  const float* t = target.data();
  const int64_t n = pred.numel();
  for (int64_t i = 0; i < n; ++i) {
    const double diff = static_cast<double>(p[i]) - static_cast<double>(t[i]);
    sum_sq_ += diff * diff;
    sum_abs_ += std::fabs(diff);
    sum_ape_ += std::fabs(diff) / std::max(std::fabs(static_cast<double>(t[i])),
                                           1e-3);
  }
  count_ += n;
}

double MetricAccumulator::mse() const {
  return count_ > 0 ? sum_sq_ / static_cast<double>(count_) : 0.0;
}

double MetricAccumulator::mae() const {
  return count_ > 0 ? sum_abs_ / static_cast<double>(count_) : 0.0;
}

double MetricAccumulator::rmse() const { return std::sqrt(mse()); }

double MetricAccumulator::mape() const {
  return count_ > 0 ? sum_ape_ / static_cast<double>(count_) : 0.0;
}

}  // namespace conformer::train
