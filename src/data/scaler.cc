#include "data/scaler.h"

#include <cmath>

#include "util/logging.h"

namespace conformer::data {

void StandardScaler::Fit(const TimeSeries& series) {
  const int64_t n = series.num_points();
  const int64_t dims = series.dims();
  CONFORMER_CHECK_GT(n, 0);
  mean_.assign(dims, 0.0f);
  std_.assign(dims, 0.0f);
  for (int64_t d = 0; d < dims; ++d) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) acc += series.value(i, d);
    mean_[d] = static_cast<float>(acc / static_cast<double>(n));
    double var = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double diff = series.value(i, d) - mean_[d];
      var += diff * diff;
    }
    std_[d] = static_cast<float>(
        std::max(std::sqrt(var / static_cast<double>(n)), 1e-8));
  }
}

TimeSeries StandardScaler::Transform(const TimeSeries& series) const {
  CONFORMER_CHECK(fitted()) << "Transform before Fit";
  CONFORMER_CHECK_EQ(series.dims(), static_cast<int64_t>(mean_.size()));
  TimeSeries out = series;
  for (int64_t i = 0; i < out.num_points(); ++i) {
    for (int64_t d = 0; d < out.dims(); ++d) {
      out.set_value(i, d, (out.value(i, d) - mean_[d]) / std_[d]);
    }
  }
  return out;
}

float StandardScaler::InverseValue(float standardized, int64_t dim) const {
  CONFORMER_CHECK(fitted());
  return standardized * std_[dim] + mean_[dim];
}

}  // namespace conformer::data
