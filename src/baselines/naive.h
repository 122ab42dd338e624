// Parameter-free reference forecaster: the last-value ("naive") predictor
// every forecasting study is sanity-checked against. A learned model that
// cannot beat it is not learning.

#ifndef CONFORMER_BASELINES_NAIVE_H_
#define CONFORMER_BASELINES_NAIVE_H_

#include "baselines/forecaster.h"

namespace conformer::models {

/// \brief Repeats the final observed value across the horizon.
class NaiveForecaster : public Forecaster {
 public:
  NaiveForecaster(data::WindowConfig window, int64_t dims)
      : Forecaster(window, dims) {}

  Tensor Forward(const data::Batch& batch) const override;
  std::string name() const override { return "Naive"; }
};

}  // namespace conformer::models

#endif  // CONFORMER_BASELINES_NAIVE_H_
