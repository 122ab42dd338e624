// Name-based model factory used by the bench harness and examples.

#ifndef CONFORMER_BASELINES_REGISTRY_H_
#define CONFORMER_BASELINES_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/forecaster.h"
#include "util/status.h"

namespace conformer::models {

/// \brief Size knobs shared across models so comparisons stay fair.
struct ModelHyperParams {
  int64_t d_model = 32;
  int64_t n_heads = 4;
  int64_t hidden = 32;   ///< RNN / FC hidden size for non-Transformer models.
  /// Moving-average width of the series decompositions (Conformer SIRN and
  /// Autoformer); should stay well below the window length.
  int64_t ma_kernel = 25;
  float dropout = 0.05f;
  uint64_t seed = 7;
  bool univariate = false;  ///< Selects the univariate Conformer RNN depths.
};

/// Every model name MakeForecaster accepts, in registry order: Conformer,
/// the Transformer family, the RNN/CNN/MLP baselines, and the linear and
/// naive floors.
std::vector<std::string> AvailableModels();

/// Builds a model by (case-insensitive) name; NotFound for names outside
/// AvailableModels(), InvalidArgument for a window, `dims` or `params` the
/// model cannot run (non-positive sizes, label_len outside [0, input_len],
/// d_model not divisible by n_heads, ma_kernel < 1, dropout outside [0, 1),
/// an input or decoder window shorter than the architecture needs). A config
/// that passes never CHECK-aborts in the constructor or in Predict.
Result<std::unique_ptr<Forecaster>> MakeForecaster(
    const std::string& name, data::WindowConfig window, int64_t dims,
    const ModelHyperParams& params = {});

}  // namespace conformer::models

#endif  // CONFORMER_BASELINES_REGISTRY_H_
