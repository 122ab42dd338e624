// Conformer's input representation (Section IV-A, Eqs. 1-6): fuses
// FFT-derived multivariate correlation, multiscale calendar dynamics, and a
// convolutional value embedding.
//
// The ablation variants of Table V and the fusion methods of Table VIII are
// both selected through the config so the bench harness can sweep them.

#ifndef CONFORMER_CORE_INPUT_REPRESENTATION_H_
#define CONFORMER_CORE_INPUT_REPRESENTATION_H_

#include <memory>
#include <vector>

#include "nn/conv1d.h"
#include "nn/embedding.h"
#include "nn/module.h"

namespace conformer::core {

/// \brief Calendar resolutions available for the multiscale block (Eq. 3).
enum class TemporalResolution { kMinute, kHour, kDayOfWeek, kDayOfMonth };

/// \brief Table V ablation variants of Eq. (6).
enum class InputVariant {
  kFull,                ///< X^in = X^v + Gamma (Eq. 6)
  kNoMultiscale,        ///< X^in_{-Gamma}
  kNoCorrelation,       ///< X^in_{-R}
  kNoCorrNoMultiscale,  ///< X^in_{-R-Gamma}
  kNoRaw,               ///< X^in_{-X}
  kNoRawNoMultiscale,   ///< X^in_{-X-Gamma}
};

/// \brief Table VIII fusion methods (Section V-G1).
enum class FusionMethod {
  kDefault,  ///< Eq. (6)
  kMethod1,  ///< W^v . (W^Gamma W^R X + X) + b
  kMethod2,  ///< W^v . (W^R X + W^Gamma X) + b
  kMethod3,  ///< W^v . (W^R X + W^Gamma X + X) + b
  kMethod4,  ///< [W^v . (W^R X + X) + b] W^Gamma
};

const char* InputVariantName(InputVariant variant);
const char* FusionMethodName(FusionMethod method);

/// \brief Config of one InputRepresentation instance.
struct InputRepresentationConfig {
  int64_t dims = 7;          ///< Raw variable count d_x.
  int64_t length = 96;       ///< Sequence length L this instance embeds.
  int64_t d_model = 32;
  std::vector<TemporalResolution> resolutions = {
      TemporalResolution::kHour, TemporalResolution::kDayOfWeek};
  InputVariant variant = InputVariant::kFull;
  FusionMethod fusion = FusionMethod::kDefault;
};

/// \brief Produces X^in [B, L, d_model] from raw series and marks.
class InputRepresentation : public nn::Module {
 public:
  explicit InputRepresentation(const InputRepresentationConfig& config);

  /// x [B, L, dims] (standardized values), marks [B, L, kNumTimeFeatures].
  Tensor Forward(const Tensor& x, const Tensor& marks) const;

  /// Eq. (1)-(2): softmax over variables of the per-lag auto-correlation;
  /// constant w.r.t. parameters (computed from the raw input). Public so the
  /// FFT bench and the rewrite-regression test can drive the correlation
  /// path in isolation; Forward is the production entry point.
  Tensor MultivariateWeights(const Tensor& x) const;

  const InputRepresentationConfig& config() const { return config_; }

 private:
  /// Eq. (3)-(4): multiscale calendar embedding, [B, L, d_model].
  Tensor MultiscaleDynamics(const Tensor& marks) const;

  InputRepresentationConfig config_;
  std::shared_ptr<nn::Conv1dLayer> value_conv_;  // W^v, b^v of Eq. (5)
  std::vector<std::shared_ptr<nn::Embedding>> scale_embeddings_;
  std::vector<Tensor> scale_mixers_;  // W^S_k, [L, L] each
  Tensor scale_bias_;                 // b^S as [L, d_model]
};

}  // namespace conformer::core

#endif  // CONFORMER_CORE_INPUT_REPRESENTATION_H_
