#include "core/input_representation.h"

#include <cmath>

#include "fft/autocorrelation.h"
#include "nn/init.h"
#include "tensor/capture.h"
#include "tensor/ops.h"
#include "util/profiler.h"

namespace conformer::core {

namespace {

// Cardinality of each calendar resolution's vocabulary.
int64_t ResolutionCardinality(TemporalResolution r) {
  switch (r) {
    case TemporalResolution::kMinute:
      return 60;
    case TemporalResolution::kHour:
      return 24;
    case TemporalResolution::kDayOfWeek:
      return 7;
    case TemporalResolution::kDayOfMonth:
      return 31;
  }
  return 1;
}

// Recovers the discrete calendar index from the normalized mark features
// (see data/time_features.cc for the encoding: column r of a mark row holds
// resolution r scaled into [-0.5, 0.5]). A mark outside that range clamps
// to [0, cardinality - 1] and NaN decodes to 0, so no request indexes
// outside a table; an in-range mark decodes as std::lround rounds it.
int64_t ResolutionIndex(TemporalResolution r, const float* mark_row) {
  const int64_t top = ResolutionCardinality(r) - 1;
  const float scaled =
      (mark_row[static_cast<int>(r)] + 0.5f) * static_cast<float>(top);
  if (!(scaled > 0.0f)) return 0;
  if (scaled >= static_cast<float>(top)) return top;
  return std::lround(scaled);
}

// Eq. (1) with lag-0 normalization over raw pointers: x [batch, length,
// dims] -> corr [batch, length, dims]. The eager call and the plan's replay
// closure both run it.
void MultivariateCorrelation(const float* x, int64_t batch, int64_t length,
                             int64_t dims, float* corr) {
  // Gather the (batch, variable) columns into contiguous rows and run one
  // batched FFT auto-correlation over all of them (threaded; see
  // fft::AutoCorrelationBatch for the determinism contract).
  std::vector<double> columns(batch * dims * length);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t d = 0; d < dims; ++d) {
      double* column = columns.data() + (b * dims + d) * length;
      for (int64_t t = 0; t < length; ++t) {
        column[t] = x[(b * length + t) * dims + d];
      }
    }
  }
  const std::vector<double> ac =
      fft::AutoCorrelationBatch(columns, batch * dims, length);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t d = 0; d < dims; ++d) {
      const double* row = ac.data() + (b * dims + d) * length;
      // Normalize by lag-0 energy so variables are comparable.
      const double denom = std::max(std::fabs(row[0]), 1e-8);
      for (int64_t t = 0; t < length; ++t) {
        corr[(b * length + t) * dims + d] = static_cast<float>(row[t] / denom);
      }
    }
  }
}

}  // namespace

const char* InputVariantName(InputVariant variant) {
  switch (variant) {
    case InputVariant::kFull:
      return "full";
    case InputVariant::kNoMultiscale:
      return "-Gamma";
    case InputVariant::kNoCorrelation:
      return "-R";
    case InputVariant::kNoCorrNoMultiscale:
      return "-R-Gamma";
    case InputVariant::kNoRaw:
      return "-X";
    case InputVariant::kNoRawNoMultiscale:
      return "-X-Gamma";
  }
  return "?";
}

const char* FusionMethodName(FusionMethod method) {
  switch (method) {
    case FusionMethod::kDefault:
      return "default";
    case FusionMethod::kMethod1:
      return "method1";
    case FusionMethod::kMethod2:
      return "method2";
    case FusionMethod::kMethod3:
      return "method3";
    case FusionMethod::kMethod4:
      return "method4";
  }
  return "?";
}

InputRepresentation::InputRepresentation(const InputRepresentationConfig& config)
    : config_(config) {
  CONFORMER_CHECK_GT(config_.dims, 0);
  CONFORMER_CHECK_GT(config_.length, 0);
  CONFORMER_CHECK(!config_.resolutions.empty())
      << "at least one temporal resolution";
  // W^v, b^v of Eq. (5): kernel-3 circular convolution dims -> d_model.
  value_conv_ = RegisterModule(
      "value_conv",
      std::make_shared<nn::Conv1dLayer>(config_.dims, config_.d_model,
                                        /*kernel=*/3, /*padding=*/1,
                                        PadMode::kCircular, /*bias=*/true));
  // Eq. (3)-(4): one embedding table and one [L, L] mixer per resolution.
  const int64_t l = config_.length;
  for (size_t k = 0; k < config_.resolutions.size(); ++k) {
    scale_embeddings_.push_back(RegisterModule(
        "scale_emb" + std::to_string(k),
        std::make_shared<nn::Embedding>(
            ResolutionCardinality(config_.resolutions[k]), config_.d_model)));
    scale_mixers_.push_back(RegisterParameter(
        "scale_mixer" + std::to_string(k),
        // Near-identity init keeps early training close to a plain sum of
        // resolution embeddings.
        Add(Tensor::Eye(l), nn::XavierUniform({l, l}, l, l) * 0.1f)));
  }
  scale_bias_ =
      RegisterParameter("scale_bias", Tensor::Zeros({l, config_.d_model}));
}

Tensor InputRepresentation::MultivariateWeights(const Tensor& x) const {
  // Eq. (1): per-variable auto-correlation over the window, a host step with
  // no gradient (the weights depend only on the raw input); Eq. (2):
  // softmax across variables per lag.
  CONFORMER_PROFILE_SCOPE_CAT("model", "multivariate_correlation");
  const int64_t batch = x.size(0);
  const int64_t length = x.size(1);
  const int64_t dims = x.size(2);
  Tensor mr = conformer::internal::CaptureHostStep(
      "MultivariateCorrelation", {batch, length, dims}, {x},
      [batch, length, dims](const float* const* in, float* out) {
        MultivariateCorrelation(in[0], batch, length, dims, out);
      });
  return Softmax(mr, -1);
}

Tensor InputRepresentation::MultiscaleDynamics(const Tensor& marks) const {
  const int64_t batch = marks.size(0);
  const int64_t length = marks.size(1);
  CONFORMER_CHECK_EQ(length, config_.length)
      << "InputRepresentation built for length " << config_.length;
  const int64_t f = marks.size(2);

  Tensor out;
  for (size_t k = 0; k < config_.resolutions.size(); ++k) {
    // The per-step calendar indices of this resolution, as floats (exact:
    // every cardinality is at most 60).
    const TemporalResolution r = config_.resolutions[k];
    Tensor indices = conformer::internal::CaptureHostStep(
        "CalendarIndex", {batch, length}, {marks},
        [r, n = batch * length, f](const float* const* in, float* idx) {
          for (int64_t i = 0; i < n; ++i) {
            idx[i] = static_cast<float>(ResolutionIndex(r, in[0] + i * f));
          }
        });
    Tensor emb = scale_embeddings_[k]->Forward(indices);  // [B, L, d_model]
    // Eq. (4): temporal mixing with W^S_k in R^{L x L}.
    Tensor mixed = MatMul(scale_mixers_[k], emb);
    out = out.defined() ? Add(out, mixed) : mixed;
  }
  return Add(out, scale_bias_);
}

Tensor InputRepresentation::Forward(const Tensor& x, const Tensor& marks) const {
  CONFORMER_PROFILE_SCOPE_CAT("model", "input_representation");
  CONFORMER_CHECK_EQ(x.size(2), config_.dims);
  const InputVariant variant = config_.variant;
  const FusionMethod fusion = config_.fusion;

  const bool use_corr = variant != InputVariant::kNoCorrelation &&
                        variant != InputVariant::kNoCorrNoMultiscale;
  const bool use_raw = variant != InputVariant::kNoRaw &&
                       variant != InputVariant::kNoRawNoMultiscale;
  const bool use_multiscale = variant == InputVariant::kFull ||
                              variant == InputVariant::kNoCorrelation ||
                              variant == InputVariant::kNoRaw;

  Tensor gamma;  // multiscale term, [B, L, d_model]
  if (use_multiscale || fusion != FusionMethod::kDefault) {
    gamma = MultiscaleDynamics(marks);
  }

  if (fusion != FusionMethod::kDefault) {
    // Table VIII experiments: W^Gamma = Softmax(Gamma) mixes over d_model,
    // projected back onto the raw variable space via its softmax weights.
    Tensor w_r = MultivariateWeights(x);
    Tensor corr_term = Mul(w_r, x);
    // W^Gamma X: gate the raw series by the (softmaxed) multiscale signal
    // reduced to a per-step scalar.
    Tensor gate = Softmax(Mean(gamma, {2}, /*keepdim=*/true), 1);  // [B, L, 1]
    Tensor gated_x = Mul(MulScalar(gate, static_cast<float>(x.size(1))), x);
    Tensor inner;
    switch (fusion) {
      case FusionMethod::kMethod1:
        inner = Add(Mul(gate * static_cast<float>(x.size(1)), corr_term), x);
        break;
      case FusionMethod::kMethod2:
        inner = Add(corr_term, gated_x);
        break;
      case FusionMethod::kMethod3:
        inner = Add(Add(corr_term, gated_x), x);
        break;
      case FusionMethod::kMethod4:
      case FusionMethod::kDefault:
        inner = Add(corr_term, x);
        break;
    }
    Tensor embedded =
        Permute(value_conv_->Forward(Permute(inner, {0, 2, 1})), {0, 2, 1});
    if (fusion == FusionMethod::kMethod4) {
      Tensor gate_out = Softmax(Mean(gamma, {2}, /*keepdim=*/true), 1);
      embedded = Mul(MulScalar(gate_out, static_cast<float>(x.size(1))), embedded);
    }
    return embedded;
  }

  // Eq. (5): X^v = Conv(W^R X + X) (terms toggled by the Table V variant).
  Tensor inner;
  if (use_corr) {
    Tensor corr_term = Mul(MultivariateWeights(x), x);
    inner = use_raw ? Add(corr_term, x) : corr_term;
  } else {
    CONFORMER_CHECK(use_raw) << "variant removes both W^R X and X";
    inner = x;
  }
  Tensor x_v = Permute(value_conv_->Forward(Permute(inner, {0, 2, 1})), {0, 2, 1});

  // Eq. (6): X^in = X^v + Gamma^S.
  return use_multiscale ? Add(x_v, gamma) : x_v;
}

}  // namespace conformer::core
