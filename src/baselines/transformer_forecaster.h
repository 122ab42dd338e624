// Generic encoder-decoder Transformer forecaster parameterized by the
// attention mechanism — instantiating the paper's Transformer baselines:
//
//   Longformer  = sliding-window attention (wide window)        [16]
//   Informer    = ProbSparse attention + distilling encoder     [15]
//   Autoformer  = auto-correlation + series decomposition,
//                 no positional encoding                        [13]
//   Reformer    = LSH attention                                 [12]
//   LogTrans    = LogSparse causal convolution attention        [14]
//   Transformer = full attention                                [26]

#ifndef CONFORMER_BASELINES_TRANSFORMER_FORECASTER_H_
#define CONFORMER_BASELINES_TRANSFORMER_FORECASTER_H_

#include <memory>
#include <string>
#include <vector>

#include "attention/multi_head_attention.h"
#include "baselines/forecaster.h"
#include "nn/conv1d.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"

namespace conformer::models {

/// \brief Hyper-parameters of the generic Transformer forecaster.
struct TransformerConfig {
  std::string display_name = "Transformer";
  int64_t d_model = 32;
  int64_t n_heads = 4;
  int64_t enc_layers = 2;
  int64_t dec_layers = 1;
  int64_t d_ff = 64;
  attention::AttentionKind kind = attention::AttentionKind::kFull;
  attention::AttentionConfig attn;
  float dropout = 0.05f;
  bool distill = false;        ///< Informer's self-attention distilling.
  bool decomposition = false;  ///< Autoformer's seasonal-trend wiring.
  int64_t ma_kernel = 25;      ///< Decomposition window when enabled.
  bool positional = true;      ///< Autoformer omits the positional term.
};

/// \brief One encoder layer: self attention + feed-forward (optionally
/// seasonal-trend decomposed).
class TransformerEncoderLayer : public nn::Module {
 public:
  explicit TransformerEncoderLayer(const TransformerConfig& config);
  Tensor Forward(const Tensor& x) const;

 private:
  const bool decomposition_;
  const int64_t ma_kernel_;
  std::shared_ptr<attention::MultiHeadAttention> self_;
  std::shared_ptr<nn::Linear> ff1_;
  std::shared_ptr<nn::Linear> ff2_;
  std::shared_ptr<nn::LayerNorm> norm1_;
  std::shared_ptr<nn::LayerNorm> norm2_;
  std::shared_ptr<nn::Dropout> dropout_;
};

/// \brief One decoder layer: causal self attention, cross attention to the
/// encoder memory, feed-forward; accumulates the trend stream when
/// decomposition is enabled.
class TransformerDecoderLayer : public nn::Module {
 public:
  explicit TransformerDecoderLayer(const TransformerConfig& config);

  /// Returns the seasonal stream; adds any distilled trend into `*trend`.
  Tensor Forward(const Tensor& x, const Tensor& memory, Tensor* trend) const;

 private:
  const bool decomposition_;
  const int64_t ma_kernel_;
  std::shared_ptr<attention::MultiHeadAttention> self_;
  std::shared_ptr<attention::MultiHeadAttention> cross_;
  std::shared_ptr<nn::Linear> ff1_;
  std::shared_ptr<nn::Linear> ff2_;
  std::shared_ptr<nn::LayerNorm> norm1_;
  std::shared_ptr<nn::LayerNorm> norm2_;
  std::shared_ptr<nn::LayerNorm> norm3_;
  std::shared_ptr<nn::Dropout> dropout_;
};

class TransformerForecaster : public Forecaster {
 public:
  TransformerForecaster(const TransformerConfig& config,
                        data::WindowConfig window, int64_t dims);

  Tensor Forward(const data::Batch& batch) const override;
  std::string name() const override { return config_.display_name; }

  const TransformerConfig& config() const { return config_; }

 private:
  TransformerConfig config_;
  std::shared_ptr<nn::DataEmbedding> enc_embed_;
  std::shared_ptr<nn::DataEmbedding> dec_embed_;
  std::vector<std::shared_ptr<TransformerEncoderLayer>> enc_layers_;
  std::vector<std::shared_ptr<nn::Conv1dLayer>> distill_convs_;
  std::vector<std::shared_ptr<TransformerDecoderLayer>> dec_layers_;
  std::shared_ptr<nn::Linear> out_proj_;
  std::shared_ptr<nn::Linear> trend_proj_;
};

/// Ready-made configs for the named baselines.
TransformerConfig LongformerConfig();
TransformerConfig InformerConfig();
TransformerConfig AutoformerConfig();
TransformerConfig ReformerConfig();
TransformerConfig LogTransConfig();

}  // namespace conformer::models

#endif  // CONFORMER_BASELINES_TRANSFORMER_FORECASTER_H_
