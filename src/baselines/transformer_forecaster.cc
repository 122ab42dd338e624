#include "baselines/transformer_forecaster.h"

#include "core/series_decomposition.h"
#include "data/time_features.h"

namespace conformer::models {

namespace {

// Seasonal part of x when decomposition is on, else x unchanged; the trend
// is accumulated into *trend when provided.
Tensor KeepSeasonal(const Tensor& x, bool decomposition, int64_t ma_kernel,
                    Tensor* trend) {
  if (!decomposition) return x;
  core::Decomposition d = core::DecomposeSeries(x, ma_kernel);
  if (trend != nullptr) {
    *trend = trend->defined() ? Add(*trend, d.trend) : d.trend;
  }
  return d.seasonal;
}

}  // namespace

TransformerEncoderLayer::TransformerEncoderLayer(const TransformerConfig& config)
    : decomposition_(config.decomposition), ma_kernel_(config.ma_kernel) {
  self_ = RegisterModule("self",
                         std::make_shared<attention::MultiHeadAttention>(
                             config.d_model, config.n_heads, config.kind,
                             config.attn));
  ff1_ = RegisterModule(
      "ff1", std::make_shared<nn::Linear>(config.d_model, config.d_ff));
  ff2_ = RegisterModule(
      "ff2", std::make_shared<nn::Linear>(config.d_ff, config.d_model));
  norm1_ = RegisterModule("norm1",
                          std::make_shared<nn::LayerNorm>(config.d_model));
  norm2_ = RegisterModule("norm2",
                          std::make_shared<nn::LayerNorm>(config.d_model));
  dropout_ = RegisterModule("dropout",
                            std::make_shared<nn::Dropout>(config.dropout));
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x) const {
  Tensor attended = dropout_->Forward(self_->Forward(x));
  Tensor h = Add(x, attended);
  h = KeepSeasonal(h, decomposition_, ma_kernel_, nullptr);
  h = norm1_->Forward(h);
  Tensor ff = ff2_->Forward(Gelu(ff1_->Forward(h)));
  Tensor out = Add(h, dropout_->Forward(ff));
  out = KeepSeasonal(out, decomposition_, ma_kernel_, nullptr);
  return norm2_->Forward(out);
}

TransformerDecoderLayer::TransformerDecoderLayer(const TransformerConfig& config)
    : decomposition_(config.decomposition), ma_kernel_(config.ma_kernel) {
  self_ = RegisterModule("self",
                         std::make_shared<attention::MultiHeadAttention>(
                             config.d_model, config.n_heads, config.kind,
                             config.attn));
  cross_ = RegisterModule("cross",
                          std::make_shared<attention::MultiHeadAttention>(
                              config.d_model, config.n_heads,
                              attention::AttentionKind::kFull));
  ff1_ = RegisterModule(
      "ff1", std::make_shared<nn::Linear>(config.d_model, config.d_ff));
  ff2_ = RegisterModule(
      "ff2", std::make_shared<nn::Linear>(config.d_ff, config.d_model));
  norm1_ = RegisterModule("norm1",
                          std::make_shared<nn::LayerNorm>(config.d_model));
  norm2_ = RegisterModule("norm2",
                          std::make_shared<nn::LayerNorm>(config.d_model));
  norm3_ = RegisterModule("norm3",
                          std::make_shared<nn::LayerNorm>(config.d_model));
  dropout_ = RegisterModule("dropout",
                            std::make_shared<nn::Dropout>(config.dropout));
}

Tensor TransformerDecoderLayer::Forward(const Tensor& x, const Tensor& memory,
                                        Tensor* trend) const {
  Tensor h = Add(x, dropout_->Forward(self_->Forward(x, /*causal=*/true)));
  h = KeepSeasonal(h, decomposition_, ma_kernel_, trend);
  h = norm1_->Forward(h);
  Tensor attended =
      dropout_->Forward(cross_->Forward(h, memory, memory, /*causal=*/false));
  h = Add(h, attended);
  h = KeepSeasonal(h, decomposition_, ma_kernel_, trend);
  h = norm2_->Forward(h);
  Tensor ff = ff2_->Forward(Gelu(ff1_->Forward(h)));
  Tensor out = Add(h, dropout_->Forward(ff));
  out = KeepSeasonal(out, decomposition_, ma_kernel_, trend);
  return norm3_->Forward(out);
}

TransformerForecaster::TransformerForecaster(const TransformerConfig& config,
                                             data::WindowConfig window,
                                             int64_t dims)
    : Forecaster(window, dims), config_(config) {
  enc_embed_ = RegisterModule(
      "enc_embed",
      std::make_shared<nn::DataEmbedding>(dims, data::kNumTimeFeatures,
                                          config.d_model, config.dropout,
                                          config.positional));
  dec_embed_ = RegisterModule(
      "dec_embed",
      std::make_shared<nn::DataEmbedding>(dims, data::kNumTimeFeatures,
                                          config.d_model, config.dropout,
                                          config.positional));
  for (int64_t i = 0; i < config.enc_layers; ++i) {
    enc_layers_.push_back(
        RegisterModule("enc" + std::to_string(i),
                       std::make_shared<TransformerEncoderLayer>(config)));
    if (config.distill && i + 1 < config.enc_layers) {
      distill_convs_.push_back(RegisterModule(
          "distill" + std::to_string(i),
          std::make_shared<nn::Conv1dLayer>(config.d_model, config.d_model,
                                            /*kernel=*/3, /*padding=*/1,
                                            PadMode::kCircular)));
    }
  }
  for (int64_t i = 0; i < config.dec_layers; ++i) {
    dec_layers_.push_back(
        RegisterModule("dec" + std::to_string(i),
                       std::make_shared<TransformerDecoderLayer>(config)));
  }
  out_proj_ = RegisterModule(
      "out_proj", std::make_shared<nn::Linear>(config.d_model, dims));
  if (config.decomposition) {
    trend_proj_ = RegisterModule(
        "trend_proj", std::make_shared<nn::Linear>(config.d_model, dims));
  }
}

Tensor TransformerForecaster::Forward(const data::Batch& batch) const {
  Tensor memory = enc_embed_->Forward(batch.x, batch.x_mark);
  size_t distill_idx = 0;
  for (size_t i = 0; i < enc_layers_.size(); ++i) {
    memory = enc_layers_[i]->Forward(memory);
    if (config_.distill && i + 1 < enc_layers_.size()) {
      // Informer's distilling: convolve, activate, max-pool to halve the
      // sequence length.
      Tensor t = Permute(memory, {0, 2, 1});
      t = Gelu(distill_convs_[distill_idx++]->Forward(t));
      t = MaxPool1d(t, /*kernel=*/2, /*stride=*/2);
      memory = Permute(t, {0, 2, 1});
    }
  }

  Tensor dec_in = DecoderInput(batch);
  Tensor h = dec_embed_->Forward(dec_in, batch.y_mark);
  Tensor trend;
  for (const auto& layer : dec_layers_) {
    h = layer->Forward(h, memory, &trend);
  }
  Tensor series = out_proj_->Forward(h);
  if (config_.decomposition && trend.defined()) {
    series = Add(series, trend_proj_->Forward(trend));
  }
  const int64_t total = series.size(1);
  return Slice(series, 1, total - window_.pred_len, total);
}

TransformerConfig LongformerConfig() {
  TransformerConfig c;
  c.display_name = "Longformer";
  c.kind = attention::AttentionKind::kSlidingWindow;
  c.attn.window = 16;  // Longformer uses a wide local window.
  return c;
}

TransformerConfig InformerConfig() {
  TransformerConfig c;
  c.display_name = "Informer";
  c.kind = attention::AttentionKind::kProbSparse;
  c.attn.factor = 1;  // Paper: sampling factor 1 for Informer/Autoformer.
  c.distill = true;
  return c;
}

TransformerConfig AutoformerConfig() {
  TransformerConfig c;
  c.display_name = "Autoformer";
  c.kind = attention::AttentionKind::kAutoCorrelation;
  c.attn.factor = 1;
  c.decomposition = true;
  c.positional = false;  // Section V-A2: positional embedding omitted.
  return c;
}

TransformerConfig ReformerConfig() {
  TransformerConfig c;
  c.display_name = "Reformer";
  c.kind = attention::AttentionKind::kLsh;
  c.attn.lsh_buckets = 8;
  c.attn.lsh_chunk = 24;  // Paper: bucket length 24.
  return c;
}

TransformerConfig LogTransConfig() {
  TransformerConfig c;
  c.display_name = "LogTrans";
  c.kind = attention::AttentionKind::kLogSparse;
  c.enc_layers = 2;  // Paper: 2 LogTransformer blocks, sub_len 1.
  return c;
}

}  // namespace conformer::models
