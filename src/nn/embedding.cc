#include "nn/embedding.h"

#include <cmath>

#include "nn/init.h"
#include "tensor/ops.h"

namespace conformer::nn {

Embedding::Embedding(int64_t num_embeddings, int64_t dim) : dim_(dim) {
  weight_ = RegisterParameter(
      "weight", Tensor::Randn({num_embeddings, dim}) * 0.02f);
}

Tensor Embedding::Forward(const Tensor& indices) const {
  return EmbeddingLookup(weight_, indices);
}

TokenEmbedding::TokenEmbedding(int64_t c_in, int64_t d_model) {
  conv_ = RegisterModule(
      "conv", std::make_shared<Conv1dLayer>(c_in, d_model, /*kernel=*/3,
                                            /*padding=*/1, PadMode::kCircular,
                                            /*bias=*/false));
}

Tensor TokenEmbedding::Forward(const Tensor& x) const {
  CONFORMER_CHECK_EQ(x.dim(), 3) << "TokenEmbedding expects [B, L, c_in]";
  Tensor channels_first = Permute(x, {0, 2, 1});
  Tensor out = conv_->Forward(channels_first);
  return Permute(out, {0, 2, 1});
}

PositionalEncoding::PositionalEncoding(int64_t d_model, int64_t max_len) {
  std::vector<float> table(max_len * d_model, 0.0f);
  for (int64_t pos = 0; pos < max_len; ++pos) {
    for (int64_t i = 0; i < d_model; i += 2) {
      const double angle =
          static_cast<double>(pos) /
          std::pow(10000.0, static_cast<double>(i) / static_cast<double>(d_model));
      table[pos * d_model + i] = static_cast<float>(std::sin(angle));
      if (i + 1 < d_model) {
        table[pos * d_model + i + 1] = static_cast<float>(std::cos(angle));
      }
    }
  }
  table_ = Tensor::FromVector(std::move(table), {max_len, d_model});
}

Tensor PositionalEncoding::Forward(int64_t length) const {
  CONFORMER_CHECK_LE(length, table_.size(0)) << "sequence exceeds max_len";
  return Unsqueeze(Slice(table_, 0, 0, length), 0);
}

TimeFeatureEmbedding::TimeFeatureEmbedding(int64_t n_features, int64_t d_model) {
  proj_ = RegisterModule("proj",
                         std::make_shared<Linear>(n_features, d_model,
                                                  /*bias=*/false));
}

Tensor TimeFeatureEmbedding::Forward(const Tensor& marks) const {
  return proj_->Forward(marks);
}

DataEmbedding::DataEmbedding(int64_t c_in, int64_t n_time_features,
                             int64_t d_model, float dropout,
                             bool use_positional)
    : use_positional_(use_positional) {
  value_ = RegisterModule("value", std::make_shared<TokenEmbedding>(c_in, d_model));
  positional_ = RegisterModule("positional",
                               std::make_shared<PositionalEncoding>(d_model));
  temporal_ = RegisterModule(
      "temporal",
      std::make_shared<TimeFeatureEmbedding>(n_time_features, d_model));
  dropout_ = RegisterModule("dropout", std::make_shared<Dropout>(dropout));
}

Tensor DataEmbedding::Forward(const Tensor& x, const Tensor& marks) const {
  Tensor out = Add(value_->Forward(x), temporal_->Forward(marks));
  if (use_positional_) out = Add(out, positional_->Forward(x.size(1)));
  return dropout_->Forward(out);
}

}  // namespace conformer::nn
