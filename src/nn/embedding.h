// Input embeddings shared by Conformer and the Transformer baselines:
// value (token) embedding via circular convolution, fixed sinusoidal
// positional encoding, and calendar time-feature embedding. The combination
// (DataEmbedding) follows the Informer convention the paper adopts for all
// Transformer baselines; Autoformer/Conformer drop the positional term.

#ifndef CONFORMER_NN_EMBEDDING_H_
#define CONFORMER_NN_EMBEDDING_H_

#include <memory>

#include "nn/conv1d.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace conformer::nn {

/// \brief Lookup table [num_embeddings, dim]; input is an index tensor.
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim);

  /// indices (integers stored as floats, any shape) -> [indices..., dim]
  Tensor Forward(const Tensor& indices) const;

  int64_t dim() const { return dim_; }

 private:
  int64_t dim_;
  Tensor weight_;
};

/// \brief Projects raw series values [B, L, c_in] to [B, L, d_model] with a
/// kernel-3 circular convolution over time.
class TokenEmbedding : public Module {
 public:
  TokenEmbedding(int64_t c_in, int64_t d_model);

  Tensor Forward(const Tensor& x) const;

 private:
  std::shared_ptr<Conv1dLayer> conv_;
};

/// \brief Fixed sinusoidal positional encoding, returned as [1, L, d_model].
class PositionalEncoding : public Module {
 public:
  explicit PositionalEncoding(int64_t d_model, int64_t max_len = 4096);

  /// Encoding for the first `length` positions: [1, length, d_model].
  Tensor Forward(int64_t length) const;

 private:
  Tensor table_;  // [max_len, d_model], not learnable
};

/// \brief Linear embedding of calendar time features [B, L, n_features]
/// into the model dimension.
class TimeFeatureEmbedding : public Module {
 public:
  TimeFeatureEmbedding(int64_t n_features, int64_t d_model);

  Tensor Forward(const Tensor& marks) const;

 private:
  std::shared_ptr<Linear> proj_;
};

/// \brief value + [positional] + time embedding with dropout.
class DataEmbedding : public Module {
 public:
  DataEmbedding(int64_t c_in, int64_t n_time_features, int64_t d_model,
                float dropout = 0.05f, bool use_positional = true);

  /// x [B, L, c_in], marks [B, L, n_time_features] -> [B, L, d_model].
  Tensor Forward(const Tensor& x, const Tensor& marks) const;

 private:
  bool use_positional_;
  std::shared_ptr<TokenEmbedding> value_;
  std::shared_ptr<PositionalEncoding> positional_;
  std::shared_ptr<TimeFeatureEmbedding> temporal_;
  std::shared_ptr<Dropout> dropout_;
};

}  // namespace conformer::nn

#endif  // CONFORMER_NN_EMBEDDING_H_
