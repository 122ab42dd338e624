#include "nn/gru.h"

#include <cmath>

#include "nn/init.h"

namespace conformer::nn {

GruCell::GruCell(int64_t input_size, int64_t hidden_size)
    : input_size_(input_size), hidden_size_(hidden_size) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(hidden_size));
  w_ih_ = RegisterParameter("w_ih",
                            UniformInit({input_size, 3 * hidden_size}, bound));
  w_hh_ = RegisterParameter("w_hh",
                            UniformInit({hidden_size, 3 * hidden_size}, bound));
  b_ih_ = RegisterParameter("b_ih", UniformInit({3 * hidden_size}, bound));
  b_hh_ = RegisterParameter("b_hh", UniformInit({3 * hidden_size}, bound));
}

Tensor GruCell::InputGates(const Tensor& x) const {
  CONFORMER_CHECK_EQ(x.size(-1), input_size_);
  const int64_t batch = x.size(0);
  const int64_t length = x.size(1);
  Tensor flat = Reshape(x, {batch * length, input_size_});
  return Reshape(Add(MatMul(flat, w_ih_), b_ih_),
                 {batch, length, 3 * hidden_size_});
}

Tensor GruCell::Forward(const Tensor& x) const {
  return GruSequence(InputGates(x), w_hh_, b_hh_);
}

Gru::Gru(int64_t input_size, int64_t hidden_size, int64_t num_layers)
    : hidden_size_(hidden_size) {
  CONFORMER_CHECK_GE(num_layers, 1);
  for (int64_t l = 0; l < num_layers; ++l) {
    const int64_t in = l == 0 ? input_size : hidden_size;
    cells_.push_back(RegisterModule("layer" + std::to_string(l),
                                    std::make_shared<GruCell>(in, hidden_size)));
  }
}

GruOutput Gru::Forward(const Tensor& x) const {
  CONFORMER_CHECK_EQ(x.dim(), 3) << "Gru expects [B, L, input]";
  const int64_t length = x.size(1);
  CONFORMER_CHECK_GE(length, 1) << "Gru needs at least one step";

  // Each layer is one batched input projection plus one GruSequence op; the
  // next layer consumes the whole output sequence.
  std::vector<Tensor> first_states;
  std::vector<Tensor> last_states;
  Tensor seq = x;
  for (const auto& cell : cells_) {
    seq = cell->Forward(seq);  // [B, L, h]
    first_states.push_back(Squeeze(Slice(seq, 1, 0, 1), 1));
    last_states.push_back(Squeeze(Slice(seq, 1, length - 1, length), 1));
  }

  GruOutput out;
  out.output = seq;
  out.last_hidden = StackTensors(last_states, /*dim=*/0);
  out.first_hidden = StackTensors(first_states, /*dim=*/0);
  return out;
}

}  // namespace conformer::nn
