// Gated recurrent unit (multi-layer). The paper's SIRN and RNN baselines are
// all built on GRUs (Section V-A3: "All of the RNN blocks in Conformer are
// implemented with GRU").

#ifndef CONFORMER_NN_GRU_H_
#define CONFORMER_NN_GRU_H_

#include <memory>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace conformer::nn {

/// \brief Output of a GRU forward pass.
struct GruOutput {
  Tensor output;       ///< [B, L, hidden] — top layer states at every step.
  Tensor last_hidden;  ///< [num_layers, B, hidden] — final state per layer.
  Tensor first_hidden; ///< [num_layers, B, hidden] — state after step 1
                       ///< (the "h_1" fed to the normalizing flow, Table IX).
};

/// \brief A single GRU layer (torch gate layout r, z, n).
class GruCell : public Module {
 public:
  GruCell(int64_t input_size, int64_t hidden_size);

  /// Input-side gate pre-activations for a whole sequence in one matmul:
  /// x [B, L, input] -> [B, L, 3*hidden].
  Tensor InputGates(const Tensor& x) const;

  /// The layer over a whole sequence from a zero state: x [B, L, input] ->
  /// every step's state [B, L, hidden]. InputGates plus one GruSequence op.
  Tensor Forward(const Tensor& x) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Tensor w_ih_;  // [input, 3*hidden]
  Tensor w_hh_;  // [hidden, 3*hidden]
  Tensor b_ih_;  // [3*hidden]
  Tensor b_hh_;  // [3*hidden]
};

/// \brief Stacked GRU over a [B, L, input] sequence.
class Gru : public Module {
 public:
  Gru(int64_t input_size, int64_t hidden_size, int64_t num_layers = 1);

  /// Runs the full sequence from a zero initial state.
  GruOutput Forward(const Tensor& x) const;

  int64_t hidden_size() const { return hidden_size_; }
  int64_t num_layers() const { return static_cast<int64_t>(cells_.size()); }

 private:
  int64_t hidden_size_;
  std::vector<std::shared_ptr<GruCell>> cells_;
};

}  // namespace conformer::nn

#endif  // CONFORMER_NN_GRU_H_
