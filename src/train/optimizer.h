// Adam, the one optimizer the paper trains with, and global-norm gradient
// clipping.

#ifndef CONFORMER_TRAIN_OPTIMIZER_H_
#define CONFORMER_TRAIN_OPTIMIZER_H_

#include <istream>
#include <ostream>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace conformer::train {

/// \brief Adam (Kingma & Ba) over a module's parameter list. The paper
/// trains every model with Adam at lr = 1e-4 (Section V-A3). Step() applies
/// one update from the parameters' accumulated gradients; ZeroGrad() clears
/// them.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr = 1e-4f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update from the current gradients.
  void Step();

  void ZeroGrad();

  float learning_rate() const { return lr_; }

  /// Serializes every piece of state a bitwise-identical resume needs
  /// (hyperparameters, step count, per-parameter moment buffers).
  void SaveState(std::ostream& out) const;

  /// Restores state written by SaveState on an optimizer constructed over
  /// the same parameter list; validates buffer counts and sizes against
  /// the current parameters before overwriting anything.
  Status LoadState(std::istream& in);

 private:
  std::vector<Tensor> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t step_count_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Scales all gradients so their global L2 norm is at most `max_norm`;
/// returns the pre-clip norm.
double ClipGradNorm(std::vector<Tensor>& params, double max_norm);

}  // namespace conformer::train

#endif  // CONFORMER_TRAIN_OPTIMIZER_H_
