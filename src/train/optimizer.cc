#include "train/optimizer.h"

#include <cmath>
#include <string>

#include "util/binary_io.h"
#include "util/profiler.h"

namespace conformer::train {

namespace {

void SaveParamBuffers(std::ostream& out,
                      const std::vector<std::vector<float>>& buffers) {
  io::WriteU64(out, buffers.size());
  for (const std::vector<float>& buf : buffers) {
    io::WriteFloats(out, buf.data(), static_cast<int64_t>(buf.size()));
  }
}

// Reads one buffer per parameter and checks each against the matching
// parameter's numel.
Status LoadParamBuffers(std::istream& in, const std::vector<Tensor>& params,
                        const std::string& what,
                        std::vector<std::vector<float>>* buffers) {
  uint64_t count = 0;
  CONFORMER_RETURN_IF_ERROR(io::ReadU64(in, &count, what + " buffer count"));
  if (count != params.size()) {
    return Status::InvalidArgument(
        what + ": state holds " + std::to_string(count) +
        " buffers but the optimizer tracks " + std::to_string(params.size()) +
        " parameters");
  }
  std::vector<std::vector<float>> loaded(count);
  for (uint64_t i = 0; i < count; ++i) {
    CONFORMER_RETURN_IF_ERROR(io::ReadFloats(
        in, &loaded[i], what + " buffer " + std::to_string(i)));
    const uint64_t expect = static_cast<uint64_t>(params[i].numel());
    if (loaded[i].size() != expect) {
      return Status::InvalidArgument(
          what + " buffer " + std::to_string(i) + " has " +
          std::to_string(loaded[i].size()) + " elements, parameter has " +
          std::to_string(expect));
    }
  }
  *buffers = std::move(loaded);
  return Status::OK();
}

}  // namespace

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].numel(), 0.0f);
    v_[i].assign(params_[i].numel(), 0.0f);
  }
}

void Adam::ZeroGrad() {
  CONFORMER_PROFILE_SCOPE_CAT("train", "zero_grad");
  for (Tensor& p : params_) p.ZeroGrad();
}

void Adam::Step() {
  CONFORMER_PROFILE_SCOPE_CAT("optimizer", "adam_step");
  ++step_count_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (!p.has_grad()) continue;
    const float* g = p.grad_data();
    float* w = p.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) {
      float grad = g[j] + weight_decay_ * w[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad * grad;
      const float m_hat = m[j] / bias1;
      const float v_hat = v[j] / bias2;
      w[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

void Adam::SaveState(std::ostream& out) const {
  io::WriteF64(out, lr_);
  io::WriteF64(out, beta1_);
  io::WriteF64(out, beta2_);
  io::WriteF64(out, eps_);
  io::WriteF64(out, weight_decay_);
  io::WriteI64(out, step_count_);
  SaveParamBuffers(out, m_);
  SaveParamBuffers(out, v_);
}

Status Adam::LoadState(std::istream& in) {
  double lr = 0.0, beta1 = 0.0, beta2 = 0.0, eps = 0.0, weight_decay = 0.0;
  int64_t step_count = 0;
  CONFORMER_RETURN_IF_ERROR(io::ReadF64(in, &lr, "adam lr"));
  CONFORMER_RETURN_IF_ERROR(io::ReadF64(in, &beta1, "adam beta1"));
  CONFORMER_RETURN_IF_ERROR(io::ReadF64(in, &beta2, "adam beta2"));
  CONFORMER_RETURN_IF_ERROR(io::ReadF64(in, &eps, "adam eps"));
  CONFORMER_RETURN_IF_ERROR(io::ReadF64(in, &weight_decay, "adam wd"));
  CONFORMER_RETURN_IF_ERROR(io::ReadI64(in, &step_count, "adam step count"));
  if (step_count < 0) {
    return Status::InvalidArgument("adam step count is negative: " +
                                   std::to_string(step_count));
  }
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
  CONFORMER_RETURN_IF_ERROR(LoadParamBuffers(in, params_, "adam m", &m));
  CONFORMER_RETURN_IF_ERROR(LoadParamBuffers(in, params_, "adam v", &v));
  lr_ = static_cast<float>(lr);
  beta1_ = static_cast<float>(beta1);
  beta2_ = static_cast<float>(beta2);
  eps_ = static_cast<float>(eps);
  weight_decay_ = static_cast<float>(weight_decay);
  step_count_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

double ClipGradNorm(std::vector<Tensor>& params, double max_norm) {
  CONFORMER_PROFILE_SCOPE_CAT("optimizer", "clip_grad_norm");
  double total = 0.0;
  for (Tensor& p : params) {
    if (!p.has_grad()) continue;
    const float* g = p.grad_data();
    for (int64_t j = 0; j < p.numel(); ++j) {
      total += static_cast<double>(g[j]) * static_cast<double>(g[j]);
    }
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Tensor& p : params) {
      if (!p.has_grad()) continue;
      float* g = p.grad_data();
      for (int64_t j = 0; j < p.numel(); ++j) g[j] *= scale;
    }
  }
  return norm;
}

}  // namespace conformer::train
