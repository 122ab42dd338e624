#include "attention/sliding_window_attention.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"
#include "util/profiler.h"

namespace conformer::attention {

SlidingWindowAttention::SlidingWindowAttention(int64_t window)
    : window_(window) {
  CONFORMER_CHECK_GE(window, 1);
}

Tensor SlidingWindowAttention::Forward(const Tensor& q, const Tensor& k,
                                       const Tensor& v, bool causal) const {
  CONFORMER_PROFILE_SCOPE_CAT("attention", "sliding_window");
  const int64_t lq = q.size(1);
  const int64_t lk = k.size(1);
  const int64_t half = window_ / 2;
  const int64_t width = 2 * half + 1;  // neighbours per side + self

  // Per-query key positions: centre c(i) maps query i onto the key axis
  // (identity for self-attention); out-of-range or causally-masked taps are
  // clamped and neutralized with a -1e9 additive mask.
  std::vector<int64_t> taps(lq * width);
  std::vector<float> mask(lq * width, 0.0f);
  // Each query writes its own tap row; the heavy lifting below happens in
  // the already-threaded gather/softmax/reduce kernels.
  ParallelFor(0, lq, /*grain=*/256, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t centre = lq == lk ? i : (i * lk) / lq;
      for (int64_t j = 0; j < width; ++j) {
        int64_t pos = centre - half + j;
        const bool out_of_range = pos < 0 || pos >= lk;
        const bool masked = causal && pos > centre;
        pos = std::clamp<int64_t>(pos, 0, lk - 1);
        taps[i * width + j] = pos;
        if (out_of_range || masked) mask[i * width + j] = -1e9f;
      }
    }
  });

  return internal::BandedAttention(q, k, v, taps, std::move(mask), width);
}

namespace internal {

Tensor BandedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                       const std::vector<int64_t>& taps,
                       std::vector<float> mask, int64_t width) {
  const int64_t bh = q.size(0);
  const int64_t lq = q.size(1);
  const int64_t dk = q.size(2);
  const int64_t dv = v.size(2);
  // Gather banded keys / values: [BH, Lq*W, d] -> [BH, Lq, W, d].
  Tensor k_band = Reshape(IndexSelect(k, 1, taps), {bh, lq, width, dk});
  Tensor v_band = Reshape(IndexSelect(v, 1, taps), {bh, lq, width, dv});

  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  Tensor q_exp = Reshape(q, {bh, lq, 1, dk});
  // scores [BH, Lq, W]
  Tensor scores = MulScalar(Sum(Mul(q_exp, k_band), {-1}), scale);
  scores = Add(scores, Tensor::FromVector(std::move(mask), {1, lq, width}));
  Tensor weights = Softmax(scores, -1);  // [BH, Lq, W]
  // out [BH, Lq, dv]
  return Sum(Mul(Reshape(weights, {bh, lq, width, 1}), v_band), {2});
}

}  // namespace internal

}  // namespace conformer::attention
