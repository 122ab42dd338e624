#include "attention/sliding_window_attention.h"

#include <algorithm>

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
  // Each query writes its own tap row; BandedAttention does the rest.
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

  return BandedAttention(q, k, v, std::move(taps), std::move(mask), width);
}

}  // namespace conformer::attention
