#include "attention/log_sparse_attention.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"
#include "util/profiler.h"

namespace conformer::attention {

LogSparseAttention::LogSparseAttention(int64_t sub_len) : sub_len_(sub_len) {
  CONFORMER_CHECK_GE(sub_len, 0);
}

Tensor LogSparseAttention::Forward(const Tensor& q, const Tensor& k,
                                   const Tensor& v, bool causal) const {
  CONFORMER_PROFILE_SCOPE_CAT("attention", "log_sparse");
  (void)causal;  // The log-sparse pattern is causal by construction.
  CONFORMER_CHECK_EQ(q.size(1), k.size(1))
      << "log-sparse attention is self-attention only";
  const int64_t length = q.size(1);

  // Tap pattern per position: self, sub_len neighbours, exponential steps.
  const int64_t log_taps = static_cast<int64_t>(
                               std::floor(std::log2(std::max<int64_t>(1, length)))) +
                           1;
  const int64_t width = 1 + sub_len_ + log_taps;
  std::vector<int64_t> taps(length * width);
  std::vector<float> mask(length * width, 0.0f);
  // Tap rows are independent per position.
  ParallelFor(0, length, /*grain=*/256, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      int64_t w = 0;
      auto add_tap = [&](int64_t pos) {
        const bool invalid = pos < 0;
        taps[i * width + w] = std::max<int64_t>(pos, 0);
        if (invalid) mask[i * width + w] = -1e9f;
        ++w;
      };
      add_tap(i);
      for (int64_t s = 1; s <= sub_len_; ++s) add_tap(i - s);
      for (int64_t step = sub_len_ + 1, t = 0; t < log_taps; ++t, step <<= 1) {
        add_tap(i - step);
      }
    }
  });

  return BandedAttention(q, k, v, std::move(taps), std::move(mask), width);
}

}  // namespace conformer::attention
