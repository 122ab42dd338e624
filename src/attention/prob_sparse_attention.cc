#include "attention/prob_sparse_attention.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "attention/full_attention.h"
#include "tensor/capture.h"
#include "util/thread_pool.h"
#include "util/profiler.h"

namespace conformer::attention {

ProbSparseAttention::ProbSparseAttention(int64_t factor, uint64_t seed)
    : factor_(factor), seed_(seed) {
  CONFORMER_CHECK_GE(factor, 1);
}

Tensor ProbSparseAttention::Forward(const Tensor& q, const Tensor& k,
                                    const Tensor& v, bool causal) const {
  CONFORMER_PROFILE_SCOPE_CAT("attention", "prob_sparse");
  // The top-u query selection reads q and k on the host, so no fixed step
  // list replays it: a trace through here fails and the model serves
  // eagerly.
  conformer::internal::FailCapture(
      "ProbSparseAttention selects its top-u queries on the host");
  const int64_t bh = q.size(0);
  const int64_t lq = q.size(1);
  const int64_t lk = k.size(1);
  const int64_t dk = q.size(2);

  const int64_t log_lq = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(std::log(static_cast<double>(lq)))));
  const int64_t log_lk = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(std::log(static_cast<double>(lk)))));
  const int64_t u = std::min(lq, factor_ * log_lq);        // active queries
  const int64_t sample = std::min(lk, factor_ * 5 * log_lk);  // sampled keys

  // --- Selection (no gradient): sparsity measurement on sampled keys. ---
  std::vector<int64_t> top_queries(bh * u);
  {
    NoGradGuard guard;
    Rng rng(seed_);
    std::vector<int64_t> key_sample(sample);
    for (int64_t s = 0; s < sample; ++s) key_sample[s] = rng.UniformInt(lk);
    const float* qd = q.data();
    const float* kd = k.data();
    // The key sample is drawn once above, so each batch's sparsity
    // measurement is independent — batch-parallel with per-batch scratch.
    ParallelFor(0, bh, /*grain=*/1, [&](int64_t b0, int64_t b1) {
      std::vector<float> m(lq);
      std::vector<int64_t> order(lq);
      for (int64_t b = b0; b < b1; ++b) {
        for (int64_t i = 0; i < lq; ++i) {
          const float* qrow = qd + (b * lq + i) * dk;
          float mx = -1e30f;
          float mean = 0.0f;
          for (int64_t s = 0; s < sample; ++s) {
            const float* krow = kd + (b * lk + key_sample[s]) * dk;
            float dot = 0.0f;
            for (int64_t d = 0; d < dk; ++d) dot += qrow[d] * krow[d];
            mx = std::max(mx, dot);
            mean += dot;
          }
          m[i] = mx - mean / static_cast<float>(sample);
        }
        std::iota(order.begin(), order.end(), 0);
        std::partial_sort(order.begin(), order.begin() + u, order.end(),
                          [&](int64_t a, int64_t c) { return m[a] > m[c]; });
        std::copy(order.begin(), order.begin() + u,
                  top_queries.begin() + b * u);
      }
    });
  }

  // --- Differentiable aggregation. ---
  // Active queries gathered per batch, full attention over all keys.
  Tensor q_sel = BatchedIndexSelect(q, top_queries, u);  // [BH, u, dk]
  Tensor attended = internal::DenseAttention(q_sel, k, v, /*causal=*/false);

  // Lazy queries output mean(V); active rows are overwritten via a one-hot
  // scatter (differentiable through both paths).
  Tensor base = BroadcastTo(Mean(v, {1}, /*keepdim=*/true),
                            {bh, lq, v.size(2)});
  std::vector<float> scatter(bh * lq * u, 0.0f);
  std::vector<float> keep(bh * lq, 1.0f);
  for (int64_t b = 0; b < bh; ++b) {
    for (int64_t c = 0; c < u; ++c) {
      const int64_t row = top_queries[b * u + c];
      scatter[(b * lq + row) * u + c] = 1.0f;
      keep[b * lq + row] = 0.0f;
    }
  }
  Tensor scatter_t = Tensor::FromVector(std::move(scatter), {bh, lq, u});
  Tensor keep_t = Tensor::FromVector(std::move(keep), {bh, lq, 1});
  (void)causal;  // Informer-style decoder masking is approximated by the
                 // mean-of-V fallback; see DESIGN.md.
  return Add(Mul(base, keep_t), MatMul(scatter_t, attended));
}

}  // namespace conformer::attention
