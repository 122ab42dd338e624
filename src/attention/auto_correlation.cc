#include "attention/auto_correlation.h"

#include <algorithm>
#include <cmath>

#include "fft/autocorrelation.h"
#include "tensor/capture.h"
#include "util/profiler.h"

namespace conformer::attention {

AutoCorrelationAttention::AutoCorrelationAttention(int64_t factor)
    : factor_(factor) {
  CONFORMER_CHECK_GE(factor, 1);
}

Tensor AutoCorrelationAttention::Forward(const Tensor& q, const Tensor& k_in,
                                         const Tensor& v_in,
                                         bool causal) const {
  CONFORMER_PROFILE_SCOPE_CAT("attention", "auto_correlation");
  // The FFT top-k lag selection reads q and k on the host, so no fixed step
  // list replays it: a trace through here fails and the model serves
  // eagerly.
  conformer::internal::FailCapture(
      "AutoCorrelationAttention picks its top-k lags on the host");
  (void)causal;  // The operator aggregates rolled series; masking does not apply.
  const int64_t bh = q.size(0);
  const int64_t lq = q.size(1);
  const int64_t lk = k_in.size(1);
  const int64_t dk = q.size(2);

  // Autoformer convention for cross attention: truncate or zero-pad keys and
  // values to the query length.
  Tensor k = k_in;
  Tensor v = v_in;
  if (lk > lq) {
    k = Slice(k, 1, 0, lq);
    v = Slice(v, 1, 0, lq);
  } else if (lk < lq) {
    k = Pad(k, 1, 0, lq - lk, 0.0f);
    v = Pad(v, 1, 0, lq - lk, 0.0f);
  }
  const int64_t length = lq;

  // --- Candidate lags per row from the FFT of its correlation. ---
  // Every row picks its own top-k lags from its channel-averaged q/k, so a
  // served forecast never depends on the requests it is batched with
  // (DESIGN.md §2). fft::CrossCorrelation is exact and O(L log L) at any
  // query length (it folds the padded linear correlation back to circular),
  // so non-power-of-two decoder lengths never fall back to a direct O(L^2)
  // scan.
  const int64_t top_k = std::min<int64_t>(
      length - 1,
      factor_ * static_cast<int64_t>(
                    std::ceil(std::log(std::max<int64_t>(2, length)))));
  std::vector<std::vector<int64_t>> lags(bh);
  {
    NoGradGuard guard;
    const float* qd = q.data();
    const float* kd = k.data();
    std::vector<double> q_series(length);
    std::vector<double> k_series(length);
    for (int64_t b = 0; b < bh; ++b) {
      for (int64_t t = 0; t < length; ++t) {
        double qacc = 0.0;
        double kacc = 0.0;
        for (int64_t d = 0; d < dk; ++d) {
          qacc += qd[(b * length + t) * dk + d];
          kacc += kd[(b * length + t) * dk + d];
        }
        q_series[t] = qacc;
        k_series[t] = kacc;
      }
      lags[b] = fft::TopKLags(fft::CrossCorrelation(q_series, k_series), top_k);
    }
  }
  const int64_t n_lags = static_cast<int64_t>(lags[0].size());
  CONFORMER_CHECK_GT(n_lags, 0);

  // --- Differentiable per-lag scores and delay aggregation. ---
  std::vector<Tensor> scores;  // each [BH, 1]
  std::vector<Tensor> rolled_v;
  scores.reserve(n_lags);
  rolled_v.reserve(n_lags);
  std::vector<int64_t> shifted(bh * length);
  for (int64_t i = 0; i < n_lags; ++i) {
    // R(lag) = mean_t,d ( q_t . k_{t+lag} ): each row gathers its k and v
    // rolled backwards by its own i-th lag.
    for (int64_t b = 0; b < bh; ++b) {
      for (int64_t t = 0; t < length; ++t) {
        shifted[b * length + t] = (t + lags[b][i]) % length;
      }
    }
    Tensor k_shift = BatchedIndexSelect(k, shifted, length);
    scores.push_back(Mean(Mul(q, k_shift), {1, 2}, /*keepdim=*/false));
    rolled_v.push_back(BatchedIndexSelect(v, shifted, length));
  }
  Tensor score_mat = StackTensors(scores, /*dim=*/1);       // [BH, n_lags]
  Tensor weights = Softmax(score_mat, -1);                  // [BH, n_lags]
  Tensor out = Tensor::Zeros({bh, length, v.size(2)});
  for (int64_t i = 0; i < n_lags; ++i) {
    Tensor w = Reshape(Slice(weights, 1, i, i + 1), {bh, 1, 1});
    out = Add(out, Mul(w, rolled_v[i]));
  }
  return out;
}

}  // namespace conformer::attention
