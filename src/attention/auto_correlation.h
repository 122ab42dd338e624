// Autoformer's auto-correlation mechanism (Wu et al., NeurIPS 2021): instead
// of point-wise attention, series-level periodic dependencies are found via
// the auto-correlation of q against k, and V is aggregated across the top-k
// time-delayed copies.
//
// Candidate lags are selected per row with the FFT (no gradient); the
// per-lag scores and the delay aggregation are recomputed differentiably in
// the time domain so training matches the original operator (see DESIGN.md
// §2).

#ifndef CONFORMER_ATTENTION_AUTO_CORRELATION_H_
#define CONFORMER_ATTENTION_AUTO_CORRELATION_H_

#include "attention/attention.h"

namespace conformer::attention {

class AutoCorrelationAttention : public AttentionMechanism {
 public:
  /// top-k lags with k = factor * ceil(log L).
  explicit AutoCorrelationAttention(int64_t factor);

  Tensor Forward(const Tensor& q, const Tensor& k, const Tensor& v,
                 bool causal) const override;
  const char* name() const override { return "auto_correlation"; }

 private:
  /// The actual computation; Forward wraps it as one opaque capture step
  /// because the FFT top-k lag selection is data-dependent host logic.
  Tensor ForwardEager(const Tensor& q, const Tensor& k, const Tensor& v,
                      bool causal) const;

  int64_t factor_;
};

}  // namespace conformer::attention

#endif  // CONFORMER_ATTENTION_AUTO_CORRELATION_H_
