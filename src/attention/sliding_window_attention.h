// Conformer's sliding-window attention (Section IV-B1): each point attends
// to w/2 neighbours on each side, giving O(w L) time and memory. Implemented
// as one fused banded-attention op (conformer::BandedAttention) that reads
// the neighbours' keys and values in place, rather than a dense mask, so the
// linear complexity is real, not simulated.

#ifndef CONFORMER_ATTENTION_SLIDING_WINDOW_ATTENTION_H_
#define CONFORMER_ATTENTION_SLIDING_WINDOW_ATTENTION_H_

#include "attention/attention.h"

namespace conformer::attention {

class SlidingWindowAttention : public AttentionMechanism {
 public:
  /// `window` is the total width w; each side sees w/2 neighbours
  /// (plus the point itself).
  explicit SlidingWindowAttention(int64_t window);

  Tensor Forward(const Tensor& q, const Tensor& k, const Tensor& v,
                 bool causal) const override;
  const char* name() const override { return "sliding_window"; }

 private:
  int64_t window_;
};

}  // namespace conformer::attention

#endif  // CONFORMER_ATTENTION_SLIDING_WINDOW_ATTENTION_H_
