// Informer's ProbSparse self-attention (Zhou et al., AAAI 2021): only the
// top-u queries by the sparsity measurement M(q, K) = max_j(s_qj) -
// mean_j(s_qj) attend; the rest output the mean of V. O(L log L).

#ifndef CONFORMER_ATTENTION_PROB_SPARSE_ATTENTION_H_
#define CONFORMER_ATTENTION_PROB_SPARSE_ATTENTION_H_

#include "attention/attention.h"

namespace conformer::attention {

class ProbSparseAttention : public AttentionMechanism {
 public:
  /// `factor` scales the number of active queries: u = factor * ceil(ln Lq).
  explicit ProbSparseAttention(int64_t factor, uint64_t seed);

  Tensor Forward(const Tensor& q, const Tensor& k, const Tensor& v,
                 bool causal) const override;
  const char* name() const override { return "prob_sparse"; }

 private:
  int64_t factor_;
  uint64_t seed_;
};

}  // namespace conformer::attention

#endif  // CONFORMER_ATTENTION_PROB_SPARSE_ATTENTION_H_
