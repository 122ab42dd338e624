// Reformer's LSH attention (Kitaev et al., ICLR 2020): queries/keys are
// bucketed by random-rotation locality-sensitive hashing; attention runs
// within sorted, fixed-size chunks (each chunk also looks back one chunk).

#ifndef CONFORMER_ATTENTION_LSH_ATTENTION_H_
#define CONFORMER_ATTENTION_LSH_ATTENTION_H_

#include "attention/attention.h"

namespace conformer::attention {

class LshAttention : public AttentionMechanism {
 public:
  LshAttention(int64_t buckets, int64_t chunk, uint64_t seed);

  Tensor Forward(const Tensor& q, const Tensor& k, const Tensor& v,
                 bool causal) const override;
  bool SupportsCrossAttention() const override { return false; }
  const char* name() const override { return "lsh"; }

 private:
  int64_t buckets_;
  int64_t chunk_;
  uint64_t seed_;
};

}  // namespace conformer::attention

#endif  // CONFORMER_ATTENTION_LSH_ATTENTION_H_
