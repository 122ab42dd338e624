// Attention mechanism interface and factory. All of the paper's comparison
// points (Table VI, Fig. 5) are implemented behind one interface:
//
//   kFull            standard softmax attention, O(L^2)            [26]
//   kSlidingWindow   Conformer's banded attention, O(w L)          (ours)
//   kProbSparse      Informer's query-sparsity attention, O(L logL)[15]
//   kLogSparse       LogTrans' exponential-step attention          [14]
//   kLsh             Reformer's locality-sensitive hashing         [12]
//   kAutoCorrelation Autoformer's lag-aggregation operator         [13]
//
// Mechanisms consume per-head tensors [B*H, L, d] produced by
// MultiHeadAttention.

#ifndef CONFORMER_ATTENTION_ATTENTION_H_
#define CONFORMER_ATTENTION_ATTENTION_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/ops.h"

namespace conformer::attention {

enum class AttentionKind {
  kFull,
  kSlidingWindow,
  kProbSparse,
  kLogSparse,
  kLsh,
  kAutoCorrelation,
};

/// Human-readable mechanism name ("full", "sliding_window", ...).
const char* AttentionKindName(AttentionKind kind);

/// \brief Tuning knobs shared across mechanisms (each reads what it needs).
struct AttentionConfig {
  int64_t window = 2;        ///< Sliding-window width (paper default w = 2).
  int64_t factor = 1;        ///< Sparsity factor (ProbSparse / AutoCorrelation).
  int64_t lsh_buckets = 8;   ///< Number of hash buckets (Reformer).
  int64_t lsh_chunk = 16;    ///< Chunk length for bucketed attention.
  uint64_t seed = 7;         ///< Seed for stochastic mechanisms (LSH).
};

/// \brief Strategy interface for the score-and-aggregate step.
class AttentionMechanism {
 public:
  virtual ~AttentionMechanism() = default;

  /// q [BH, Lq, dk], k [BH, Lk, dk], v [BH, Lk, dv] -> [BH, Lq, dv].
  /// `causal` masks attention to future positions where the mechanism
  /// supports it (full, sliding-window, log-sparse).
  virtual Tensor Forward(const Tensor& q, const Tensor& k, const Tensor& v,
                         bool causal) const = 0;

  /// False for mechanisms that require Lq == Lk (self-attention only).
  virtual bool SupportsCrossAttention() const { return true; }

  virtual const char* name() const = 0;
};

/// Creates a mechanism of the given kind.
std::unique_ptr<AttentionMechanism> MakeAttention(AttentionKind kind,
                                                  const AttentionConfig& config);

namespace internal {

/// Dense softmax(q k^T / sqrt(dk)) v with optional causal mask — shared by
/// full attention and the within-bucket step of LSH.
Tensor DenseAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      bool causal);

}  // namespace internal
}  // namespace conformer::attention

#endif  // CONFORMER_ATTENTION_ATTENTION_H_
