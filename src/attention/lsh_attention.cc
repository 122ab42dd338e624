#include "attention/lsh_attention.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/capture.h"
#include "util/thread_pool.h"
#include "util/profiler.h"

namespace conformer::attention {

LshAttention::LshAttention(int64_t buckets, int64_t chunk, uint64_t seed)
    : buckets_(buckets), chunk_(chunk), seed_(seed) {
  CONFORMER_CHECK_GE(buckets, 2);
  CONFORMER_CHECK_GE(chunk, 1);
}

Tensor LshAttention::Forward(const Tensor& q, const Tensor& k, const Tensor& v,
                             bool causal) const {
  CONFORMER_PROFILE_SCOPE_CAT("attention", "lsh");
  // Bucket hashing and sorting read q on the host, so no fixed step list
  // replays them: a trace through here fails and the model serves eagerly.
  conformer::internal::FailCapture(
      "LshAttention hashes and sorts its buckets on the host");
  (void)causal;  // Bucketed chunks approximate locality; causal masking is
                 // not modelled (matches this repo's encoder-only usage).
  CONFORMER_CHECK_EQ(q.size(1), k.size(1))
      << "LSH attention is self-attention only";
  const int64_t bh = q.size(0);
  const int64_t length = q.size(1);
  const int64_t dk = q.size(2);
  const int64_t dv = v.size(2);

  // --- Bucket assignment and sorted order (no gradient). ---
  // Hash on q + k (Reformer shares QK; we approximate with the sum so both
  // projections influence the buckets).
  std::vector<int64_t> order(bh * length);
  {
    NoGradGuard guard;
    Rng rng(seed_);
    const int64_t half = buckets_ / 2;
    std::vector<float> rotation(dk * half);
    for (float& r : rotation) r = static_cast<float>(rng.Normal());
    const float* qd = q.data();
    const float* kd = k.data();
    // The shared rotation is drawn once above; each batch buckets and sorts
    // independently with its own scratch.
    ParallelFor(0, bh, /*grain=*/1, [&](int64_t b0, int64_t b1) {
      std::vector<int64_t> bucket(length);
      for (int64_t b = b0; b < b1; ++b) {
        for (int64_t i = 0; i < length; ++i) {
          const float* qrow = qd + (b * length + i) * dk;
          const float* krow = kd + (b * length + i) * dk;
          float best = -1e30f;
          int64_t arg = 0;
          for (int64_t h = 0; h < half; ++h) {
            float proj = 0.0f;
            for (int64_t d = 0; d < dk; ++d) {
              proj += (qrow[d] + krow[d]) * rotation[d * half + h];
            }
            if (proj > best) {
              best = proj;
              arg = h;
            }
            if (-proj > best) {
              best = -proj;
              arg = h + half;
            }
          }
          bucket[i] = arg;
        }
        int64_t* ord = order.data() + b * length;
        std::iota(ord, ord + length, 0);
        // Stable sort keeps temporal order within a bucket.
        std::stable_sort(ord, ord + length, [&](int64_t x, int64_t y) {
          return bucket[x] < bucket[y];
        });
      }
    });
  }

  // --- Differentiable bucketed attention. ---
  // Sort q/k/v into bucket order, chunk, attend within chunk + previous
  // chunk, then scatter back through the inverse permutation.
  const int64_t num_chunks = (length + chunk_ - 1) / chunk_;
  const int64_t padded = num_chunks * chunk_;

  // Gather in sorted order, padding the tail by repeating the last position
  // with a mask.
  std::vector<int64_t> gather(bh * padded);
  std::vector<float> pad_mask(padded, 0.0f);
  for (int64_t b = 0; b < bh; ++b) {
    for (int64_t i = 0; i < padded; ++i) {
      gather[b * padded + i] = i < length ? order[b * length + i] : order[b * length + length - 1];
    }
  }
  for (int64_t i = length; i < padded; ++i) pad_mask[i] = -1e9f;

  Tensor q_sorted = BatchedIndexSelect(q, gather, padded);
  Tensor k_sorted = BatchedIndexSelect(k, gather, padded);
  Tensor v_sorted = BatchedIndexSelect(v, gather, padded);

  // Chunked views: [BH * num_chunks, chunk, d].
  Tensor q_chunks = Reshape(q_sorted, {bh * num_chunks, chunk_, dk});
  // Keys/values include the previous chunk (the standard Reformer trick):
  // prev(v_sorted) shifted by one chunk, first chunk sees itself twice —
  // masked below via scores on identical positions being natural.
  Tensor k_prev = Roll(k_sorted, 1, chunk_);
  Tensor v_prev = Roll(v_sorted, 1, chunk_);
  Tensor k_cat = Concat({Reshape(k_sorted, {bh * num_chunks, chunk_, dk}),
                         Reshape(k_prev, {bh * num_chunks, chunk_, dk})},
                        1);  // [BH*C, 2*chunk, dk]
  Tensor v_cat = Concat({Reshape(v_sorted, {bh * num_chunks, chunk_, dv}),
                         Reshape(v_prev, {bh * num_chunks, chunk_, dv})},
                        1);

  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  Tensor scores = MulScalar(MatMul(q_chunks, Transpose(k_cat, -1, -2)), scale);
  // Mask padded key slots (present in the final chunk and its successor).
  std::vector<float> key_mask(num_chunks * 2 * chunk_, 0.0f);
  for (int64_t c = 0; c < num_chunks; ++c) {
    for (int64_t j = 0; j < chunk_; ++j) {
      const int64_t self_pos = c * chunk_ + j;
      if (pad_mask[self_pos] != 0.0f) key_mask[(c * 2) * chunk_ + j] = -1e9f;
      const int64_t prev_pos =
          ((c + num_chunks - 1) % num_chunks) * chunk_ + j;
      if (pad_mask[prev_pos] != 0.0f) {
        key_mask[(c * 2 + 1) * chunk_ + j] = -1e9f;
      }
    }
  }
  Tensor key_mask_t = Reshape(
      Tensor::FromVector(std::move(key_mask), {num_chunks, 1, 2 * chunk_}),
      {num_chunks, 1, 2 * chunk_});
  key_mask_t = Tile(key_mask_t, {bh, 1, 1});  // [BH*C, 1, 2*chunk]
  scores = Add(scores, key_mask_t);
  Tensor weights = Softmax(scores, -1);
  Tensor attended = MatMul(weights, v_cat);  // [BH*C, chunk, dv]
  attended = Reshape(attended, {bh, padded, dv});

  // Inverse permutation back to temporal order (drops padding).
  std::vector<int64_t> inverse(bh * length);
  for (int64_t b = 0; b < bh; ++b) {
    for (int64_t i = 0; i < length; ++i) {
      inverse[b * length + order[b * length + i]] = i;
    }
  }
  return BatchedIndexSelect(attended, inverse, length);
}

}  // namespace conformer::attention
