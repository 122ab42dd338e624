#include <algorithm>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/profiler.h"

namespace conformer {

Tensor IndexSelect(const Tensor& a, int64_t dim,
                   const std::vector<int64_t>& indices) {
  CONFORMER_PROFILE_SCOPE("index_select");
  CONFORMER_CHECK(a.defined());
  const Shape& in_shape = a.shape();
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  const int64_t size = in_shape[dim];
  for (int64_t idx : indices) {
    CONFORMER_CHECK(idx >= 0 && idx < size)
        << "index " << idx << " out of range [0, " << size << ")";
  }

  int64_t outer = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= in_shape[i];
  int64_t inner = 1;
  for (int64_t i = dim + 1; i < rank; ++i) inner *= in_shape[i];
  const int64_t count = static_cast<int64_t>(indices.size());

  Shape out_shape = in_shape;
  out_shape[dim] = count;
  std::vector<float> out = internal::AcquireBuffer(NumElements(out_shape));
  const int64_t o_grain = std::max<int64_t>(
      1, kernels::kGrainStrided / std::max<int64_t>(1, count * inner));
  auto forward = [indices, outer, inner, size, count,
                  o_grain](const float* ad, float* dst) {
    ParallelFor(0, outer, o_grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        for (int64_t c = 0; c < count; ++c) {
          const float* src = ad + (o * size + indices[c]) * inner;
          std::copy(src, src + inner, dst + (o * count + c) * inner);
        }
      }
    });
  };
  forward(a.data(), out.data());

  const auto make_backward = [&] {
    return [indices, outer, inner, size, count,
            o_grain](AutogradMeta& self) {
      // Scatter-add: repeated indices accumulate, but only within an outer
      // slice — chunks over `outer` write disjoint delta ranges.
      const float* gd = self.grad.data();
      internal::AccumulateGradWith(*self.input(0), [&](float* delta) {
        ParallelFor(0, outer, o_grain, [&](int64_t o0, int64_t o1) {
          for (int64_t o = o0; o < o1; ++o) {
            for (int64_t c = 0; c < count; ++c) {
              float* dst = delta + (o * size + indices[c]) * inner;
              const float* src = gd + (o * count + c) * inner;
              for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
            }
          }
        });
      });
    };
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         {a}, make_backward, "IndexSelect");
  internal::MaybeCaptureStep(
      result, {a},
      {"IndexSelect", /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor BatchedIndexSelect(const Tensor& a, const std::vector<int64_t>& indices,
                          int64_t k) {
  CONFORMER_PROFILE_SCOPE("batched_index_select");
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK_EQ(a.dim(), 3) << "BatchedIndexSelect expects [B, L, D]";
  const int64_t batch = a.size(0);
  const int64_t length = a.size(1);
  const int64_t depth = a.size(2);
  CONFORMER_CHECK_EQ(static_cast<int64_t>(indices.size()), batch * k);
  for (int64_t idx : indices) {
    CONFORMER_CHECK(idx >= 0 && idx < length) << "index out of range";
  }

  std::vector<float> out = internal::AcquireBuffer(batch * k * depth);
  const int64_t b_grain = std::max<int64_t>(
      1, kernels::kGrainStrided / std::max<int64_t>(1, k * depth));
  auto forward = [indices, batch, length, depth, k,
                  b_grain](const float* ad, float* dst) {
    ParallelFor(0, batch, b_grain, [&](int64_t b0, int64_t b1) {
      for (int64_t b = b0; b < b1; ++b) {
        for (int64_t c = 0; c < k; ++c) {
          const float* src = ad + (b * length + indices[b * k + c]) * depth;
          std::copy(src, src + depth, dst + (b * k + c) * depth);
        }
      }
    });
  };
  forward(a.data(), out.data());

  const auto make_backward = [&] {
    return [indices, batch, length, depth, k, b_grain](AutogradMeta& self) {
      // Scatter-add stays within each batch's delta slice, so batches are
      // disjoint chunks.
      const float* gd = self.grad.data();
      internal::AccumulateGradWith(*self.input(0), [&](float* delta) {
        ParallelFor(0, batch, b_grain, [&](int64_t b0, int64_t b1) {
          for (int64_t b = b0; b < b1; ++b) {
            for (int64_t c = 0; c < k; ++c) {
              float* dst = delta + (b * length + indices[b * k + c]) * depth;
              const float* src = gd + (b * k + c) * depth;
              for (int64_t i = 0; i < depth; ++i) dst[i] += src[i];
            }
          }
        });
      });
    };
  };
  Tensor result = internal::MakeOpResult({batch, k, depth}, std::move(out),
                                         {a}, make_backward,
                                         "BatchedIndexSelect");
  internal::MaybeCaptureStep(
      result, {a},
      {"BatchedIndexSelect", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor Roll(const Tensor& a, int64_t dim, int64_t shift) {
  CONFORMER_PROFILE_SCOPE("roll");
  CONFORMER_CHECK(a.defined());
  const int64_t size = a.size(dim);
  if (size == 0) return a;
  shift %= size;
  if (shift < 0) shift += size;
  std::vector<int64_t> indices(size);
  for (int64_t i = 0; i < size; ++i) {
    indices[i] = (i - shift % size + size) % size;
  }
  return IndexSelect(a, dim, indices);
}

}  // namespace conformer
