#include <algorithm>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/profiler.h"

namespace conformer {

namespace {

// Normalizes (possibly negative / empty meaning "all") dims, sorted unique.
std::vector<int64_t> NormalizeDims(std::vector<int64_t> dims, int64_t rank) {
  if (dims.empty()) {
    dims.resize(rank);
    for (int64_t i = 0; i < rank; ++i) dims[i] = i;
    return dims;
  }
  for (int64_t& d : dims) {
    if (d < 0) d += rank;
    CONFORMER_CHECK(d >= 0 && d < rank) << "reduce dim out of range";
  }
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}

Shape ReducedShape(const Shape& shape, const std::vector<int64_t>& dims,
                   bool keepdim) {
  Shape out;
  size_t di = 0;
  for (int64_t i = 0; i < static_cast<int64_t>(shape.size()); ++i) {
    if (di < dims.size() && dims[di] == i) {
      ++di;
      if (keepdim) out.push_back(1);
    } else {
      out.push_back(shape[i]);
    }
  }
  return out;
}

// Shape with reduced dims kept as size-1 (used for broadcasting gradients
// back regardless of `keepdim`).
Shape KeepdimShape(const Shape& shape, const std::vector<int64_t>& dims) {
  Shape out = shape;
  for (int64_t d : dims) out[d] = 1;
  return out;
}

}  // namespace

Tensor Sum(const Tensor& a, std::vector<int64_t> dims, bool keepdim) {
  CONFORMER_PROFILE_SCOPE("sum");
  CONFORMER_CHECK(a.defined());
  const Shape& in_shape = a.shape();
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  dims = NormalizeDims(std::move(dims), rank);
  const Shape out_shape = ReducedShape(in_shape, dims, keepdim);

  const int64_t out_numel = NumElements(out_shape);
  std::vector<float> out = internal::AcquireBuffer(out_numel);
  // Reducing exactly a trailing block of dims [sp, rank) makes every output
  // element the sum of one contiguous input row — the layout the SIMD row
  // reduction handles. (Sum order becomes the fixed 8-bin fold instead of
  // sequential; deterministic and identical across SIMD levels.)
  const bool suffix_reduce = !dims.empty() && dims.back() == rank - 1 &&
                             static_cast<int64_t>(dims.size()) ==
                                 rank - dims.front() &&
                             out_numel > 1;
  int64_t suffix_row_len = 1;
  if (suffix_reduce) {
    for (int64_t d = dims.front(); d < rank; ++d) suffix_row_len *= in_shape[d];
  }
  // Every other reduction scatter-adds the input onto the output read with
  // stride 0 over the reduced dims, each output element summed in ascending
  // flat input order. The whole compute is one by-value closure so a
  // captured replay re-runs the exact same code path over raw pointers
  // (`dst` must be pre-zeroed).
  const std::vector<int64_t> out_strides = kernels::BroadcastStrides(
      KeepdimShape(in_shape, dims), in_shape);
  auto forward = [in_shape, out_numel, suffix_reduce, suffix_row_len,
                  out_strides](const float* ad, float* dst) {
    if (suffix_reduce && suffix_row_len > 0) {
      const int64_t row_grain = std::max<int64_t>(
          1, kernels::kGrainStrided / suffix_row_len);
      ParallelFor(0, out_numel, row_grain, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          dst[r] += vec::SumN(ad + r * suffix_row_len, suffix_row_len);
        }
      });
      return;
    }
    kernels::ScatterAdd(ad, in_shape, out_strides, 0, dst);
  };
  forward(a.data(), out.data());

  const auto make_backward = [&] {
    return [in_shape, out_strides](AutogradMeta& self) {
      // Gradient broadcasts the output gradient back over reduced dims.
      internal::AccumulateGradWith(*self.input(0), [&](float* dst) {
        kernels::Gather(self.grad.data(), in_shape, out_strides, 0, dst);
      });
    };
  };
  Tensor result = internal::MakeOpResult(out_shape, std::move(out), {a},
                                         make_backward, "Sum");
  internal::MaybeCaptureStep(
      result, {a}, {"Sum", /*zero_init=*/true, /*inplace_safe=*/false}, [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor Mean(const Tensor& a, std::vector<int64_t> dims, bool keepdim) {
  CONFORMER_PROFILE_SCOPE("mean");
  CONFORMER_CHECK(a.defined());
  const int64_t rank = a.dim();
  std::vector<int64_t> norm = NormalizeDims(dims, rank);
  int64_t count = 1;
  for (int64_t d : norm) count *= a.shape()[d];
  Tensor s = Sum(a, std::move(norm), keepdim);
  return MulScalar(s, 1.0f / static_cast<float>(count));
}

}  // namespace conformer
