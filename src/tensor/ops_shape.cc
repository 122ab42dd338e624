#include <algorithm>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace conformer {

Tensor Reshape(const Tensor& a, Shape shape) {
  CONFORMER_CHECK(a.defined());
  int64_t known = 1;
  int64_t infer = -1;
  for (int64_t i = 0; i < static_cast<int64_t>(shape.size()); ++i) {
    if (shape[i] == -1) {
      CONFORMER_CHECK_EQ(infer, -1) << "at most one -1 in reshape";
      infer = i;
    } else {
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    CONFORMER_CHECK(known > 0 && a.numel() % known == 0)
        << "cannot infer reshape dim";
    shape[infer] = a.numel() / known;
  }
  CONFORMER_CHECK_EQ(NumElements(shape), a.numel())
      << "reshape " << ShapeToString(a.shape()) << " -> "
      << ShapeToString(shape);

  const auto make_backward = [] {
    return [](AutogradMeta& self) {
      // The gradient is the output's, reinterpreted: hand the buffer over
      // when the input has none yet (it holds no -0, so this equals adding
      // it into a zeroed buffer), else add it in.
      AutogradMeta& in = *self.input(0);
      if (in.grad.empty()) {
        in.TakeGrad(self);
      } else {
        in.AccumulateGrad(self.grad.data(),
                          static_cast<int64_t>(self.grad.size()));
      }
    };
  };
  // A view: the result shares `a`'s storage under a new shape, in eager mode
  // and in replay alike, so nothing is allocated or copied.
  Tensor result = internal::MakeOpResult(std::move(shape), a.impl()->storage,
                                         {a}, make_backward, "Reshape");
  internal::MaybeCaptureAlias(result, a, "Reshape");
  return result;
}

Tensor Unsqueeze(const Tensor& a, int64_t dim) {
  Shape shape = a.shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank + 1;
  CONFORMER_CHECK(dim >= 0 && dim <= rank);
  shape.insert(shape.begin() + dim, 1);
  return Reshape(a, std::move(shape));
}

Tensor Squeeze(const Tensor& a, int64_t dim) {
  Shape shape = a.shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  CONFORMER_CHECK_EQ(shape[dim], 1) << "squeeze of non-singleton dim";
  shape.erase(shape.begin() + dim);
  return Reshape(a, std::move(shape));
}

Tensor AsStrided(const Tensor& a, Shape shape, std::vector<int64_t> strides,
                 int64_t offset, const char* name) {
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK_EQ(shape.size(), strides.size()) << name;
  CONFORMER_CHECK_GE(offset, 0) << name;
  int64_t last = offset;  // flat index of the view's final element
  for (size_t d = 0; d < shape.size(); ++d) {
    CONFORMER_CHECK(shape[d] >= 0 && strides[d] >= 0)
        << name << ": negative size or stride in dim " << d;
    if (shape[d] > 0) last += (shape[d] - 1) * strides[d];
  }
  const int64_t n = NumElements(shape);
  CONFORMER_CHECK(n == 0 || last < a.numel())
      << name << ": view " << ShapeToString(shape) << " at offset " << offset
      << " reads element " << last << " of a " << a.numel()
      << "-element input";

  // Output element i reads a[offset + sum_d idx_d(i) * strides[d]].
  auto forward = [shape, strides, offset](const float* ad, float* dst) {
    kernels::Gather(ad, shape, strides, offset, dst);
  };
  std::vector<float> out = internal::AcquireBuffer(n);
  forward(a.data(), out.data());

  const auto make_backward = [&] {
    return [shape, strides, offset](AutogradMeta& self) {
      // Overlapping views (stride 0, im2col windows) add several output
      // gradients into one input element, in ascending flat output order.
      internal::AccumulateGradWith(*self.input(0), [&](float* dst) {
        kernels::ScatterAdd(self.grad.data(), shape, strides, offset, dst);
      });
    };
  };
  Tensor result = internal::MakeOpResult(shape, std::move(out), {a},
                                         make_backward, name);
  internal::MaybeCaptureStep(
      result, {a}, {name, /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor Permute(const Tensor& a, std::vector<int64_t> perm) {
  CONFORMER_CHECK(a.defined());
  const Shape& in_shape = a.shape();
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  CONFORMER_CHECK_EQ(static_cast<int64_t>(perm.size()), rank);
  const std::vector<int64_t> in_strides = ContiguousStrides(in_shape);
  std::vector<bool> seen(rank, false);
  Shape out_shape(rank);
  std::vector<int64_t> strides(rank);
  for (int64_t i = 0; i < rank; ++i) {
    int64_t p = perm[i];
    if (p < 0) p += rank;
    CONFORMER_CHECK(p >= 0 && p < rank && !seen[p]) << "invalid permutation";
    seen[p] = true;
    out_shape[i] = in_shape[p];
    strides[i] = in_strides[p];
  }
  return AsStrided(a, std::move(out_shape), std::move(strides), 0, "Permute");
}

Tensor Transpose(const Tensor& a, int64_t d0, int64_t d1) {
  const int64_t rank = a.dim();
  if (d0 < 0) d0 += rank;
  if (d1 < 0) d1 += rank;
  CONFORMER_CHECK(d0 >= 0 && d0 < rank && d1 >= 0 && d1 < rank)
      << "transpose dims out of range for rank " << rank;
  std::vector<int64_t> perm(rank);
  for (int64_t i = 0; i < rank; ++i) perm[i] = i;
  std::swap(perm[d0], perm[d1]);
  return Permute(a, std::move(perm));
}

Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end) {
  CONFORMER_CHECK(a.defined());
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  const int64_t size = a.size(dim);
  if (start < 0) start += size;
  if (end < 0) end += size;
  start = std::clamp<int64_t>(start, 0, size);
  end = std::clamp<int64_t>(end, 0, size);
  CONFORMER_CHECK_GT(end, start) << "empty slice [" << start << ", " << end
                                 << ") of dim " << dim;
  std::vector<int64_t> strides = ContiguousStrides(a.shape());
  Shape shape = a.shape();
  shape[dim] = end - start;
  const int64_t offset = start * strides[dim];
  return AsStrided(a, std::move(shape), std::move(strides), offset, "Slice");
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t dim) {
  CONFORMER_CHECK(!parts.empty()) << "Concat of zero tensors";
  const Shape& first = parts[0].shape();
  const int64_t rank = static_cast<int64_t>(first.size());
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);

  int64_t total = 0;
  for (const Tensor& t : parts) {
    CONFORMER_CHECK_EQ(t.dim(), rank);
    for (int64_t i = 0; i < rank; ++i) {
      if (i != dim) {
        CONFORMER_CHECK_EQ(t.shape()[i], first[i])
            << "Concat shape mismatch in dim " << i;
      }
    }
    total += t.shape()[dim];
  }

  int64_t outer = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= first[i];
  int64_t inner = 1;
  for (int64_t i = dim + 1; i < rank; ++i) inner *= first[i];

  Shape out_shape = first;
  out_shape[dim] = total;
  std::vector<float> out = internal::AcquireBuffer(NumElements(out_shape));
  std::vector<int64_t> sizes(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) sizes[p] = parts[p].shape()[dim];
  auto forward = [sizes, outer, inner, total](const float* const* in,
                                              float* dst) {
    int64_t offset = 0;  // running offset along `dim`
    for (size_t p = 0; p < sizes.size(); ++p) {
      const int64_t sz = sizes[p];
      const float* src = in[p];
      for (int64_t o = 0; o < outer; ++o) {
        std::copy(src + o * sz * inner, src + (o + 1) * sz * inner,
                  dst + o * total * inner + offset * inner);
      }
      offset += sz;
    }
  };
  {
    std::vector<const float*> srcs(parts.size());
    for (size_t p = 0; p < parts.size(); ++p) srcs[p] = parts[p].data();
    forward(srcs.data(), out.data());
  }

  const auto make_backward = [&] {
    return [sizes, first, dim, out_strides = ContiguousStrides(out_shape)](
               AutogradMeta& self) {
      // Part p's gradient is the [.., size_p, ..] view of the output
      // gradient starting at its running offset along `dim`.
      Shape part_shape = first;
      int64_t offset = 0;
      for (size_t p = 0; p < sizes.size(); ++p) {
        if (AutogradMeta* in = self.input(p)) {
          part_shape[dim] = sizes[p];
          internal::AccumulateGradWith(*in, [&](float* dst) {
            kernels::Gather(self.grad.data(), part_shape, out_strides,
                            offset * out_strides[dim], dst);
          });
        }
        offset += sizes[p];
      }
    };
  };
  Tensor result = internal::MakeOpResult(out_shape, std::move(out), parts,
                                         make_backward, "Concat");
  internal::MaybeCaptureStep(
      result, parts, {"Concat", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] { return internal::ReplayFn(forward); });
  return result;
}

Tensor StackTensors(const std::vector<Tensor>& parts, int64_t dim) {
  CONFORMER_CHECK(!parts.empty());
  std::vector<Tensor> expanded;
  expanded.reserve(parts.size());
  for (const Tensor& t : parts) expanded.push_back(Unsqueeze(t, dim));
  return Concat(expanded, dim);
}

Tensor Pad(const Tensor& a, int64_t dim, int64_t before, int64_t after,
           float value) {
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK(before >= 0 && after >= 0);
  if (before == 0 && after == 0) return a;
  const Shape& in_shape = a.shape();
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank)
      << "Pad dim out of range for rank " << rank;
  Shape pad_shape = in_shape;
  std::vector<Tensor> parts;
  if (before > 0) {
    pad_shape[dim] = before;
    parts.push_back(Tensor::Full(pad_shape, value));
  }
  parts.push_back(a);
  if (after > 0) {
    pad_shape[dim] = after;
    parts.push_back(Tensor::Full(pad_shape, value));
  }
  return Concat(parts, dim);
}

Tensor ReplicatePad(const Tensor& a, int64_t dim, int64_t before, int64_t after) {
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK(before >= 0 && after >= 0);
  if (before == 0 && after == 0) return a;
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  const std::vector<int64_t> in_strides = ContiguousStrides(a.shape());
  // `count` copies of index `at` along `dim`: a stride-0 view.
  auto edge = [&](int64_t at, int64_t count) {
    Shape shape = a.shape();
    shape[dim] = count;
    std::vector<int64_t> strides = in_strides;
    strides[dim] = 0;
    return AsStrided(a, std::move(shape), std::move(strides),
                     at * in_strides[dim], "Tile");
  };
  std::vector<Tensor> parts;
  if (before > 0) parts.push_back(edge(0, before));
  parts.push_back(a);
  if (after > 0) parts.push_back(edge(a.size(dim) - 1, after));
  return Concat(parts, dim);
}

Tensor BroadcastTo(const Tensor& a, const Shape& shape) {
  CONFORMER_CHECK(a.defined());
  return AsStrided(a, shape, kernels::BroadcastStrides(a.shape(), shape), 0,
                   "BroadcastTo");
}

Tensor Tile(const Tensor& a, const std::vector<int64_t>& repeats) {
  CONFORMER_CHECK(a.defined());
  const int64_t rank = a.dim();
  CONFORMER_CHECK_EQ(static_cast<int64_t>(repeats.size()), rank);
  if (std::all_of(repeats.begin(), repeats.end(),
                  [](int64_t r) { return r == 1; })) {
    return a;
  }
  // View [r0, s0, r1, s1, ...] with stride 0 on every repeat dim, then merge
  // each (r_d, s_d) pair.
  const std::vector<int64_t> in_strides = ContiguousStrides(a.shape());
  Shape view_shape;
  std::vector<int64_t> view_strides;
  Shape out_shape;
  for (int64_t d = 0; d < rank; ++d) {
    CONFORMER_CHECK_GE(repeats[d], 1);
    view_shape.insert(view_shape.end(), {repeats[d], a.size(d)});
    view_strides.insert(view_strides.end(), {0, in_strides[d]});
    out_shape.push_back(repeats[d] * a.size(d));
  }
  return Reshape(AsStrided(a, std::move(view_shape), std::move(view_strides),
                           0, "Tile"),
                 std::move(out_shape));
}

}  // namespace conformer
