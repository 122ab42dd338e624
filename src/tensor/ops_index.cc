#include <algorithm>
#include <cmath>
#include <memory>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/profiler.h"

namespace conformer {

namespace {

// Geometry of every gather in this file: `outer` independent slices, each
// of `size` source rows of `inner` floats. Slice o reads `count` rows, the
// c-th at idx[o * idx_stride + c] (stride 0: one index list for every
// slice), and its output holds them back to back.
struct GatherGeom {
  int64_t outer = 1;
  int64_t size = 0;
  int64_t count = 0;
  int64_t inner = 1;
  int64_t idx_stride = 0;

  int64_t Grain() const {
    return std::max<int64_t>(
        1, kernels::kGrainStrided / std::max<int64_t>(1, count * inner));
  }
};

// dst[o, c, :] = src[o, idx[o, c], :]. `Index` is int64_t, or float for an
// index tensor whose values are exact integers.
template <typename Index>
void GatherRows(const GatherGeom& g, const Index* idx, const float* src,
                float* dst) {
  ParallelFor(0, g.outer, g.Grain(), [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      for (int64_t c = 0; c < g.count; ++c) {
        const auto row = static_cast<int64_t>(idx[o * g.idx_stride + c]);
        const float* from = src + (o * g.size + row) * g.inner;
        std::copy(from, from + g.inner, dst + (o * g.count + c) * g.inner);
      }
    }
  });
}

// The transpose: delta[o, idx[o, c], :] += grad[o, c, :] in ascending c, so
// repeated indices accumulate in a fixed order. Chunks over `outer` write
// disjoint delta slices.
template <typename Index>
void ScatterAddRows(const GatherGeom& g, const Index* idx, const float* grad,
                    float* delta) {
  ParallelFor(0, g.outer, g.Grain(), [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      for (int64_t c = 0; c < g.count; ++c) {
        const auto row = static_cast<int64_t>(idx[o * g.idx_stride + c]);
        float* dst = delta + (o * g.size + row) * g.inner;
        const float* src = grad + (o * g.count + c) * g.inner;
        for (int64_t i = 0; i < g.inner; ++i) dst[i] += src[i];
      }
    }
  });
}

// A gather of `a` at host `indices` (validated by the caller): forward,
// scatter-add backward and a replay closure sharing one index list.
Tensor GatherOp(const Tensor& a, Shape out_shape, const GatherGeom& g,
                const std::vector<int64_t>& indices, const char* name) {
  std::vector<float> out = internal::AcquireBuffer(NumElements(out_shape));
  GatherRows(g, indices.data(), a.data(), out.data());
  auto idx = std::make_shared<const std::vector<int64_t>>(indices);
  const auto make_backward = [&] {
    return [g, idx](AutogradMeta& self) {
      const float* gd = self.grad.data();
      internal::AccumulateGradWith(*self.input(0), [&](float* delta) {
        ScatterAddRows(g, idx->data(), gd, delta);
      });
    };
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         {a}, make_backward, name);
  internal::MaybeCaptureStep(
      result, {a}, {name, /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [g, idx](const float* const* in, float* o) {
          GatherRows(g, idx->data(), in[0], o);
        };
      });
  return result;
}

}  // namespace

Tensor IndexSelect(const Tensor& a, int64_t dim,
                   const std::vector<int64_t>& indices) {
  CONFORMER_PROFILE_SCOPE("index_select");
  CONFORMER_CHECK(a.defined());
  const Shape& in_shape = a.shape();
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  GatherGeom g;
  g.size = in_shape[dim];
  for (int64_t idx : indices) {
    CONFORMER_CHECK(idx >= 0 && idx < g.size)
        << "index " << idx << " out of range [0, " << g.size << ")";
  }
  for (int64_t i = 0; i < dim; ++i) g.outer *= in_shape[i];
  for (int64_t i = dim + 1; i < rank; ++i) g.inner *= in_shape[i];
  g.count = static_cast<int64_t>(indices.size());
  Shape out_shape = in_shape;
  out_shape[dim] = g.count;
  return GatherOp(a, std::move(out_shape), g, indices, "IndexSelect");
}

Tensor BatchedIndexSelect(const Tensor& a, const std::vector<int64_t>& indices,
                          int64_t k) {
  CONFORMER_PROFILE_SCOPE("batched_index_select");
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK_EQ(a.dim(), 3) << "BatchedIndexSelect expects [B, L, D]";
  const GatherGeom g{.outer = a.size(0),
                     .size = a.size(1),
                     .count = k,
                     .inner = a.size(2),
                     .idx_stride = k};
  CONFORMER_CHECK_EQ(static_cast<int64_t>(indices.size()), g.outer * k);
  for (int64_t idx : indices) {
    CONFORMER_CHECK(idx >= 0 && idx < g.size) << "index out of range";
  }
  return GatherOp(a, {g.outer, k, g.inner}, g, indices, "BatchedIndexSelect");
}

Tensor EmbeddingLookup(const Tensor& table, const Tensor& indices) {
  CONFORMER_PROFILE_SCOPE("embedding_lookup");
  CONFORMER_CHECK(table.defined() && indices.defined());
  CONFORMER_CHECK_EQ(table.dim(), 2) << "EmbeddingLookup expects a [n, d] table";
  const GatherGeom g{
      .size = table.size(0), .count = indices.numel(), .inner = table.size(1)};
  const float* id = indices.data();
  for (int64_t i = 0; i < g.count; ++i) {
    CONFORMER_CHECK(id[i] >= 0.0f && id[i] < static_cast<float>(g.size) &&
                    id[i] == std::floor(id[i]))
        << "embedding index " << id[i] << " out of range [0, " << g.size
        << ")";
  }
  Shape out_shape = indices.shape();
  out_shape.push_back(g.inner);
  std::vector<float> out = internal::AcquireBuffer(NumElements(out_shape));
  GatherRows(g, id, table.data(), out.data());
  const auto make_backward = [&] {
    return [g, saved = indices.impl()->storage](AutogradMeta& self) {
      const float* gd = self.grad.data();
      internal::AccumulateGradWith(*self.input(0), [&](float* delta) {
        ScatterAddRows(g, saved->data(), gd, delta);
      });
    };
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         {table}, make_backward,
                                         "EmbeddingLookup");
  // Replay reads the indices from their slot: the producer (a host step
  // such as the calendar decode) keeps every value inside the table.
  internal::MaybeCaptureStep(
      result, {table, indices},
      {"EmbeddingLookup", /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [g](const float* const* in, float* o) {
          GatherRows(g, in[1], in[0], o);
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
