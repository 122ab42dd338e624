#include "tensor/kernels.h"

#include <algorithm>
#include <cstring>

#include "tensor/vec/vec.h"
#include "util/profiler.h"

namespace conformer::kernels {

namespace {

// Rows per Gemm chunk so one chunk does at least kGrainGemmMacs MACs.
int64_t GemmRowGrain(int64_t n, int64_t k) {
  const int64_t macs_per_row = std::max<int64_t>(1, n * k);
  return std::max<int64_t>(1, kGrainGemmMacs / macs_per_row);
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, const float* b, float* c, bool accumulate) {
  CONFORMER_PROFILE_SCOPE_BYTES(
      "kernel", "Gemm",
      static_cast<int64_t>(sizeof(float)) * (m * k + k * n + m * n));
  CONFORMER_CHECK(!(trans_a && trans_b))
      << "Gemm: A^T * B^T is not supported; transpose the product instead";
  // Explicit zero-size early-outs: empty output writes nothing; an empty
  // inner dimension makes the product a zero matrix.
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::memset(c, 0, sizeof(float) * m * n);
  if (k <= 0) return;

  // Row-blocked over the output: each chunk owns rows [i0, i1) and makes
  // one dispatched call, so every c element is written by exactly one
  // thread and accumulates over p in sequential order — bitwise
  // deterministic for any thread count. NT sums each element in the 8 bins
  // of the dot kernel, folded in a fixed order (docs/SIMD.md), so its sum
  // order differs from a sequential loop but is identical at every SIMD
  // level and thread count.
  auto* rows = trans_b ? vec::GemmRowsNT
                       : (trans_a ? vec::GemmRowsTN : vec::GemmRowsNN);
  ParallelFor(0, m, GemmRowGrain(n, k), [&](int64_t i0, int64_t i1) {
    rows(i0, i1, m, n, k, a, b, c);
  });
}

void Axpy(int64_t n, float alpha, const float* x, float* out) {
  ParallelFor(0, n, kGrainElementwise, [&](int64_t cb, int64_t ce) {
    vec::MulAddN(x + cb, alpha, out + cb, ce - cb);
  });
}

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const int64_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t ad = i < static_cast<int64_t>(rank - a.size())
                           ? 1
                           : a[i - (rank - a.size())];
    const int64_t bd = i < static_cast<int64_t>(rank - b.size())
                           ? 1
                           : b[i - (rank - b.size())];
    CONFORMER_CHECK(ad == bd || ad == 1 || bd == 1)
        << "cannot broadcast " << ShapeToString(a) << " with "
        << ShapeToString(b);
    out[i] = std::max(ad, bd);
  }
  return out;
}

std::vector<int64_t> BroadcastStrides(const Shape& from, const Shape& to) {
  const int64_t rank = static_cast<int64_t>(to.size());
  const int64_t offset = rank - static_cast<int64_t>(from.size());
  CONFORMER_CHECK_GE(offset, 0);
  std::vector<int64_t> from_strides = ContiguousStrides(from);
  std::vector<int64_t> strides(rank, 0);
  for (int64_t i = 0; i < static_cast<int64_t>(from.size()); ++i) {
    const int64_t d = i + offset;
    if (from[i] == to[d]) {
      strides[d] = from_strides[i];
    } else {
      CONFORMER_CHECK_EQ(from[i], 1)
          << "shape " << ShapeToString(from) << " does not broadcast to "
          << ShapeToString(to);
      strides[d] = 0;
    }
  }
  return strides;
}

void ReduceGradToShape(const float* grad, const Shape& grad_shape, float* out,
                       const Shape& target_shape) {
  if (grad_shape == target_shape) {
    Axpy(NumElements(grad_shape), 1.0f, grad, out);
    return;
  }
  const RunLoops<1> loops = CoalesceLoops<1>(
      grad_shape, {BroadcastStrides(target_shape, grad_shape)});
  // A target's innermost kept dim is contiguous, so a row run either sums
  // into one target element (stride 0) or adds onto a contiguous span.
  const int64_t inner_stride = loops.strides[0].back();
  CONFORMER_CHECK(inner_stride == 0 || inner_stride == 1);
  auto reduce_range = [&](int64_t cb, int64_t ce) {
    ForEachRun(loops, cb, ce,
               [&](int64_t i, int64_t len, const std::array<int64_t, 1>& at) {
                 float* o = out + at[0];
                 if (inner_stride == 1) {
                   vec::AddN(o, grad + i, o, len);
                   return;
                 }
                 float acc = *o;
                 for (int64_t t = 0; t < len; ++t) acc += grad[i + t];
                 *o = acc;
               });
  };

  // The accumulation targets overlap across the reduced (stride-0) dims, so
  // chunks may only split the leading dimension when it is NOT reduced: then
  // each leading index owns a disjoint slice of `out`, and per-element
  // accumulation order (flat index order) is unchanged — bitwise identical
  // at any thread count.
  const int64_t n = NumElements(grad_shape);
  const int64_t lead = loops.shape[0];
  if (loops.strides[0][0] > 0 && lead > 1 && n > 0) {
    const int64_t block = n / lead;
    const int64_t row_grain = std::max<int64_t>(1, kGrainStrided / block);
    ParallelFor(0, lead, row_grain, [&](int64_t r0, int64_t r1) {
      reduce_range(r0 * block, r1 * block);
    });
  } else {
    reduce_range(0, n);
  }
}

}  // namespace conformer::kernels
