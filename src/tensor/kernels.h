// Raw float-array compute kernels shared by op forward and backward passes.
// These know nothing about autograd.
//
// Threading: the hot loops run on ThreadPool::Global() via ParallelFor.
// Every kernel here is deterministic regardless of the thread count: chunk
// boundaries depend only on the range and grain, each output element is
// written by exactly one chunk, and per-element accumulation (e.g. the k-loop
// of Gemm) stays in its sequential order. See docs/THREADING.md.

#ifndef CONFORMER_TENSOR_KERNELS_H_
#define CONFORMER_TENSOR_KERNELS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace conformer::kernels {

/// Minimum elements per chunk for cheap elementwise loops — small enough to
/// engage the pool on mid-sized tensors, large enough that dispatch overhead
/// stays negligible.
inline constexpr int64_t kGrainElementwise = 1 << 14;

/// Minimum elements per chunk for strided/odometer loops, whose per-element
/// cost is a few times higher than contiguous elementwise loops.
inline constexpr int64_t kGrainStrided = 1 << 12;

/// Target multiply-accumulates per Gemm row-block chunk.
inline constexpr int64_t kGrainGemmMacs = 1 << 15;

/// C (m x n) += or = A (m x k) * B (k x n), row-major, with optional
/// transposes interpreted on the logical matrices. Zero-sized problems are
/// explicit no-ops: m == 0 or n == 0 writes nothing; k == 0 zero-fills C
/// (or leaves it untouched when `accumulate`).
void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, const float* b, float* c, bool accumulate);

/// out[i] += alpha * x[i]
void Axpy(int64_t n, float alpha, const float* x, float* out);

/// The shape both operands broadcast to (numpy rules); CHECK-fails if
/// incompatible.
Shape BroadcastShape(const Shape& a, const Shape& b);

/// Strides for reading a tensor of shape `from` as if it had shape `to`
/// (stride 0 on broadcast dimensions). `from` must broadcast to `to`.
std::vector<int64_t> BroadcastStrides(const Shape& from, const Shape& to);

/// A loop nest over a row-major shape, read through N operands' strides,
/// with size-1 dims dropped and adjacent dims merged wherever every operand
/// steps through them as one run. The flat visiting order is unchanged; the
/// innermost dim is as long as it can be.
template <size_t N>
struct RunLoops {
  Shape shape;  ///< Outermost first; never empty ({1} for a single element).
  std::array<std::vector<int64_t>, N> strides;
};

template <size_t N>
RunLoops<N> CoalesceLoops(const Shape& shape,
                          const std::array<std::vector<int64_t>, N>& strides) {
  RunLoops<N> loops;
  for (size_t d = 0; d < shape.size(); ++d) {
    if (shape[d] == 1) continue;
    bool merge = !loops.shape.empty();
    for (size_t o = 0; o < N && merge; ++o) {
      merge = loops.strides[o].back() == strides[o][d] * shape[d];
    }
    if (merge) {
      loops.shape.back() *= shape[d];
      for (size_t o = 0; o < N; ++o) loops.strides[o].back() = strides[o][d];
    } else {
      loops.shape.push_back(shape[d]);
      for (size_t o = 0; o < N; ++o) loops.strides[o].push_back(strides[o][d]);
    }
  }
  if (loops.shape.empty()) {
    loops.shape.push_back(1);
    for (size_t o = 0; o < N; ++o) loops.strides[o].push_back(0);
  }
  return loops;
}

/// Calls `run(i, len, at)` for each innermost-dim run of the flat range
/// [cb, ce), in order: flat indices [i, i + len), whose first element sits at
/// offset at[o] in operand o. The first and last runs may be partial rows, so
/// a ParallelFor chunk may start and end mid-row; the odometer steps once per
/// row, not once per element.
template <size_t N, typename RunFn>
void ForEachRun(const RunLoops<N>& loops, int64_t cb, int64_t ce, RunFn run) {
  if (cb >= ce) return;
  const int64_t rank = static_cast<int64_t>(loops.shape.size());
  const int64_t inner = loops.shape[rank - 1];
  // Seed the outer-dim odometer at this range's first row.
  std::vector<int64_t> index(rank - 1, 0);
  std::array<int64_t, N> row_off{};
  int64_t rem = cb / inner;
  for (int64_t d = rank - 2; d >= 0; --d) {
    index[d] = rem % loops.shape[d];
    rem /= loops.shape[d];
    for (size_t o = 0; o < N; ++o) row_off[o] += index[d] * loops.strides[o][d];
  }
  int64_t col = cb % inner;
  for (int64_t i = cb; i < ce;) {
    const int64_t len = std::min(inner - col, ce - i);
    std::array<int64_t, N> at;
    for (size_t o = 0; o < N; ++o) {
      at[o] = row_off[o] + col * loops.strides[o][rank - 1];
    }
    run(i, len, at);
    i += len;
    col = 0;
    for (int64_t d = rank - 2; d >= 0; --d) {
      ++index[d];
      for (size_t o = 0; o < N; ++o) row_off[o] += loops.strides[o][d];
      if (index[d] < loops.shape[d]) break;
      index[d] = 0;
      for (size_t o = 0; o < N; ++o) {
        row_off[o] -= loops.strides[o][d] * loops.shape[d];
      }
    }
  }
}

/// Applies `f(a_i, b_i)` elementwise with broadcasting; `out` must have
/// NumElements(out_shape) entries.
template <typename Fn>
void BroadcastBinary(const float* a, const Shape& a_shape, const float* b,
                     const Shape& b_shape, float* out, const Shape& out_shape,
                     Fn f) {
  const int64_t n = NumElements(out_shape);
  if (a_shape == out_shape && b_shape == out_shape) {
    ParallelFor(0, n, kGrainElementwise, [&](int64_t cb, int64_t ce) {
      for (int64_t i = cb; i < ce; ++i) out[i] = f(a[i], b[i]);
    });
    return;
  }
  const RunLoops<2> loops = CoalesceLoops<2>(
      out_shape, {BroadcastStrides(a_shape, out_shape),
                  BroadcastStrides(b_shape, out_shape)});
  const int64_t sa = loops.strides[0].back();
  const int64_t sb = loops.strides[1].back();
  ParallelFor(0, n, kGrainStrided, [&](int64_t cb, int64_t ce) {
    ForEachRun(loops, cb, ce,
               [&](int64_t i, int64_t len, const std::array<int64_t, 2>& at) {
                 const float* ar = a + at[0];
                 const float* br = b + at[1];
                 float* o = out + i;
                 // An operand's innermost stride is 1 (it spans the row) or
                 // 0 (held constant); both are 0 only for a one-element
                 // output.
                 if (sa == 1 && sb == 1) {
                   for (int64_t t = 0; t < len; ++t) o[t] = f(ar[t], br[t]);
                 } else if (sa == 1 && sb == 0) {
                   const float bv = *br;
                   for (int64_t t = 0; t < len; ++t) o[t] = f(ar[t], bv);
                 } else if (sa == 0 && sb == 1) {
                   const float av = *ar;
                   for (int64_t t = 0; t < len; ++t) o[t] = f(av, br[t]);
                 } else {
                   o[0] = f(*ar, *br);
                 }
               });
  });
}

/// Like BroadcastBinary, but when both operands already have the output
/// shape, each ParallelFor chunk is handed whole to `span(a+cb, b+cb,
/// out+cb, len)` — the hook the SIMD layer (tensor/vec/vec.h) plugs into.
/// Chunk boundaries are identical to BroadcastBinary's, so the 1-vs-N-thread
/// determinism contract is unchanged. The strided broadcast path still runs
/// the per-element functor `f`.
template <typename Fn, typename SpanFn>
void BroadcastBinarySpan(const float* a, const Shape& a_shape, const float* b,
                         const Shape& b_shape, float* out,
                         const Shape& out_shape, Fn f, SpanFn span) {
  if (a_shape == out_shape && b_shape == out_shape) {
    const int64_t n = NumElements(out_shape);
    ParallelFor(0, n, kGrainElementwise, [&](int64_t cb, int64_t ce) {
      span(a + cb, b + cb, out + cb, ce - cb);
    });
    return;
  }
  BroadcastBinary(a, a_shape, b, b_shape, out, out_shape, f);
}

/// Sums `grad` (of shape `grad_shape`) down to `target_shape` (which must
/// broadcast to `grad_shape`), writing into `out` (pre-zeroed by caller or
/// accumulated; this function ACCUMULATES).
void ReduceGradToShape(const float* grad, const Shape& grad_shape,
                       float* out, const Shape& target_shape);

}  // namespace conformer::kernels

#endif  // CONFORMER_TENSOR_KERNELS_H_
