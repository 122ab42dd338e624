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
#include <cstring>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/vec/vec.h"
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

/// `batches` accumulating products of one shape (vec::GemmOperands), which
/// must write disjoint C slices: each batch gets the bits of an
/// accumulating Gemm on its own slices, and each ParallelFor chunk of the
/// batches' stacked rows is one dispatched call.
void GemmBatched(bool trans_a, bool trans_b, int64_t batches,
                 const vec::GemmOperands& g);

/// C (m x n) += A (m x k) * B^T with B packed by vec::PackNT: bitwise
/// Gemm(false, true, m, n, k, a, b, c, /*accumulate=*/true).
void GemmPackedNT(int64_t m, int64_t n, int64_t k, const float* a,
                  const float* packed_b, float* c);

/// The shape both operands broadcast to (numpy rules); CHECK-fails if
/// incompatible.
Shape BroadcastShape(const Shape& a, const Shape& b);

/// Strides for reading a tensor of shape `from` as if it had shape `to`
/// (stride 0 on broadcast dimensions). `from` must broadcast to `to`.
std::vector<int64_t> BroadcastStrides(const Shape& from, const Shape& to);
/// The same strides written to out[0, to.size()).
void BroadcastStridesInto(const Shape& from, const Shape& to, int64_t* out);

/// Most dims a loop nest keeps after coalescing, and the most dims a
/// broadcast operand may have (tensors here have at most 6).
inline constexpr int64_t kMaxLoopRank = 8;
using LoopDims = std::array<int64_t, kMaxLoopRank>;

/// A loop nest over a row-major shape, read through N operands' strides,
/// with size-1 dims dropped and adjacent dims merged wherever every operand
/// steps through them as one run. The flat visiting order is unchanged; the
/// innermost dim is as long as it can be. Fixed-size, so building one
/// allocates nothing.
template <size_t N>
struct RunLoops {
  int64_t rank = 0;  ///< Never 0 ({1} for a single element).
  LoopDims shape{};  ///< Outermost first.
  std::array<LoopDims, N> strides{};

  int64_t cols() const { return shape[rank - 1]; }
  /// Operand o's step along the innermost dim, and from one row of the
  /// two innermost dims to the next (0 when there is one row).
  int64_t col_stride(size_t o) const { return strides[o][rank - 1]; }
  int64_t row_stride(size_t o) const {
    return rank >= 2 ? strides[o][rank - 2] : 0;
  }
};

/// `strides[o]` holds shape.size() entries for operand o.
template <size_t N>
RunLoops<N> CoalesceLoops(const Shape& shape,
                          const std::array<const int64_t*, N>& strides) {
  RunLoops<N> loops;
  for (size_t d = 0; d < shape.size(); ++d) {
    if (shape[d] == 1) continue;
    bool merge = loops.rank > 0;
    for (size_t o = 0; o < N && merge; ++o) {
      merge = loops.strides[o][loops.rank - 1] == strides[o][d] * shape[d];
    }
    if (merge) {
      loops.shape[loops.rank - 1] *= shape[d];
      for (size_t o = 0; o < N; ++o) {
        loops.strides[o][loops.rank - 1] = strides[o][d];
      }
      continue;
    }
    CONFORMER_CHECK_LT(loops.rank, kMaxLoopRank)
        << "loop nest over " << ShapeToString(shape) << " has too many dims";
    loops.shape[loops.rank] = shape[d];
    for (size_t o = 0; o < N; ++o) loops.strides[o][loops.rank] = strides[o][d];
    ++loops.rank;
  }
  if (loops.rank == 0) {
    loops.rank = 1;
    loops.shape[0] = 1;
  }
  return loops;
}

/// The loop nest over `out` of N operands with the given shapes, each read
/// as broadcast to `out` (numpy rules).
template <size_t N>
RunLoops<N> BroadcastLoops(const Shape& out,
                           const std::array<const Shape*, N>& operands) {
  CONFORMER_CHECK_LE(static_cast<int64_t>(out.size()), kMaxLoopRank)
      << "broadcast to " << ShapeToString(out) << " has too many dims";
  std::array<LoopDims, N> strides{};
  std::array<const int64_t*, N> at;
  for (size_t o = 0; o < N; ++o) {
    BroadcastStridesInto(*operands[o], out, strides[o].data());
    at[o] = strides[o].data();
  }
  return CoalesceLoops<N>(out, at);
}

/// Calls `block(i, rows, len, at)` for the flat range [cb, ce) of `loops`,
/// in order. One call covers `rows` consecutive innermost runs of `len`
/// elements that share one step of the outer odometer: flat indices
/// [i, i + rows * len), whose first element sits at offset at[o] in operand
/// o, each later row loops.row_stride(o) further on. Whole rows of the two
/// innermost dims come as one block; a ParallelFor chunk that starts or
/// ends mid-row gets that partial row as a block of one.
template <size_t N, typename BlockFn>
void ForEachBlock(const RunLoops<N>& loops, int64_t cb, int64_t ce,
                  BlockFn block) {
  if (cb >= ce) return;
  const int64_t rank = loops.rank;
  const int64_t cols = loops.cols();
  // The odometer over every dim but the innermost, seeded at cb's row; its
  // innermost digit (dim rank - 2) is the row within the current block.
  LoopDims index{};
  std::array<int64_t, N> row_off{};
  int64_t rem = cb / cols;
  for (int64_t d = rank - 2; d >= 0; --d) {
    index[d] = rem % loops.shape[d];
    rem /= loops.shape[d];
    for (size_t o = 0; o < N; ++o) row_off[o] += index[d] * loops.strides[o][d];
  }
  int64_t col = cb % cols;
  for (int64_t i = cb; i < ce;) {
    int64_t rows = 1;
    int64_t len = std::min(cols - col, ce - i);
    if (col == 0 && len == cols && rank >= 2) {
      rows = std::min(loops.shape[rank - 2] - index[rank - 2], (ce - i) / cols);
    }
    std::array<int64_t, N> at;
    for (size_t o = 0; o < N; ++o) {
      at[o] = row_off[o] + col * loops.strides[o][rank - 1];
    }
    block(i, rows, len, at);
    i += rows * len;
    col = 0;
    // Step the odometer `rows` rows on: the block never crosses its own
    // dim, so only a carry out of it ripples outward, one step at a time.
    int64_t step = rows;
    for (int64_t d = rank - 2; d >= 0 && step > 0; --d) {
      index[d] += step;
      for (size_t o = 0; o < N; ++o) row_off[o] += step * loops.strides[o][d];
      step = 0;
      if (index[d] == loops.shape[d]) {
        index[d] = 0;
        for (size_t o = 0; o < N; ++o) {
          row_off[o] -= loops.strides[o][d] * loops.shape[d];
        }
        step = 1;
      }
    }
  }
}

/// Runs `range(cb, ce)` over [0, n) for a scatter whose destination is
/// operand 0 of `loops`: split across threads over the leading dim when its
/// slices write disjoint ranges (leading stride >= the span of one slice,
/// 1 + Σ_{d>=1} (shape[d] - 1) * strides[d]), serially otherwise. Either way
/// each destination element takes its adds in ascending flat order, so the
/// result is bitwise the same at any thread count.
template <size_t N, typename RangeFn>
void ScatterRanges(const RunLoops<N>& loops, int64_t n, RangeFn range) {
  if (n == 0) return;
  const int64_t lead = loops.shape[0];
  int64_t span = 1;
  for (int64_t d = 1; d < loops.rank; ++d) {
    span += (loops.shape[d] - 1) * loops.strides[0][d];
  }
  if (lead > 1 && loops.strides[0][0] >= span) {
    const int64_t block = n / lead;
    const int64_t row_grain = std::max<int64_t>(1, kGrainStrided / block);
    ParallelFor(0, lead, row_grain, [&](int64_t r0, int64_t r1) {
      range(r0 * block, r1 * block);
    });
  } else {
    range(0, n);
  }
}

/// Floats a broadcast block hands its span (or adds) at a time when an
/// operand has to be gathered into a stack buffer first.
inline constexpr int64_t kBroadcastPiece = 256;

/// Copies one contiguous row. Rows here are often 3-16 floats, where a
/// library memmove call costs more than the copy; fixed-size 4-float moves
/// compile to single vector loads and stores.
inline void CopyRow(const float* s, float* d, int64_t len) {
  if (len > 64) {
    std::copy(s, s + len, d);
    return;
  }
  int64_t t = 0;
  for (; t + 4 <= len; t += 4) std::memcpy(d + t, s + t, 4 * sizeof(float));
  for (; t < len; ++t) d[t] = s[t];
}

/// Fills one row with `v`, four floats per store.
inline void FillRow(float v, float* d, int64_t len) {
  const float four[4] = {v, v, v, v};
  int64_t t = 0;
  for (; t + 4 <= len; t += 4) std::memcpy(d + t, four, sizeof(four));
  for (; t < len; ++t) d[t] = v;
}

/// An operand of a [rows, len] block of a broadcast loop: its first element
/// and its steps between rows and along a row (0 or 1).
struct BlockOperand {
  const float* at;
  int64_t row_stride;
  int64_t col_stride;

  /// True when the block's elements are contiguous in this operand.
  bool Contiguous(int64_t rows, int64_t len) const {
    return col_stride == 1 && (rows == 1 || row_stride == len);
  }
  /// Elements [p, p + m) of the block, in row-major order, either in place
  /// (contiguous) or copied into `buf`.
  const float* Piece(bool contiguous, int64_t len, int64_t p, int64_t m,
                     float* buf) const {
    if (contiguous) return at + p;
    int64_t r = p / len;
    for (int64_t q = 0, c = p % len; q < m; ++r, c = 0) {
      const float* row = at + r * row_stride;
      const int64_t run = std::min(len - c, m - q);
      if (col_stride == 0) {
        FillRow(*row, buf + q, run);
      } else {
        CopyRow(row + c, buf + q, run);
      }
      q += run;
    }
    return buf;
  }
};

/// out = span(a, b) with broadcasting. When both operands already have the
/// output shape, each ParallelFor chunk is handed whole to `span`; the SIMD
/// layer (tensor/vec/vec.h) plugs in there. Otherwise the coalesced loop
/// nest is walked in [rows, cols] blocks, and `span` runs over each block's
/// rows at once: an operand that is not contiguous over the block — a
/// repeated row (strides {0, 1}: bias, gamma, beta), a per-row scalar
/// (strides {1, 0}: LayerNorm's mean and std) — is first copied into a
/// stack buffer, up to kBroadcastPiece floats at a time. `span` must compute
/// each element on its own, so its bits do not depend on where a span
/// starts or ends. Every output element is written once, so the result is
/// the same at any thread count.
template <typename SpanFn>
void BroadcastBinarySpan(const float* a, const Shape& a_shape, const float* b,
                         const Shape& b_shape, float* out,
                         const Shape& out_shape, SpanFn span) {
  const int64_t n = NumElements(out_shape);
  if (a_shape == out_shape && b_shape == out_shape) {
    ParallelFor(0, n, kGrainElementwise, [&](int64_t cb, int64_t ce) {
      span(a + cb, b + cb, out + cb, ce - cb);
    });
    return;
  }
  const RunLoops<2> loops = BroadcastLoops<2>(out_shape, {&a_shape, &b_shape});
  ParallelFor(0, n, kGrainStrided, [&](int64_t cb, int64_t ce) {
    ForEachBlock(
        loops, cb, ce,
        [&](int64_t i, int64_t rows, int64_t len,
            const std::array<int64_t, 2>& at) {
          const BlockOperand ba{a + at[0], loops.row_stride(0),
                                loops.col_stride(0)};
          const BlockOperand bb{b + at[1], loops.row_stride(1),
                                loops.col_stride(1)};
          const bool a_flat = ba.Contiguous(rows, len);
          const bool b_flat = bb.Contiguous(rows, len);
          float abuf[kBroadcastPiece], bbuf[kBroadcastPiece];
          const int64_t total = rows * len;
          const int64_t piece = a_flat && b_flat ? total : kBroadcastPiece;
          for (int64_t p = 0; p < total; p += piece) {
            const int64_t m = std::min(piece, total - p);
            span(ba.Piece(a_flat, len, p, m, abuf),
                 bb.Piece(b_flat, len, p, m, bbuf), out + i + p, m);
          }
        });
  });
}

/// out[i] = f(a_i, b_i) elementwise with broadcasting; `out` must have
/// NumElements(out_shape) entries.
template <typename Fn>
void BroadcastBinary(const float* a, const Shape& a_shape, const float* b,
                     const Shape& b_shape, float* out, const Shape& out_shape,
                     Fn f) {
  const auto span = [&f](const float* x, const float* y, float* o,
                         int64_t len) {
    for (int64_t t = 0; t < len; ++t) o[t] = f(x[t], y[t]);
  };
  BroadcastBinarySpan(a, a_shape, b, b_shape, out, out_shape, span);
}

/// Which operands a gradient term reads: a bit set of kReadsA and kReadsB.
enum TermReads : int { kReadsNone = 0, kReadsA = 1, kReadsB = 2 };

/// The gradient of one operand of a broadcasting binary op, reduced
/// straight from its terms: dst[j] += term(a_i, b_i, g[i]) for every flat
/// output index i, where j is i's element of `dst_shape` read as broadcast
/// to `out_shape` (so a dst of the output shape takes one term per element
/// and a broadcast one sums over its broadcast dims). Each dst element adds
/// its terms one at a time in ascending i — ScatterAdd's order — so the
/// result is bitwise equal to materializing the terms and scatter-adding
/// them, with no temporary tensor. `kReads` names the operands `term`
/// reads: only those are walked (and gathered where a block is not
/// contiguous in them), an unread one may be null, and `term` gets 0 in its
/// place. `unit` says term(a, b, g) == g, which lets rows add g directly.
/// Threads as ScatterAdd does.
template <int kReads, typename TermFn>
void BroadcastScatterAdd(const float* a, const Shape& a_shape, const float* b,
                         const Shape& b_shape, const float* g,
                         const Shape& out_shape, float* dst,
                         const Shape& dst_shape, bool unit, TermFn term) {
  constexpr bool kA = (kReads & kReadsA) != 0;
  constexpr bool kB = (kReads & kReadsB) != 0;
  const RunLoops<3> loops =
      BroadcastLoops<3>(out_shape, {&dst_shape, &a_shape, &b_shape});
  const int64_t sd = loops.col_stride(0), rd = loops.row_stride(0);
  ScatterRanges(loops, NumElements(out_shape), [&](int64_t cb, int64_t ce) {
    ForEachBlock(
        loops, cb, ce,
        [&](int64_t i, int64_t rows, int64_t len,
            const std::array<int64_t, 3>& at) {
          float* d = dst + at[0];
          const float* gb = g + i;
          const BlockOperand ba{kA ? a + at[1] : nullptr, loops.row_stride(1),
                                loops.col_stride(1)};
          const BlockOperand bb{kB ? b + at[2] : nullptr, loops.row_stride(2),
                                loops.col_stride(2)};
          if (sd == 1 && (rows == 1 || rd == len)) {
            // One term per dst element of the block, added straight in.
            const int64_t total = rows * len;
            if (unit) {
              vec::AddN(d, gb, d, total);
              return;
            }
            const bool a_flat = !kA || ba.Contiguous(rows, len);
            const bool b_flat = !kB || bb.Contiguous(rows, len);
            float abuf[kA ? kBroadcastPiece : 1];
            float bbuf[kB ? kBroadcastPiece : 1];
            const int64_t piece = a_flat && b_flat ? total : kBroadcastPiece;
            for (int64_t p = 0; p < total; p += piece) {
              const int64_t m = std::min(piece, total - p);
              const float* pa =
                  kA ? ba.Piece(a_flat, len, p, m, abuf) : nullptr;
              const float* pb =
                  kB ? bb.Piece(b_flat, len, p, m, bbuf) : nullptr;
              for (int64_t q = 0; q < m; ++q) {
                d[p + q] += term(kA ? pa[q] : 0.0f, kB ? pb[q] : 0.0f,
                                 gb[p + q]);
              }
            }
            return;
          }
          // A reduction: rows ascend, so every dst element still adds its
          // terms in ascending flat order.
          for (int64_t r = 0; r < rows; ++r, d += rd, gb += len) {
            const float* ar = kA ? ba.at + r * ba.row_stride : nullptr;
            const float* br = kB ? bb.at + r * bb.row_stride : nullptr;
            const int64_t sa = ba.col_stride, sb = bb.col_stride;
            const auto term_at = [&](int64_t t) {
              return term(kA ? ar[t * sa] : 0.0f, kB ? br[t * sb] : 0.0f,
                          gb[t]);
            };
            if (sd == 0) {  // a per-row sum (or a single element)
              float acc = *d;
              for (int64_t t = 0; t < len; ++t) acc += term_at(t);
              *d = acc;
            } else if (unit) {
              vec::AddN(d, gb, d, len);
            } else {
              for (int64_t t = 0; t < len; ++t) d[t] += term_at(t);
            }
          }
        });
  });
}

/// The strided gather: dst[i] = src[offset + Σ_d idx_d(i) * strides[d]] for
/// every flat index i of `shape` (strides >= 0, may be 0 or overlap). Every
/// dst element is written by exactly one chunk. Each chunk walks the two
/// innermost coalesced dims as row blocks (ForEachBlock); a unit-stride row
/// is one std::copy.
void Gather(const float* src, const Shape& shape,
            const std::vector<int64_t>& strides, int64_t offset, float* dst);

/// The strided scatter-add, Gather's reverse:
/// dst[offset + Σ_d idx_d(i) * strides[d]] += src[i]. Each dst element adds
/// its sources one at a time in ascending flat order of i, so stride-0 dims
/// sum over them (broadcast-gradient reduction, Sum) and overlapping views
/// add every window (im2col backward). Walks row blocks like Gather and
/// threads as ScatterRanges says: bitwise identical at any thread count.
void ScatterAdd(const float* src, const Shape& shape,
                const std::vector<int64_t>& strides, int64_t offset,
                float* dst);

}  // namespace conformer::kernels

#endif  // CONFORMER_TENSOR_KERNELS_H_
