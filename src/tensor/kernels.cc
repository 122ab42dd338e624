#include "tensor/kernels.h"

#include <algorithm>
#include <cstring>

#include "tensor/vec/vec.h"
#include "util/profiler.h"

namespace conformer::kernels {

namespace {

// Rows per Gemm chunk so one chunk does at least kGrainGemmMacs MACs, in
// whole 4-row panels: a chunk of fewer rows would run the kernels' one-row
// tiles, whose accumulators wait on each other's adds.
int64_t GemmRowGrain(int64_t n, int64_t k) {
  const int64_t macs_per_row = std::max<int64_t>(1, n * k);
  const int64_t rows = std::max<int64_t>(1, kGrainGemmMacs / macs_per_row);
  return (rows + 3) / 4 * 4;
}

// Row-blocked over the batches' stacked output rows: each chunk owns rows
// [r0, r1) and makes one dispatched call, so every c element is written by
// exactly one thread and accumulates over p in sequential order — bitwise
// deterministic for any thread count. NT sums each element in the 8 bins
// of the dot kernel, folded in a fixed order (docs/SIMD.md), so its sum
// order differs from a sequential loop but is identical at every SIMD
// level and thread count.
void RunGemm(void (*rows)(const vec::GemmOperands&, int64_t, int64_t),
             int64_t batches, const vec::GemmOperands& g) {
  ParallelFor(0, batches * g.m, GemmRowGrain(g.n, g.k),
              [&](int64_t r0, int64_t r1) { rows(g, r0, r1); });
}

auto* GemmRowsFor(bool trans_a, bool trans_b) {
  CONFORMER_CHECK(!(trans_a && trans_b))
      << "Gemm: A^T * B^T is not supported; transpose the product instead";
  return trans_b ? vec::GemmRowsNT
                 : (trans_a ? vec::GemmRowsTN : vec::GemmRowsNN);
}

int64_t GemmBytes(int64_t batches, int64_t m, int64_t n, int64_t k) {
  return static_cast<int64_t>(sizeof(float)) * batches *
         (m * k + k * n + m * n);
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, const float* b, float* c, bool accumulate) {
  CONFORMER_PROFILE_SCOPE_BYTES("kernel", "Gemm", GemmBytes(1, m, n, k));
  auto* rows = GemmRowsFor(trans_a, trans_b);
  // Explicit zero-size early-outs: empty output writes nothing; an empty
  // inner dimension makes the product a zero matrix.
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::memset(c, 0, sizeof(float) * m * n);
  if (k <= 0) return;
  RunGemm(rows, 1, {m, n, k, a, 0, b, 0, c, 0});
}

void GemmBatched(bool trans_a, bool trans_b, int64_t batches,
                 const vec::GemmOperands& g) {
  CONFORMER_PROFILE_SCOPE_BYTES("kernel", "Gemm",
                                GemmBytes(batches, g.m, g.n, g.k));
  auto* rows = GemmRowsFor(trans_a, trans_b);
  if (batches <= 0 || g.m <= 0 || g.n <= 0 || g.k <= 0) return;
  RunGemm(rows, batches, g);
}

void GemmPackedNT(int64_t m, int64_t n, int64_t k, const float* a,
                  const float* packed_b, float* c) {
  CONFORMER_PROFILE_SCOPE_BYTES("kernel", "Gemm", GemmBytes(1, m, n, k));
  if (m <= 0 || n <= 0 || k <= 0) return;
  RunGemm(vec::GemmRowsNTPacked, 1, {m, n, k, a, 0, packed_b, 0, c, 0});
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
    out[i] = ad == 1 ? bd : ad;  // a size-1 dim takes the other's, even 0
  }
  return out;
}

std::vector<int64_t> BroadcastStrides(const Shape& from, const Shape& to) {
  std::vector<int64_t> strides(to.size());
  BroadcastStridesInto(from, to, strides.data());
  return strides;
}

void BroadcastStridesInto(const Shape& from, const Shape& to, int64_t* out) {
  const int64_t rank = static_cast<int64_t>(to.size());
  const int64_t offset = rank - static_cast<int64_t>(from.size());
  CONFORMER_CHECK_GE(offset, 0);
  std::fill(out, out + offset, 0);
  int64_t stride = 1;  // `from`'s contiguous stride, innermost first
  for (int64_t i = static_cast<int64_t>(from.size()) - 1; i >= 0; --i) {
    const int64_t d = i + offset;
    if (from[i] == to[d]) {
      out[d] = stride;
    } else {
      CONFORMER_CHECK_EQ(from[i], 1)
          << "shape " << ShapeToString(from) << " does not broadcast to "
          << ShapeToString(to);
      out[d] = 0;
    }
    stride *= from[i];
  }
}

void Gather(const float* src, const Shape& shape,
            const std::vector<int64_t>& strides, int64_t offset, float* dst) {
  const int64_t n = NumElements(shape);
  if (n == 0) return;
  const RunLoops<1> loops = CoalesceLoops<1>(shape, {strides.data()});
  const int64_t step = loops.col_stride(0);
  const int64_t row_step = loops.row_stride(0);
  src += offset;
  ParallelFor(0, n, kGrainStrided, [&](int64_t cb, int64_t ce) {
    ForEachBlock(loops, cb, ce,
                 [&](int64_t i, int64_t rows, int64_t len,
                     const std::array<int64_t, 1>& at) {
                   const float* s = src + at[0];
                   float* d = dst + i;
                   for (int64_t r = 0; r < rows; ++r, s += row_step, d += len) {
                     if (step == 1) {
                       CopyRow(s, d, len);
                     } else if (step == 0) {
                       FillRow(*s, d, len);
                     } else {
                       for (int64_t t = 0; t < len; ++t) d[t] = s[t * step];
                     }
                   }
                 });
  });
}

void ScatterAdd(const float* src, const Shape& shape,
                const std::vector<int64_t>& strides, int64_t offset,
                float* dst) {
  const RunLoops<1> loops = CoalesceLoops<1>(shape, {strides.data()});
  const int64_t step = loops.col_stride(0);
  const int64_t row_step = loops.row_stride(0);
  dst += offset;
  ScatterRanges(loops, NumElements(shape), [&](int64_t cb, int64_t ce) {
    ForEachBlock(
        loops, cb, ce,
        [&](int64_t i, int64_t rows, int64_t len,
            const std::array<int64_t, 1>& at) {
          float* d = dst + at[0];
          const float* s = src + i;
          for (int64_t r = 0; r < rows; ++r, d += row_step, s += len) {
            if (step == 0) {
              float acc = *d;
              for (int64_t t = 0; t < len; ++t) acc += s[t];
              *d = acc;
            } else if (step == 1 && len >= vec::kFloatLanes) {
              // The dispatched call pays off once its vector body runs;
              // im2col's kernel-wide runs stay inline.
              vec::AddN(d, s, d, len);
            } else {
              for (int64_t t = 0; t < len; ++t) d[t * step] += s[t];
            }
          }
        });
  });
}

}  // namespace conformer::kernels
