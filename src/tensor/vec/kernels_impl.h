// Generic bodies for every dispatched span kernel, compiled once per ISA
// backend. The including translation unit defines
// CONFORMER_SIMD_CAPABILITY_* (selecting the Vec8f implementation in
// vec8f.h) and CONFORMER_SIMD_NAMESPACE (the namespace this TU's kernels
// land in), then includes this header. vec.cc dispatches to the per-TU
// Table().
//
// Bitwise portability rules (docs/SIMD.md) — every construct here must be
// identical-by-construction across backends:
//   * arithmetic only through Vec8f per-lane IEEE ops, never FMA
//     (the build adds -ffp-contract=off so scalar code cannot be contracted
//     either);
//   * reductions accumulate into the 8 logical bins (lane l holds indices
//     i ≡ l mod 8) and fold in ONE fixed pairwise order (FoldAdd/FoldMax);
//   * remainder tails run the scalar replica of the lane op — ScalarExp is
//     the same float-op sequence the vector Exp performs per lane;
//   * transcendentals use our own polynomials (exp: Cephes-style 2^n *
//     poly(r) with a two-term Cody-Waite ln2 split; tanh: an odd Cephes
//     polynomial near 0, else built on that exp) so no backend depends on
//     libm vector math.

// NOLINT(build/header_guard) — intentionally re-includable per backend TU.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "tensor/vec/vec.h"
#include "tensor/vec/vec8f.h"

namespace conformer::vec {
namespace CONFORMER_SIMD_NAMESPACE {
namespace {

// --- exp polynomial constants (shared by the vector and scalar paths) ---
constexpr float kExpHi = 88.3762626647949f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2e = 1.44269504088896341f;
// 1.5 * 2^23: adding/subtracting rounds to the nearest integer (half-even).
constexpr float kRoundMagic = 12582912.0f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;

// Scalar replicas of the lane min/max semantics (second operand on ties and
// NaN, matching SSE _mm_min_ps/_mm_max_ps and Vec8f::Min/Max).
inline float LaneMin(float a, float b) { return a < b ? a : b; }
inline float LaneMax(float a, float b) { return a > b ? a : b; }

// The exact per-lane float-op sequence of the vector Exp below; used for
// remainder tails so tail elements match what a vector lane would produce.
inline float ScalarExp(float x) {
  x = LaneMin(LaneMax(x, kExpLo), kExpHi);
  const float n = (x * kLog2e + kRoundMagic) - kRoundMagic;
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = kExpC0;
  p = p * r + kExpC1;
  p = p * r + kExpC2;
  p = p * r + kExpC3;
  p = p * r + kExpC4;
  p = p * r + kExpC5;
  p = (p * (r * r) + r) + 1.0f;
  uint32_t bits = static_cast<uint32_t>(static_cast<int32_t>(n) + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, 4);
  return p * scale;
}

inline Vec8f VecExp(Vec8f x) {
  x = Vec8f::Min(Vec8f::Max(x, Vec8f::Broadcast(kExpLo)),
                 Vec8f::Broadcast(kExpHi));
  const Vec8f magic = Vec8f::Broadcast(kRoundMagic);
  const Vec8f n = (x * Vec8f::Broadcast(kLog2e) + magic) - magic;
  Vec8f r = x - n * Vec8f::Broadcast(kLn2Hi);
  r = r - n * Vec8f::Broadcast(kLn2Lo);
  Vec8f p = Vec8f::Broadcast(kExpC0);
  p = p * r + Vec8f::Broadcast(kExpC1);
  p = p * r + Vec8f::Broadcast(kExpC2);
  p = p * r + Vec8f::Broadcast(kExpC3);
  p = p * r + Vec8f::Broadcast(kExpC4);
  p = p * r + Vec8f::Broadcast(kExpC5);
  p = (p * (r * r) + r) + Vec8f::Broadcast(1.0f);
  return p * Vec8f::Pow2i(n);
}

inline float ScalarSigmoid(float x) {
  // e = exp(-|x|); x >= 0 -> 1/(1+e), else e/(1+e). Same value as the
  // branch-per-sign formulation but expressible as one lane select.
  const float e = ScalarExp(0.0f - std::fabs(x));
  const float denom = 1.0f + e;
  return x >= 0.0f ? 1.0f / denom : e / denom;
}

inline Vec8f VecSigmoid(Vec8f x) {
  const Vec8f e = VecExp(Vec8f::Zero() - Vec8f::Abs(x));
  const Vec8f one = Vec8f::Broadcast(1.0f);
  const Vec8f denom = one + e;
  return Vec8f::SelectGeZero(x, one / denom, e / denom);
}

// --- tanh: Cephes tanhf ----------------------------------------------------
// a = |x|. Below kTanhSmall an odd polynomial a + a*z*P(z), z = a*a; from
// there on 1 - 2/(exp(2a) + 1) on the shared exp, whose clamp makes large
// and infinite inputs land on exactly 1. The sign comes back with one
// SelectGeZero on x, so tanh(-x) == -tanh(x) bitwise for x != 0, NaN stays
// NaN, and tanh(-0) is +0 (-0 >= 0 selects the unsigned result).
constexpr float kTanhSmall = 0.625f;
constexpr float kTanhP0 = -5.70498872745e-3f;
constexpr float kTanhP1 = 2.06390887954e-2f;
constexpr float kTanhP2 = -5.37397155531e-2f;
constexpr float kTanhP3 = 1.33314422036e-1f;
constexpr float kTanhP4 = -3.33332819422e-1f;

// The exact per-lane float-op sequence of VecTanh below.
inline float ScalarTanh(float x) {
  const float a = std::fabs(x);
  float r;
  if (a - kTanhSmall >= 0.0f) {
    r = 1.0f - 2.0f / (ScalarExp(a + a) + 1.0f);
  } else {
    const float z = a * a;
    float p = kTanhP0;
    p = p * z + kTanhP1;
    p = p * z + kTanhP2;
    p = p * z + kTanhP3;
    p = p * z + kTanhP4;
    r = (p * z) * a + a;
  }
  return x >= 0.0f ? r : 0.0f - r;
}

inline Vec8f VecTanh(Vec8f x) {
  const Vec8f a = Vec8f::Abs(x);
  const Vec8f one = Vec8f::Broadcast(1.0f);
  const Vec8f large = one - Vec8f::Broadcast(2.0f) / (VecExp(a + a) + one);
  const Vec8f z = a * a;
  Vec8f p = Vec8f::Broadcast(kTanhP0);
  p = p * z + Vec8f::Broadcast(kTanhP1);
  p = p * z + Vec8f::Broadcast(kTanhP2);
  p = p * z + Vec8f::Broadcast(kTanhP3);
  p = p * z + Vec8f::Broadcast(kTanhP4);
  const Vec8f small = (p * z) * a + a;
  const Vec8f r =
      Vec8f::SelectGeZero(a - Vec8f::Broadcast(kTanhSmall), large, small);
  return Vec8f::SelectGeZero(x, r, Vec8f::Zero() - r);
}

// --- fixed horizontal fold orders ------------------------------------------
// FoldAdd brackets the 8 bins exactly the way an AVX2 128-bit
// extract/add/movehl reduction would: ((b0+b4)+(b2+b6)) + ((b1+b5)+(b3+b7)).
// Spelled out lane-by-lane so every backend (including scalar) brackets the
// same way.
inline float FoldAdd(const Vec8f& v) {
  return ((v.ExtractLane(0) + v.ExtractLane(4)) +
          (v.ExtractLane(2) + v.ExtractLane(6))) +
         ((v.ExtractLane(1) + v.ExtractLane(5)) +
          (v.ExtractLane(3) + v.ExtractLane(7)));
}

inline float FoldMax(const Vec8f& v) {
  return LaneMax(LaneMax(LaneMax(v.ExtractLane(0), v.ExtractLane(4)),
                         LaneMax(v.ExtractLane(2), v.ExtractLane(6))),
                 LaneMax(LaneMax(v.ExtractLane(1), v.ExtractLane(5)),
                         LaneMax(v.ExtractLane(3), v.ExtractLane(7))));
}

// --- elementwise spans ------------------------------------------------------

void AddKernel(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    (Vec8f::Load(a + i) + Vec8f::Load(b + i)).Store(o + i);
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void SubKernel(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    (Vec8f::Load(a + i) - Vec8f::Load(b + i)).Store(o + i);
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void MulKernel(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    (Vec8f::Load(a + i) * Vec8f::Load(b + i)).Store(o + i);
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void DivKernel(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    (Vec8f::Load(a + i) / Vec8f::Load(b + i)).Store(o + i);
  }
  for (; i < n; ++i) o[i] = a[i] / b[i];
}

void AddScalarKernel(const float* a, float s, float* o, int64_t n) {
  const Vec8f vs = Vec8f::Broadcast(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) (Vec8f::Load(a + i) + vs).Store(o + i);
  for (; i < n; ++i) o[i] = a[i] + s;
}

void MulScalarKernel(const float* a, float s, float* o, int64_t n) {
  const Vec8f vs = Vec8f::Broadcast(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) (Vec8f::Load(a + i) * vs).Store(o + i);
  for (; i < n; ++i) o[i] = a[i] * s;
}

void ReluKernel(const float* a, float* o, int64_t n) {
  const Vec8f zero = Vec8f::Zero();
  int64_t i = 0;
  // Max(x, zero) has exactly the scalar `x > 0 ? x : 0` semantics: the
  // second operand (+0) wins on ties, -0.0f inputs, and NaN.
  for (; i + 8 <= n; i += 8) {
    Vec8f::Max(Vec8f::Load(a + i), zero).Store(o + i);
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void SqrtKernel(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Vec8f::Sqrt(Vec8f::Load(a + i)).Store(o + i);
  for (; i < n; ++i) o[i] = std::sqrt(a[i]);
}

void ExpKernel(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) VecExp(Vec8f::Load(a + i)).Store(o + i);
  for (; i < n; ++i) o[i] = ScalarExp(a[i]);
}

void SigmoidKernel(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) VecSigmoid(Vec8f::Load(a + i)).Store(o + i);
  for (; i < n; ++i) o[i] = ScalarSigmoid(a[i]);
}

void TanhKernel(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) VecTanh(Vec8f::Load(a + i)).Store(o + i);
  for (; i < n; ++i) o[i] = ScalarTanh(a[i]);
}

void MulAddKernel(const float* x, float alpha, float* o, int64_t n) {
  const Vec8f va = Vec8f::Broadcast(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    (Vec8f::Load(o + i) + va * Vec8f::Load(x + i)).Store(o + i);
  }
  for (; i < n; ++i) o[i] += alpha * x[i];
}

// --- Gemm row ranges --------------------------------------------------------
// Each body computes rows [i0, i1) of C (m x n, row stride n), which already
// holds its start value. Per C element the arithmetic is exactly that of a
// MulAddKernel call per (row, p): c = c + a*b in ascending p, skipping
// a == 0 terms (0 * Inf must not turn into NaN). Only the order in which
// different elements are visited changes, and no result bit depends on it.

// Outputs up to this wide keep a tile of C in registers across the whole p
// loop. Wider rows stream instead: tile strips of B lie n floats apart and
// alias a few cache sets, which made a tiled 512-wide Gemm 1.5-3x slower.
constexpr int64_t kGemmTileMaxN = 64;

// a(i, p): A is m x k for NN, k x m for TN.
template <bool kTransA>
inline float GemmA(const float* a, int64_t m, int64_t k, int64_t i,
                   int64_t p) {
  return kTransA ? a[p * m + i] : a[i * k + p];
}

// Rows [i, i + MR) x columns [j, j + 8 * NV): the C tile stays in registers
// over all of p, and each B strip load serves the tile's MR rows.
template <bool kTransA, int MR, int NV>
inline void GemmTile(int64_t i, int64_t j, int64_t m, int64_t n, int64_t k,
                     const float* a, const float* b, float* c) {
  // The unroll pragmas keep acc in registers rather than on the stack.
  Vec8f acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = Vec8f::Load(c + (i + r) * n + j + 8 * v);
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    Vec8f bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = Vec8f::Load(b + p * n + j + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const float x = GemmA<kTransA>(a, m, k, i + r, p);
      if (x == 0.0f) continue;
      const Vec8f xv = Vec8f::Broadcast(x);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + xv * bv[v];
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      acc[r][v].Store(c + (i + r) * n + j + 8 * v);
    }
  }
}

// Rows [i, i + MR), every column: 16-wide strips, one 8-wide strip, then
// the scalar replica for the last n % 8 columns.
template <bool kTransA, int MR>
inline void GemmTileRows(int64_t i, int64_t m, int64_t n, int64_t k,
                         const float* a, const float* b, float* c) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) GemmTile<kTransA, MR, 2>(i, j, m, n, k, a, b, c);
  if (j + 8 <= n) {
    GemmTile<kTransA, MR, 1>(i, j, m, n, k, a, b, c);
    j += 8;
  }
  for (int r = 0; r < MR; ++r) {
    for (int64_t jj = j; jj < n; ++jj) {
      float s = c[(i + r) * n + jj];
      for (int64_t p = 0; p < k; ++p) {
        const float x = GemmA<kTransA>(a, m, k, i + r, p);
        if (x == 0.0f) continue;
        s = s + x * b[p * n + jj];
      }
      c[(i + r) * n + jj] = s;
    }
  }
}

template <bool kTransA>
void GemmRowsKernel(int64_t i0, int64_t i1, int64_t m, int64_t n, int64_t k,
                    const float* a, const float* b, float* c) {
  if (n > kGemmTileMaxN) {
    // Streaming rows. NN keeps a C row hot across p; TN keeps p outermost
    // so each B row is read once per row block.
    if (!kTransA) {
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t p = 0; p < k; ++p) {
          const float x = a[i * k + p];
          if (x != 0.0f) MulAddKernel(b + p * n, x, c + i * n, n);
        }
      }
    } else {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t i = i0; i < i1; ++i) {
          const float x = a[p * m + i];
          if (x != 0.0f) MulAddKernel(b + p * n, x, c + i * n, n);
        }
      }
    }
    return;
  }
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) GemmTileRows<kTransA, 4>(i, m, n, k, a, b, c);
  for (; i < i1; ++i) GemmTileRows<kTransA, 1>(i, m, n, k, a, b, c);
}

// --- reductions -------------------------------------------------------------

float DotKernel(const float* a, const float* b, int64_t n) {
  Vec8f acc = Vec8f::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = acc + Vec8f::Load(a + i) * Vec8f::Load(b + i);
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * b[i];
  return FoldAdd(acc) + tail;
}

// Rows [i0, i1) of C (m x n) += A (m x k) * B^T (B is n x k): every element
// adds one DotKernel result, and four columns share each pass over the A row
// with DotKernel's exact bins, tail and fold per column.
void GemmNTKernel(int64_t i0, int64_t i1, int64_t /*m*/, int64_t n, int64_t k,
                  const float* a, const float* b, float* c) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      Vec8f acc0 = Vec8f::Zero(), acc1 = Vec8f::Zero();
      Vec8f acc2 = Vec8f::Zero(), acc3 = Vec8f::Zero();
      int64_t p = 0;
      for (; p + 8 <= k; p += 8) {
        const Vec8f av = Vec8f::Load(arow + p);
        acc0 = acc0 + av * Vec8f::Load(b0 + p);
        acc1 = acc1 + av * Vec8f::Load(b1 + p);
        acc2 = acc2 + av * Vec8f::Load(b2 + p);
        acc3 = acc3 + av * Vec8f::Load(b3 + p);
      }
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; p < k; ++p) {
        t0 += arow[p] * b0[p];
        t1 += arow[p] * b1[p];
        t2 += arow[p] * b2[p];
        t3 += arow[p] * b3[p];
      }
      crow[j] += FoldAdd(acc0) + t0;
      crow[j + 1] += FoldAdd(acc1) + t1;
      crow[j + 2] += FoldAdd(acc2) + t2;
      crow[j + 3] += FoldAdd(acc3) + t3;
    }
    for (; j < n; ++j) crow[j] += DotKernel(arow, b + j * k, k);
  }
}

float SumKernel(const float* a, int64_t n) {
  Vec8f acc = Vec8f::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) acc = acc + Vec8f::Load(a + i);
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i];
  return FoldAdd(acc) + tail;
}

float MaxReduceKernel(const float* a, int64_t n) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  Vec8f acc = Vec8f::Broadcast(kNegInf);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) acc = Vec8f::Max(acc, Vec8f::Load(a + i));
  float m = FoldMax(acc);
  for (; i < n; ++i) m = LaneMax(m, a[i]);
  return m;
}

// --- centred moving average over rows (clamped edges) ----------------------

inline int64_t ClampRow(int64_t u, int64_t length) {
  return u < 0 ? 0 : (u >= length ? length - 1 : u);
}

// Output rows [p, p + kRows) of one [length, width] slab. Source row u runs
// once, ascending, over the union of the windows [p + r - half, p + r + half]
// and is added into every accumulator whose window holds it, so each output
// still sums its own window from +0 in ascending u while kRows independent
// add chains stay in flight. Forward reads x[clamp(u)] and scales the sum by
// inv_k; the adjoint (rows 0 < p < length - 1 only) reads x[u] * inv_k for u
// inside the slab.
template <int kRows, bool kAdjoint>
void MovingAverageGroup(const float* x, int64_t length, int64_t width,
                        int64_t half, float inv_k, int64_t p, float* out) {
  const int64_t u0 = kAdjoint ? std::max<int64_t>(p - half, 0) : p - half;
  const int64_t u1 = kAdjoint ? std::min(p + kRows - 1 + half, length - 1)
                              : p + kRows - 1 + half;
  // Every row's window holds u in [s1, s2); only the ends need the test.
  const int64_t s1 = std::clamp<int64_t>(p + kRows - 1 - half, u0, u1 + 1);
  const int64_t s2 = std::clamp<int64_t>(p + half + 1, s1, u1 + 1);
  auto covers = [&](int64_t u, int r) {
    return u >= p + r - half && u <= p + r + half;
  };
  const Vec8f vinv = Vec8f::Broadcast(inv_k);
  // The unroll pragmas keep acc in registers rather than on the stack.
  int64_t c = 0;
  for (; c + 8 <= width; c += 8) {
    Vec8f acc[kRows];
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) acc[r] = Vec8f::Zero();
    auto load = [&](int64_t u) {
      const Vec8f v = Vec8f::Load(x + ClampRow(u, length) * width + c);
      return kAdjoint ? v * vinv : v;
    };
    for (int64_t u = u0; u < s1; ++u) {
      const Vec8f v = load(u);
#pragma GCC unroll 4
      for (int r = 0; r < kRows; ++r) {
        if (covers(u, r)) acc[r] = acc[r] + v;
      }
    }
    for (int64_t u = s1; u < s2; ++u) {
      const Vec8f v = load(u);
#pragma GCC unroll 4
      for (int r = 0; r < kRows; ++r) acc[r] = acc[r] + v;
    }
    for (int64_t u = s2; u <= u1; ++u) {
      const Vec8f v = load(u);
#pragma GCC unroll 4
      for (int r = 0; r < kRows; ++r) {
        if (covers(u, r)) acc[r] = acc[r] + v;
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      (kAdjoint ? acc[r] : acc[r] * vinv).Store(out + (p + r) * width + c);
    }
  }
  for (; c < width; ++c) {
    float acc[kRows] = {};
    for (int64_t u = u0; u <= u1; ++u) {
      float v = x[ClampRow(u, length) * width + c];
      if (kAdjoint) v = v * inv_k;
#pragma GCC unroll 4
      for (int r = 0; r < kRows; ++r) {
        if (covers(u, r)) acc[r] += v;
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      out[(p + r) * width + c] = kAdjoint ? acc[r] : acc[r] * inv_k;
    }
  }
}

// The adjoint's edge row p (0 or length - 1): source row t feeds it once for
// every k whose clamped index lands on p, so x[t] * inv_k is added that many
// times, t ascending.
void MovingAverageEdgeAdjoint(const float* x, int64_t length, int64_t width,
                              int64_t kernel, float inv_k, int64_t p,
                              float* out) {
  const int64_t half = kernel / 2;
  auto count = [&](int64_t t) -> int64_t {
    if (length == 1) return kernel;
    if (p == 0) return std::max<int64_t>(half - t + 1, 0);
    return std::max<int64_t>(t - (length - 1) + half + 1, 0);
  };
  // The rows with a nonzero count.
  const int64_t t0 = p == 0 ? 0 : std::max<int64_t>(length - 1 - half, 0);
  const int64_t t1 = p == 0 ? std::min(half + 1, length) : length;
  const Vec8f vinv = Vec8f::Broadcast(inv_k);
  int64_t c = 0;
  for (; c + 8 <= width; c += 8) {
    Vec8f acc = Vec8f::Zero();
    for (int64_t t = t0; t < t1; ++t) {
      const Vec8f v = Vec8f::Load(x + t * width + c) * vinv;
      for (int64_t n = count(t); n > 0; --n) acc = acc + v;
    }
    acc.Store(out + p * width + c);
  }
  for (; c < width; ++c) {
    float acc = 0.0f;
    for (int64_t t = t0; t < t1; ++t) {
      const float v = x[t * width + c] * inv_k;
      for (int64_t n = count(t); n > 0; --n) acc += v;
    }
    out[p * width + c] = acc;
  }
}

template <bool kAdjoint>
void MovingAverageRows(const float* x, int64_t length, int64_t width,
                       int64_t kernel, float inv_k, int64_t r0, int64_t r1,
                       float* out) {
  const int64_t half = kernel / 2;
  // The adjoint's rows 0 and length - 1 gather clamped repeats; every other
  // row runs in groups of four.
  const int64_t group_end = kAdjoint ? std::min(r1, length - 1) : r1;
  for (int64_t p = r0; p < r1;) {
    if (kAdjoint && (p == 0 || p == length - 1)) {
      MovingAverageEdgeAdjoint(x, length, width, kernel, inv_k, p, out);
      ++p;
    } else if (p + 4 <= group_end) {
      MovingAverageGroup<4, kAdjoint>(x, length, width, half, inv_k, p, out);
      p += 4;
    } else {
      MovingAverageGroup<1, kAdjoint>(x, length, width, half, inv_k, p, out);
      ++p;
    }
  }
}

void MovingAverageKernel(const float* x, int64_t length, int64_t width,
                         int64_t kernel, float inv_k, bool adjoint, int64_t r0,
                         int64_t r1, float* out) {
  if (adjoint) {
    MovingAverageRows<true>(x, length, width, kernel, inv_k, r0, r1, out);
  } else {
    MovingAverageRows<false>(x, length, width, kernel, inv_k, r0, r1, out);
  }
}

// --- softmax rows -----------------------------------------------------------

void SoftmaxRowKernel(const float* in, float* out, int64_t n) {
  if (n <= 0) return;
  const float mx = MaxReduceKernel(in, n);
  const Vec8f vmx = Vec8f::Broadcast(mx);
  Vec8f vsum = Vec8f::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Vec8f e = VecExp(Vec8f::Load(in + i) - vmx);
    e.Store(out + i);
    vsum = vsum + e;
  }
  float tail = 0.0f;
  for (; i < n; ++i) {
    const float e = ScalarExp(in[i] - mx);
    out[i] = e;
    tail += e;
  }
  const float inv = 1.0f / (FoldAdd(vsum) + tail);
  const Vec8f vinv = Vec8f::Broadcast(inv);
  i = 0;
  for (; i + 8 <= n; i += 8) (Vec8f::Load(out + i) * vinv).Store(out + i);
  for (; i < n; ++i) out[i] *= inv;
}

void LogSoftmaxRowKernel(const float* in, float* out, int64_t n) {
  if (n <= 0) return;
  const float mx = MaxReduceKernel(in, n);
  const Vec8f vmx = Vec8f::Broadcast(mx);
  Vec8f vsum = Vec8f::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vsum = vsum + VecExp(Vec8f::Load(in + i) - vmx);
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += ScalarExp(in[i] - mx);
  // One libm log per row; identical across backends (same call, same libm).
  const float lse = mx + std::log(FoldAdd(vsum) + tail);
  const Vec8f vlse = Vec8f::Broadcast(lse);
  i = 0;
  for (; i + 8 <= n; i += 8) (Vec8f::Load(in + i) - vlse).Store(out + i);
  for (; i < n; ++i) out[i] = in[i] - lse;
}

}  // namespace

const internal::KernelTable& Table() {
  static const internal::KernelTable table = {
      .add = AddKernel,
      .sub = SubKernel,
      .mul = MulKernel,
      .div = DivKernel,
      .add_scalar = AddScalarKernel,
      .mul_scalar = MulScalarKernel,
      .relu = ReluKernel,
      .sqrt = SqrtKernel,
      .exp = ExpKernel,
      .sigmoid = SigmoidKernel,
      .tanh = TanhKernel,
      .mul_add = MulAddKernel,
      .gemm_nn = GemmRowsKernel<false>,
      .gemm_nt = GemmNTKernel,
      .gemm_tn = GemmRowsKernel<true>,
      .dot = DotKernel,
      .sum = SumKernel,
      .max_reduce = MaxReduceKernel,
      .moving_average = MovingAverageKernel,
      .softmax_row = SoftmaxRowKernel,
      .log_softmax_row = LogSoftmaxRowKernel,
  };
  return table;
}

}  // namespace CONFORMER_SIMD_NAMESPACE
}  // namespace conformer::vec
