// Fixed logical-width vector types for the SIMD backends.
//
// This header is included by each backend translation unit with
// CONFORMER_SIMD_CAPABILITY_{SCALAR,SSE2,AVX2,NEON} defined; it provides a
// Vec8f (8 float lanes) whose operations are bitwise-equivalent across every
// backend:
//   * all arithmetic is per-lane IEEE single ops (mul, add, sub,
//     div, sqrt are correctly rounded on every target; never FMA),
//   * Min/Max use the SSE operand-order semantics (`a OP b ? a : b`,
//     second operand on ties/NaN), which the scalar backend reproduces,
//   * horizontal folds are NOT defined here — kernels_impl.h folds the 8
//     bins in one fixed pairwise order via ExtractLane so every backend
//     brackets reductions identically.
// Pow2i builds 2^n from an integer-valued float via exponent-bit
// construction — exact in every backend for n in [-126, 127].

#ifndef CONFORMER_TENSOR_VEC_VEC8F_H_
#define CONFORMER_TENSOR_VEC_VEC8F_H_

#include <cstdint>
#include <cstring>

#if defined(CONFORMER_SIMD_CAPABILITY_AVX2) || \
    defined(CONFORMER_SIMD_CAPABILITY_SSE2)
#include <immintrin.h>
#elif defined(CONFORMER_SIMD_CAPABILITY_NEON)
#include <arm_neon.h>
#endif

namespace conformer::vec {

#if defined(CONFORMER_SIMD_CAPABILITY_AVX2)

struct Vec8f {
  __m256 v;
  static Vec8f Load(const float* p) { return {_mm256_loadu_ps(p)}; }
  void Store(float* p) const { _mm256_storeu_ps(p, v); }
  static Vec8f Broadcast(float s) { return {_mm256_set1_ps(s)}; }
  static Vec8f Zero() { return {_mm256_setzero_ps()}; }
  friend Vec8f operator+(Vec8f a, Vec8f b) {
    return {_mm256_add_ps(a.v, b.v)};
  }
  friend Vec8f operator-(Vec8f a, Vec8f b) {
    return {_mm256_sub_ps(a.v, b.v)};
  }
  friend Vec8f operator*(Vec8f a, Vec8f b) {
    return {_mm256_mul_ps(a.v, b.v)};
  }
  friend Vec8f operator/(Vec8f a, Vec8f b) {
    return {_mm256_div_ps(a.v, b.v)};
  }
  static Vec8f Min(Vec8f a, Vec8f b) { return {_mm256_min_ps(a.v, b.v)}; }
  static Vec8f Max(Vec8f a, Vec8f b) { return {_mm256_max_ps(a.v, b.v)}; }
  static Vec8f Abs(Vec8f a) {
    const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    return {_mm256_and_ps(a.v, mask)};
  }
  static Vec8f Sqrt(Vec8f a) { return {_mm256_sqrt_ps(a.v)}; }
  /// Per lane: x >= 0 ? a : b (NaN selects b, matching scalar `x >= 0`).
  static Vec8f SelectGeZero(Vec8f x, Vec8f a, Vec8f b) {
    const __m256 mask = _mm256_cmp_ps(x.v, _mm256_setzero_ps(), _CMP_GE_OQ);
    return {_mm256_blendv_ps(b.v, a.v, mask)};
  }
  /// 2^n for integer-valued n in [-126, 127].
  static Vec8f Pow2i(Vec8f n) {
    __m256i i = _mm256_cvttps_epi32(n.v);
    i = _mm256_slli_epi32(_mm256_add_epi32(i, _mm256_set1_epi32(127)), 23);
    return {_mm256_castsi256_ps(i)};
  }
  float ExtractLane(int lane) const {
    alignas(32) float tmp[8];
    _mm256_store_ps(tmp, v);
    return tmp[lane];
  }
};

#elif defined(CONFORMER_SIMD_CAPABILITY_SSE2)

struct Vec8f {
  __m128 lo, hi;  // lanes 0-3, 4-7
  static Vec8f Load(const float* p) {
    return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)};
  }
  void Store(float* p) const {
    _mm_storeu_ps(p, lo);
    _mm_storeu_ps(p + 4, hi);
  }
  static Vec8f Broadcast(float s) { return {_mm_set1_ps(s), _mm_set1_ps(s)}; }
  static Vec8f Zero() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
  friend Vec8f operator+(Vec8f a, Vec8f b) {
    return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
  }
  friend Vec8f operator-(Vec8f a, Vec8f b) {
    return {_mm_sub_ps(a.lo, b.lo), _mm_sub_ps(a.hi, b.hi)};
  }
  friend Vec8f operator*(Vec8f a, Vec8f b) {
    return {_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)};
  }
  friend Vec8f operator/(Vec8f a, Vec8f b) {
    return {_mm_div_ps(a.lo, b.lo), _mm_div_ps(a.hi, b.hi)};
  }
  static Vec8f Min(Vec8f a, Vec8f b) {
    return {_mm_min_ps(a.lo, b.lo), _mm_min_ps(a.hi, b.hi)};
  }
  static Vec8f Max(Vec8f a, Vec8f b) {
    return {_mm_max_ps(a.lo, b.lo), _mm_max_ps(a.hi, b.hi)};
  }
  static Vec8f Abs(Vec8f a) {
    const __m128 mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
    return {_mm_and_ps(a.lo, mask), _mm_and_ps(a.hi, mask)};
  }
  static Vec8f Sqrt(Vec8f a) { return {_mm_sqrt_ps(a.lo), _mm_sqrt_ps(a.hi)}; }
  static Vec8f SelectGeZero(Vec8f x, Vec8f a, Vec8f b) {
    const __m128 zero = _mm_setzero_ps();
    const __m128 mlo = _mm_cmpge_ps(x.lo, zero);
    const __m128 mhi = _mm_cmpge_ps(x.hi, zero);
    return {_mm_or_ps(_mm_and_ps(mlo, a.lo), _mm_andnot_ps(mlo, b.lo)),
            _mm_or_ps(_mm_and_ps(mhi, a.hi), _mm_andnot_ps(mhi, b.hi))};
  }
  static Vec8f Pow2i(Vec8f n) {
    const __m128i bias = _mm_set1_epi32(127);
    __m128i ilo = _mm_slli_epi32(
        _mm_add_epi32(_mm_cvttps_epi32(n.lo), bias), 23);
    __m128i ihi = _mm_slli_epi32(
        _mm_add_epi32(_mm_cvttps_epi32(n.hi), bias), 23);
    return {_mm_castsi128_ps(ilo), _mm_castsi128_ps(ihi)};
  }
  float ExtractLane(int lane) const {
    alignas(16) float tmp[8];
    _mm_store_ps(tmp, lo);
    _mm_store_ps(tmp + 4, hi);
    return tmp[lane];
  }
};

#elif defined(CONFORMER_SIMD_CAPABILITY_NEON)

struct Vec8f {
  float32x4_t lo, hi;
  static Vec8f Load(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
  void Store(float* p) const {
    vst1q_f32(p, lo);
    vst1q_f32(p + 4, hi);
  }
  static Vec8f Broadcast(float s) { return {vdupq_n_f32(s), vdupq_n_f32(s)}; }
  static Vec8f Zero() { return Broadcast(0.0f); }
  friend Vec8f operator+(Vec8f a, Vec8f b) {
    return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)};
  }
  friend Vec8f operator-(Vec8f a, Vec8f b) {
    return {vsubq_f32(a.lo, b.lo), vsubq_f32(a.hi, b.hi)};
  }
  friend Vec8f operator*(Vec8f a, Vec8f b) {
    return {vmulq_f32(a.lo, b.lo), vmulq_f32(a.hi, b.hi)};
  }
  friend Vec8f operator/(Vec8f a, Vec8f b) {
    return {vdivq_f32(a.lo, b.lo), vdivq_f32(a.hi, b.hi)};
  }
  // NEON vmin/vmax propagate NaN from either operand; route through the
  // SSE-semantics compare-select so all backends tie-break identically.
  static Vec8f Min(Vec8f a, Vec8f b) {
    const uint32x4_t mlo = vcltq_f32(a.lo, b.lo);
    const uint32x4_t mhi = vcltq_f32(a.hi, b.hi);
    return {vbslq_f32(mlo, a.lo, b.lo), vbslq_f32(mhi, a.hi, b.hi)};
  }
  static Vec8f Max(Vec8f a, Vec8f b) {
    const uint32x4_t mlo = vcgtq_f32(a.lo, b.lo);
    const uint32x4_t mhi = vcgtq_f32(a.hi, b.hi);
    return {vbslq_f32(mlo, a.lo, b.lo), vbslq_f32(mhi, a.hi, b.hi)};
  }
  static Vec8f Abs(Vec8f a) { return {vabsq_f32(a.lo), vabsq_f32(a.hi)}; }
  static Vec8f Sqrt(Vec8f a) { return {vsqrtq_f32(a.lo), vsqrtq_f32(a.hi)}; }
  static Vec8f SelectGeZero(Vec8f x, Vec8f a, Vec8f b) {
    const float32x4_t zero = vdupq_n_f32(0.0f);
    const uint32x4_t mlo = vcgeq_f32(x.lo, zero);
    const uint32x4_t mhi = vcgeq_f32(x.hi, zero);
    return {vbslq_f32(mlo, a.lo, b.lo), vbslq_f32(mhi, a.hi, b.hi)};
  }
  static Vec8f Pow2i(Vec8f n) {
    const int32x4_t bias = vdupq_n_s32(127);
    int32x4_t ilo = vshlq_n_s32(vaddq_s32(vcvtq_s32_f32(n.lo), bias), 23);
    int32x4_t ihi = vshlq_n_s32(vaddq_s32(vcvtq_s32_f32(n.hi), bias), 23);
    return {vreinterpretq_f32_s32(ilo), vreinterpretq_f32_s32(ihi)};
  }
  float ExtractLane(int lane) const {
    float tmp[8];
    Store(tmp);
    return tmp[lane];
  }
};

#else  // scalar reference backend

struct Vec8f {
  float lane[8];
  static Vec8f Load(const float* p) {
    Vec8f r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  void Store(float* p) const { std::memcpy(p, lane, sizeof(lane)); }
  static Vec8f Broadcast(float s) {
    Vec8f r;
    for (float& l : r.lane) l = s;
    return r;
  }
  static Vec8f Zero() { return Broadcast(0.0f); }
  friend Vec8f operator+(Vec8f a, Vec8f b) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend Vec8f operator-(Vec8f a, Vec8f b) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  friend Vec8f operator*(Vec8f a, Vec8f b) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  friend Vec8f operator/(Vec8f a, Vec8f b) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] / b.lane[i];
    return r;
  }
  static Vec8f Min(Vec8f a, Vec8f b) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return r;
  }
  static Vec8f Max(Vec8f a, Vec8f b) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return r;
  }
  static Vec8f Abs(Vec8f a) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) {
      // Clear the sign bit (matches fabsf incl. on NaN).
      uint32_t bits;
      std::memcpy(&bits, &a.lane[i], 4);
      bits &= 0x7fffffffu;
      std::memcpy(&r.lane[i], &bits, 4);
    }
    return r;
  }
  static Vec8f Sqrt(Vec8f a) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) r.lane[i] = __builtin_sqrtf(a.lane[i]);
    return r;
  }
  static Vec8f SelectGeZero(Vec8f x, Vec8f a, Vec8f b) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = x.lane[i] >= 0.0f ? a.lane[i] : b.lane[i];
    }
    return r;
  }
  static Vec8f Pow2i(Vec8f n) {
    Vec8f r;
    for (int i = 0; i < 8; ++i) {
      const uint32_t bits =
          static_cast<uint32_t>(static_cast<int32_t>(n.lane[i]) + 127) << 23;
      std::memcpy(&r.lane[i], &bits, 4);
    }
    return r;
  }
  float ExtractLane(int lane_index) const { return lane[lane_index]; }
};

#endif  // backend selection

}  // namespace conformer::vec

#endif  // CONFORMER_TENSOR_VEC_VEC8F_H_
