// Runtime-dispatched SIMD span kernels behind the tensor kernel layer.
//
// Design (docs/SIMD.md): every kernel is defined in terms of a FIXED logical
// vector width of 8 float lanes, independent of the instruction set that
// executes it. Each ISA backend (scalar, SSE2, AVX2, NEON) implements the
// same logical algorithm — same lane-to-bin mapping for accumulators, same
// fixed pairwise horizontal-fold order, same polynomials for exp and tanh,
// multiply-then-add everywhere (no FMA; the build compiles with
// -ffp-contract=off) — so the dispatched result is BITWISE
// IDENTICAL across every SIMD level for every kernel in this table, not
// just within a level.
// tests/simd_test.cc memcmp-enforces this; CI's simd-matrix job re-runs the
// kernel suites under each forced level.
//
// Dispatch: the active level is resolved once from CONFORMER_SIMD_LEVEL
// (scalar|sse2|avx2|neon|native) intersected with what the CPU supports and
// what the build compiled in; tests and benches can re-pin it at runtime
// with SetSimdLevel. The per-call cost is one relaxed atomic load plus an
// indirect call, so a call should cover a whole chunk or row range: at this
// model's widths one row span is only 16-64 floats, which is why Gemm is
// three row-range slots rather than a MulAddN / DotN call per (row, p).
//
// Threading: these are SPAN kernels — callers hand them the contiguous
// range a ParallelFor chunk owns (or a whole row, or a chunk's row range).
// Chunk boundaries are unchanged by vectorization, and within a span the
// vector main loop plus the scalar remainder tail is a pure function of the
// span, so the bitwise 1-vs-N-thread contract (docs/THREADING.md) is
// preserved.

#ifndef CONFORMER_TENSOR_VEC_VEC_H_
#define CONFORMER_TENSOR_VEC_VEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace conformer::vec {

/// Logical lane count every backend implements (NOT the hardware width:
/// SSE2 uses two 4-lane registers per logical float vector).
inline constexpr int64_t kFloatLanes = 8;

/// Instruction-set levels, ordered from weakest to strongest so levels can
/// be clamped with min(). kNeon sorts above kScalar on aarch64 builds; the
/// x86 levels are never detected there (and vice versa).
enum class SimdLevel : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Lower-case name used in env parsing, bench row names and logs.
const char* SimdLevelName(SimdLevel level);

/// Parses "scalar" / "sse2" / "avx2" / "neon" / "native" (case-sensitive).
/// "native" maps to DetectedSimdLevel(). Returns nullopt on anything else.
std::optional<SimdLevel> ParseSimdLevel(const std::string& name);

/// Strongest level this CPU supports among those compiled into the binary.
/// Cached after the first call.
SimdLevel DetectedSimdLevel();

/// All levels usable in this process (compiled in AND supported by the
/// CPU), weakest first. Always contains kScalar.
std::vector<SimdLevel> AvailableSimdLevels();

/// The level the dispatched kernels currently run at. Initialized on first
/// use from CONFORMER_SIMD_LEVEL (falling back to DetectedSimdLevel();
/// unknown names and unsupported requests clamp down with a warning).
SimdLevel ActiveSimdLevel();

/// Re-pins the active level (tests, benches). Returns false — leaving the
/// level unchanged — when `level` is not available in this process. Must
/// not be called concurrently with running kernels.
bool SetSimdLevel(SimdLevel level);

/// Products C_t (m x n) += op(A_t) * op(B_t) of one shape, row-major,
/// t in [0, batches): batch t reads a + t * a_stride and b + t * b_stride
/// and writes c + t * c_stride. A is m x k (nn, nt) or k x m (tn); B is
/// k x n (nn, tn) or n x k (nt). Strides count floats.
struct GemmOperands {
  int64_t m, n, k;
  const float* a;
  int64_t a_stride;
  const float* b;
  int64_t b_stride;
  float* c;
  int64_t c_stride;
};

/// Writes columns [j, j + 8) of B^T (B is n x k) over p in [p0, p0 + kb),
/// p-major: panel[(p - p0) * 8 + q] = B(j + q, p). The NT kernels run one
/// such panel's 8 columns across the lanes.
inline void PackNTPanel(const float* b, int64_t k, int64_t j, int64_t p0,
                        int64_t kb, float* panel) {
  for (int64_t q = 0; q < kFloatLanes; ++q) {
    const float* row = b + (j + q) * k + p0;
    for (int64_t p = 0; p < kb; ++p) panel[p * kFloatLanes + q] = row[p];
  }
}

/// B (n x k) laid out for GemmRowsNTPacked in n * k floats: the panel of
/// columns [j, j + 8) over all of k (PackNTPanel) at offset j * k for each
/// full panel, then B's last n % 8 rows as they are. Pack a B that many
/// products share once, not once per product.
inline void PackNT(int64_t n, int64_t k, const float* b, float* packed) {
  int64_t j = 0;
  for (; j + kFloatLanes <= n; j += kFloatLanes) {
    PackNTPanel(b, k, j, 0, k, packed + j * k);
  }
  for (int64_t t = j * k; t < n * k; ++t) packed[t] = b[t];
}

namespace internal {

/// One entry per dispatched kernel; each backend fills a table with its
/// implementations. All implementations of one slot are bitwise-equivalent.
struct KernelTable {
  // Contiguous elementwise spans: o[i] = f(a[i], b[i]) / f(a[i]).
  void (*add)(const float* a, const float* b, float* o, int64_t n);
  void (*sub)(const float* a, const float* b, float* o, int64_t n);
  void (*mul)(const float* a, const float* b, float* o, int64_t n);
  void (*div)(const float* a, const float* b, float* o, int64_t n);
  void (*add_scalar)(const float* a, float s, float* o, int64_t n);
  void (*mul_scalar)(const float* a, float s, float* o, int64_t n);
  void (*relu)(const float* a, float* o, int64_t n);
  void (*sqrt)(const float* a, float* o, int64_t n);
  void (*exp)(const float* a, float* o, int64_t n);
  void (*sigmoid)(const float* a, float* o, int64_t n);
  void (*tanh)(const float* a, float* o, int64_t n);
  // o[i] += alpha * x[i].
  void (*mul_add)(const float* x, float alpha, float* o, int64_t n);
  // Rows [r0, r1) of the batches stacked in `g` (row r is row r % m of
  // batch r / m) of C += A * B. nn/tn give each C element the mul_add order
  // (c + a*b in ascending p, a == 0 terms skipped); nt adds one dot per
  // element, and nt_packed reads B as PackNT writes it. See docs/SIMD.md
  // for the tiling.
  void (*gemm_nn)(const GemmOperands& g, int64_t r0, int64_t r1);
  void (*gemm_nt)(const GemmOperands& g, int64_t r0, int64_t r1);
  void (*gemm_nt_packed)(const GemmOperands& g, int64_t r0, int64_t r1);
  void (*gemm_tn)(const GemmOperands& g, int64_t r0, int64_t r1);
  // 8-bin reductions folded in the fixed pairwise order (docs/SIMD.md).
  float (*dot)(const float* a, const float* b, int64_t n);
  float (*sum)(const float* a, int64_t n);
  float (*max_reduce)(const float* a, int64_t n);
  // Rows [r0, r1) of the centred moving average (odd `kernel`) of one
  // [length, width] slab, source rows clamped to [0, length). Forward:
  // out[t] = (sum_k x[clamp(t - kernel/2 + k)]) * inv_k. Adjoint (the
  // gradient): out[p] = sum of x[t] * inv_k over every (t, k) whose clamped
  // row is p, in ascending (t, k). Both sum from +0 in that order.
  void (*moving_average)(const float* x, int64_t length, int64_t width,
                         int64_t kernel, float inv_k, bool adjoint, int64_t r0,
                         int64_t r1, float* out);
  // Numerically-stable softmax / log-softmax over one contiguous row.
  void (*softmax_row)(const float* in, float* out, int64_t n);
  void (*log_softmax_row)(const float* in, float* out, int64_t n);
};

/// Table for the active level; never null.
const KernelTable& ActiveTable();

}  // namespace internal

// ---------------------------------------------------------------------------
// Dispatched entry points. Each forwards to the active backend's span
// kernel; result bits are identical at every SIMD level.

inline void AddN(const float* a, const float* b, float* o, int64_t n) {
  internal::ActiveTable().add(a, b, o, n);
}
inline void SubN(const float* a, const float* b, float* o, int64_t n) {
  internal::ActiveTable().sub(a, b, o, n);
}
inline void MulN(const float* a, const float* b, float* o, int64_t n) {
  internal::ActiveTable().mul(a, b, o, n);
}
inline void DivN(const float* a, const float* b, float* o, int64_t n) {
  internal::ActiveTable().div(a, b, o, n);
}
inline void AddScalarN(const float* a, float s, float* o, int64_t n) {
  internal::ActiveTable().add_scalar(a, s, o, n);
}
inline void MulScalarN(const float* a, float s, float* o, int64_t n) {
  internal::ActiveTable().mul_scalar(a, s, o, n);
}
inline void ReluN(const float* a, float* o, int64_t n) {
  internal::ActiveTable().relu(a, o, n);
}
inline void SqrtN(const float* a, float* o, int64_t n) {
  internal::ActiveTable().sqrt(a, o, n);
}
inline void ExpN(const float* a, float* o, int64_t n) {
  internal::ActiveTable().exp(a, o, n);
}
inline void SigmoidN(const float* a, float* o, int64_t n) {
  internal::ActiveTable().sigmoid(a, o, n);
}
inline void TanhN(const float* a, float* o, int64_t n) {
  internal::ActiveTable().tanh(a, o, n);
}
inline void MulAddN(const float* x, float alpha, float* o, int64_t n) {
  internal::ActiveTable().mul_add(x, alpha, o, n);
}
inline void GemmRowsNN(const GemmOperands& g, int64_t r0, int64_t r1) {
  internal::ActiveTable().gemm_nn(g, r0, r1);
}
inline void GemmRowsNT(const GemmOperands& g, int64_t r0, int64_t r1) {
  internal::ActiveTable().gemm_nt(g, r0, r1);
}
inline void GemmRowsNTPacked(const GemmOperands& g, int64_t r0, int64_t r1) {
  internal::ActiveTable().gemm_nt_packed(g, r0, r1);
}
inline void GemmRowsTN(const GemmOperands& g, int64_t r0, int64_t r1) {
  internal::ActiveTable().gemm_tn(g, r0, r1);
}
inline float DotN(const float* a, const float* b, int64_t n) {
  return internal::ActiveTable().dot(a, b, n);
}
inline float SumN(const float* a, int64_t n) {
  return internal::ActiveTable().sum(a, n);
}
inline float MaxReduceN(const float* a, int64_t n) {
  return internal::ActiveTable().max_reduce(a, n);
}
inline void MovingAverageRows(const float* x, int64_t length, int64_t width,
                              int64_t kernel, float inv_k, bool adjoint,
                              int64_t r0, int64_t r1, float* out) {
  internal::ActiveTable().moving_average(x, length, width, kernel, inv_k,
                                         adjoint, r0, r1, out);
}
inline void SoftmaxRowN(const float* in, float* out, int64_t n) {
  internal::ActiveTable().softmax_row(in, out, n);
}
inline void LogSoftmaxRowN(const float* in, float* out, int64_t n) {
  internal::ActiveTable().log_softmax_row(in, out, n);
}

}  // namespace conformer::vec

#endif  // CONFORMER_TENSOR_VEC_VEC_H_
