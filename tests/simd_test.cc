// Dispatch-identity suite for the runtime SIMD layer (tensor/vec, see
// docs/SIMD.md). The layer's contract is stronger than "close enough":
// every kernel is defined at a fixed logical width of 8 float lanes with a
// fixed horizontal-fold order, so results must be BITWISE IDENTICAL across
// every SIMD level available in this process. These tests memcmp raw span
// kernels, whole tensor graphs (forward AND gradients), and the double
// kernels behind util/linalg — at every tail length and unaligned offset —
// against the forced-scalar backend. CI's simd-matrix job re-runs the kernel
// suites under each forced CONFORMER_SIMD_LEVEL on top of this.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "baselines/timesnet_lite.h"
#include "core/series_decomposition.h"
#include "data/window_dataset.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/linalg.h"
#include "util/thread_pool.h"

namespace conformer {
namespace {

using vec::SimdLevel;

constexpr int64_t kLanes = vec::kFloatLanes;

// Every test restores the ambient level (and single-thread pool) so test
// order never matters.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = vec::ActiveSimdLevel(); }
  void TearDown() override {
    ASSERT_TRUE(vec::SetSimdLevel(saved_));
    ThreadPool::Global().SetNumThreads(1);
  }

 private:
  SimdLevel saved_ = SimdLevel::kScalar;
};

// Non-scalar levels to compare against the scalar backend.
std::vector<SimdLevel> VectorLevels() {
  std::vector<SimdLevel> out;
  for (SimdLevel level : vec::AvailableSimdLevels()) {
    if (level != SimdLevel::kScalar) out.push_back(level);
  }
  return out;
}

// Deterministic input data: finite, sign-mixed, magnitude-mixed, never zero
// (safe as a divisor).
float TestValue(int64_t i) {
  const float base = static_cast<float>((i * 37 % 19) - 9) * 0.37f;
  return base + (base >= 0.0f ? 0.25f : -0.25f);
}

// Runs `fn` (which writes `n` floats through the currently active dispatch
// table into its argument) once per level and memcmps everything against
// the scalar backend's output.
void ExpectAllLevelsMatchScalar(
    int64_t n, const std::function<void(float*)>& fn, const char* what) {
  ASSERT_TRUE(vec::SetSimdLevel(SimdLevel::kScalar));
  std::vector<float> want(n, -123.0f);
  fn(want.data());
  for (SimdLevel level : VectorLevels()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    std::vector<float> got(n, -123.0f);
    fn(got.data());
    // An empty vector's data() may be null, and memcmp on null is UB even
    // for zero bytes.
    if (n == 0) continue;
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), sizeof(float) * n))
        << what << " differs between scalar and " << vec::SimdLevelName(level)
        << " at n=" << n;
  }
}

// -- level plumbing ---------------------------------------------------------

TEST_F(SimdTest, ParseSimdLevelNames) {
  EXPECT_EQ(vec::ParseSimdLevel("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(vec::ParseSimdLevel("sse2"), SimdLevel::kSse2);
  EXPECT_EQ(vec::ParseSimdLevel("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(vec::ParseSimdLevel("neon"), SimdLevel::kNeon);
  EXPECT_EQ(vec::ParseSimdLevel("native"), vec::DetectedSimdLevel());
  EXPECT_FALSE(vec::ParseSimdLevel("AVX2").has_value());
  EXPECT_FALSE(vec::ParseSimdLevel("").has_value());
  EXPECT_FALSE(vec::ParseSimdLevel("avx512").has_value());
}

TEST_F(SimdTest, ScalarAlwaysAvailableAndRoundTrips) {
  const std::vector<SimdLevel> levels = vec::AvailableSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  for (SimdLevel level : levels) {
    EXPECT_TRUE(vec::SetSimdLevel(level)) << vec::SimdLevelName(level);
    EXPECT_EQ(vec::ActiveSimdLevel(), level);
  }
}

TEST_F(SimdTest, SetSimdLevelRejectsUnavailable) {
  // At most one of NEON / AVX2 can exist in one process; the foreign
  // architecture's level must be rejected without changing the active one.
#if defined(__aarch64__)
  const SimdLevel foreign = SimdLevel::kAvx2;
#else
  const SimdLevel foreign = SimdLevel::kNeon;
#endif
  const SimdLevel before = vec::ActiveSimdLevel();
  EXPECT_FALSE(vec::SetSimdLevel(foreign));
  EXPECT_EQ(vec::ActiveSimdLevel(), before);
}

TEST_F(SimdTest, DetectedLevelIsStrongestAvailable) {
  EXPECT_EQ(vec::DetectedSimdLevel(), vec::AvailableSimdLevels().back());
}

// -- raw span kernels: tail sweep at every length and offset ----------------

// Lengths covering every remainder class twice plus multi-vector spans.
std::vector<int64_t> SweepLengths() {
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 2 * kLanes; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {3 * kLanes + 1, 5 * kLanes + 7, 129});
  return lengths;
}

TEST_F(SimdTest, BinaryKernelTailSweep) {
  struct Case {
    const char* name;
    void (*fn)(const float*, const float*, float*, int64_t);
  };
  const Case cases[] = {{"AddN", vec::AddN},   {"SubN", vec::SubN},
                        {"MulN", vec::MulN},   {"DivN", vec::DivN},
                        {"MaxN", vec::MaxN}};
  for (const Case& c : cases) {
    for (int64_t n : SweepLengths()) {
      // Offsets 0..3 de-align the inputs from any 16/32-byte boundary.
      for (int64_t off = 0; off < 4; ++off) {
        std::vector<float> a(off + n), b(off + n);
        for (int64_t i = 0; i < off + n; ++i) {
          a[i] = TestValue(i);
          b[i] = TestValue(i + 101);
        }
        ExpectAllLevelsMatchScalar(
            n, [&](float* o) { c.fn(a.data() + off, b.data() + off, o, n); },
            c.name);
      }
    }
  }
}

TEST_F(SimdTest, UnaryKernelTailSweep) {
  struct Case {
    const char* name;
    std::function<void(const float*, float*, int64_t)> fn;
  };
  const Case cases[] = {
      {"ReluN", vec::ReluN},
      {"AbsN", vec::AbsN},
      {"ExpN", vec::ExpN},
      {"SigmoidN", vec::SigmoidN},
      {"AddScalarN",
       [](const float* a, float* o, int64_t n) {
         vec::AddScalarN(a, 0.75f, o, n);
       }},
      {"MulScalarN",
       [](const float* a, float* o, int64_t n) {
         vec::MulScalarN(a, -1.5f, o, n);
       }},
      {"ClampN",
       [](const float* a, float* o, int64_t n) {
         vec::ClampN(a, -1.0f, 2.0f, o, n);
       }},
      {"SqrtN",
       [](const float* a, float* o, int64_t n) {
         // Sqrt needs non-negative input; shift into [0.25, ...).
         std::vector<float> nn(n);
         for (int64_t i = 0; i < n; ++i) nn[i] = std::fabs(a[i]) + 0.25f;
         vec::SqrtN(nn.data(), o, n);
       }},
      {"SoftmaxRowN", vec::SoftmaxRowN},
      {"LogSoftmaxRowN", vec::LogSoftmaxRowN},
  };
  for (const Case& c : cases) {
    const bool row_kernel = std::strcmp(c.name, "SoftmaxRowN") == 0 ||
                            std::strcmp(c.name, "LogSoftmaxRowN") == 0;
    for (int64_t n : SweepLengths()) {
      if (n == 0 && row_kernel) continue;  // row kernels need n >= 1
      for (int64_t off = 0; off < 4; ++off) {
        std::vector<float> a(off + n);
        for (int64_t i = 0; i < off + n; ++i) a[i] = TestValue(i);
        ExpectAllLevelsMatchScalar(
            n, [&](float* o) { c.fn(a.data() + off, o, n); }, c.name);
      }
    }
  }
}

TEST_F(SimdTest, AccumulateAndReduceKernelTailSweep) {
  for (int64_t n : SweepLengths()) {
    for (int64_t off = 0; off < 4; ++off) {
      std::vector<float> x(off + n), y(off + n);
      for (int64_t i = 0; i < off + n; ++i) {
        x[i] = TestValue(i);
        y[i] = TestValue(i + 53);
      }
      ExpectAllLevelsMatchScalar(
          n,
          [&](float* o) {
            for (int64_t i = 0; i < n; ++i) o[i] = y[off + i];
            vec::MulAddN(x.data() + off, 1.375f, o, n);
          },
          "MulAddN");
      // Scalar-result reductions: compare through a 3-float output buffer.
      ExpectAllLevelsMatchScalar(
          3,
          [&](float* o) {
            o[0] = vec::DotN(x.data() + off, y.data() + off, n);
            o[1] = vec::SumN(x.data() + off, n);
            o[2] = n > 0 ? vec::MaxReduceN(x.data() + off, n) : 0.0f;
          },
          "DotN/SumN/MaxReduceN");
    }
  }
}

TEST_F(SimdTest, MovingAvgKernelTailSweep) {
  // Odd window widths and output lengths around the lane width.
  for (int64_t kernel : {1, 2, 3, 7, 25}) {
    for (int64_t out_len : SweepLengths()) {
      if (out_len == 0) continue;
      const int64_t len = out_len + kernel - 1;
      std::vector<float> row(len);
      for (int64_t i = 0; i < len; ++i) row[i] = TestValue(i);
      const float inv_k = 1.0f / static_cast<float>(kernel);
      ExpectAllLevelsMatchScalar(
          out_len,
          [&](float* o) { vec::MovingAvgN(row.data(), out_len, kernel, inv_k, o); },
          "MovingAvgN");
      // Cross-check against the plain sequential functor: the moving-average
      // kernel is bitwise-reproducible even against naive scalar code.
      ASSERT_TRUE(vec::SetSimdLevel(vec::DetectedSimdLevel()));
      std::vector<float> got(out_len);
      vec::MovingAvgN(row.data(), out_len, kernel, inv_k, got.data());
      for (int64_t j = 0; j < out_len; ++j) {
        float acc = 0.0f;
        for (int64_t t = 0; t < kernel; ++t) acc += row[j + t];
        ASSERT_EQ(got[j], acc * inv_k) << "j=" << j << " kernel=" << kernel;
      }
    }
  }
}

TEST_F(SimdTest, DoubleKernelTailSweep) {
  for (int64_t n : SweepLengths()) {
    for (int64_t off = 0; off < 4; ++off) {
      std::vector<double> x(off + n), y(off + n);
      for (int64_t i = 0; i < off + n; ++i) {
        x[i] = static_cast<double>(TestValue(i));
        y[i] = static_cast<double>(TestValue(i + 71));
      }
      ASSERT_TRUE(vec::SetSimdLevel(SimdLevel::kScalar));
      const double want_dot = vec::DdotN(x.data() + off, y.data() + off, n);
      std::vector<double> want_axpy(y.begin() + off, y.end());
      vec::DmulAddN(x.data() + off, 0.625, want_axpy.data(), n);
      for (SimdLevel level : VectorLevels()) {
        ASSERT_TRUE(vec::SetSimdLevel(level));
        const double got_dot = vec::DdotN(x.data() + off, y.data() + off, n);
        EXPECT_EQ(0, std::memcmp(&want_dot, &got_dot, sizeof(double)))
            << "DdotN " << vec::SimdLevelName(level) << " n=" << n;
        std::vector<double> got_axpy(y.begin() + off, y.end());
        vec::DmulAddN(x.data() + off, 0.625, got_axpy.data(), n);
        if (n == 0) continue;  // Null data(): see ExpectAllLevelsMatchScalar.
        EXPECT_EQ(0, std::memcmp(want_axpy.data(), got_axpy.data(),
                                 sizeof(double) * n))
            << "DmulAddN " << vec::SimdLevelName(level) << " n=" << n;
      }
    }
  }
}

// -- exactness against plain scalar code ------------------------------------

// Kernels documented as bitwise-equal to the naive per-element expression
// (not just equal across levels) must match it at the detected level.
TEST_F(SimdTest, ArithmeticKernelsMatchNaiveExpressions) {
  ASSERT_TRUE(vec::SetSimdLevel(vec::DetectedSimdLevel()));
  const int64_t n = 2 * kLanes + 5;
  std::vector<float> a(n), b(n), o(n);
  for (int64_t i = 0; i < n; ++i) {
    a[i] = TestValue(i);
    b[i] = TestValue(i + 17);
  }
  vec::AddN(a.data(), b.data(), o.data(), n);
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(o[i], a[i] + b[i]);
  vec::DivN(a.data(), b.data(), o.data(), n);
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(o[i], a[i] / b[i]);
  vec::MaxN(a.data(), b.data(), o.data(), n);
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(o[i], a[i] >= b[i] ? a[i] : b[i]);
  vec::ReluN(a.data(), o.data(), n);
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(o[i], a[i] > 0.0f ? a[i] : 0.0f);
  std::vector<float> pos(n);
  for (int64_t i = 0; i < n; ++i) pos[i] = std::fabs(a[i]);
  vec::SqrtN(pos.data(), o.data(), n);
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(o[i], std::sqrt(pos[i]));
  std::vector<float> acc(b);
  vec::MulAddN(a.data(), 2.5f, acc.data(), n);
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(acc[i], b[i] + 2.5f * a[i]);
}

TEST_F(SimdTest, ExpAccuracyAgainstLibm) {
  ASSERT_TRUE(vec::SetSimdLevel(vec::DetectedSimdLevel()));
  // Dense sweep over the interesting range plus the clamp boundaries.
  std::vector<float> xs;
  for (float x = -87.0f; x <= 88.0f; x += 0.3137f) xs.push_back(x);
  xs.insert(xs.end(), {0.0f, -0.0f, 1.0f, -1.0f, -100.0f, 200.0f});
  std::vector<float> got(xs.size());
  vec::ExpN(xs.data(), got.data(), static_cast<int64_t>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    const double want = std::exp(static_cast<double>(xs[i]));
    if (xs[i] > 88.4f) {
      // Above the clamp: saturates near FLT_MAX instead of inf.
      EXPECT_GT(got[i], 1e38f) << "x=" << xs[i];
      continue;
    }
    if (xs[i] < -87.3f) {
      // Below the clamp: tiny but nonzero instead of flushing to 0.
      EXPECT_LT(got[i], 2e-38f) << "x=" << xs[i];
      continue;
    }
    EXPECT_NEAR(got[i] / want, 1.0, 1e-6) << "x=" << xs[i];
  }
  // exp(0) must be exactly 1 (Softmax on a length-1 dim returns exactly 1).
  float one = 0.0f;
  const float zero = 0.0f;
  vec::ExpN(&zero, &one, 1);
  EXPECT_EQ(one, 1.0f);
}

TEST_F(SimdTest, SigmoidAccuracyAndSymmetry) {
  ASSERT_TRUE(vec::SetSimdLevel(vec::DetectedSimdLevel()));
  std::vector<float> xs;
  for (float x = -30.0f; x <= 30.0f; x += 0.217f) xs.push_back(x);
  std::vector<float> got(xs.size());
  vec::SigmoidN(xs.data(), got.data(), static_cast<int64_t>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    const double want = 1.0 / (1.0 + std::exp(-static_cast<double>(xs[i])));
    EXPECT_NEAR(got[i], want, 1e-6) << "x=" << xs[i];
  }
}

TEST_F(SimdTest, SoftmaxRowMatchesReferenceWithinTolerance) {
  ASSERT_TRUE(vec::SetSimdLevel(vec::DetectedSimdLevel()));
  const int64_t n = 37;
  std::vector<float> x(n), y(n);
  for (int64_t i = 0; i < n; ++i) x[i] = TestValue(i) * 2.0f;
  vec::SoftmaxRowN(x.data(), y.data(), n);
  double total = 0.0;
  float mx = x[0];
  for (float v : x) mx = std::max(mx, v);
  std::vector<double> ref(n);
  for (int64_t i = 0; i < n; ++i) {
    ref[i] = std::exp(static_cast<double>(x[i] - mx));
    total += ref[i];
  }
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], ref[i] / total, 1e-6) << "i=" << i;
    sum += y[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5);
}

// -- Gemm: every transpose variant, every shape class, every level ----------

TEST_F(SimdTest, GemmAllVariantsBitwiseAcrossLevels) {
  const int64_t sizes[] = {1, 2, 3, 5, 8, 9, 16, 17, 33};
  // NN, NT and TN; Gemm rejects A^T * B^T.
  for (auto [trans_a, trans_b] :
       {std::pair{false, false}, {false, true}, {true, false}}) {
    for (int64_t m : sizes) {
      for (int64_t n : sizes) {
        for (int64_t k : sizes) {
          // Skip the bulk of the cube to keep runtime sane: exercise all
          // shapes where any dim is a tail case plus a few big ones.
          if (m > 9 && n > 9 && k > 9 && !(m == n && n == k)) continue;
          std::vector<float> a(m * k), b(k * n);
          for (size_t i = 0; i < a.size(); ++i) a[i] = TestValue(i);
          for (size_t i = 0; i < b.size(); ++i) b[i] = TestValue(i + 7);
          // Sprinkle zeros to exercise the zero-skip fast path.
          for (size_t i = 0; i < a.size(); i += 5) a[i] = 0.0f;
          ExpectAllLevelsMatchScalar(
              m * n,
              [&](float* c) {
                kernels::Gemm(trans_a, trans_b, m, n, k, a.data(), b.data(),
                              c, /*accumulate=*/false);
              },
              "Gemm");
        }
      }
    }
  }
}

TEST_F(SimdTest, GemmRejectsBothTransposed) {
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4);
  EXPECT_DEATH(kernels::Gemm(true, true, 2, 2, 2, a.data(), b.data(),
                             c.data(), /*accumulate=*/false),
               "not supported");
}

// The loops Gemm ran before its row-range slots, kept as the oracle: one
// MulAddN per (row, p) for NN and TN, one DotN per element for NT.
void ReferenceGemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                   int64_t k, const float* a, const float* b, float* c,
                   bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  if (k == 0) return;
  for (int64_t i = 0; i < m; ++i) {
    if (trans_b) {
      for (int64_t j = 0; j < n; ++j) {
        c[i * n + j] += vec::DotN(a + i * k, b + j * k, k);
      }
      continue;
    }
    for (int64_t p = 0; p < k; ++p) {
      const float x = trans_a ? a[p * m + i] : a[i * k + p];
      if (x == 0.0f) continue;
      vec::MulAddN(b + p * n, x, c + i * n, n);
    }
  }
}

// Every (level, thread count) pair the oracle tests below run at.
std::vector<std::pair<SimdLevel, int64_t>> LevelsAndThreads() {
  std::vector<std::pair<SimdLevel, int64_t>> out;
  for (SimdLevel level : vec::AvailableSimdLevels()) {
    for (int64_t threads : {1, 8}) out.emplace_back(level, threads);
  }
  return out;
}

TEST_F(SimdTest, GemmMatchesReferenceLoopsAtEveryLevel) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (auto [level, threads] : LevelsAndThreads()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    ThreadPool::Global().SetNumThreads(threads);
    for (auto [trans_a, trans_b] :
         {std::pair{false, false}, {false, true}, {true, false}}) {
      for (int64_t m : {1, 3, 4, 5, 9}) {
        for (int64_t n : {1, 7, 8, 15, 16, 17, 33, 64, 65, 130}) {
          for (int64_t k : {0, 1, 2, 31}) {
            std::vector<float> a(m * k), b(k * n);
            for (size_t i = 0; i < a.size(); ++i) a[i] = TestValue(i);
            for (size_t i = 0; i < b.size(); ++i) b[i] = TestValue(i + 7);
            for (size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
            const auto at = [&](int64_t i, int64_t p) -> float& {
              return trans_a ? a[p * m + i] : a[i * k + p];
            };
            // Row 0 of C gets only zero terms, so its -0.0 start survives.
            for (int64_t p = 0; p < k && m > 1; ++p) at(0, p) = 0.0f;
            // NN/TN skip a == 0 terms rather than multiply them: zero
            // column 0 of A and face it with +-Inf and NaN in row 0 of B.
            // (NT has no skip, so its B stays finite.)
            if (!trans_b && k > 1) {
              for (int64_t i = 0; i < m; ++i) at(i, 0) = 0.0f;
              const float specials[] = {kInf, -kInf, kNaN};
              for (int64_t j = 0; j < n; ++j) b[j] = specials[j % 3];
            }
            for (bool accumulate : {false, true}) {
              std::vector<float> want(m * n, -0.0f), got(m * n, -0.0f);
              ReferenceGemm(trans_a, trans_b, m, n, k, a.data(), b.data(),
                            want.data(), accumulate);
              kernels::Gemm(trans_a, trans_b, m, n, k, a.data(), b.data(),
                            got.data(), accumulate);
              EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                       sizeof(float) * m * n))
                  << "Gemm(" << trans_a << ", " << trans_b << ") m=" << m
                  << " n=" << n << " k=" << k << " accumulate=" << accumulate
                  << " at " << vec::SimdLevelName(level) << ", " << threads
                  << " threads";
            }
          }
        }
      }
    }
  }
}

// -- broadcast loops vs the per-element odometer ------------------------------

// The per-element odometer BroadcastBinary ran before its row runs.
template <typename Fn>
void ReferenceBroadcastBinary(const float* a, const Shape& a_shape,
                              const float* b, const Shape& b_shape, float* out,
                              const Shape& out_shape, Fn f) {
  const std::vector<int64_t> as = kernels::BroadcastStrides(a_shape, out_shape);
  const std::vector<int64_t> bs = kernels::BroadcastStrides(b_shape, out_shape);
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  std::vector<int64_t> index(rank, 0);
  int64_t a_off = 0, b_off = 0;
  for (int64_t i = 0; i < NumElements(out_shape); ++i) {
    out[i] = f(a[a_off], b[b_off]);
    for (int64_t d = rank - 1; d >= 0; --d) {
      ++index[d];
      a_off += as[d];
      b_off += bs[d];
      if (index[d] < out_shape[d]) break;
      index[d] = 0;
      a_off -= as[d] * out_shape[d];
      b_off -= bs[d] * out_shape[d];
    }
  }
}

// The per-element odometer ReduceGradToShape ran before its row runs.
void ReferenceReduceGradToShape(const float* grad, const Shape& grad_shape,
                                float* out, const Shape& target_shape) {
  const std::vector<int64_t> strides =
      kernels::BroadcastStrides(target_shape, grad_shape);
  const int64_t rank = static_cast<int64_t>(grad_shape.size());
  std::vector<int64_t> index(rank, 0);
  int64_t off = 0;
  for (int64_t i = 0; i < NumElements(grad_shape); ++i) {
    out[off] += grad[i];
    for (int64_t d = rank - 1; d >= 0; --d) {
      ++index[d];
      off += strides[d];
      if (index[d] < grad_shape[d]) break;
      index[d] = 0;
      off -= strides[d] * grad_shape[d];
    }
  }
}

TEST_F(SimdTest, BroadcastLoopsMatchReferenceOdometer) {
  // {small operand, full-shape operand}: broadcast over leading, middle and
  // trailing dims, a bias row, a scalar, a rank-0 tensor, size-1 output dims,
  // and two operands broadcasting against each other. The big shapes exceed
  // kGrainStrided with rows that do not divide it, so chunks start mid-row.
  const std::pair<Shape, Shape> cases[] = {
      {{1, 5, 7}, {4, 5, 7}},        {{4, 1, 7}, {4, 5, 7}},
      {{4, 5, 1}, {4, 5, 7}},        {{7}, {4, 5, 7}},
      {{1}, {4, 5, 7}},              {Shape{}, {4, 5, 7}},
      {{4, 1, 7}, {1, 1, 7}},        {{4, 1}, {1, 5}},
      {{64, 1, 33}, {1, 17, 33}},    {{33}, {64, 17, 33}},
      {{64, 17, 1}, {64, 17, 33}},   {{1, 17, 1}, {64, 17, 33}},
  };
  const auto f = [](float x, float y) { return x * 3.0f - y; };
  for (auto [level, threads] : LevelsAndThreads()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    ThreadPool::Global().SetNumThreads(threads);
    for (const auto& [small, full] : cases) {
      for (bool swap : {false, true}) {
        const Shape& a_shape = swap ? full : small;
        const Shape& b_shape = swap ? small : full;
        const Shape out_shape = kernels::BroadcastShape(a_shape, b_shape);
        const int64_t n = NumElements(out_shape);
        std::vector<float> a(NumElements(a_shape)), b(NumElements(b_shape));
        for (size_t i = 0; i < a.size(); ++i) a[i] = TestValue(i);
        for (size_t i = 0; i < b.size(); ++i) b[i] = TestValue(i + 29);
        std::vector<float> want(n), got(n);
        ReferenceBroadcastBinary(a.data(), a_shape, b.data(), b_shape,
                                 want.data(), out_shape, f);
        kernels::BroadcastBinary(a.data(), a_shape, b.data(), b_shape,
                                 got.data(), out_shape, f);
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(), sizeof(float) * n))
            << "BroadcastBinary " << ShapeToString(a_shape) << " with "
            << ShapeToString(b_shape) << " at " << vec::SimdLevelName(level)
            << ", " << threads << " threads";

        // Reduce the full-shape gradient back onto each operand's shape.
        std::vector<float> grad(n);
        for (int64_t i = 0; i < n; ++i) grad[i] = TestValue(i + 3);
        for (const Shape& target : {a_shape, b_shape}) {
          const int64_t tn = NumElements(target);
          std::vector<float> want_r(tn), got_r(tn);
          for (int64_t i = 0; i < tn; ++i) want_r[i] = got_r[i] = TestValue(i);
          ReferenceReduceGradToShape(grad.data(), out_shape, want_r.data(),
                                     target);
          kernels::ReduceGradToShape(grad.data(), out_shape, got_r.data(),
                                     target);
          EXPECT_EQ(0, std::memcmp(want_r.data(), got_r.data(),
                                   sizeof(float) * tn))
              << "ReduceGradToShape " << ShapeToString(out_shape) << " to "
              << ShapeToString(target) << " at "
              << vec::SimdLevelName(level) << ", " << threads << " threads";
        }
      }
    }
  }
}

// -- whole tensor graphs: forward and gradients across levels ---------------

// Runs forward+backward once per level; memcmps outputs and every gradient
// against the scalar-level run.
void ExpectGraphIdenticalAcrossLevels(
    const std::function<Tensor(const std::vector<Tensor>&)>& f,
    const std::vector<Shape>& shapes, const char* what) {
  auto run = [&]() {
    std::vector<Tensor> inputs;
    for (size_t i = 0; i < shapes.size(); ++i) {
      Rng rng(1000 + i);
      Tensor t = Tensor::Randn(shapes[i], &rng);
      t.set_requires_grad(true);
      inputs.push_back(t);
    }
    Tensor out = f(inputs);
    Sum(Mul(out, out)).Backward();
    std::vector<Tensor> results = {out};
    for (const Tensor& in : inputs) results.push_back(in.grad());
    return results;
  };
  ASSERT_TRUE(vec::SetSimdLevel(SimdLevel::kScalar));
  const std::vector<Tensor> want = run();
  for (SimdLevel level : VectorLevels()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    const std::vector<Tensor> got = run();
    ASSERT_EQ(want.size(), got.size());
    for (size_t t = 0; t < want.size(); ++t) {
      ASSERT_EQ(want[t].shape(), got[t].shape());
      EXPECT_EQ(0, std::memcmp(want[t].data(), got[t].data(),
                               sizeof(float) * want[t].numel()))
          << what << " tensor " << t << ": scalar vs "
          << vec::SimdLevelName(level);
    }
  }
}

TEST_F(SimdTest, ElementwiseGraphAcrossLevels) {
  ExpectGraphIdenticalAcrossLevels(
      [](const std::vector<Tensor>& in) {
        Tensor h = Mul(Add(in[0], in[1]), Sub(in[0], in[1]));
        h = Div(h, AddScalar(Abs(in[1]), 1.0f));
        return Maximum(h, MulScalar(in[0], 0.125f));
      },
      {{5, 33}, {5, 33}}, "elementwise");
}

TEST_F(SimdTest, ActivationGraphAcrossLevels) {
  ExpectGraphIdenticalAcrossLevels(
      [](const std::vector<Tensor>& in) {
        Tensor h = Relu(in[0]);
        h = Add(h, Sigmoid(in[0]));
        h = Add(h, Exp(Clamp(in[0], -3.0f, 3.0f)));
        return Add(h, Sqrt(AddScalar(Abs(in[0]), 0.5f)));
      },
      {{7, 19}}, "activations");
}

TEST_F(SimdTest, MatMulAndSoftmaxGraphAcrossLevels) {
  ExpectGraphIdenticalAcrossLevels(
      [](const std::vector<Tensor>& in) {
        Tensor scores = MatMul(in[0], in[1]);
        return MatMul(Softmax(scores, -1), in[2]);
      },
      {{4, 9}, {9, 13}, {13, 6}}, "matmul+softmax");
}

TEST_F(SimdTest, LogSoftmaxAndReduceGraphAcrossLevels) {
  ExpectGraphIdenticalAcrossLevels(
      [](const std::vector<Tensor>& in) {
        Tensor l = LogSoftmax(in[0], -1);
        return Sum(l, {-1}, /*keepdim=*/true);
      },
      {{6, 21}}, "logsoftmax+sum");
}

TEST_F(SimdTest, SeriesDecompositionAcrossLevels) {
  // The SIRN moving-average path: DecomposeSeries → ReplicatePad →
  // AvgPool1d (stride 1 → vec::MovingAvgN).
  ExpectGraphIdenticalAcrossLevels(
      [](const std::vector<Tensor>& in) {
        core::Decomposition d = core::DecomposeSeries(in[0], /*kernel=*/25);
        return Add(d.trend, MulScalar(d.seasonal, 0.5f));
      },
      {{2, 40, 3}}, "series-decomposition");
}

TEST_F(SimdTest, Conv2dGraphAcrossLevels) {
  ExpectGraphIdenticalAcrossLevels(
      [](const std::vector<Tensor>& in) {
        return Conv2d(in[0], in[1], in[2], /*padding_h=*/1, /*padding_w=*/1);
      },
      {{2, 3, 6, 5}, {4, 3, 3, 3}, {4}}, "conv2d");
}

TEST_F(SimdTest, StridedConv1dGraphAcrossLevels) {
  ExpectGraphIdenticalAcrossLevels(
      [](const std::vector<Tensor>& in) {
        return Conv1d(in[0], in[1], in[2], /*padding=*/1, PadMode::kZeros,
                      /*dilation=*/1, /*stride=*/2);
      },
      {{2, 3, 33}, {4, 3, 3}, {4}}, "strided-conv1d");
}

TEST_F(SimdTest, GruSequenceAcrossLevels) {
  // h = 5: the 2h-wide sigmoid span has a scalar tail after one 8-lane
  // vector. nn_test pins GruSequence to the composed per-step graph, whose
  // ops are level-invariant, so this closes the contract at every level.
  ExpectGraphIdenticalAcrossLevels(
      [](const std::vector<Tensor>& in) {
        return GruSequence(in[0], in[1], in[2]);
      },
      {{3, 7, 15}, {5, 15}, {15}}, "gru-sequence");
}

TEST_F(SimdTest, TimesNetLiteForwardBackwardAcrossLevels) {
  // The whole period-adaptive path (host FFT selection + grid convs) must
  // produce identical forecasts and parameter gradients at every level.
  models::TimesNetLite model({.input_len = 24, .label_len = 8, .pred_len = 8},
                             /*dims=*/2, /*d_model=*/8, /*top_k=*/3);
  auto run = [&] {
    model.ZeroGrad();
    data::Batch batch;
    Rng rng(311);
    batch.x = Tensor::Randn({2, 24, 2}, &rng);
    Tensor out = model.Forward(batch);
    Sum(Mul(out, out)).Backward();
    std::vector<Tensor> results = {out};
    for (Tensor& p : model.Parameters()) results.push_back(p.grad().Clone());
    return results;
  };
  ASSERT_TRUE(vec::SetSimdLevel(SimdLevel::kScalar));
  const std::vector<Tensor> want = run();
  for (SimdLevel level : VectorLevels()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    const std::vector<Tensor> got = run();
    ASSERT_EQ(want.size(), got.size());
    for (size_t t = 0; t < want.size(); ++t) {
      ASSERT_EQ(want[t].shape(), got[t].shape());
      EXPECT_EQ(0, std::memcmp(want[t].data(), got[t].data(),
                               sizeof(float) * want[t].numel()))
          << "timesnet tensor " << t << ": scalar vs "
          << vec::SimdLevelName(level);
    }
  }
}

TEST_F(SimdTest, RidgeLeastSquaresIdenticalAcrossLevels) {
  const int64_t rows = 29, features = 11, outputs = 3;
  std::vector<double> x(rows * features), y(rows * outputs);
  for (size_t i = 0; i < x.size(); ++i) x[i] = TestValue(i) * 0.5;
  for (size_t i = 0; i < y.size(); ++i) y[i] = TestValue(i + 13);
  ASSERT_TRUE(vec::SetSimdLevel(SimdLevel::kScalar));
  auto want = RidgeLeastSquares(x, rows, features, y, outputs, 1e-3);
  ASSERT_TRUE(want.ok());
  for (SimdLevel level : VectorLevels()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    auto got = RidgeLeastSquares(x, rows, features, y, outputs, 1e-3);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(0, std::memcmp(want.value().data(), got.value().data(),
                             sizeof(double) * want.value().size()))
        << "RidgeLeastSquares scalar vs " << vec::SimdLevelName(level);
  }
}

// -- dispatch under the thread pool (tsan-labeled binary) -------------------

// At every level, the vectorized kernels must preserve the PR-1 contract:
// bitwise identical results at 1 thread and at 8 threads (vectorization
// happens within ParallelFor chunks, never across them).
TEST_F(SimdTest, ThreadCountInvarianceAtEveryLevel) {
  for (SimdLevel level : vec::AvailableSimdLevels()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    auto run = [&]() {
      Rng rng(42);
      Tensor a = Tensor::Randn({64, 130}, &rng);
      Tensor b = Tensor::Randn({130, 48}, &rng);
      a.set_requires_grad(true);
      b.set_requires_grad(true);
      Tensor out = Softmax(MatMul(a, b), -1);
      out = Add(out, Sigmoid(out));
      Sum(Mul(out, out)).Backward();
      return std::vector<Tensor>{out, a.grad(), b.grad()};
    };
    ThreadPool::Global().SetNumThreads(1);
    const std::vector<Tensor> single = run();
    ThreadPool::Global().SetNumThreads(8);
    const std::vector<Tensor> multi = run();
    for (size_t t = 0; t < single.size(); ++t) {
      ASSERT_EQ(0, std::memcmp(single[t].data(), multi[t].data(),
                               sizeof(float) * single[t].numel()))
          << "tensor " << t << " at level " << vec::SimdLevelName(level);
    }
    ThreadPool::Global().SetNumThreads(1);
  }
}

// Concurrent reads of the dispatch table from pool workers (tsan coverage
// for the relaxed-atomic table load on every span call).
TEST_F(SimdTest, ConcurrentDispatchReadsAreClean) {
  ASSERT_TRUE(vec::SetSimdLevel(vec::DetectedSimdLevel()));
  ThreadPool::Global().SetNumThreads(8);
  const int64_t n = 1 << 16;
  std::vector<float> a(n), b(n), o(n);
  for (int64_t i = 0; i < n; ++i) {
    a[i] = TestValue(i);
    b[i] = TestValue(i + 3);
  }
  ParallelFor(0, n, 1 << 10, [&](int64_t cb, int64_t ce) {
    vec::AddN(a.data() + cb, b.data() + cb, o.data() + cb, ce - cb);
  });
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(o[i], a[i] + b[i]);
}

}  // namespace
}  // namespace conformer
