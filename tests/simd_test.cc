// Dispatch-identity suite for the runtime SIMD layer (tensor/vec, see
// docs/SIMD.md). The layer's contract is stronger than "close enough":
// every kernel is defined at a fixed logical width of 8 float lanes with a
// fixed horizontal-fold order, so results must be BITWISE IDENTICAL across
// every SIMD level available in this process. These tests memcmp raw span
// kernels and whole tensor graphs (forward AND gradients) — at every tail
// length and unaligned offset — against the forced-scalar backend. CI's
// simd-matrix job re-runs the kernel suites under each forced
// CONFORMER_SIMD_LEVEL on top of this.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "baselines/timesnet_lite.h"
#include "core/series_decomposition.h"
#include "data/window_dataset.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
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
                        {"MulN", vec::MulN},   {"DivN", vec::DivN}};
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
      {"ExpN", vec::ExpN},
      {"SigmoidN", vec::SigmoidN},
      {"TanhN", vec::TanhN},
      {"AddScalarN",
       [](const float* a, float* o, int64_t n) {
         vec::AddScalarN(a, 0.75f, o, n);
       }},
      {"MulScalarN",
       [](const float* a, float* o, int64_t n) {
         vec::MulScalarN(a, -1.5f, o, n);
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

TEST_F(SimdTest, MovingAverageKernelTailSweep) {
  // Slab widths around the lane width, lengths with and without interior
  // rows and row groups of four, windows up to wider than the slab; forward
  // and adjoint over the whole slab and over an offset row range.
  for (int64_t width : SweepLengths()) {
    for (int64_t length : {1, 2, 3, 6, 11}) {
      for (int64_t kernel : {1, 3, 7, 25}) {
        const int64_t half = kernel / 2;
        const float inv_k = 1.0f / static_cast<float>(kernel);
        std::vector<float> x(length * width);
        for (int64_t i = 0; i < length * width; ++i) x[i] = TestValue(i);
        auto clamp = [&](int64_t u) {
          return std::min(std::max<int64_t>(u, 0), length - 1);
        };
        // Plain loops: the forward sums each window from +0 in ascending k;
        // the adjoint scatters in ascending (t, k).
        std::vector<float> want_fwd(length * width);
        std::vector<float> want_adj(length * width, 0.0f);
        for (int64_t t = 0; t < length; ++t) {
          for (int64_t c = 0; c < width; ++c) {
            float acc = 0.0f;
            for (int64_t k = 0; k < kernel; ++k) {
              acc += x[clamp(t - half + k) * width + c];
              want_adj[clamp(t - half + k) * width + c] +=
                  x[t * width + c] * inv_k;
            }
            want_fwd[t * width + c] = acc * inv_k;
          }
        }
        for (const bool adjoint : {false, true}) {
          const std::vector<float>& want = adjoint ? want_adj : want_fwd;
          for (const int64_t r0 : {int64_t{0}, std::min<int64_t>(1, length)}) {
            // Rows before r0 are left as the harness pre-filled them.
            const int64_t n = length * width;
            auto fn = [&](float* o) {
              vec::MovingAverageRows(x.data(), length, width, kernel, inv_k,
                                     adjoint, r0, length, o);
            };
            ExpectAllLevelsMatchScalar(n, fn, "MovingAverageRows");
            ASSERT_TRUE(vec::SetSimdLevel(vec::DetectedSimdLevel()));
            std::vector<float> got(n);
            fn(got.data());
            const int64_t skip = r0 * width;
            if (n == skip) continue;  // memcmp on an empty vector's data()
            ASSERT_EQ(0, std::memcmp(got.data() + skip, want.data() + skip,
                                     sizeof(float) * (n - skip)))
                << "width=" << width << " length=" << length
                << " kernel=" << kernel << " adjoint=" << adjoint
                << " r0=" << r0;
          }
        }
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

// Error of `got` against the exact `want`, in units of the last place of
// `want` rounded to float.
double UlpError(float got, double want) {
  const float w = static_cast<float>(want);
  const float ulp =
      std::nextafter(std::fabs(w), std::numeric_limits<float>::infinity()) -
      std::fabs(w);
  return std::fabs(static_cast<double>(got) - want) / ulp;
}

TEST_F(SimdTest, TanhAccuracyAgainstDouble) {
  ASSERT_TRUE(vec::SetSimdLevel(vec::DetectedSimdLevel()));
  // A dense grid across both branches (|x| < 0.625 and above) into
  // saturation, plus log-spaced tiny and subnormal magnitudes.
  std::vector<float> xs;
  for (float x = -12.0f; x <= 12.0f; x += 0.00137f) xs.push_back(x);
  for (double x = std::numeric_limits<float>::denorm_min(); x < 1.0;
       x *= 1.37) {
    xs.push_back(static_cast<float>(x));
    xs.push_back(-static_cast<float>(x));
  }
  std::vector<float> got(xs.size());
  vec::TanhN(xs.data(), got.data(), static_cast<int64_t>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_LE(UlpError(got[i], std::tanh(static_cast<double>(xs[i]))), 2.0)
        << "x=" << xs[i];
    // A span of one runs the scalar tail replica: same bits as the lane.
    float alone = 0.0f;
    vec::TanhN(&xs[i], &alone, 1);
    EXPECT_EQ(0, std::memcmp(&alone, &got[i], sizeof(float))) << "x=" << xs[i];
  }
}

TEST_F(SimdTest, TanhSpecialValuesAndOddSymmetry) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Nine inputs: one full vector plus a scalar tail.
  const std::vector<float> xs = {kInf, -kInf, 88.0f, -88.0f, nan,
                                 -0.0f, 0.0f,  1e30f, -1e30f};
  const std::vector<float> want = {1.0f, -1.0f, 1.0f, -1.0f, nan,
                                   0.0f, 0.0f,  1.0f, -1.0f};
  for (SimdLevel level : vec::AvailableSimdLevels()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    SCOPED_TRACE(vec::SimdLevelName(level));
    std::vector<float> spans(xs.size());
    vec::TanhN(xs.data(), spans.data(), static_cast<int64_t>(xs.size()));
    for (size_t i = 0; i < xs.size(); ++i) {
      float single = 0.0f;
      vec::TanhN(&xs[i], &single, 1);
      for (const float got : {spans[i], single}) {
        if (std::isnan(want[i])) {
          EXPECT_TRUE(std::isnan(got)) << "x=" << xs[i];
        } else {
          // tanh(-0) is +0: the sign select treats -0 as non-negative.
          EXPECT_EQ(0, std::memcmp(&got, &want[i], sizeof(float)))
              << "x=" << xs[i] << " got " << got;
        }
      }
    }
    // tanh(-x) is -tanh(x) bit for bit, in the vector lanes and the tail.
    std::vector<float> pos, neg;
    for (float x = 1e-3f; x <= 20.0f; x *= 1.013f) {
      pos.push_back(x);
      neg.push_back(-x);
    }
    const int64_t n = static_cast<int64_t>(pos.size());
    std::vector<float> tp(n), tn(n);
    vec::TanhN(pos.data(), tp.data(), n);
    vec::TanhN(neg.data(), tn.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      const float flipped = -tp[i];
      EXPECT_EQ(0, std::memcmp(&flipped, &tn[i], sizeof(float)))
          << "x=" << pos[i];
    }
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

// Checks Gemm against ReferenceGemm for one shape, from a -0.0 start, with
// and without accumulation. A is nonzero except where `zeros` puts zeros:
// then every third element, all of row 0 (so row 0 of C adds only skipped
// terms for NN/TN and its -0.0 start survives), and for NN/TN all of
// column 0, faced with +-Inf and NaN in row 0 of B, which the skip must
// never multiply. Without `zeros`, A's last row holds one zero in the last
// k block, so one row panel takes the skipping tile in that block only and
// every other panel runs zero-free. NT gets +-Inf and NaN in some columns
// of B either way, and its pre-packed entry point (GemmPackedNT) is
// checked too.
void ExpectGemmMatchesReference(bool trans_a, bool trans_b, int64_t m,
                                int64_t n, int64_t k, bool zeros,
                                const std::string& where) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {kInf, -kInf, kNaN};
  std::vector<float> a(m * k), b(k * n);
  for (size_t i = 0; i < a.size(); ++i) a[i] = TestValue(i);
  for (size_t i = 0; i < b.size(); ++i) b[i] = TestValue(i + 7);
  const auto at = [&](int64_t i, int64_t p) -> float& {
    return trans_a ? a[p * m + i] : a[i * k + p];
  };
  if (zeros) {
    for (size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
    for (int64_t p = 0; p < k && m > 1; ++p) at(0, p) = 0.0f;
    if (!trans_b && k > 1) {
      for (int64_t i = 0; i < m; ++i) at(i, 0) = 0.0f;
      for (int64_t j = 0; j < n; ++j) b[j] = specials[j % 3];
    }
  } else if (k > 0) {
    at(m - 1, k - 1) = 0.0f;
  }
  if (trans_b && k > 0) {  // B is n x k: spoil every fifth column.
    for (int64_t j = 0; j < n; j += 5) b[j * k + j % k] = specials[j % 3];
  }
  const std::string what = "Gemm(" + std::to_string(trans_a) + ", " +
                           std::to_string(trans_b) + ") m=" +
                           std::to_string(m) + " n=" + std::to_string(n) +
                           " k=" + std::to_string(k) +
                           (zeros ? " with zeros" : " zero-free") + " at " +
                           where;
  for (bool accumulate : {false, true}) {
    std::vector<float> want(m * n, -0.0f), got(m * n, -0.0f);
    ReferenceGemm(trans_a, trans_b, m, n, k, a.data(), b.data(), want.data(),
                  accumulate);
    kernels::Gemm(trans_a, trans_b, m, n, k, a.data(), b.data(), got.data(),
                  accumulate);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), sizeof(float) * m * n))
        << what << " accumulate=" << accumulate;
  }
  if (trans_b) {
    std::vector<float> packed(n * k);
    if (k > 0) vec::PackNT(n, k, b.data(), packed.data());
    std::vector<float> want(m * n, -0.0f), got(m * n, -0.0f);
    ReferenceGemm(false, true, m, n, k, a.data(), b.data(), want.data(),
                  /*accumulate=*/true);
    kernels::GemmPackedNT(m, n, k, a.data(), packed.data(), got.data());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), sizeof(float) * m * n))
        << what << " pre-packed";
  }
}

TEST_F(SimdTest, GemmMatchesReferenceLoopsAtEveryLevel) {
  const std::pair<bool, bool> variants[] = {{false, false}, {false, true},
                                            {true, false}};
  for (auto [level, threads] : LevelsAndThreads()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    ThreadPool::Global().SetNumThreads(threads);
    const std::string where = std::string(vec::SimdLevelName(level)) + ", " +
                              std::to_string(threads) + " threads";
    for (auto [trans_a, trans_b] : variants) {
      // Tile and tail classes at short k.
      for (int64_t m : {1, 3, 4, 5, 9}) {
        for (int64_t n : {1, 7, 8, 15, 16, 17, 33, 64, 65, 130}) {
          for (int64_t k : {0, 1, 2, 31}) {
            ExpectGemmMatchesReference(trans_a, trans_b, m, n, k,
                                       /*zeros=*/true, where);
          }
        }
      }
      // The model's inner lengths and widths, and k past one k block
      // (kGemmKc = 128) and past several. m = 70 spans two 64-row zero
      // tests and ends in a partial row panel.
      for (int64_t m : {1, 5, 70}) {
        for (int64_t n : {7, 8, 16, 48}) {
          for (int64_t k : {16, 48, 129, 768}) {
            for (bool zeros : {false, true}) {
              ExpectGemmMatchesReference(trans_a, trans_b, m, n, k, zeros,
                                         where);
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

// The per-element odometer the broadcast-gradient reduction ran before its
// row runs.
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
          kernels::ScatterAdd(grad.data(), out_shape,
                              kernels::BroadcastStrides(target, out_shape), 0,
                              got_r.data());
          EXPECT_EQ(0, std::memcmp(want_r.data(), got_r.data(),
                                   sizeof(float) * tn))
              << "ScatterAdd " << ShapeToString(out_shape) << " to "
              << ShapeToString(target) << " at "
              << vec::SimdLevelName(level) << ", " << threads << " threads";
        }
      }
    }
  }
}

// Sum's forward and backward as they ran before Gather/ScatterAdd. Reducing
// exactly a trailing block of dims sums each contiguous row with vec::SumN;
// any other reduction walks the input with a per-element odometer, adding
// into the zeroed output in flat order (the sequential order, which the old
// per-chunk partials of large leading reductions did not keep). The backward
// odometer broadcasts the output gradient back over the reduced dims.
// `dims` are sorted, non-negative and unique.
void ReferenceSum(const float* in, const Shape& in_shape,
                  const std::vector<int64_t>& dims, float* out) {
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  Shape keep = in_shape;
  for (int64_t d : dims) keep[d] = 1;
  const int64_t n = NumElements(in_shape);
  const int64_t out_numel = NumElements(keep);
  if (!dims.empty() && dims.back() == rank - 1 &&
      static_cast<int64_t>(dims.size()) == rank - dims.front() &&
      out_numel > 1) {
    const int64_t row = n / out_numel;
    for (int64_t r = 0; r < out_numel; ++r) {
      out[r] += vec::SumN(in + r * row, row);
    }
    return;
  }
  const std::vector<int64_t> strides = kernels::BroadcastStrides(keep, in_shape);
  std::vector<int64_t> index(rank, 0);
  int64_t off = 0;
  for (int64_t i = 0; i < n; ++i) {
    out[off] += in[i];
    for (int64_t d = rank - 1; d >= 0; --d) {
      ++index[d];
      off += strides[d];
      if (index[d] < in_shape[d]) break;
      index[d] = 0;
      off -= strides[d] * in_shape[d];
    }
  }
}

void ReferenceSumGrad(const float* grad, const Shape& in_shape,
                      const std::vector<int64_t>& dims, float* delta) {
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  Shape keep = in_shape;
  for (int64_t d : dims) keep[d] = 1;
  const std::vector<int64_t> strides = kernels::BroadcastStrides(keep, in_shape);
  std::vector<int64_t> index(rank, 0);
  int64_t off = 0;
  for (int64_t i = 0; i < NumElements(in_shape); ++i) {
    delta[i] = grad[off];
    for (int64_t d = rank - 1; d >= 0; --d) {
      ++index[d];
      off += strides[d];
      if (index[d] < in_shape[d]) break;
      index[d] = 0;
      off -= strides[d] * in_shape[d];
    }
  }
}

TEST_F(SimdTest, SumMatchesReferenceOdometer) {
  struct Case {
    Shape shape;
    std::vector<int64_t> dims;  // empty: every dim
  };
  // Leading, middle, trailing, multi-dim and full reductions of shapes past
  // kGrainStrided whose rows do not divide it; the full reductions and the
  // leading one are at least 2 * kGrainStrided elements, where Sum used to
  // fold per-chunk partials.
  const Case cases[] = {
      {{64, 17, 33}, {0}},    {{64, 17, 33}, {1}},    {{64, 17, 33}, {2}},
      {{64, 17, 33}, {0, 2}}, {{64, 17, 33}, {0, 1}}, {{64, 17, 33}, {1, 2}},
      {{64, 17, 33}, {}},     {{3, 37, 41}, {}},      {{1, 9001}, {1}},
      {{9001}, {0}},          {{2, 4099, 1}, {1}},    {Shape{}, {}},
  };
  static_assert(2 * kernels::kGrainStrided <= 64 * 17 * 33);
  for (auto [level, threads] : LevelsAndThreads()) {
    ASSERT_TRUE(vec::SetSimdLevel(level));
    ThreadPool::Global().SetNumThreads(threads);
    for (const Case& c : cases) {
      std::vector<int64_t> dims = c.dims;
      if (dims.empty()) {
        for (size_t d = 0; d < c.shape.size(); ++d) dims.push_back(d);
      }
      const int64_t n = NumElements(c.shape);
      std::vector<float> in(n);
      for (int64_t i = 0; i < n; ++i) in[i] = TestValue(i);
      for (bool keepdim : {false, true}) {
        Tensor x = Tensor::FromVector(in, c.shape);
        x.set_requires_grad(true);
        Tensor out = Sum(x, c.dims, keepdim);
        const int64_t m = out.numel();
        std::vector<float> want(m, 0.0f);
        ReferenceSum(in.data(), c.shape, dims, want.data());
        ASSERT_EQ(0, std::memcmp(want.data(), out.data(), sizeof(float) * m))
            << "Sum of " << ShapeToString(c.shape) << " over "
            << dims.size() << " dims (keepdim " << keepdim << ") at "
            << vec::SimdLevelName(level) << ", " << threads << " threads";

        // d(sum(out * g))/d out is exactly g, so x's gradient is Sum's
        // backward of g.
        std::vector<float> g(m);
        for (int64_t i = 0; i < m; ++i) g[i] = TestValue(i + 5);
        Sum(Mul(out, Tensor::FromVector(g, out.shape()))).Backward();
        std::vector<float> want_grad(n);
        ReferenceSumGrad(g.data(), c.shape, dims, want_grad.data());
        ASSERT_EQ(0, std::memcmp(want_grad.data(), x.grad().data(),
                                 sizeof(float) * n))
            << "Sum backward of " << ShapeToString(c.shape) << " over "
            << dims.size() << " dims (keepdim " << keepdim << ") at "
            << vec::SimdLevelName(level) << ", " << threads << " threads";
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
        h = Div(h, AddScalar(Mul(in[1], in[1]), 1.0f));
        return Sub(h, MulScalar(in[0], 0.125f));
      },
      {{5, 33}, {5, 33}}, "elementwise");
}

TEST_F(SimdTest, ActivationGraphAcrossLevels) {
  ExpectGraphIdenticalAcrossLevels(
      [](const std::vector<Tensor>& in) {
        Tensor h = Relu(in[0]);
        h = Add(h, Sigmoid(in[0]));
        h = Add(h, Tanh(in[0]));
        return Add(h, Sqrt(AddScalar(Mul(in[0], in[0]), 0.5f)));
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
  // The SIRN moving-average path: DecomposeSeries → MovingAverage
  // (vec::MovingAverageRows, forward and adjoint).
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
  // h = 5 at B = 3: each step's [B, 2h] sigmoid span and [B, h] tanh span
  // end in a scalar tail. nn_test pins GruSequence to the composed
  // per-step graph, whose ops are level-invariant, so this closes the
  // contract at every level.
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
