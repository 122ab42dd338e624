// Attention mechanisms: shape contracts, equivalences (window == full when
// the window covers everything), masking, sparsity semantics, gradients,
// and the linear-vs-quadratic memory behaviour Fig. 5 relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "attention/attention.h"
#include "attention/multi_head_attention.h"
#include "tensor/alloc_stats.h"
#include "tensor/gradcheck.h"

namespace conformer::attention {
namespace {

Tensor RandTensor(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(shape, &rng);
}

class AttentionKindTest : public ::testing::TestWithParam<AttentionKind> {};

TEST_P(AttentionKindTest, SelfAttentionShapeContract) {
  AttentionConfig config;
  config.lsh_chunk = 4;
  auto mech = MakeAttention(GetParam(), config);
  Tensor q = RandTensor({2, 12, 8}, 1);
  Tensor k = RandTensor({2, 12, 8}, 2);
  Tensor v = RandTensor({2, 12, 8}, 3);
  Tensor out = mech->Forward(q, k, v, /*causal=*/false);
  EXPECT_EQ(out.shape(), (Shape{2, 12, 8}));
}

TEST_P(AttentionKindTest, OutputIsFiniteOnLargeInputs) {
  AttentionConfig config;
  config.lsh_chunk = 4;
  auto mech = MakeAttention(GetParam(), config);
  Tensor q = MulScalar(RandTensor({1, 16, 4}, 4), 30.0f);
  Tensor out = mech->Forward(q, q, q, false);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST_P(AttentionKindTest, GradientReachesAllInputs) {
  AttentionConfig config;
  config.lsh_chunk = 4;
  auto mech = MakeAttention(GetParam(), config);
  Tensor q = RandTensor({1, 8, 4}, 5).set_requires_grad(true);
  Tensor k = RandTensor({1, 8, 4}, 6).set_requires_grad(true);
  Tensor v = RandTensor({1, 8, 4}, 7).set_requires_grad(true);
  Sum(mech->Forward(q, k, v, false)).Backward();
  // Values always receive gradient; q/k do for every mechanism here too.
  EXPECT_TRUE(v.has_grad());
  EXPECT_TRUE(q.has_grad());
  EXPECT_TRUE(k.has_grad());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AttentionKindTest,
    ::testing::Values(AttentionKind::kFull, AttentionKind::kSlidingWindow,
                      AttentionKind::kProbSparse, AttentionKind::kLogSparse,
                      AttentionKind::kLsh, AttentionKind::kAutoCorrelation),
    [](const ::testing::TestParamInfo<AttentionKind>& info) {
      return std::string(AttentionKindName(info.param));
    });

// -- full attention ---------------------------------------------------------

TEST(FullAttentionTest, UniformWhenQueriesAreZero) {
  auto mech = MakeAttention(AttentionKind::kFull, {});
  Tensor q = Tensor::Zeros({1, 3, 2});
  Tensor k = RandTensor({1, 3, 2}, 8);
  Tensor v = Tensor::FromVector({1, 1, 2, 2, 3, 3}, {1, 3, 2});
  Tensor out = mech->Forward(q, k, v, false);
  // Zero queries give uniform weights: every row is mean(V) = (2, 2).
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(out.at({0, i, 0}), 2.0f, 1e-5);
  }
}

TEST(FullAttentionTest, CausalMaskBlocksFuture) {
  auto mech = MakeAttention(AttentionKind::kFull, {});
  Tensor q = RandTensor({1, 4, 2}, 9);
  Tensor k = RandTensor({1, 4, 2}, 10);
  Tensor v = RandTensor({1, 4, 2}, 11).set_requires_grad(true);
  // Gradient of the FIRST query's output must not touch future values.
  Tensor out = mech->Forward(q, k, v, /*causal=*/true);
  Sum(Slice(out, 1, 0, 1)).Backward();
  Tensor g = v.grad();
  for (int64_t t = 1; t < 4; ++t) {
    for (int64_t d = 0; d < 2; ++d) {
      EXPECT_NEAR(g.at({0, t, d}), 0.0f, 1e-6) << "future leak at t=" << t;
    }
  }
}

TEST(FullAttentionTest, CrossAttentionShapes) {
  auto mech = MakeAttention(AttentionKind::kFull, {});
  Tensor q = RandTensor({2, 5, 4}, 12);
  Tensor k = RandTensor({2, 9, 4}, 13);
  Tensor v = RandTensor({2, 9, 4}, 14);
  EXPECT_EQ(mech->Forward(q, k, v, false).shape(), (Shape{2, 5, 4}));
}

TEST(FullAttentionTest, GradCheck) {
  auto mech = MakeAttention(AttentionKind::kFull, {});
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        Tensor out = mech->Forward(in[0], in[1], in[2], false);
        return Sum(Mul(out, out));
      },
      {RandTensor({1, 4, 3}, 15).set_requires_grad(true),
       RandTensor({1, 4, 3}, 16).set_requires_grad(true),
       RandTensor({1, 4, 3}, 17).set_requires_grad(true)});
  EXPECT_TRUE(r.passed) << r.message;
}

// -- sliding window ------------------------------------------------------------

TEST(SlidingWindowTest, WideWindowMatchesFullAttention) {
  // Window covering the whole sequence must reproduce full attention.
  auto window = MakeAttention(AttentionKind::kSlidingWindow,
                              AttentionConfig{.window = 64});
  auto full = MakeAttention(AttentionKind::kFull, {});
  Tensor q = RandTensor({2, 6, 4}, 18);
  Tensor k = RandTensor({2, 6, 4}, 19);
  Tensor v = RandTensor({2, 6, 4}, 20);
  Tensor a = window->Forward(q, k, v, false);
  Tensor b = full->Forward(q, k, v, false);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-4);
  }
}

TEST(SlidingWindowTest, LocalityIsEnforced) {
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 2});
  Tensor q = RandTensor({1, 8, 2}, 21);
  Tensor k = RandTensor({1, 8, 2}, 22);
  Tensor v = RandTensor({1, 8, 2}, 23).set_requires_grad(true);
  Tensor out = mech->Forward(q, k, v, false);
  // Query 0's output depends only on positions {0, 1} (w/2 = 1 per side).
  Sum(Slice(out, 1, 0, 1)).Backward();
  Tensor g = v.grad();
  for (int64_t t = 2; t < 8; ++t) {
    for (int64_t d = 0; d < 2; ++d) {
      EXPECT_NEAR(g.at({0, t, d}), 0.0f, 1e-7) << "leak at t=" << t;
    }
  }
}

TEST(SlidingWindowTest, CausalCutsRightNeighbours) {
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 4});
  Tensor q = RandTensor({1, 6, 2}, 24);
  Tensor k = RandTensor({1, 6, 2}, 25);
  Tensor v = RandTensor({1, 6, 2}, 26).set_requires_grad(true);
  Tensor out = mech->Forward(q, k, v, /*causal=*/true);
  Sum(Slice(out, 1, 2, 3)).Backward();  // query at position 2
  Tensor g = v.grad();
  for (int64_t t = 3; t < 6; ++t) {
    EXPECT_NEAR(g.at({0, t, 0}), 0.0f, 1e-7) << "future leak at t=" << t;
  }
}

TEST(SlidingWindowTest, GradCheck) {
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 2});
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        Tensor out = mech->Forward(in[0], in[1], in[2], false);
        return Sum(Mul(out, out));
      },
      {RandTensor({1, 5, 2}, 27).set_requires_grad(true),
       RandTensor({1, 5, 2}, 28).set_requires_grad(true),
       RandTensor({1, 5, 2}, 29).set_requires_grad(true)});
  EXPECT_TRUE(r.passed) << r.message;
}

TEST(SlidingWindowTest, LinearMemoryScaling) {
  // Peak allocations of windowed attention grow ~linearly with L while full
  // attention grows quadratically: the Fig. 5 claim, verified coarsely.
  auto window = MakeAttention(AttentionKind::kSlidingWindow,
                              AttentionConfig{.window = 2});
  auto full = MakeAttention(AttentionKind::kFull, {});
  auto peak_of = [](AttentionMechanism* mech, int64_t length) {
    NoGradGuard guard;
    Tensor q = Tensor::Randn({1, length, 8});
    ResetAllocPeak();
    const int64_t before = GetAllocStats().current_bytes;
    Tensor out = mech->Forward(q, q, q, false);
    return GetAllocStats().peak_bytes - before;
  };
  const double full_ratio =
      static_cast<double>(peak_of(full.get(), 256)) / peak_of(full.get(), 64);
  const double window_ratio =
      static_cast<double>(peak_of(window.get(), 256)) /
      peak_of(window.get(), 64);
  EXPECT_GT(full_ratio, 8.0);    // ~16x for quadratic
  EXPECT_LT(window_ratio, 8.0);  // ~4x for linear
}

// -- ProbSparse -----------------------------------------------------------------

TEST(ProbSparseTest, LazyQueriesGetMeanOfValues) {
  AttentionConfig config;
  config.factor = 1;
  auto mech = MakeAttention(AttentionKind::kProbSparse, config);
  // One extreme query (position 0), the rest zeros -> lazy.
  Tensor q = Tensor::Zeros({1, 32, 2});
  q.data()[0] = 10.0f;
  Tensor k = RandTensor({1, 32, 2}, 30);
  Tensor v = RandTensor({1, 32, 2}, 31);
  Tensor out = mech->Forward(q, k, v, false);
  // Mean of V across time.
  for (int64_t d = 0; d < 2; ++d) {
    double mean = 0.0;
    for (int64_t t = 0; t < 32; ++t) mean += v.at({0, t, d});
    mean /= 32.0;
    // Some middle position should be lazy; check position 17.
    EXPECT_NEAR(out.at({0, 17, d}), mean, 1e-4);
  }
}

TEST(ProbSparseTest, ReducesToFewActiveQueries) {
  AttentionConfig config;
  config.factor = 1;
  auto mech = MakeAttention(AttentionKind::kProbSparse, config);
  Tensor q = RandTensor({2, 64, 4}, 32);
  Tensor out = mech->Forward(q, q, q, false);
  EXPECT_EQ(out.shape(), (Shape{2, 64, 4}));
}

// -- LogSparse ----------------------------------------------------------------------

TEST(LogSparseTest, IsCausalByConstruction) {
  auto mech = MakeAttention(AttentionKind::kLogSparse, {});
  Tensor q = RandTensor({1, 8, 2}, 33);
  Tensor k = RandTensor({1, 8, 2}, 34);
  Tensor v = RandTensor({1, 8, 2}, 35).set_requires_grad(true);
  Tensor out = mech->Forward(q, k, v, false);
  Sum(Slice(out, 1, 3, 4)).Backward();  // query 3
  Tensor g = v.grad();
  for (int64_t t = 4; t < 8; ++t) {
    EXPECT_NEAR(g.at({0, t, 0}), 0.0f, 1e-7) << "future leak at t=" << t;
  }
}

TEST(LogSparseTest, AttendsLogarithmicallyManyPositions) {
  auto mech = MakeAttention(AttentionKind::kLogSparse, {});
  Tensor q = RandTensor({1, 16, 2}, 36);
  Tensor k = RandTensor({1, 16, 2}, 37);
  Tensor v = RandTensor({1, 16, 2}, 38).set_requires_grad(true);
  Tensor out = mech->Forward(q, k, v, false);
  Sum(Slice(out, 1, 15, 16)).Backward();  // last query
  Tensor g = v.grad();
  int64_t touched = 0;
  for (int64_t t = 0; t < 16; ++t) {
    if (std::fabs(g.at({0, t, 0})) > 1e-9 || std::fabs(g.at({0, t, 1})) > 1e-9) {
      ++touched;
    }
  }
  // self + sub_len(1) + log taps(5): far fewer than 16.
  EXPECT_LE(touched, 8);
  EXPECT_GE(touched, 3);
}

// -- LSH -------------------------------------------------------------------------------

TEST(LshTest, IdenticalTokensLandTogether) {
  AttentionConfig config;
  config.lsh_chunk = 4;
  auto mech = MakeAttention(AttentionKind::kLsh, config);
  // All tokens identical: output must equal v rows (softmax over equals).
  Tensor q = Tile(RandTensor({1, 1, 4}, 39), {1, 16, 1});
  Tensor v = Tile(RandTensor({1, 1, 4}, 40), {1, 16, 1});
  Tensor out = mech->Forward(q, q, v, false);
  for (int64_t t = 0; t < 16; ++t) {
    for (int64_t d = 0; d < 4; ++d) {
      EXPECT_NEAR(out.at({0, t, d}), v.at({0, t, d}), 1e-4);
    }
  }
}

TEST(LshTest, HandlesLengthNotDivisibleByChunk) {
  AttentionConfig config;
  config.lsh_chunk = 5;
  auto mech = MakeAttention(AttentionKind::kLsh, config);
  Tensor q = RandTensor({2, 13, 4}, 41);
  Tensor out = mech->Forward(q, q, q, false);
  EXPECT_EQ(out.shape(), (Shape{2, 13, 4}));
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

// -- AutoCorrelation -----------------------------------------------------------------------

TEST(AutoCorrelationTest, PeriodicValueAggregatesPeriodically) {
  AttentionConfig config;
  config.factor = 1;
  auto mech = MakeAttention(AttentionKind::kAutoCorrelation, config);
  // Period-8 signal: delay aggregation at the dominant lag keeps the
  // periodic structure intact.
  const int64_t length = 32;
  std::vector<float> values(length * 2);
  for (int64_t t = 0; t < length; ++t) {
    values[t * 2] = std::sin(2.0f * 3.14159265f * t / 8.0f);
    values[t * 2 + 1] = std::cos(2.0f * 3.14159265f * t / 8.0f);
  }
  Tensor x = Tensor::FromVector(values, {1, length, 2});
  Tensor out = mech->Forward(x, x, x, false);
  EXPECT_EQ(out.shape(), (Shape{1, length, 2}));
  // The output of a softmax-weighted sum of period-8 rolls of a period-8
  // signal is (nearly) period-8 as well.
  for (int64_t t = 0; t < length - 8; ++t) {
    EXPECT_NEAR(out.at({0, t, 0}), out.at({0, t + 8, 0}), 0.2f);
  }
}

TEST(AutoCorrelationTest, CrossShapesByTruncationAndPadding) {
  AttentionConfig config;
  auto mech = MakeAttention(AttentionKind::kAutoCorrelation, config);
  Tensor q = RandTensor({1, 8, 2}, 42);
  Tensor k_long = RandTensor({1, 12, 2}, 43);
  Tensor v_long = RandTensor({1, 12, 2}, 44);
  EXPECT_EQ(mech->Forward(q, k_long, v_long, false).shape(), (Shape{1, 8, 2}));
  Tensor k_short = RandTensor({1, 5, 2}, 45);
  Tensor v_short = RandTensor({1, 5, 2}, 46);
  EXPECT_EQ(mech->Forward(q, k_short, v_short, false).shape(), (Shape{1, 8, 2}));
}

TEST(SlidingWindowTest, CrossLengthMapsCentresProportionally) {
  // Query sequence of 4 against keys of 8: query i is centred at 2i.
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 2});
  Tensor q = RandTensor({1, 4, 2}, 60);
  Tensor k = RandTensor({1, 8, 2}, 61);
  Tensor v = RandTensor({1, 8, 2}, 62).set_requires_grad(true);
  Tensor out = mech->Forward(q, k, v, false);
  EXPECT_EQ(out.shape(), (Shape{1, 4, 2}));
  Sum(Slice(out, 1, 2, 3)).Backward();  // query 2, centre 4
  Tensor g = v.grad();
  for (int64_t t = 0; t < 8; ++t) {
    const bool in_window = t >= 3 && t <= 5;
    const float mass = std::fabs(g.at({0, t, 0})) + std::fabs(g.at({0, t, 1}));
    if (in_window) {
      EXPECT_GT(mass, 0.0f) << t;
    } else {
      EXPECT_NEAR(mass, 0.0f, 1e-7) << t;
    }
  }
}

TEST(SlidingWindowTest, WidthOneIsSelfCopy) {
  // window = 1 -> half = 0: each query attends only to its own position, so
  // the output equals V exactly (softmax over one element is 1).
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 1});
  Tensor q = RandTensor({2, 6, 3}, 70);
  Tensor k = RandTensor({2, 6, 3}, 71);
  Tensor v = RandTensor({2, 6, 3}, 72);
  Tensor out = mech->Forward(q, k, v, false);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_NEAR(out.data()[i], v.data()[i], 1e-6);
  }
}

// -- gradient checks for the selection-based mechanisms ---------------------
//
// Finite differences are only valid where the function is smooth, so each
// config below saturates the mechanism's discrete selection: every query /
// lag / bucket ends up selected and a +-eps perturbation cannot change the
// chosen set, leaving a purely differentiable aggregation.

void ExpectAttentionGradOk(AttentionKind kind, const AttentionConfig& config,
                           const Shape& shape) {
  auto mech = MakeAttention(kind, config);
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        Tensor out = mech->Forward(in[0], in[1], in[2], false);
        return Sum(Mul(out, out));
      },
      {RandTensor(shape, 80).set_requires_grad(true),
       RandTensor(shape, 81).set_requires_grad(true),
       RandTensor(shape, 82).set_requires_grad(true)});
  EXPECT_TRUE(r.passed) << r.message << " (max err " << r.max_abs_error << ")";
}

TEST(ProbSparseTest, GradCheck) {
  // factor=3 with lq=6: u = min(6, 3*ceil(ln 6)) = 6 == lq, so every query
  // is active and the top-u selection is perturbation-proof.
  AttentionConfig config;
  config.factor = 3;
  ExpectAttentionGradOk(AttentionKind::kProbSparse, config, {1, 6, 3});
}

TEST(LogSparseTest, GradCheck) {
  // The tap pattern depends only on positions, never values: always smooth.
  ExpectAttentionGradOk(AttentionKind::kLogSparse, {}, {1, 6, 2});
}

TEST(LshTest, GradCheck) {
  // chunk >= length puts everything in one chunk: each query attends to all
  // keys (self + rolled chunk are the same set), so the output is invariant
  // to the bucket permutation and smooth even if a perturbation flips a
  // bucket assignment.
  AttentionConfig config;
  config.lsh_chunk = 8;
  ExpectAttentionGradOk(AttentionKind::kLsh, config, {1, 8, 3});
}

TEST(AutoCorrelationTest, GradCheck) {
  // factor=3 with length 6 selects k = min(L-1, 3*ceil(ln 6)) lags = all of
  // them, so the top-k lag choice cannot change under perturbation.
  AttentionConfig config;
  config.factor = 3;
  ExpectAttentionGradOk(AttentionKind::kAutoCorrelation, config, {1, 6, 2});
}

TEST(ProbSparseTest, DeterministicGivenSeed) {
  AttentionConfig config;
  config.seed = 5;
  auto a = MakeAttention(AttentionKind::kProbSparse, config);
  auto b = MakeAttention(AttentionKind::kProbSparse, config);
  Tensor q = RandTensor({1, 24, 4}, 63);
  NoGradGuard guard;
  Tensor out_a = a->Forward(q, q, q, false);
  Tensor out_b = b->Forward(q, q, q, false);
  for (int64_t i = 0; i < out_a.numel(); ++i) {
    EXPECT_EQ(out_a.data()[i], out_b.data()[i]);
  }
}

TEST(AutoCorrelationTest, ConstantSeriesIsFixedPoint) {
  // Every roll of a constant series is the series itself, so the weighted
  // aggregation returns it unchanged.
  AttentionConfig config;
  auto mech = MakeAttention(AttentionKind::kAutoCorrelation, config);
  Tensor x = Tensor::Full({1, 16, 3}, 2.5f);
  Tensor out = mech->Forward(x, x, x, false);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_NEAR(out.data()[i], 2.5f, 1e-5);
  }
}

// -- fused banded attention vs the composed graph ---------------------------
//
// BandedAttention is one op that must be bitwise equal, forward and
// backward, to the graph it replaced: two IndexSelect band gathers, then
// Mul + Sum, MulScalar, the mask Add, Softmax and Mul + Sum. That graph is
// kept here as the naive oracle.

Tensor ComposedBandedAttention(const Tensor& q, const Tensor& k,
                               const Tensor& v,
                               const std::vector<int64_t>& taps,
                               std::vector<float> mask, int64_t width) {
  const int64_t bh = q.size(0);
  const int64_t lq = q.size(1);
  const int64_t dk = q.size(2);
  const int64_t dv = v.size(2);
  Tensor k_band = Reshape(IndexSelect(k, 1, taps), {bh, lq, width, dk});
  Tensor v_band = Reshape(IndexSelect(v, 1, taps), {bh, lq, width, dv});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  Tensor q_exp = Reshape(q, {bh, lq, 1, dk});
  Tensor scores = MulScalar(Sum(Mul(q_exp, k_band), {-1}), scale);
  scores = Add(scores, Tensor::FromVector(std::move(mask), {1, lq, width}));
  Tensor weights = Softmax(scores, -1);
  return Sum(Mul(Reshape(weights, {bh, lq, width, 1}), v_band), {2});
}

struct Band {
  std::vector<int64_t> taps;
  std::vector<float> mask;
  int64_t width = 0;
};

// SlidingWindowAttention's taps: centre i * lk / lq, w/2 per side, clamped
// and masked out of range or (causal) right of the centre.
Band WindowBand(int64_t lq, int64_t lk, int64_t window, bool causal) {
  const int64_t half = window / 2;
  Band band{{}, {}, 2 * half + 1};
  for (int64_t i = 0; i < lq; ++i) {
    const int64_t centre = lq == lk ? i : (i * lk) / lq;
    for (int64_t j = 0; j < band.width; ++j) {
      const int64_t pos = centre - half + j;
      band.taps.push_back(std::clamp<int64_t>(pos, 0, lk - 1));
      const bool masked = pos < 0 || pos >= lk || (causal && pos > centre);
      band.mask.push_back(masked ? -1e9f : 0.0f);
    }
  }
  return band;
}

// LogSparseAttention's taps at sub_len 1: self, i - 1, then i - 2, i - 4,
// ...; negative positions clamp to 0 and are masked.
Band LogSparseBand(int64_t length) {
  const int64_t log_taps =
      static_cast<int64_t>(std::floor(std::log2(std::max<int64_t>(1, length)))) +
      1;
  Band band{{}, {}, 2 + log_taps};
  for (int64_t i = 0; i < length; ++i) {
    std::vector<int64_t> pos = {i, i - 1};
    for (int64_t step = 2, t = 0; t < log_taps; ++t, step <<= 1) {
      pos.push_back(i - step);
    }
    for (int64_t p : pos) {
      band.taps.push_back(std::max<int64_t>(p, 0));
      band.mask.push_back(p < 0 ? -1e9f : 0.0f);
    }
  }
  return band;
}

using BandFn = std::function<Tensor(const Tensor&, const Tensor&,
                                    const Tensor&)>;

// The output and the q, k, v gradients of sum(f(q, k, v) * g) for a random
// g, from fresh leaves.
std::vector<Tensor> BandForwardBackward(const BandFn& f, int64_t bh,
                                        int64_t lq, int64_t lk, int64_t dk,
                                        int64_t dv) {
  Tensor q = RandTensor({bh, lq, dk}, 90).set_requires_grad(true);
  Tensor k = RandTensor({bh, lk, dk}, 91).set_requires_grad(true);
  Tensor v = RandTensor({bh, lk, dv}, 92).set_requires_grad(true);
  Tensor out = f(q, k, v);
  Sum(Mul(out, RandTensor({bh, lq, dv}, 93))).Backward();
  return {out, q.grad(), k.grad(), v.grad()};
}

void ExpectBitwiseEqual(const std::vector<Tensor>& got,
                        const std::vector<Tensor>& want) {
  const char* names[] = {"output", "dq", "dk", "dv"};
  ASSERT_EQ(got.size(), want.size());
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].shape(), want[t].shape()) << names[t];
    if (got[t].numel() == 0) continue;
    EXPECT_EQ(0, std::memcmp(got[t].data(), want[t].data(),
                             sizeof(float) * got[t].numel()))
        << names[t] << " differs from the composed graph";
  }
}

// The op against the oracle on `band`, and, when `mech` is given, the
// mechanism (its own tap builder + the op) against the oracle too.
void ExpectFusedMatchesComposed(const Band& band, int64_t bh, int64_t lq,
                                int64_t lk, int64_t dk, int64_t dv,
                                const AttentionMechanism* mech = nullptr,
                                bool causal = false) {
  const std::vector<Tensor> want = BandForwardBackward(
      [&](const Tensor& q, const Tensor& k, const Tensor& v) {
        return ComposedBandedAttention(q, k, v, band.taps, band.mask,
                                       band.width);
      },
      bh, lq, lk, dk, dv);
  ExpectBitwiseEqual(
      BandForwardBackward(
          [&](const Tensor& q, const Tensor& k, const Tensor& v) {
            return BandedAttention(q, k, v, band.taps, band.mask, band.width);
          },
          bh, lq, lk, dk, dv),
      want);
  if (mech != nullptr) {
    ExpectBitwiseEqual(
        BandForwardBackward(
            [&](const Tensor& q, const Tensor& k, const Tensor& v) {
              return mech->Forward(q, k, v, causal);
            },
            bh, lq, lk, dk, dv),
        want);
  }
}

TEST(BandedAttentionTest, PaperWindowMatchesComposedGraph) {
  // w = 2 (three taps) at the training geometry's head width.
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 2});
  ExpectFusedMatchesComposed(WindowBand(48, 48, 2, false), 6, 48, 48, 8, 8,
                             mech.get());
}

TEST(BandedAttentionTest, CrossLengthMatchesComposedGraph) {
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 2});
  ExpectFusedMatchesComposed(WindowBand(4, 8, 2, false), 2, 4, 8, 2, 2,
                             mech.get());
  // Longer keys than queries with wide heads: dk past one 8-lane bin.
  ExpectFusedMatchesComposed(WindowBand(12, 29, 4, false), 3, 12, 29, 19, 11);
}

TEST(BandedAttentionTest, CausalMatchesComposedGraph) {
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 4});
  ExpectFusedMatchesComposed(WindowBand(10, 10, 4, true), 3, 10, 10, 5, 3,
                             mech.get(), /*causal=*/true);
}

TEST(BandedAttentionTest, WidthOneMatchesComposedGraph) {
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 1});
  ExpectFusedMatchesComposed(WindowBand(6, 6, 1, false), 2, 6, 6, 3, 3,
                             mech.get());
}

TEST(BandedAttentionTest, WindowWiderThanSequenceMatchesComposedGraph) {
  // 17 taps over 5 positions: most are clamped and masked.
  auto mech = MakeAttention(AttentionKind::kSlidingWindow,
                            AttentionConfig{.window = 16});
  ExpectFusedMatchesComposed(WindowBand(5, 5, 16, false), 2, 5, 5, 9, 4,
                             mech.get());
}

TEST(BandedAttentionTest, LogSparseTapsMatchComposedGraph) {
  auto mech = MakeAttention(AttentionKind::kLogSparse, {});
  ExpectFusedMatchesComposed(LogSparseBand(24), 4, 24, 24, 8, 8, mech.get());
}

TEST(BandedAttentionTest, GradCheck) {
  const Band band = WindowBand(5, 7, 2, true);
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        Tensor out =
            BandedAttention(in[0], in[1], in[2], band.taps, band.mask,
                            band.width);
        return Sum(Mul(out, out));
      },
      {RandTensor({2, 5, 3}, 94).set_requires_grad(true),
       RandTensor({2, 7, 3}, 95).set_requires_grad(true),
       RandTensor({2, 7, 2}, 96).set_requires_grad(true)});
  EXPECT_TRUE(r.passed) << r.message << " (max err " << r.max_abs_error << ")";
}

TEST(BandedAttentionTest, EmptyBatchMatchesComposedGraph) {
  ExpectFusedMatchesComposed(WindowBand(4, 4, 2, false), 0, 4, 4, 3, 2);
}

// -- MultiHeadAttention ---------------------------------------------------------------------

TEST(MultiHeadTest, ShapeAndParamCount) {
  MultiHeadAttention mha(16, 4, AttentionKind::kFull);
  Tensor x = RandTensor({2, 10, 16}, 47);
  EXPECT_EQ(mha.Forward(x).shape(), (Shape{2, 10, 16}));
  // 4 projections with weight+bias.
  EXPECT_EQ(mha.Parameters().size(), 8u);
}

TEST(MultiHeadTest, RejectsIndivisibleHeads) {
  EXPECT_DEATH(MultiHeadAttention(10, 3, AttentionKind::kFull), "divisible");
}

TEST(MultiHeadTest, CrossFallbackForSelfOnlyMechanisms) {
  // LSH cannot do cross attention; the wrapper must fall back to full.
  MultiHeadAttention mha(8, 2, AttentionKind::kLsh,
                         AttentionConfig{.lsh_chunk = 4});
  Tensor q = RandTensor({1, 6, 8}, 48);
  Tensor kv = RandTensor({1, 10, 8}, 49);
  Tensor out = mha.Forward(q, kv, kv, false);
  EXPECT_EQ(out.shape(), (Shape{1, 6, 8}));
}

TEST(MultiHeadTest, GradientsReachProjections) {
  MultiHeadAttention mha(8, 2, AttentionKind::kSlidingWindow,
                         AttentionConfig{.window = 2});
  Tensor x = RandTensor({1, 6, 8}, 50);
  Sum(mha.Forward(x)).Backward();
  for (Tensor& p : mha.Parameters()) EXPECT_TRUE(p.has_grad());
}

}  // namespace
}  // namespace conformer::attention
