// Property-based tests: algebraic identities and invariants checked across
// parameter grids (shapes, dims, kernel sizes), complementing the
// example-based unit tests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <tuple>

#include "attention/multi_head_attention.h"
#include "core/series_decomposition.h"
#include "data/scaler.h"
#include "nn/conv1d.h"
#include "data/synthetic.h"
#include "data/window_dataset.h"
#include "fft/fft.h"
#include "nn/gru.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace conformer {
namespace {

// -- tensor algebra over a shape grid ------------------------------------------

class ShapeGridTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ShapeGridTest, AddIsCommutative) {
  Rng rng(1);
  Tensor a = Tensor::Randn(GetParam(), &rng);
  Tensor b = Tensor::Randn(GetParam(), &rng);
  Tensor ab = Add(a, b);
  Tensor ba = Add(b, a);
  for (int64_t i = 0; i < ab.numel(); ++i) {
    EXPECT_EQ(ab.data()[i], ba.data()[i]);
  }
}

TEST_P(ShapeGridTest, MulDistributesOverAdd) {
  Rng rng(2);
  Tensor a = Tensor::Randn(GetParam(), &rng);
  Tensor b = Tensor::Randn(GetParam(), &rng);
  Tensor c = Tensor::Randn(GetParam(), &rng);
  Tensor left = Mul(a, Add(b, c));
  Tensor right = Add(Mul(a, b), Mul(a, c));
  for (int64_t i = 0; i < left.numel(); ++i) {
    EXPECT_NEAR(left.data()[i], right.data()[i], 1e-4);
  }
}

TEST_P(ShapeGridTest, ExpLogRoundTrip) {
  Rng rng(3);
  Tensor a = Tensor::Rand(GetParam(), 0.1f, 3.0f, &rng);
  Tensor l = Log(a);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(l.data()[i], std::log(a.data()[i]));
  }
}

TEST_P(ShapeGridTest, SumEqualsMeanTimesCount) {
  Rng rng(4);
  Tensor a = Tensor::Randn(GetParam(), &rng);
  EXPECT_NEAR(Sum(a).item(), Mean(a).item() * a.numel(), 1e-2);
}

TEST_P(ShapeGridTest, ReshapeFlattenPreservesOrder) {
  Rng rng(5);
  Tensor a = Tensor::Randn(GetParam(), &rng);
  Tensor flat = Reshape(a, {-1});
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(flat.data()[i], a.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeGridTest,
                         ::testing::Values(Shape{4}, Shape{3, 5}, Shape{2, 3, 4},
                                           Shape{1, 7}, Shape{2, 1, 6},
                                           Shape{5, 2, 2, 2}));

// -- transpose / permute involutions ---------------------------------------------

class PermuteTest : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(PermuteTest, TransposeIsInvolution) {
  auto [d0, d1] = GetParam();
  Rng rng(6);
  Tensor a = Tensor::Randn({3, 4, 5}, &rng);
  Tensor round = Transpose(Transpose(a, d0, d1), d0, d1);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(round.data()[i], a.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(DimPairs, PermuteTest,
                         ::testing::Values(std::make_tuple(0, 1),
                                           std::make_tuple(0, 2),
                                           std::make_tuple(1, 2)));

// -- softmax invariants over dims -----------------------------------------------

class SoftmaxDimTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SoftmaxDimTest, ShiftInvariance) {
  // softmax(x + c) == softmax(x) for per-slice constant c.
  Rng rng(7);
  Tensor a = Tensor::Randn({3, 4, 5}, &rng);
  Tensor shifted = AddScalar(a, 7.5f);
  Tensor sa = Softmax(a, GetParam());
  Tensor sb = Softmax(shifted, GetParam());
  for (int64_t i = 0; i < sa.numel(); ++i) {
    EXPECT_NEAR(sa.data()[i], sb.data()[i], 1e-5);
  }
}

TEST_P(SoftmaxDimTest, OutputsArePositiveAndNormalized) {
  Rng rng(8);
  Tensor a = MulScalar(Tensor::Randn({3, 4, 5}, &rng), 10.0f);
  Tensor s = Softmax(a, GetParam());
  for (int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_GT(s.data()[i], 0.0f);
    EXPECT_LE(s.data()[i], 1.0f);
  }
  Tensor total = Sum(s, {GetParam()});
  for (int64_t i = 0; i < total.numel(); ++i) {
    EXPECT_NEAR(total.data()[i], 1.0f, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SoftmaxDimTest, ::testing::Values(0, 1, 2, -1));

// -- matmul over a size grid ---------------------------------------------------------

class MatMulSizeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(MatMulSizeTest, IdentityIsNeutral) {
  auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(9);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor out = MatMul(a, Tensor::Eye(k));
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(out.data()[i], a.data()[i], 1e-5);
  }
}

TEST_P(MatMulSizeTest, TransposeIdentity) {
  // (A B)^T == B^T A^T.
  auto [m, k, n] = GetParam();
  Rng rng(10);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor b = Tensor::Randn({k, n}, &rng);
  Tensor left = Transpose(MatMul(a, b), 0, 1);
  Tensor right = MatMul(Transpose(b, 0, 1), Transpose(a, 0, 1));
  for (int64_t i = 0; i < left.numel(); ++i) {
    EXPECT_NEAR(left.data()[i], right.data()[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatMulSizeTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 3),
                                           std::make_tuple(8, 8, 8)));

// -- FFT Parseval over lengths -----------------------------------------------------

class FftLengthTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(FftLengthTest, ParsevalHolds) {
  const int64_t n = GetParam();
  Rng rng(11);
  std::vector<std::complex<double>> signal(n);
  double time_energy = 0.0;
  for (auto& x : signal) {
    x = {rng.Normal(), rng.Normal()};
    time_energy += std::norm(x);
  }
  fft::Transform(&signal, false);
  double freq_energy = 0.0;
  for (const auto& x : signal) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-6 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         ::testing::Values(2, 8, 64, 256, 1024));

// -- series decomposition over kernel widths -------------------------------------------

class DecompKernelTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DecompKernelTest, ReconstructionIsExact) {
  Rng rng(12);
  Tensor x = Tensor::Randn({2, 30, 3}, &rng);
  core::Decomposition d = core::DecomposeSeries(x, GetParam());
  Tensor sum = Add(d.trend, d.seasonal);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(sum.data()[i], x.data()[i], 1e-5);
  }
}

TEST_P(DecompKernelTest, TrendIsSmootherThanInput) {
  // Total variation of the trend never exceeds the input's.
  Rng rng(13);
  Tensor x = Tensor::Randn({1, 40, 1}, &rng);
  core::Decomposition d = core::DecomposeSeries(x, GetParam());
  auto total_variation = [](const Tensor& t) {
    double tv = 0.0;
    for (int64_t i = 1; i < t.size(1); ++i) {
      tv += std::fabs(t.at({0, i, 0}) - t.at({0, i - 1, 0}));
    }
    return tv;
  };
  if (GetParam() > 1) {
    EXPECT_LE(total_variation(d.trend), total_variation(x) + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, DecompKernelTest,
                         ::testing::Values(1, 3, 5, 13, 25, 99));

// -- scaler round trip over dimensionalities ---------------------------------------------

class ScalerDimsTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(ScalerDimsTest, TransformInverseIsIdentity) {
  const int64_t dims = GetParam();
  data::SyntheticConfig config;
  config.dims = dims;
  config.points = 200;
  config.seasonal = {{24, 1.0}};
  config.seed = 14;
  data::TimeSeries series = data::GenerateSynthetic(config);
  data::StandardScaler scaler;
  scaler.Fit(series);
  data::TimeSeries scaled = scaler.Transform(series);
  for (int64_t i = 0; i < 50; ++i) {
    for (int64_t d = 0; d < dims; ++d) {
      EXPECT_NEAR(scaler.InverseValue(scaled.value(i, d), d),
                  series.value(i, d), 1e-2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ScalerDimsTest, ::testing::Values(1, 2, 7, 21));

// -- window dataset over config grid ------------------------------------------------------

struct WindowCase {
  int64_t input;
  int64_t label;
  int64_t pred;
};

class WindowGridTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowGridTest, EverySampleAlignsWithRawSeries) {
  const WindowCase wc = GetParam();
  data::SyntheticConfig config;
  config.dims = 2;
  config.points = 120;
  config.seed = 15;
  data::TimeSeries series = data::GenerateSynthetic(config);
  data::WindowDataset ds(series,
                         {.input_len = wc.input, .label_len = wc.label,
                          .pred_len = wc.pred});
  ASSERT_GT(ds.size(), 0);
  for (int64_t idx : {int64_t{0}, ds.size() / 2, ds.size() - 1}) {
    data::Batch b = ds.GetBatch({idx});
    // x starts at row idx; y starts at idx + input - label.
    EXPECT_EQ(b.x.at({0, 0, 0}), series.value(idx, 0));
    EXPECT_EQ(b.y.at({0, 0, 1}), series.value(idx + wc.input - wc.label, 1));
    const int64_t last = idx + wc.input + wc.pred - 1;
    EXPECT_EQ(b.y.at({0, wc.label + wc.pred - 1, 0}), series.value(last, 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, WindowGridTest,
                         ::testing::Values(WindowCase{8, 0, 4},
                                           WindowCase{16, 8, 8},
                                           WindowCase{24, 24, 12},
                                           WindowCase{48, 12, 48}));

// -- multi-head attention over a (heads, length) grid --------------------------------

class MhaGridTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(MhaGridTest, ShapePreservedAndFinite) {
  auto [heads, length] = GetParam();
  attention::MultiHeadAttention mha(16, heads,
                                    attention::AttentionKind::kSlidingWindow,
                                    attention::AttentionConfig{.window = 2});
  Rng rng(20);
  Tensor x = Tensor::Randn({2, length, 16}, &rng);
  NoGradGuard guard;
  Tensor out = mha.Forward(x);
  EXPECT_EQ(out.shape(), (Shape{2, length, 16}));
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST_P(MhaGridTest, BatchElementsIndependent) {
  auto [heads, length] = GetParam();
  attention::MultiHeadAttention mha(8, heads > 4 ? 4 : heads,
                                    attention::AttentionKind::kFull);
  Rng rng(21);
  Tensor a = Tensor::Randn({1, length, 8}, &rng);
  Tensor b = Tensor::Randn({1, length, 8}, &rng);
  NoGradGuard guard;
  Tensor out_a = mha.Forward(a);
  Tensor joint = mha.Forward(Concat({a, b}, 0));
  for (int64_t t = 0; t < length; ++t) {
    for (int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(out_a.at({0, t, j}), joint.at({0, t, j}), 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MhaGridTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(4, 9, 16)));

// -- dilated convolution grid -----------------------------------------------------

class DilationTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DilationTest, SamePaddingPreservesLength) {
  const int64_t dilation = GetParam();
  nn::Conv1dLayer conv(2, 3, /*kernel=*/3, /*padding=*/dilation,
                       PadMode::kReplicate, /*bias=*/true, dilation);
  Tensor out = conv.Forward(Tensor::Randn({1, 2, 20}));
  EXPECT_EQ(out.shape(), (Shape{1, 3, 20}));
}

INSTANTIATE_TEST_SUITE_P(Dilations, DilationTest, ::testing::Values(1, 2, 4));

// -- GRU batch invariance --------------------------------------------------------------------

TEST(GruPropertyTest, BatchElementsAreIndependent) {
  nn::Gru gru(2, 4, 1);
  Rng rng(16);
  Tensor a = Tensor::Randn({1, 6, 2}, &rng);
  Tensor b = Tensor::Randn({1, 6, 2}, &rng);
  Tensor joint = Concat({a, b}, 0);
  NoGradGuard guard;
  Tensor out_a = gru.Forward(a).output;
  Tensor out_joint = gru.Forward(joint).output;
  for (int64_t t = 0; t < 6; ++t) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(out_a.at({0, t, j}), out_joint.at({0, t, j}), 1e-6);
    }
  }
}

TEST(GruPropertyTest, SequencePrefixMatchesShorterRun) {
  // GruSequence is causal and starts from a zero state: running it over the
  // first t steps of the precomputed input gates reproduces the first t
  // states of the full run bitwise, for every t.
  nn::GruCell cell(3, 4);
  Rng rng(17);
  Tensor x = Tensor::Randn({2, 5, 3}, &rng);
  NoGradGuard guard;
  const Tensor gates = cell.InputGates(x);
  const Tensor full = cell.Forward(x);
  std::map<std::string, Tensor> params;
  for (const auto& [name, t] : cell.NamedParameters()) params[name] = t;
  for (int64_t t = 1; t <= 5; ++t) {
    const Tensor prefix = GruSequence(Slice(gates, 1, 0, t),
                                      params.at("w_hh"), params.at("b_hh"));
    const Tensor expected = Slice(full, 1, 0, t);
    ASSERT_EQ(prefix.shape(), expected.shape());
    EXPECT_EQ(0, std::memcmp(prefix.data(), expected.data(),
                             sizeof(float) * prefix.numel()))
        << "t=" << t;
  }
}

TEST(GruPropertyTest, BatchedInputGatesMatchPerStepProjection) {
  // Deeper GRU layers project the whole previous-layer sequence in one
  // matmul; row-blocked Gemm makes each row bitwise equal to projecting
  // that step on its own.
  nn::GruCell cell(3, 4);
  Rng rng(18);
  Tensor x = Tensor::Randn({2, 5, 3}, &rng);
  NoGradGuard guard;
  const Tensor gates = cell.InputGates(x);
  std::map<std::string, Tensor> params;
  for (const auto& [name, t] : cell.NamedParameters()) params[name] = t;
  for (int64_t t = 0; t < 5; ++t) {
    const Tensor step = Add(MatMul(Squeeze(Slice(x, 1, t, t + 1), 1),
                                   params.at("w_ih")),
                            params.at("b_ih"));
    const Tensor batched = Squeeze(Slice(gates, 1, t, t + 1), 1);
    EXPECT_EQ(0, std::memcmp(step.data(), batched.data(),
                             sizeof(float) * step.numel()))
        << "t=" << t;
  }
}

// -- broadcasting kernels vs a naive reference -----------------------------------------------

// Reference broadcaster: maps a multi-index of `to` onto the flat index of
// `from` by right-aligning the ranks and clamping size-1 dims to 0. This is
// the definition BroadcastStrides must reproduce via precomputed strides.
int64_t ReferenceBroadcastIndex(const Shape& from, const Shape& to,
                                const std::vector<int64_t>& to_index) {
  const int64_t offset =
      static_cast<int64_t>(to.size()) - static_cast<int64_t>(from.size());
  int64_t flat = 0;
  for (int64_t i = 0; i < static_cast<int64_t>(from.size()); ++i) {
    const int64_t idx = from[i] == 1 ? 0 : to_index[i + offset];
    flat = flat * from[i] + idx;
  }
  return flat;
}

// Derives a random `from` shape that broadcasts to `to`: degrade dims to 1
// and/or drop leading dims.
Shape RandomBroadcastableFrom(const Shape& to, Rng* rng) {
  const int64_t drop = rng->UniformInt(static_cast<int64_t>(to.size()) + 1);
  Shape from(to.begin() + drop, to.end());
  for (int64_t& d : from) {
    if (rng->UniformInt(3) == 0) d = 1;
  }
  return from;
}

TEST(BroadcastPropertyTest, StridesMatchNaiveReferenceOnRandomShapes) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t rank = 1 + rng.UniformInt(4);
    Shape to(rank);
    for (int64_t& d : to) d = 1 + rng.UniformInt(5);
    const Shape from = RandomBroadcastableFrom(to, &rng);

    const std::vector<int64_t> strides = kernels::BroadcastStrides(from, to);
    std::vector<int64_t> index(rank, 0);
    const int64_t n = NumElements(to);
    for (int64_t i = 0; i < n; ++i) {
      int64_t via_strides = 0;
      for (int64_t d = 0; d < rank; ++d) via_strides += index[d] * strides[d];
      EXPECT_EQ(via_strides, ReferenceBroadcastIndex(from, to, index))
          << "trial " << trial << " from=" << ShapeToString(from)
          << " to=" << ShapeToString(to) << " at flat " << i;
      for (int64_t d = rank - 1; d >= 0; --d) {
        if (++index[d] < to[d]) break;
        index[d] = 0;
      }
    }
  }
}

TEST(BroadcastPropertyTest, BroadcastShapeIsSymmetricAndAbsorbing) {
  Rng rng(100);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t rank = 1 + rng.UniformInt(4);
    Shape out(rank);
    for (int64_t& d : out) d = 1 + rng.UniformInt(5);
    const Shape a = RandomBroadcastableFrom(out, &rng);
    const Shape b = RandomBroadcastableFrom(out, &rng);

    const Shape ab = kernels::BroadcastShape(a, b);
    EXPECT_EQ(ab, kernels::BroadcastShape(b, a)) << "trial " << trial;
    // Each input broadcasts to the result, and the result absorbs itself.
    EXPECT_EQ(kernels::BroadcastShape(a, ab), ab);
    EXPECT_EQ(kernels::BroadcastShape(ab, ab), ab);
    // Identity: a shape broadcast with itself is unchanged.
    EXPECT_EQ(kernels::BroadcastShape(a, a), a);
  }
}

TEST(BroadcastPropertyTest, BroadcastBinaryGathersLikeReference) {
  // Round-trip through the real kernel: f(x, y) = x must reproduce exactly
  // the reference gather of `a`, f(x, y) = y that of `b`.
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t rank = 1 + rng.UniformInt(3);
    Shape to(rank);
    for (int64_t& d : to) d = 1 + rng.UniformInt(4);
    const Shape a_shape = RandomBroadcastableFrom(to, &rng);
    const Shape b_shape = RandomBroadcastableFrom(to, &rng);
    const Shape out_shape = kernels::BroadcastShape(a_shape, b_shape);

    Tensor a = Tensor::Randn(a_shape, &rng);
    Tensor b = Tensor::Randn(b_shape, &rng);
    const int64_t n = NumElements(out_shape);
    std::vector<float> picked_a(n);
    std::vector<float> picked_b(n);
    kernels::BroadcastBinary(a.data(), a_shape, b.data(), b_shape,
                             picked_a.data(), out_shape,
                             [](float x, float) { return x; });
    kernels::BroadcastBinary(a.data(), a_shape, b.data(), b_shape,
                             picked_b.data(), out_shape,
                             [](float, float y) { return y; });

    const int64_t out_rank = static_cast<int64_t>(out_shape.size());
    std::vector<int64_t> index(out_rank, 0);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(picked_a[i],
                a.data()[ReferenceBroadcastIndex(a_shape, out_shape, index)])
          << "trial " << trial << " flat " << i;
      EXPECT_EQ(picked_b[i],
                b.data()[ReferenceBroadcastIndex(b_shape, out_shape, index)])
          << "trial " << trial << " flat " << i;
      for (int64_t d = out_rank - 1; d >= 0; --d) {
        if (++index[d] < out_shape[d]) break;
        index[d] = 0;
      }
    }
  }
}

}  // namespace
}  // namespace conformer
