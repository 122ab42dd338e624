// Gradient correctness: numerical gradient checks for every differentiable
// op, plus tape-mechanics tests (accumulation, detach, no-grad, reuse).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "baselines/registry.h"
#include "data/dataset_registry.h"
#include "tensor/alloc_stats.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"

namespace conformer {
namespace {

using Inputs = std::vector<Tensor>;

Tensor Leaf(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Randn(shape, &rng);
  t.set_requires_grad(true);
  return t;
}

// Positive-valued leaf for Log/Sqrt.
Tensor PositiveLeaf(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Rand(shape, 0.5f, 2.0f, &rng);
  t.set_requires_grad(true);
  return t;
}

void ExpectGradOk(const std::function<Tensor(const Inputs&)>& f,
                  Inputs inputs) {
  GradCheckResult r = CheckGradients(f, std::move(inputs));
  EXPECT_TRUE(r.passed) << r.message << " (max err " << r.max_abs_error << ")";
}

// -- basic mechanics --------------------------------------------------------

TEST(AutogradTest, ScalarChain) {
  Tensor x = Tensor::Full({1}, 3.0f);
  x.set_requires_grad(true);
  Tensor y = MulScalar(x, 2.0f) + 1.0f;  // y = 2x + 1
  Tensor loss = Mul(y, y);               // (2x+1)^2, d/dx = 4(2x+1) = 28
  Sum(loss).Backward();
  EXPECT_NEAR(x.grad().item(), 28.0f, 1e-4);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwards) {
  Tensor x = Tensor::Full({1}, 1.0f);
  x.set_requires_grad(true);
  Sum(MulScalar(x, 3.0f)).Backward();
  EXPECT_NEAR(x.grad().item(), 3.0f, 1e-6);
  Sum(MulScalar(x, 3.0f)).Backward();
  EXPECT_NEAR(x.grad().item(), 6.0f, 1e-6);  // accumulated
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(AutogradTest, ReusedTensorGetsBothPaths) {
  Tensor x = Tensor::Full({1}, 2.0f);
  x.set_requires_grad(true);
  Tensor y = Add(Mul(x, x), x);  // x^2 + x, d/dx = 2x + 1 = 5
  Sum(y).Backward();
  EXPECT_NEAR(x.grad().item(), 5.0f, 1e-4);
}

TEST(AutogradTest, DetachBlocksGradient) {
  Tensor x = Tensor::Full({1}, 2.0f);
  x.set_requires_grad(true);
  Tensor y = Mul(x.Detach(), x);  // treated as c * x
  Sum(y).Backward();
  EXPECT_NEAR(x.grad().item(), 2.0f, 1e-6);
}

TEST(AutogradTest, NoGradGuardDisablesTape) {
  Tensor x = Leaf({3}, 1);
  {
    NoGradGuard guard;
    Tensor y = Mul(x, x);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_EQ(y.impl()->autograd, nullptr);
  }
  Tensor z = Mul(x, x);
  EXPECT_TRUE(z.requires_grad());
}

TEST(AutogradTest, ConstantsProduceNoTape) {
  Tensor a = Tensor::Ones({2});
  Tensor b = Tensor::Ones({2});
  Tensor c = Add(a, b);
  EXPECT_FALSE(c.requires_grad());
}

TEST(AutogradTest, BackwardRequiresScalar) {
  Tensor x = Leaf({2}, 2);
  Tensor y = Mul(x, x);
  EXPECT_DEATH(y.Backward(), "scalar");
}

TEST(AutogradTest, DiamondGraph) {
  // z = (x*2) + (x*3); dz/dx = 5 per element.
  Tensor x = Leaf({4}, 3);
  Tensor z = Add(MulScalar(x, 2.0f), MulScalar(x, 3.0f));
  Sum(z).Backward();
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(x.grad().data()[i], 5.0f, 1e-5);
}

// -- elementwise gradchecks ---------------------------------------------------

TEST(GradCheckTest, AddBroadcast) {
  ExpectGradOk([](const Inputs& in) { return Sum(Mul(Add(in[0], in[1]), in[2])); },
               {Leaf({2, 3}, 1), Leaf({3}, 2), Leaf({2, 3}, 3)});
}

TEST(GradCheckTest, SubBroadcastColumn) {
  ExpectGradOk(
      [](const Inputs& in) { return Sum(Mul(Sub(in[0], in[1]), in[0])); },
      {Leaf({3, 2}, 4), Leaf({3, 1}, 5)});
}

TEST(GradCheckTest, MulDiv) {
  ExpectGradOk(
      [](const Inputs& in) { return Sum(Div(Mul(in[0], in[1]), in[2])); },
      {Leaf({2, 2}, 6), Leaf({2, 2}, 7), PositiveLeaf({2, 2}, 8)});
}

TEST(GradCheckTest, Unaries) {
  ExpectGradOk([](const Inputs& in) { return Sum(Tanh(in[0])); }, {Leaf({6}, 11)});
  ExpectGradOk([](const Inputs& in) { return Sum(Sigmoid(in[0])); }, {Leaf({6}, 12)});
  ExpectGradOk([](const Inputs& in) { return Sum(Log(in[0])); },
               {PositiveLeaf({6}, 14)});
  ExpectGradOk([](const Inputs& in) { return Sum(Sqrt(in[0])); },
               {PositiveLeaf({6}, 15)});
  ExpectGradOk([](const Inputs& in) { return Sum(Gelu(in[0])); }, {Leaf({6}, 16)});
  ExpectGradOk([](const Inputs& in) { return Sum(Softplus(in[0])); },
               {Leaf({6}, 17)});
}

// -- matmul -------------------------------------------------------------------

TEST(GradCheckTest, MatMulRank2) {
  ExpectGradOk([](const Inputs& in) { return Sum(MatMul(in[0], in[1])); },
               {Leaf({3, 4}, 21), Leaf({4, 2}, 22)});
}

TEST(GradCheckTest, MatMulBatched) {
  ExpectGradOk([](const Inputs& in) { return Sum(MatMul(in[0], in[1])); },
               {Leaf({2, 3, 4}, 23), Leaf({2, 4, 2}, 24)});
}

TEST(GradCheckTest, MatMulBroadcastBatch) {
  ExpectGradOk([](const Inputs& in) { return Sum(MatMul(in[0], in[1])); },
               {Leaf({3, 4}, 25), Leaf({2, 4, 2}, 26)});
}

TEST(GradCheckTest, MatMulWeightedOutput) {
  // Non-uniform output gradient exercises dOut routing.
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor out = MatMul(in[0], in[1]);
        return Sum(Mul(out, out));
      },
      {Leaf({2, 3}, 27), Leaf({3, 2}, 28)});
}

// -- reductions -----------------------------------------------------------------

TEST(GradCheckTest, SumOverDims) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor s = Sum(in[0], {1});            // [2, 4] -> [2]
        return Sum(Mul(s, s));
      },
      {Leaf({2, 4}, 29)});
}

TEST(GradCheckTest, MeanKeepdim) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor m = Mean(in[0], {0}, true);
        return Sum(Mul(m, m));
      },
      {Leaf({3, 2}, 30)});
}

// -- shape ops ---------------------------------------------------------------------

TEST(GradCheckTest, ReshapePermute) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor r = Permute(Reshape(in[0], {2, 3, 2}), {2, 0, 1});
        return Sum(Mul(r, r));
      },
      {Leaf({12}, 33)});
}

TEST(GradCheckTest, SliceAndConcat) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor head = Slice(in[0], 0, 0, 2);
        Tensor tail = Slice(in[0], 0, 2, 4);
        Tensor swapped = Concat({tail, head}, 0);
        return Sum(Mul(swapped, swapped));
      },
      {Leaf({4, 3}, 34)});
}

TEST(GradCheckTest, AsStridedSteppedAndOverlapping) {
  // Every other column of a [2, 6] leaf, then overlapping width-3 windows
  // over each row (im2col-style), whose backward adds several output
  // gradients into one input element.
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor s = AsStrided(in[0], {2, 3}, {6, 2}, 0, "Slice");
        Tensor w = AsStrided(in[0], {2, 4, 3}, {6, 1, 1}, 0, "Unfold");
        return Add(Sum(Mul(s, s)), Sum(Mul(w, w)));
      },
      {Leaf({2, 6}, 35)});
}

TEST(GradCheckTest, PadAndTile) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor p = Pad(in[0], 0, 1, 1, 0.5f);
        Tensor t = Tile(in[0], {2, 1});
        return Add(Sum(Mul(p, p)), Sum(t));
      },
      {Leaf({2, 2}, 36)});
}

TEST(GradCheckTest, ReplicatePad) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor p = ReplicatePad(in[0], 1, 2, 2);
        return Sum(Mul(p, p));
      },
      {Leaf({1, 4}, 37)});
}

TEST(GradCheckTest, BroadcastTo) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor b = BroadcastTo(in[0], {4, 3});
        return Sum(Mul(b, b));
      },
      {Leaf({1, 3}, 38)});
}

// -- indexing -----------------------------------------------------------------------

TEST(GradCheckTest, IndexSelectWithRepeats) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor s = IndexSelect(in[0], 0, {0, 2, 2, 1});
        return Sum(Mul(s, s));
      },
      {Leaf({3, 2}, 39)});
}

TEST(GradCheckTest, Roll) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor r = Roll(in[0], 1, 2);
        return Sum(Mul(r, in[0]));
      },
      {Leaf({2, 5}, 40)});
}

TEST(GradCheckTest, BatchedIndexSelect) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor s = BatchedIndexSelect(in[0], {1, 1, 0, 2}, 2);
        return Sum(Mul(s, s));
      },
      {Leaf({2, 3, 2}, 41)});
}

// -- conv / pool -------------------------------------------------------------------

TEST(GradCheckTest, Conv1dZeroPad) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Conv1d(in[0], in[1], in[2], 1);
        return Sum(Mul(y, y));
      },
      {Leaf({2, 2, 5}, 42), Leaf({3, 2, 3}, 43), Leaf({3}, 44)});
}

TEST(GradCheckTest, Conv1dCircular) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Conv1d(in[0], in[1], Tensor(), 1, PadMode::kCircular);
        return Sum(Mul(y, y));
      },
      {Leaf({1, 2, 6}, 45), Leaf({2, 2, 3}, 46)});
}

TEST(GradCheckTest, MaxPool) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = MaxPool1d(in[0], 2, 2);
        return Sum(Mul(y, y));
      },
      {Leaf({2, 8}, 70)});
}

TEST(GradCheckTest, DilatedConv) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Conv1d(in[0], in[1], Tensor(), 2, PadMode::kZeros,
                          /*dilation=*/2);
        return Sum(Mul(y, y));
      },
      {Leaf({1, 2, 7}, 72), Leaf({2, 2, 3}, 73)});
}

TEST(GradCheckTest, StridedConv) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Conv1d(in[0], in[1], in[2], 1, PadMode::kZeros,
                          /*dilation=*/1, /*stride=*/2);
        return Sum(Mul(y, y));
      },
      {Leaf({2, 2, 9}, 80), Leaf({3, 2, 3}, 81), Leaf({3}, 82)});
}

TEST(GradCheckTest, StridedDilatedConv) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Conv1d(in[0], in[1], Tensor(), 2, PadMode::kReplicate,
                          /*dilation=*/2, /*stride=*/3);
        return Sum(Mul(y, y));
      },
      {Leaf({1, 2, 10}, 83), Leaf({2, 2, 3}, 84)});
}

TEST(GradCheckTest, CircularPadWiderThanInput) {
  // padding (4) > length (3): the folded tile path must stay differentiable
  // (it used to CHECK-abort before the fold).
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Conv1d(in[0], in[1], Tensor(), 4, PadMode::kCircular);
        return Sum(Mul(y, y));
      },
      {Leaf({1, 2, 3}, 85), Leaf({2, 2, 3}, 86)});
}

TEST(GradCheckTest, Conv2dZeroPad) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Conv2d(in[0], in[1], in[2], 1, 1);
        return Sum(Mul(y, y));
      },
      {Leaf({1, 2, 3, 3}, 87), Leaf({2, 2, 3, 3}, 88), Leaf({2}, 89)});
}

TEST(GradCheckTest, Conv2dValid) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Conv2d(in[0], in[1], Tensor(), 0, 0);
        return Sum(Mul(y, y));
      },
      {Leaf({1, 3, 5, 4}, 90), Leaf({2, 3, 2, 3}, 91)});
}

TEST(GradCheckTest, MovingAverage) {
  // Along time with a window wider than the clamped edges reach, along the
  // last dim, and over a length-1 axis where every tap clamps to row 0.
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = MovingAverage(in[0], 1, 5);
        return Sum(Mul(y, y));
      },
      {Leaf({2, 6, 3}, 47)});
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = MovingAverage(in[0], -1, 3);
        return Sum(Mul(y, y));
      },
      {Leaf({2, 9}, 48)});
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = MovingAverage(in[0], 1, 3);
        return Sum(Mul(y, y));
      },
      {Leaf({3, 1, 2}, 49)});
}

// -- nn functionals -----------------------------------------------------------------

TEST(GradCheckTest, Softmax) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Softmax(in[0], -1);
        return Sum(Mul(y, in[1]));
      },
      {Leaf({3, 4}, 48), Leaf({3, 4}, 49)});
}

TEST(GradCheckTest, SoftmaxMiddleDim) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = Softmax(in[0], 1);
        return Sum(Mul(y, in[1]));
      },
      {Leaf({2, 3, 2}, 50), Leaf({2, 3, 2}, 51)});
}

TEST(GradCheckTest, LogSoftmax) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor y = LogSoftmax(in[0], -1);
        return Sum(Mul(y, in[1]));
      },
      {Leaf({2, 5}, 52), Leaf({2, 5}, 53)});
}

TEST(GradCheckTest, MseMae) {
  ExpectGradOk(
      [](const Inputs& in) { return MseLoss(in[0], Tensor::Zeros({2, 3})); },
      {Leaf({2, 3}, 54)});
}

// -- composites mirroring model structure --------------------------------------------

TEST(GradCheckTest, TwoLayerMlp) {
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor h = Tanh(Add(MatMul(in[0], in[1]), in[2]));
        Tensor out = MatMul(h, in[3]);
        return Sum(Mul(out, out));
      },
      {Leaf({4, 3}, 56), Leaf({3, 5}, 57), Leaf({5}, 58), Leaf({5, 2}, 59)});
}

TEST(GradCheckTest, AttentionShaped) {
  // softmax(QK^T) V with small sizes.
  ExpectGradOk(
      [](const Inputs& in) {
        Tensor scores = MatMul(in[0], Transpose(in[1], -1, -2));
        Tensor w = Softmax(MulScalar(scores, 0.5f), -1);
        return Sum(Mul(MatMul(w, in[2]), in[3]));
      },
      {Leaf({1, 3, 2}, 60), Leaf({1, 3, 2}, 61), Leaf({1, 3, 2}, 62),
       Leaf({1, 3, 2}, 63)});
}

TEST(AutogradTest, RetainGraphAllowsSecondBackward) {
  Tensor x = Leaf({1}, 64);
  Tensor y = Mul(x, x);
  Tensor s = Sum(y);
  s.Backward(/*retain_graph=*/true);
  const float g1 = x.grad().item();
  s.Backward();
  EXPECT_NEAR(x.grad().item(), 2.0f * g1, 1e-5);
}

// -- gradient ownership ------------------------------------------------------
//
// Backward writes each gradient once, in place: the first contribution of a
// pass computes straight into a zero-filled buffer, later ones add in as
// `grad + (0 + terms)`. Either way the result must be bitwise what adding
// every consumer's own gradient would give.

// One consumer of a leaf: a scalar loss term built from it.
using Consumer = std::function<Tensor(const Tensor&)>;

// Fixed pseudo-random constant, so upstream gradients are not all ones.
Tensor Constant(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(shape, &rng);
}

// Sum of `t` weighted by a fixed constant of its shape.
Tensor WeightedSum(const Tensor& t, uint64_t seed) {
  return Sum(Mul(t, Constant(t.shape(), seed)));
}

std::vector<float> Floats(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

// The gradient a fresh leaf holding `values` gets from one pass over `loss`.
std::vector<float> GradUnder(const Tensor& values, const Consumer& loss) {
  Tensor x = values.Clone();
  x.set_requires_grad(true);
  loss(x).Backward();
  return Floats(x.grad());
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
      << what;
  for (float v : got) {
    EXPECT_FALSE(v == 0.0f && std::signbit(v)) << what << ": -0 gradient";
  }
}

// Two consumers of one leaf: two ops, or two input slots of one op. `both`
// is the loss with both consumers in one graph; when null it is
// Add(first, second). A slot reads the leaf's values through Detach() when
// it is not the consumer under test.
struct ConsumerFamily {
  std::string name;
  Shape leaf_shape;
  Consumer first;
  Consumer second;
  Consumer both = nullptr;
};

std::vector<ConsumerFamily> ConsumerFamilies() {
  const auto gru = [](const Tensor& gates, const Tensor& w_hh, uint64_t seed) {
    return WeightedSum(GruSequence(gates, w_hh, Constant({12}, seed)),
                       seed + 1);
  };
  return {
      {"same-shape elementwise", {3, 5},
       [](const Tensor& x) {
         return WeightedSum(Mul(x, Constant({3, 5}, 1)), 2);
       },
       [](const Tensor& x) { return WeightedSum(Tanh(x), 3); }},
      {"broadcast elementwise", {1, 5},
       [](const Tensor& x) {
         return WeightedSum(Mul(x, Constant({3, 5}, 4)), 5);
       },
       [](const Tensor& x) {
         return WeightedSum(Sub(Constant({4, 3, 5}, 6), x), 7);
       }},
      {"Add of itself", {3, 5},
       [](const Tensor& x) { return WeightedSum(Add(x, x.Detach()), 8); },
       [](const Tensor& x) { return WeightedSum(Add(x.Detach(), x), 8); },
       [](const Tensor& x) { return WeightedSum(Add(x, x), 8); }},
      {"Sub of itself", {3, 5},
       [](const Tensor& x) {
         return WeightedSum(Sub(MulScalar(x, 3.0f), x.Detach()), 9);
       },
       [](const Tensor& x) {
         return WeightedSum(Sub(MulScalar(x.Detach(), 3.0f), x), 9);
       },
       [](const Tensor& x) {
         return WeightedSum(Sub(MulScalar(x, 3.0f), x), 9);
       }},
      {"Permute/Slice", {2, 3, 4},
       [](const Tensor& x) { return WeightedSum(Permute(x, {2, 0, 1}), 10); },
       [](const Tensor& x) { return WeightedSum(Slice(x, 1, 1, 3), 11); }},
      {"overlapping Unfold", {2, 7},
       [](const Tensor& x) {
         return WeightedSum(AsStrided(x, {2, 5, 3}, {7, 1, 1}, 0, "Unfold"),
                            12);
       },
       [](const Tensor& x) {
         return WeightedSum(AsStrided(x, {2, 3, 3}, {7, 2, 1}, 0, "Unfold"),
                            13);
       }},
      {"MatMul(x, x)", {2, 4, 4},
       [](const Tensor& x) { return WeightedSum(MatMul(x, x.Detach()), 14); },
       [](const Tensor& x) { return WeightedSum(MatMul(x.Detach(), x), 14); },
       [](const Tensor& x) { return WeightedSum(MatMul(x, x), 14); }},
      {"MatMul broadcast batch", {4, 3},
       [](const Tensor& x) {
         return WeightedSum(MatMul(Constant({2, 5, 4}, 15), x), 16);
       },
       [](const Tensor& x) {
         return WeightedSum(MatMul(Constant({6, 4}, 17), x), 18);
       }},
      {"Reshape", {3, 4},
       [](const Tensor& x) { return WeightedSum(Reshape(x, {4, 3}), 17); },
       [](const Tensor& x) {
         return WeightedSum(Reshape(Tanh(x), {2, 6}), 18);
       }},
      {"Sum", {3, 4},
       [](const Tensor& x) { return WeightedSum(Sum(x, {0}), 19); },
       [](const Tensor& x) { return WeightedSum(Sum(x, {1}, true), 20); }},
      {"Concat with a part listed twice", {2, 3},
       [](const Tensor& x) {
         return WeightedSum(Concat({x, Constant({2, 2}, 21), x.Detach()}, 1),
                            22);
       },
       [](const Tensor& x) {
         return WeightedSum(Concat({x.Detach(), Constant({2, 2}, 21), x}, 1),
                            22);
       },
       [](const Tensor& x) {
         return WeightedSum(Concat({x, Constant({2, 2}, 21), x}, 1), 22);
       }},
      {"GruSequence gates", {2, 5, 12},
       [gru](const Tensor& x) { return gru(x, Constant({4, 12}, 24), 25); },
       [gru](const Tensor& x) { return gru(x, Constant({4, 12}, 27), 28); }},
      {"GruSequence w_hh", {4, 12},
       [gru](const Tensor& x) { return gru(Constant({2, 5, 12}, 30), x, 31); },
       [gru](const Tensor& x) { return gru(Constant({2, 5, 12}, 33), x, 34); }},
  };
}

TEST(GradOwnershipTest, SecondConsumerAddsItsWholeGradientOnce) {
  for (const ConsumerFamily& family : ConsumerFamilies()) {
    const Tensor values = Constant(family.leaf_shape, 99);
    const std::vector<float> d1 = GradUnder(values, family.first);
    const std::vector<float> d2 = GradUnder(values, family.second);
    std::vector<float> want(d1.size());
    for (size_t i = 0; i < want.size(); ++i) want[i] = (0.0f + d1[i]) + d2[i];

    // One pass, two consumers.
    const Consumer both = family.both ? family.both : [&](const Tensor& x) {
      return Add(family.first(x), family.second(x));
    };
    ExpectSameBits(GradUnder(values, both), want,
                   family.name + ", two consumers");

    // Two passes into one leaf.
    Tensor x = values.Clone();
    x.set_requires_grad(true);
    family.first(x).Backward();
    ExpectSameBits(Floats(x.grad()), d1, family.name + ", one consumer");
    family.second(x).Backward();
    ExpectSameBits(Floats(x.grad()), want, family.name + ", two passes");
  }
}

TEST(GradOwnershipTest, NoGradientHoldsNegativeZero) {
  // Zero (and -0) upstream gradients times a local derivative of -1 make
  // -0 terms; every buffer they land in must read +0.
  Tensor x = Leaf({6}, 5);
  Tensor neg = MulScalar(x, -1.0f);
  Tensor sub = Sub(Tensor::Zeros({2, 6}), x);
  Tensor flat = Reshape(neg, {2, 3});
  Tensor loss = Add(Sum(Mul(flat, Tensor::Full({2, 3}, -0.0f))),
                    Sum(Mul(sub, Tensor::Zeros({2, 6}))));
  loss.Backward(/*retain_graph=*/true);
  for (const Tensor& t : {x, neg, sub}) {
    ASSERT_TRUE(t.has_grad());
    for (float v : Floats(t.grad())) {
      EXPECT_EQ(v, 0.0f);
      EXPECT_FALSE(std::signbit(v));
    }
  }
}

TEST(GradOwnershipTest, NonLeafGradientIsFreedOnceConsumed) {
  Tensor x = Leaf({4}, 6);
  Tensor y = Tanh(x);
  Sum(y).Backward();
  EXPECT_FALSE(y.has_grad());
  EXPECT_TRUE(x.has_grad());

  Tensor z = Tanh(x);
  Sum(z).Backward(/*retain_graph=*/true);
  EXPECT_TRUE(z.has_grad());
}

TEST(GradOwnershipTest, GradientBuffersAreCountedOnce) {
  Tensor x = Leaf({1024}, 7);
  const int64_t before = GetAllocStats().current_bytes;
  // Reshape moves its output gradient into x: one buffer, counted once.
  Sum(Reshape(x, {32, 32})).Backward();
  EXPECT_EQ(GetAllocStats().current_bytes - before,
            1024 * static_cast<int64_t>(sizeof(float)));
  x.ZeroGrad();
  EXPECT_EQ(GetAllocStats().current_bytes, before);
}

// Bytes `call` keeps live beyond its result while the result is held. The
// result and its tape are dropped before returning; nothing may stay live.
template <typename Fn>
int64_t SavedBytes(Fn call) {
  const int64_t before = GetAllocStats().current_bytes;
  int64_t saved = 0;
  {
    const Tensor out = call();
    saved = GetAllocStats().current_bytes - before -
            out.numel() * static_cast<int64_t>(sizeof(float));
  }
  EXPECT_EQ(GetAllocStats().current_bytes, before);
  return saved;
}

TEST(GradOwnershipTest, OpSavedStateIsCountedUntilTheTapeIsDropped) {
  constexpr int64_t kFloat = sizeof(float);
  // GruSequence saves h_{t-1} and r, z, n, gh_n per step: [L, B, 5h].
  const int64_t b = 3, l = 5, h = 4;
  const Tensor gates = Leaf({b, l, 3 * h}, 21);
  const Tensor w_hh = Leaf({h, 3 * h}, 22);
  const Tensor b_hh = Leaf({3 * h}, 23);
  const auto gru = [&] { return GruSequence(gates, w_hh, b_hh); };
  EXPECT_EQ(SavedBytes(gru), l * b * 5 * h * kFloat);

  // BandedAttention saves its softmax weights: [BH, Lq, W].
  const int64_t bh = 2, lq = 6, lk = 8, d = 4, width = 3;
  const Tensor q = Leaf({bh, lq, d}, 24);
  const Tensor k = Leaf({bh, lk, d}, 25);
  const Tensor v = Leaf({bh, lk, d}, 26);
  std::vector<int64_t> taps;
  for (int64_t i = 0; i < lq; ++i) {
    for (int64_t j = 0; j < width; ++j) taps.push_back(i + j);
  }
  const std::vector<float> mask(lq * width, 0.0f);
  const auto band = [&] { return BandedAttention(q, k, v, taps, mask, width); };
  EXPECT_EQ(SavedBytes(band), bh * lq * width * kFloat);

  // Without a tape neither op saves anything.
  NoGradGuard no_grad;
  EXPECT_EQ(SavedBytes(gru), 0);
  EXPECT_EQ(SavedBytes(band), 0);
}

// A fresh intermediate holding `leaf`'s values: AddScalar's backward saves
// nothing, so only a consumer that saves it keeps it alive.
Tensor Intermediate(const Tensor& leaf) { return AddScalar(leaf, 0.0f); }

// One op under test and the bytes its tape must keep beyond its result.
struct SavedCase {
  std::string name;
  std::function<Tensor()> call;
  int64_t want_floats;
};

// Every op saves exactly the values its backward formula reads. Operands
// are intermediates built inside the call (or constants, which need no
// gradient), so an operand the op saves shows up as its bytes and one it
// does not is freed when its handle drops.
TEST(GradOwnershipTest, TapeSavesOnlyWhatEachFormulaReads) {
  const int64_t n = 6;  // elements of every [2, 3] operand
  const Tensor x = Leaf({2, 3}, 31);
  const Tensor y = Leaf({2, 3}, 32);
  const Tensor w = Leaf({3, 4}, 33);
  const Tensor b = Leaf({4}, 34);
  const Tensor pos = PositiveLeaf({2, 3}, 35);
  const auto mid = [](const Tensor& leaf) { return Intermediate(leaf); };
  const auto constant = [](const Shape& shape) { return Constant(shape, 36); };

  // GruSequence: gates [B, L, 3h], w_hh [h, 3h], b_hh [3h].
  const int64_t gb = 2, gl = 3, gh = 2;
  const Tensor gates = Leaf({gb, gl, 3 * gh}, 37);
  const Tensor w_hh = Leaf({gh, 3 * gh}, 38);
  const Tensor b_hh = Leaf({3 * gh}, 39);
  // BandedAttention: q [BH, Lq, d], k and v [BH, Lk, d], W taps per query.
  const int64_t bh = 2, lq = 3, lk = 4, d = 2, width = 2;
  const Tensor q = Leaf({bh, lq, d}, 40);
  const Tensor k = Leaf({bh, lk, d}, 41);
  const Tensor v = Leaf({bh, lk, d}, 42);
  std::vector<int64_t> taps;
  for (int64_t i = 0; i < lq; ++i) {
    for (int64_t j = 0; j < width; ++j) taps.push_back(i + j);
  }
  const std::vector<float> mask(lq * width, 0.0f);
  const auto band = [&](const Tensor& bq, const Tensor& bk, const Tensor& bv) {
    return BandedAttention(bq, bk, bv, taps, mask, width);
  };
  const int64_t band_weights = bh * lq * width;

  const std::vector<SavedCase> cases = {
      // Value-free ops: their operands go as soon as the handles drop.
      {"Add(MatMul, b)", [&] { return Add(MatMul(x, w), b); }, 0},
      {"Add", [&] { return Add(mid(x), mid(y)); }, 0},
      {"Sub", [&] { return Sub(mid(x), mid(y)); }, 0},
      {"AddScalar", [&] { return AddScalar(mid(x), 1.0f); }, 0},
      {"MulScalar", [&] { return MulScalar(mid(x), 2.0f); }, 0},
      {"Permute", [&] { return Permute(mid(x), {1, 0}); }, 0},
      {"Slice", [&] { return Slice(mid(x), 1, 0, 2); }, 0},
      {"Unfold", [&] {
         return AsStrided(mid(x), {2, 2, 2}, {3, 1, 1}, 0, "Unfold");
       }, 0},
      {"Reshape", [&] { return Sum(Reshape(mid(x), {3, 2})); }, 0},
      {"Concat", [&] { return Concat({mid(x), mid(y)}, 0); }, 0},
      {"Tile", [&] { return Tile(mid(x), {2, 1}); }, 0},
      {"Sum", [&] { return Sum(mid(x), {1}); }, 0},
      {"MovingAverage", [&] { return MovingAverage(mid(x), 1, 3); }, 0},
      {"IndexSelect", [&] { return IndexSelect(mid(x), 1, {2, 0}); }, 0},
      // Mul and MatMul keep an operand only for the other one's gradient.
      {"Mul, both need gradients", [&] { return Mul(mid(x), mid(y)); }, 2 * n},
      {"Mul by a constant mask", [&] { return Mul(mid(x), constant({2, 3})); },
       n},
      {"Mul of a constant", [&] { return Mul(constant({2, 3}), mid(y)); }, n},
      {"MatMul, both need gradients", [&] { return MatMul(mid(x), mid(w)); },
       n + 12},
      {"MatMul by a constant", [&] { return MatMul(mid(x), constant({3, 4})); },
       12},
      {"MatMul of a constant", [&] { return MatMul(constant({2, 3}), mid(w)); },
       n},
      // Div: d/da reads b, d/db reads both.
      {"Div, both need gradients", [&] { return Div(mid(x), mid(pos)); },
       2 * n},
      {"Div by a constant", [&] {
         return Div(mid(x), AddScalar(constant({2, 3}), 9.0f));
       }, n},
      {"Div of a constant", [&] { return Div(constant({2, 3}), mid(pos)); },
       2 * n},
      // Softmax, LogSoftmax and Tanh read their output, which Sum drops.
      {"Softmax", [&] { return Sum(Softmax(mid(x), -1)); }, n},
      {"LogSoftmax", [&] { return Sum(LogSoftmax(mid(x), 0)); }, n},
      {"Tanh", [&] { return Sum(Tanh(mid(x))); }, n},
      {"Relu", [&] { return Sum(Relu(mid(x))); }, n},
      // GruSequence keeps its [L, B, 5h] state and W_hh, not the gates.
      {"GruSequence", [&] {
         return GruSequence(mid(gates), mid(w_hh), mid(b_hh));
       }, gl * gb * 5 * gh + gh * 3 * gh},
      // BandedAttention keeps its weights and V; K for dq, Q for dk.
      {"BandedAttention, all need gradients", [&] {
         return band(mid(q), mid(k), mid(v));
       }, band_weights + bh * (lq + 2 * lk) * d},
      {"BandedAttention, only q needs a gradient", [&] {
         return band(mid(q), constant({bh, lk, d}), constant({bh, lk, d}));
       }, band_weights + 2 * bh * lk * d},
  };
  constexpr int64_t kFloat = sizeof(float);
  for (const SavedCase& c : cases) {
    EXPECT_EQ(SavedBytes(c.call), c.want_floats * kFloat) << c.name;
  }
  // Without a tape no op saves anything.
  NoGradGuard no_grad;
  for (const SavedCase& c : cases) {
    EXPECT_EQ(SavedBytes(c.call), 0) << c.name << ", no grad";
  }
}

// Peak bytes allocated during the backward pass of a chain of `n` Tanh ops.
int64_t BackwardPeakBytes(int n) {
  Tensor x = Leaf({1024}, 8);
  Tensor y = x;
  for (int i = 0; i < n; ++i) y = Tanh(y);
  Tensor loss = Sum(y);
  ResetAllocPeak();
  const int64_t before = GetAllocStats().current_bytes;
  loss.Backward();
  return GetAllocStats().peak_bytes - before;
}

TEST(GradOwnershipTest, BackwardPeakDoesNotGrowWithChainLength) {
  const int64_t short_chain = BackwardPeakBytes(16);
  EXPECT_GT(short_chain, 0);
  EXPECT_EQ(short_chain, BackwardPeakBytes(64));
}

// -- tape lifetime over every registry model ---------------------------------
//
// These build models from the process-wide GlobalRng(), so they come last.

struct RegistryCase {
  std::string name;
  std::unique_ptr<models::Forecaster> model;
};

data::Batch RegistryBatch() {
  const data::WindowConfig window{.input_len = 16, .label_len = 8,
                                  .pred_len = 8};
  const data::TimeSeries ts = data::MakeDataset("etth1", 0.07, 31).value();
  return data::MakeSplits(ts, window).train.GetRange(0, 4);
}

// Every registry model in training mode, after one full step: a lazily
// built cache is allocated there, not inside a measured pass.
std::vector<RegistryCase> TrainingRegistryModels(const data::Batch& batch) {
  const data::WindowConfig window{.input_len = 16, .label_len = 8,
                                  .pred_len = 8};
  std::vector<RegistryCase> out;
  for (const std::string& name : models::AvailableModels()) {
    auto model = models::MakeForecaster(name, window, batch.x.size(2));
    EXPECT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    if (!model.ok()) continue;
    model.value()->SetTraining(true);
    model.value()->Loss(batch).Backward();
    model.value()->ZeroGrad();
    out.push_back({name, std::move(model).value()});
  }
  return out;
}

// A recorded loss dropped without Backward frees its whole tape: a closure
// that captured its own output would form a shared_ptr cycle and leak it.
TEST(TapeLifetimeTest, DroppedLossFreesEveryRegistryModelsTape) {
  const data::Batch batch = RegistryBatch();
  for (RegistryCase& c : TrainingRegistryModels(batch)) {
    const int64_t start = GetAllocStats().current_bytes;
    {
      const Tensor loss = c.model->Loss(batch);
      EXPECT_GT(GetAllocStats().current_bytes, start) << c.name;
    }
    EXPECT_EQ(GetAllocStats().current_bytes, start) << c.name;
  }
}

// A second pass over a retained graph gives every parameter the first
// pass's gradient bit for bit: each closure still holds what it reads.
TEST(TapeLifetimeTest, RetainedGraphReplaysBitwiseForEveryRegistryModel) {
  const data::Batch batch = RegistryBatch();
  for (RegistryCase& c : TrainingRegistryModels(batch)) {
    const std::vector<Tensor> params = c.model->Parameters();
    Tensor loss = c.model->Loss(batch);
    loss.Backward(/*retain_graph=*/true);
    std::vector<std::vector<float>> first;
    for (const Tensor& p : params) first.push_back(Floats(p.grad()));
    c.model->ZeroGrad();
    loss.Backward();
    for (size_t i = 0; i < params.size(); ++i) {
      ExpectSameBits(Floats(params[i].grad()), first[i],
                     c.name + " parameter " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace conformer
