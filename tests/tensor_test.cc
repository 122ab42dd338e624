// Forward-value tests for the tensor library (gradients are covered in
// autograd_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "tensor/alloc_stats.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tensor/vec/vec.h"
#include "util/thread_pool.h"

namespace conformer {
namespace {

using Inputs = std::vector<Tensor>;

TEST(ShapeTest, NumElements) {
  EXPECT_EQ(NumElements({}), 1);
  EXPECT_EQ(NumElements({3}), 3);
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
}

TEST(ShapeTest, ContiguousStrides) {
  EXPECT_EQ(ContiguousStrides({2, 3, 4}), (std::vector<int64_t>{12, 4, 1}));
  EXPECT_EQ(ContiguousStrides({5}), (std::vector<int64_t>{1}));
}

TEST(TensorTest, Factories) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(z.data()[i], 0.0f);

  Tensor o = Tensor::Ones({4});
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(o.data()[i], 1.0f);

  Tensor f = Tensor::Full({2}, 3.5f);
  EXPECT_EQ(f.data()[0], 3.5f);

  Tensor a = Tensor::Arange(4, 1.0f, 0.5f);
  EXPECT_EQ(a.at({2}), 2.0f);

  Tensor e = Tensor::Eye(3);
  EXPECT_EQ(e.at({1, 1}), 1.0f);
  EXPECT_EQ(e.at({0, 1}), 0.0f);
}

TEST(TensorTest, RandnDeterministicWithSeed) {
  Rng r1(5);
  Rng r2(5);
  Tensor a = Tensor::Randn({10}, &r1);
  Tensor b = Tensor::Randn({10}, &r2);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(TensorTest, ItemAndAt) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({1, 2}), 6.0f);
  EXPECT_EQ(Tensor::Full({1}, 7.0f).item(), 7.0f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Ones({3});
  Tensor b = a.Clone();
  b.data()[0] = 5.0f;
  EXPECT_EQ(a.data()[0], 1.0f);
}

TEST(TensorTest, HandleSharesBuffer) {
  Tensor a = Tensor::Ones({3});
  Tensor b = a;  // same impl
  b.data()[0] = 5.0f;
  EXPECT_EQ(a.data()[0], 5.0f);
}

TEST(TensorTest, ToStringMentionsShape) {
  Tensor t = Tensor::Zeros({2, 2});
  EXPECT_NE(t.ToString().find("[2, 2]"), std::string::npos);
}

// -- broadcasting ----------------------------------------------------------

TEST(BroadcastTest, Shapes) {
  EXPECT_EQ(kernels::BroadcastShape({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(kernels::BroadcastShape({4, 1}, {1, 5}), (Shape{4, 5}));
  EXPECT_EQ(kernels::BroadcastShape({1}, {2, 2}), (Shape{2, 2}));
  // A size-1 dim broadcasts to a zero-size one (numpy rules).
  EXPECT_EQ(kernels::BroadcastShape({0, 3}, {1, 3}), (Shape{0, 3}));
  EXPECT_EQ(kernels::BroadcastShape({1}, {0}), (Shape{0}));
}

TEST(BroadcastTest, Strides) {
  EXPECT_EQ(kernels::BroadcastStrides({3}, {2, 3}),
            (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(kernels::BroadcastStrides({4, 1}, {4, 5}),
            (std::vector<int64_t>{1, 0}));
}

// -- elementwise -----------------------------------------------------------

TEST(ElementwiseTest, AddSameShape) {
  Tensor a = Tensor::FromVector({1, 2, 3}, {3});
  Tensor b = Tensor::FromVector({10, 20, 30}, {3});
  Tensor c = a + b;
  EXPECT_EQ(c.at({0}), 11.0f);
  EXPECT_EQ(c.at({2}), 33.0f);
}

TEST(ElementwiseTest, AddBroadcastRow) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor row = Tensor::FromVector({10, 20, 30}, {3});
  Tensor c = Add(a, row);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 2}), 36.0f);
}

TEST(ElementwiseTest, MulBroadcastColumn) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  Tensor col = Tensor::FromVector({10, 100}, {2, 1});
  Tensor c = Mul(a, col);
  EXPECT_EQ(c.at({0, 1}), 20.0f);
  EXPECT_EQ(c.at({1, 0}), 300.0f);
}

TEST(ElementwiseTest, SubDivNeg) {
  Tensor a = Tensor::FromVector({4, 9}, {2});
  Tensor b = Tensor::FromVector({2, 3}, {2});
  EXPECT_EQ((a - b).at({1}), 6.0f);
  EXPECT_EQ((a / b).at({0}), 2.0f);
  EXPECT_EQ((-a).at({0}), -4.0f);
}

TEST(ElementwiseTest, ScalarOps) {
  Tensor a = Tensor::FromVector({1, 2}, {2});
  EXPECT_EQ((a + 1.0f).at({0}), 2.0f);
  EXPECT_EQ((a * 3.0f).at({1}), 6.0f);
  EXPECT_EQ((a - 1.0f).at({0}), 0.0f);
  EXPECT_EQ((2.0f * a).at({1}), 4.0f);
}

TEST(ElementwiseTest, UnaryValues) {
  Tensor x = Tensor::FromVector({-1.0f, 0.0f, 2.0f}, {3});
  EXPECT_NEAR(Tanh(x).at({0}), std::tanh(-1.0f), 1e-6);
  EXPECT_EQ(Relu(x).at({0}), 0.0f);
  EXPECT_EQ(Relu(x).at({2}), 2.0f);
  EXPECT_NEAR(Sigmoid(Tensor::Zeros({1})).item(), 0.5f, 1e-6);
}

TEST(ElementwiseTest, SigmoidExtremesStable) {
  Tensor x = Tensor::FromVector({-100.0f, 100.0f}, {2});
  Tensor y = Sigmoid(x);
  EXPECT_NEAR(y.at({0}), 0.0f, 1e-6);
  EXPECT_NEAR(y.at({1}), 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(y.at({0})));
}

TEST(ElementwiseTest, SoftplusStable) {
  Tensor x = Tensor::FromVector({-80.0f, 0.0f, 80.0f}, {3});
  Tensor y = Softplus(x);
  EXPECT_NEAR(y.at({0}), 0.0f, 1e-4);
  EXPECT_NEAR(y.at({1}), std::log(2.0f), 1e-5);
  EXPECT_NEAR(y.at({2}), 80.0f, 1e-4);
}

// -- matmul ------------------------------------------------------------------

TEST(MatMulTest, Rank2) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::FromVector({7, 8, 9, 10, 11, 12}, {3, 2});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_EQ(c.at({1, 1}), 154.0f);
}

TEST(MatMulTest, Batched) {
  // Two 2x2 identity-scaled matrices.
  Tensor a = Tensor::FromVector({1, 0, 0, 1, 2, 0, 0, 2}, {2, 2, 2});
  Tensor b = Tensor::FromVector({1, 2, 3, 4, 1, 2, 3, 4}, {2, 2, 2});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at({0, 0, 1}), 2.0f);
  EXPECT_EQ(c.at({1, 1, 0}), 6.0f);
}

TEST(MatMulTest, BroadcastBatch) {
  // [2, 2] x [3, 2, 2]: left matrix broadcast across the batch.
  Tensor a = Tensor::Eye(2);
  Tensor b = Tensor::Randn({3, 2, 2});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 2}));
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.data()[i], b.data()[i], 1e-6);
  }
}

TEST(MatMulTest, AgreesWithManual) {
  Tensor a = Tensor::Randn({4, 5});
  Tensor b = Tensor::Randn({5, 3});
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      float acc = 0.0f;
      for (int64_t k = 0; k < 5; ++k) acc += a.at({i, k}) * b.at({k, j});
      EXPECT_NEAR(c.at({i, j}), acc, 1e-4);
    }
  }
}

// A batched A times a 2-D B runs as one Gemm over A's stacked rows. Its
// output and dA must be memcmp-equal to a per-batch Slice + MatMul loop,
// and its dB to the per-batch Gemm accumulation the op ran before the
// fold: batch by batch into one buffer, rows ascending. (The sliced graph
// itself adds each batch's dB as a separate partial sum, so it is not the
// dB oracle.) Checked at 1 and 8 threads.
TEST(MatMulTest, SharedRhsFoldMatchesPerBatchLoop) {
  struct Case {
    Shape a, b;
  };
  const Case cases[] = {
      {{8, 40, 20}, {20, 24}},    // tiled Gemm rows, split across threads
      {{2, 3, 7, 5}, {5, 9}},     // rank-4 A, column tail
      {{3, 6, 10}, {10, 70}},     // streaming rows (n > 64)
      {{4, 3, 6}, {1, 6, 5}},     // B's batch dims all of size 1
      {{0, 4, 5}, {5, 3}},        // zero-size batch
  };
  const int64_t ambient = ThreadPool::Global().num_threads();
  for (const int threads : {1, 8}) {
    ThreadPool::Global().SetNumThreads(threads);
    for (const Case& c : cases) {
      SCOPED_TRACE(ShapeToString(c.a) + " x " + ShapeToString(c.b) + " at " +
                   std::to_string(threads) + " threads");
      const int64_t m = c.a[c.a.size() - 2];
      const int64_t k = c.a.back();
      const int64_t n = c.b.back();
      const int64_t batches = NumElements(c.a) / (m * k);
      Rng rng(7);
      Tensor a = Tensor::Randn(c.a, &rng);
      Tensor b = Tensor::Randn(c.b, &rng);
      a.set_requires_grad(true);
      b.set_requires_grad(true);
      Tensor y = MatMul(a, b);
      Shape out_shape(c.a.begin(), c.a.end() - 1);
      out_shape.push_back(n);
      ASSERT_EQ(y.shape(), out_shape);
      const Tensor proj = Tensor::Randn(out_shape, &rng);
      Sum(Mul(y, proj)).Backward();

      // dB before the fold: one zeroed buffer, one accumulating Gemm per
      // batch in ascending batch order.
      std::vector<float> want_db(k * n, 0.0f);
      for (int64_t i = 0; i < batches; ++i) {
        kernels::Gemm(true, false, k, n, m, a.data() + i * m * k,
                      proj.data() + i * m * n, want_db.data(),
                      /*accumulate=*/true);
      }
      ASSERT_TRUE(b.grad().defined());
      EXPECT_EQ(0, std::memcmp(b.grad().data(), want_db.data(),
                               sizeof(float) * k * n))
          << "dB";
      if (batches == 0) continue;

      Tensor a2 = Tensor::FromVector(
          std::vector<float>(a.data(), a.data() + a.numel()),
          {batches, m, k});
      Tensor b2 = Tensor::FromVector(
          std::vector<float>(b.data(), b.data() + b.numel()), {k, n});
      a2.set_requires_grad(true);
      std::vector<Tensor> parts;
      for (int64_t i = 0; i < batches; ++i) {
        parts.push_back(MatMul(Reshape(Slice(a2, 0, i, i + 1), {m, k}), b2));
      }
      Tensor want_y = Reshape(Concat(parts, 0), out_shape);
      Sum(Mul(want_y, proj)).Backward();
      EXPECT_EQ(0, std::memcmp(y.data(), want_y.data(),
                               sizeof(float) * y.numel()))
          << "output";
      EXPECT_EQ(0, std::memcmp(a.grad().data(), a2.grad().data(),
                               sizeof(float) * a.numel()))
          << "dA";
    }
  }
  ThreadPool::Global().SetNumThreads(ambient);
}

// MatMul's backward over batch dims: disjoint batches run as one
// GemmBatched call per ParallelFor chunk, broadcast ones as per-batch Gemms
// in ascending batch order. Both gradients must be memcmp-equal to that
// per-batch Gemm loop: for output batch i (reading A batch a_i and B batch
// b_i, broadcast dims at index 0), dA_{a_i} += dOut_i * B_{b_i}^T and
// dB_{b_i} += A_{a_i}^T * dOut_i, into zeroed buffers, i ascending. Checked
// at 1 and 8 threads.
TEST(MatMulTest, BatchedBackwardMatchesPerBatchGemmLoop) {
  struct Case {
    Shape a, b;
  };
  const Case cases[] = {
      {{16, 48, 16}, {16, 16, 48}},     // disjoint, per-head score shapes
      {{64, 12, 16}, {64, 16, 16}},     // disjoint, batches split by chunks
      {{3, 2, 9, 7}, {3, 2, 7, 5}},     // disjoint rank 4, column tails
      {{2, 1, 5, 6}, {1, 3, 6, 4}},     // both operands broadcast
      {{5, 6}, {4, 6, 3}},              // 2-D A against batched B
      {{4, 20, 3}, {1, 3, 9}},          // B's batch dim of size 1
  };
  const int64_t ambient = ThreadPool::Global().num_threads();
  for (const int threads : {1, 8}) {
    ThreadPool::Global().SetNumThreads(threads);
    for (const Case& c : cases) {
      SCOPED_TRACE(ShapeToString(c.a) + " x " + ShapeToString(c.b) + " at " +
                   std::to_string(threads) + " threads");
      const int64_t m = c.a[c.a.size() - 2];
      const int64_t k = c.a.back();
      const int64_t n = c.b.back();
      Rng rng(11);
      Tensor a = Tensor::Randn(c.a, &rng);
      Tensor b = Tensor::Randn(c.b, &rng);
      // Zeros in A make some Gemm panels take the zero-skipping tiles.
      for (int64_t i = 0; i < a.numel(); i += 7) a.data()[i] = 0.0f;
      a.set_requires_grad(true);
      b.set_requires_grad(true);
      Tensor y = MatMul(a, b);
      const Tensor proj = Tensor::Randn(y.shape(), &rng);
      Sum(Mul(y, proj)).Backward();

      // The batch dims, left-padded with 1s to the output's rank.
      const Shape out_batch(y.shape().begin(), y.shape().end() - 2);
      const int64_t rank = static_cast<int64_t>(out_batch.size());
      const auto padded = [&](const Shape& s) {
        Shape dims(s.begin(), s.end() - 2);
        dims.insert(dims.begin(), rank - static_cast<int64_t>(dims.size()), 1);
        return dims;
      };
      const Shape a_batch = padded(c.a), b_batch = padded(c.b);
      std::vector<float> want_da(a.numel(), 0.0f), want_db(b.numel(), 0.0f);
      for (int64_t i = 0; i < NumElements(out_batch); ++i) {
        int64_t rest = i, a_off = 0, b_off = 0, a_mul = 1, b_mul = 1;
        for (int64_t d = rank - 1; d >= 0; --d) {
          const int64_t idx = rest % out_batch[d];
          rest /= out_batch[d];
          a_off += (a_batch[d] == 1 ? 0 : idx) * a_mul;
          b_off += (b_batch[d] == 1 ? 0 : idx) * b_mul;
          a_mul *= a_batch[d];
          b_mul *= b_batch[d];
        }
        kernels::Gemm(false, true, m, k, n, proj.data() + i * m * n,
                      b.data() + b_off * k * n, want_da.data() + a_off * m * k,
                      /*accumulate=*/true);
        kernels::Gemm(true, false, k, n, m, a.data() + a_off * m * k,
                      proj.data() + i * m * n, want_db.data() + b_off * k * n,
                      /*accumulate=*/true);
      }
      ASSERT_TRUE(a.grad().defined());
      ASSERT_TRUE(b.grad().defined());
      EXPECT_EQ(0, std::memcmp(a.grad().data(), want_da.data(),
                               sizeof(float) * a.numel()))
          << "dA";
      EXPECT_EQ(0, std::memcmp(b.grad().data(), want_db.data(),
                               sizeof(float) * b.numel()))
          << "dB";
    }
  }
  ThreadPool::Global().SetNumThreads(ambient);
}

// -- reductions ---------------------------------------------------------------

TEST(ReduceTest, SumAll) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  EXPECT_EQ(Sum(a).item(), 10.0f);
}

TEST(ReduceTest, SumOverDim) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor rows = Sum(a, {1});
  EXPECT_EQ(rows.shape(), (Shape{2}));
  EXPECT_EQ(rows.at({0}), 6.0f);
  EXPECT_EQ(rows.at({1}), 15.0f);
  Tensor cols = Sum(a, {0}, /*keepdim=*/true);
  EXPECT_EQ(cols.shape(), (Shape{1, 3}));
  EXPECT_EQ(cols.at({0, 2}), 9.0f);
}

TEST(ReduceTest, NegativeDim) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  Tensor s = Sum(a, {-1});
  EXPECT_EQ(s.at({0}), 3.0f);
}

TEST(ReduceTest, Mean) {
  Tensor a = Tensor::FromVector({2, 4, 6, 8}, {4});
  EXPECT_EQ(Mean(a).item(), 5.0f);
}

// -- shape ops -----------------------------------------------------------------

TEST(ShapeOpsTest, ReshapeWithInference) {
  Tensor a = Tensor::Arange(12);
  Tensor b = Reshape(a, {3, -1});
  EXPECT_EQ(b.shape(), (Shape{3, 4}));
  EXPECT_EQ(b.at({2, 3}), 11.0f);
}

TEST(ShapeOpsTest, PermuteTranspose) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor t = Transpose(a, 0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({2, 0}), 3.0f);
  EXPECT_EQ(t.at({0, 1}), 4.0f);

  Tensor p = Permute(Tensor::Arange(24), {0});
  EXPECT_EQ(p.at({5}), 5.0f);
}

TEST(ShapeOpsTest, Permute3d) {
  Tensor a = Tensor::FromVector({0, 1, 2, 3, 4, 5, 6, 7}, {2, 2, 2});
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(p.at({0, 1, 0}), a.at({1, 0, 0}));
  EXPECT_EQ(p.at({1, 0, 1}), a.at({0, 1, 1}));
}

TEST(ShapeOpsTest, AsStridedStepsAndRepeats) {
  Tensor a = Tensor::Arange(10);
  Tensor s = AsStrided(a, {3}, {2}, 2, "Slice");  // [2, 8) step 2
  EXPECT_EQ(s.shape(), (Shape{3}));
  EXPECT_EQ(s.at({0}), 2.0f);
  EXPECT_EQ(s.at({2}), 6.0f);
  Tensor r = AsStrided(a, {2, 3}, {0, 3}, 1, "Tile");  // stride-0 rows
  EXPECT_EQ(r.at({0, 2}), 7.0f);
  EXPECT_EQ(r.at({1, 2}), 7.0f);
}

TEST(ShapeOpsTest, SliceNegativeIndices) {
  Tensor a = Tensor::Arange(10);
  Tensor s = Slice(a, 0, -3, -1);
  EXPECT_EQ(s.shape(), (Shape{2}));
  EXPECT_EQ(s.at({0}), 7.0f);
}

TEST(ShapeOpsTest, ConcatAndStack) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({3, 4}, {1, 2});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.at({1, 0}), 3.0f);

  Tensor d = Concat({a, b}, 1);
  EXPECT_EQ(d.shape(), (Shape{1, 4}));
  EXPECT_EQ(d.at({0, 3}), 4.0f);

  Tensor s = StackTensors({Tensor::Ones({2}), Tensor::Zeros({2})}, 0);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.at({0, 0}), 1.0f);
  EXPECT_EQ(s.at({1, 1}), 0.0f);
}

TEST(ShapeOpsTest, SqueezeUnsqueeze) {
  Tensor a = Tensor::Ones({2, 3});
  Tensor u = Unsqueeze(a, 1);
  EXPECT_EQ(u.shape(), (Shape{2, 1, 3}));
  EXPECT_EQ(Squeeze(u, 1).shape(), (Shape{2, 3}));
}

TEST(ShapeOpsTest, PadConstant) {
  Tensor a = Tensor::FromVector({1, 2}, {2});
  Tensor p = Pad(a, 0, 1, 2, -1.0f);
  EXPECT_EQ(p.shape(), (Shape{5}));
  EXPECT_EQ(p.at({0}), -1.0f);
  EXPECT_EQ(p.at({1}), 1.0f);
  EXPECT_EQ(p.at({4}), -1.0f);
}

TEST(ShapeOpsTest, ReplicatePad) {
  Tensor a = Tensor::FromVector({1, 2, 3}, {1, 3});
  Tensor p = ReplicatePad(a, 1, 2, 1);
  EXPECT_EQ(p.shape(), (Shape{1, 6}));
  EXPECT_EQ(p.at({0, 0}), 1.0f);
  EXPECT_EQ(p.at({0, 1}), 1.0f);
  EXPECT_EQ(p.at({0, 5}), 3.0f);
}

TEST(ShapeOpsTest, BroadcastToAndTile) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = BroadcastTo(a, {3, 2});
  EXPECT_EQ(b.shape(), (Shape{3, 2}));
  EXPECT_EQ(b.at({2, 1}), 2.0f);

  Tensor t = Tile(a, {2, 2});
  EXPECT_EQ(t.shape(), (Shape{2, 4}));
  EXPECT_EQ(t.at({1, 3}), 2.0f);
}

// -- indexing ----------------------------------------------------------------

TEST(IndexTest, IndexSelect) {
  Tensor a = Tensor::FromVector({10, 11, 20, 21, 30, 31}, {3, 2});
  Tensor s = IndexSelect(a, 0, {2, 0, 2});
  EXPECT_EQ(s.shape(), (Shape{3, 2}));
  EXPECT_EQ(s.at({0, 0}), 30.0f);
  EXPECT_EQ(s.at({1, 1}), 11.0f);
  EXPECT_EQ(s.at({2, 0}), 30.0f);
}

TEST(IndexTest, IndexSelectInnerDim) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor s = IndexSelect(a, 1, {2, 2});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.at({0, 0}), 3.0f);
  EXPECT_EQ(s.at({1, 1}), 6.0f);
}

TEST(IndexTest, Roll) {
  Tensor a = Tensor::Arange(5);
  Tensor r = Roll(a, 0, 2);
  EXPECT_EQ(r.at({0}), 3.0f);
  EXPECT_EQ(r.at({2}), 0.0f);
  Tensor l = Roll(a, 0, -1);
  EXPECT_EQ(l.at({0}), 1.0f);
  EXPECT_EQ(l.at({4}), 0.0f);
}

TEST(IndexTest, RollComposition) {
  Tensor a = Tensor::Arange(7);
  Tensor once = Roll(Roll(a, 0, 2), 0, 3);
  Tensor direct = Roll(a, 0, 5);
  for (int64_t i = 0; i < 7; ++i) {
    EXPECT_EQ(once.at({i}), direct.at({i}));
  }
}

TEST(IndexTest, RollFullCycleIsIdentity) {
  Tensor a = Tensor::Arange(6);
  Tensor cycled = Roll(a, 0, 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(cycled.at({i}), a.at({i}));
}

TEST(IndexTest, RollOverEmptyDimIsIdentity) {
  // The shift used to be reduced modulo the dim's size, zero here.
  Tensor a = Tensor::Zeros({2, 0});
  Tensor r = Roll(a, 1, 3);
  EXPECT_EQ(r.shape(), (Shape{2, 0}));
  EXPECT_EQ(Roll(a, 0, 1).shape(), (Shape{2, 0}));
}

TEST(IndexTest, IndexSelectIdentityPermutation) {
  Tensor a = Tensor::Randn({4, 3});
  Tensor same = IndexSelect(a, 0, {0, 1, 2, 3});
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(same.data()[i], a.data()[i]);
  }
}

TEST(IndexTest, BatchedIndexSelect) {
  Tensor a = Tensor::FromVector({0, 1, 2, 3, 4, 5, 6, 7}, {2, 2, 2});
  // batch 0 picks rows {1, 0}; batch 1 picks rows {1, 1}.
  Tensor s = BatchedIndexSelect(a, {1, 0, 1, 1}, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(s.at({0, 0, 0}), 2.0f);
  EXPECT_EQ(s.at({0, 1, 1}), 1.0f);
  EXPECT_EQ(s.at({1, 0, 0}), 6.0f);
}

TEST(IndexTest, EmbeddingLookupMatchesIndexSelectBitwise) {
  // The index-tensor gather shares IndexSelect's body: the same rows, and
  // the same ascending scatter-add of repeated indices into the table.
  const std::vector<int64_t> rows = {3, 0, 3, 5, 3, 1};
  Tensor table_a = Tensor::Randn({6, 5}).set_requires_grad(true);
  Tensor table_b = table_a.Detach().set_requires_grad(true);
  Tensor g = Tensor::Randn({2, 3, 5});
  Tensor via_select = Reshape(IndexSelect(table_a, 0, rows), {2, 3, 5});
  Tensor via_lookup = EmbeddingLookup(
      table_b, Tensor::FromVector({3, 0, 3, 5, 3, 1}, {2, 3}));
  ASSERT_EQ(via_lookup.shape(), (Shape{2, 3, 5}));
  EXPECT_EQ(std::memcmp(via_select.data(), via_lookup.data(),
                        via_lookup.numel() * sizeof(float)),
            0);
  Sum(Mul(via_select, g)).Backward();
  Sum(Mul(via_lookup, g)).Backward();
  EXPECT_EQ(std::memcmp(table_a.grad().data(), table_b.grad().data(),
                        table_a.numel() * sizeof(float)),
            0);
}

// -- conv / pool -----------------------------------------------------------------

TEST(ConvTest, IdentityKernel) {
  // Kernel [0, 1, 0] with zero padding reproduces the input.
  Tensor x = Tensor::FromVector({1, 2, 3, 4}, {1, 1, 4});
  Tensor w = Tensor::FromVector({0, 1, 0}, {1, 1, 3});
  Tensor y = Conv1d(x, w, Tensor(), 1);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 4}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(y.at({0, 0, i}), x.at({0, 0, i}), 1e-6);
}

TEST(ConvTest, MovingSumKernel) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4}, {1, 1, 4});
  Tensor w = Tensor::Ones({1, 1, 2});
  Tensor y = Conv1d(x, w, Tensor(), 0);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3}));
  EXPECT_EQ(y.at({0, 0, 0}), 3.0f);
  EXPECT_EQ(y.at({0, 0, 2}), 7.0f);
}

TEST(ConvTest, MultiChannel) {
  // 2-in 1-out kernel of width 1 summing channels.
  Tensor x = Tensor::FromVector({1, 2, 3, 10, 20, 30}, {1, 2, 3});
  Tensor w = Tensor::Ones({1, 2, 1});
  Tensor y = Conv1d(x, w, Tensor(), 0);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3}));
  EXPECT_EQ(y.at({0, 0, 0}), 11.0f);
  EXPECT_EQ(y.at({0, 0, 2}), 33.0f);
}

TEST(ConvTest, CircularPadding) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4}, {1, 1, 4});
  Tensor w = Tensor::FromVector({1, 0, 0}, {1, 1, 3});  // picks left neighbour
  Tensor y = Conv1d(x, w, Tensor(), 1, PadMode::kCircular);
  EXPECT_EQ(y.at({0, 0, 0}), 4.0f);  // wraps around
  EXPECT_EQ(y.at({0, 0, 1}), 1.0f);
}

TEST(ConvTest, BiasBroadcast) {
  Tensor x = Tensor::Zeros({1, 1, 3});
  Tensor w = Tensor::Ones({2, 1, 1});
  Tensor b = Tensor::FromVector({5, -5}, {2});
  Tensor y = Conv1d(x, w, b, 0);
  EXPECT_EQ(y.at({0, 0, 1}), 5.0f);
  EXPECT_EQ(y.at({0, 1, 2}), -5.0f);
}

TEST(PoolTest, MovingAverageReplicatesEdges) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {1, 6});
  Tensor y = MovingAverage(x, 1, 3);
  EXPECT_EQ(y.shape(), (Shape{1, 6}));
  const float third = 1.0f / 3.0f;
  EXPECT_EQ(y.at({0, 0}), (1.0f + 1.0f + 2.0f) * third);
  EXPECT_EQ(y.at({0, 1}), (1.0f + 2.0f + 3.0f) * third);
  EXPECT_EQ(y.at({0, 5}), (5.0f + 6.0f + 6.0f) * third);
}

TEST(PoolTest, MovingAverageKernelOneIsIdentity) {
  Tensor x = Tensor::FromVector({1, -2, 3, 0.5f}, {2, 2});
  Tensor y = MovingAverage(x, 0, 1);
  EXPECT_EQ(0, std::memcmp(y.data(), x.data(), sizeof(float) * 4));
}

TEST(PoolTest, MaxPoolValues) {
  Tensor x = Tensor::FromVector({1, 5, 2, 7, 3, 0}, {1, 6});
  Tensor y = MaxPool1d(x, 2, 2);
  EXPECT_EQ(y.shape(), (Shape{1, 3}));
  EXPECT_EQ(y.at({0, 0}), 5.0f);
  EXPECT_EQ(y.at({0, 1}), 7.0f);
  EXPECT_EQ(y.at({0, 2}), 3.0f);
}

TEST(PoolTest, MaxPoolOverlappingWindows) {
  Tensor x = Tensor::FromVector({1, 3, 2, 4}, {4});
  Tensor y = MaxPool1d(x, 3, 1);
  EXPECT_EQ(y.shape(), (Shape{2}));
  EXPECT_EQ(y.at({0}), 3.0f);
  EXPECT_EQ(y.at({1}), 4.0f);
}

TEST(ConvTest, DilatedTapsSkipPositions) {
  // Kernel [1, 1] with dilation 2 sums positions t and t+2.
  Tensor x = Tensor::FromVector({1, 2, 3, 4, 5}, {1, 1, 5});
  Tensor w = Tensor::Ones({1, 1, 2});
  Tensor y = Conv1d(x, w, Tensor(), 0, PadMode::kZeros, /*dilation=*/2);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3}));
  EXPECT_EQ(y.at({0, 0, 0}), 1.0f + 3.0f);
  EXPECT_EQ(y.at({0, 0, 2}), 3.0f + 5.0f);
}

TEST(ConvTest, StrideStepsWindows) {
  // Pre-fix Conv1d had no stride parameter at all: out_len must follow
  // (padded_len - span) / stride + 1 and windows must start stride apart.
  Tensor x = Tensor::FromVector({1, 2, 3, 4, 5, 6, 7}, {1, 1, 7});
  Tensor w = Tensor::Ones({1, 1, 2});
  Tensor y = Conv1d(x, w, Tensor(), 0, PadMode::kZeros, /*dilation=*/1,
                    /*stride=*/2);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3}));
  EXPECT_EQ(y.at({0, 0, 0}), 1.0f + 2.0f);
  EXPECT_EQ(y.at({0, 0, 1}), 3.0f + 4.0f);
  EXPECT_EQ(y.at({0, 0, 2}), 5.0f + 6.0f);
}

TEST(ConvTest, StrideComposesWithPaddingAndDilation) {
  // span = (2-1)*2 + 1 = 3; padded_len = 6 + 2 = 8; out = (8-3)/3 + 1 = 2.
  Tensor x = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {1, 1, 6});
  Tensor w = Tensor::Ones({1, 1, 2});
  Tensor y = Conv1d(x, w, Tensor(), 1, PadMode::kZeros, /*dilation=*/2,
                    /*stride=*/3);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2}));
  EXPECT_EQ(y.at({0, 0, 0}), 0.0f + 2.0f);  // taps at padded 0 and 2
  EXPECT_EQ(y.at({0, 0, 1}), 3.0f + 5.0f);  // taps at padded 3 and 5
}

TEST(ConvTest, StrideOneBitwiseMatchesDefault) {
  Rng rng(97);
  Tensor x = Tensor::Randn({2, 3, 16}, &rng);
  Tensor w = Tensor::Randn({4, 3, 3}, &rng);
  Tensor b = Tensor::Randn({4}, &rng);
  Tensor def = Conv1d(x, w, b, 1, PadMode::kReplicate, /*dilation=*/2);
  Tensor strided = Conv1d(x, w, b, 1, PadMode::kReplicate, /*dilation=*/2,
                          /*stride=*/1);
  ASSERT_EQ(def.shape(), strided.shape());
  EXPECT_EQ(0, std::memcmp(def.data(), strided.data(),
                           sizeof(float) * def.numel()));
}

TEST(ConvTest, CircularPadWiderThanInputFoldsTiles) {
  // padding > length used to CHECK-abort; the periodic extension makes any
  // width legal: with kernel = ones(7) over a length-3 circular series,
  // every output sums 7 consecutive periodic values.
  Tensor x = Tensor::FromVector({1, 2, 3}, {1, 1, 3});
  Tensor w = Tensor::Ones({1, 1, 7});
  Tensor y = Conv1d(x, w, Tensor(), 5, PadMode::kCircular);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 7}));
  // Padded sequence: [2 3 1 2 3 | 1 2 3 | 1 2 3 1 2]; a 7-wide window sums
  // two full periods (12) plus its first value, so sums cycle 14, 15, 13.
  EXPECT_EQ(y.at({0, 0, 0}), 14.0f);
  EXPECT_EQ(y.at({0, 0, 1}), 15.0f);
  EXPECT_EQ(y.at({0, 0, 2}), 13.0f);
  EXPECT_EQ(y.at({0, 0, 3}), 14.0f);
}

// -- Conv2d ----------------------------------------------------------------------

// Naive 2-D convolution oracle over [B, Cin, H, W].
Tensor NaiveConv2d(const Tensor& x, const Tensor& w, const Tensor& b,
                   int64_t ph, int64_t pw) {
  const int64_t batch = x.size(0), cin = x.size(1), h = x.size(2),
                width = x.size(3);
  const int64_t cout = w.size(0), kh = w.size(2), kw = w.size(3);
  const int64_t oh = h + 2 * ph - kh + 1, ow = width + 2 * pw - kw + 1;
  std::vector<float> out(batch * cout * oh * ow, 0.0f);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t co = 0; co < cout; ++co) {
      for (int64_t i = 0; i < oh; ++i) {
        for (int64_t j = 0; j < ow; ++j) {
          double acc = b.defined() ? b.at({co}) : 0.0;
          for (int64_t ci = 0; ci < cin; ++ci) {
            for (int64_t u = 0; u < kh; ++u) {
              for (int64_t v = 0; v < kw; ++v) {
                const int64_t r = i + u - ph, c = j + v - pw;
                if (r < 0 || r >= h || c < 0 || c >= width) continue;
                acc += static_cast<double>(x.at({n, ci, r, c})) *
                       w.at({co, ci, u, v});
              }
            }
          }
          out[((n * cout + co) * oh + i) * ow + j] = static_cast<float>(acc);
        }
      }
    }
  }
  return Tensor::FromVector(std::move(out), {batch, cout, oh, ow});
}

TEST(Conv2dTest, MatchesNaiveOracle) {
  Rng rng(123);
  Tensor x = Tensor::Randn({2, 3, 5, 4}, &rng);
  Tensor w = Tensor::Randn({4, 3, 3, 3}, &rng);
  Tensor b = Tensor::Randn({4}, &rng);
  for (int64_t pad : {0, 1}) {
    Tensor got = Conv2d(x, w, b, pad, pad);
    Tensor want = NaiveConv2d(x, w, b, pad, pad);
    ASSERT_EQ(got.shape(), want.shape()) << "pad " << pad;
    for (int64_t i = 0; i < got.numel(); ++i) {
      EXPECT_NEAR(got.data()[i], want.data()[i], 1e-4) << "pad " << pad;
    }
  }
}

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {1, 1, 2, 3});
  std::vector<float> kernel(9, 0.0f);
  kernel[4] = 1.0f;  // centre of a 3x3 kernel
  Tensor w = Tensor::FromVector(std::move(kernel), {1, 1, 3, 3});
  Tensor y = Conv2d(x, w, Tensor(), 1, 1);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_EQ(0,
            std::memcmp(y.data(), x.data(), sizeof(float) * x.numel()));
}

TEST(Conv2dTest, AsymmetricPaddingShapes) {
  Tensor x = Tensor::Zeros({1, 2, 4, 6});
  Tensor w = Tensor::Zeros({3, 2, 3, 1});
  Tensor y = Conv2d(x, w, Tensor(), 1, 0);
  EXPECT_EQ(y.shape(), (Shape{1, 3, 4, 6}));
}

// -- Strided views against the code they replaced ------------------------------
//
// Slice, Permute, Tile, BroadcastTo, ReplicatePad and conv im2col are all
// AsStrided views. The deleted hand-written Slice / Permute loops and the
// deleted compositions (Concat-chain Tile, Mul-by-ones BroadcastTo,
// Slice + Tile ReplicatePad, per-tap im2col) live on here as oracles:
// outputs must be memcmp-equal and input gradients ==.

// Input offset of every output element, in output order, as the deleted
// Slice loop walked them (it also took a step).
std::vector<int64_t> DeletedSliceOffsets(const Shape& in, int64_t dim,
                                         int64_t start, int64_t end,
                                         int64_t step) {
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= in[i];
  for (size_t i = dim + 1; i < in.size(); ++i) inner *= in[i];
  const int64_t count = (end - start + step - 1) / step;
  std::vector<int64_t> offsets;
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t c = 0; c < count; ++c) {
      for (int64_t i = 0; i < inner; ++i) {
        offsets.push_back((o * in[dim] + start + c * step) * inner + i);
      }
    }
  }
  return offsets;
}

// ... and as the deleted Permute odometer walked them.
std::vector<int64_t> DeletedPermuteOffsets(const Shape& in,
                                           const std::vector<int64_t>& perm) {
  const int64_t rank = static_cast<int64_t>(in.size());
  const std::vector<int64_t> in_strides = ContiguousStrides(in);
  Shape out_shape(rank);
  std::vector<int64_t> gather(rank);
  for (int64_t i = 0; i < rank; ++i) {
    out_shape[i] = in[perm[i]];
    gather[i] = in_strides[perm[i]];
  }
  std::vector<int64_t> index(rank, 0);
  std::vector<int64_t> offsets;
  int64_t in_off = 0;
  for (int64_t i = 0; i < NumElements(in); ++i) {
    offsets.push_back(in_off);
    for (int64_t d = rank - 1; d >= 0; --d) {
      ++index[d];
      in_off += gather[d];
      if (index[d] < out_shape[d]) break;
      index[d] = 0;
      in_off -= gather[d] * out_shape[d];
    }
  }
  return offsets;
}

Tensor GradLeaf(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Randn(shape, &rng);
  t.set_requires_grad(true);
  return t;
}

void ExpectSameFloats(const Tensor& got, const std::vector<float>& want,
                      const std::string& what) {
  ASSERT_EQ(got.numel(), static_cast<int64_t>(want.size())) << what;
  int64_t mismatches = 0;
  for (int64_t i = 0; i < got.numel(); ++i) {
    mismatches += !(got.data()[i] == want[i]);
  }
  EXPECT_EQ(mismatches, 0) << what;
}

// The view's forward is memcmp-equal to the gather through `offsets`, and
// its input gradient == the deleted loops' scatter-add through them.
void ExpectViewMatchesOffsets(const std::function<Tensor(const Tensor&)>& view,
                              const Shape& in_shape,
                              const std::vector<int64_t>& offsets) {
  Tensor x = GradLeaf(in_shape, 11);
  Tensor y = view(x);
  ASSERT_EQ(y.numel(), static_cast<int64_t>(offsets.size()));
  Rng rng(12);
  Tensor g = Tensor::Randn(y.shape(), &rng);
  std::vector<float> want_y(offsets.size());
  std::vector<float> want_dx(x.numel(), 0.0f);
  for (size_t i = 0; i < offsets.size(); ++i) {
    want_y[i] = x.data()[offsets[i]];
    want_dx[offsets[i]] += g.data()[i];
  }
  EXPECT_EQ(0, std::memcmp(y.data(), want_y.data(),
                           sizeof(float) * want_y.size()));
  Sum(Mul(y, g)).Backward();
  ExpectSameFloats(x.grad(), want_dx, "input gradient");
}

// Runs `f` and `oracle` on identical leaves: outputs memcmp-equal, every
// input gradient ==.
void ExpectMatchesOracle(const std::function<Tensor(const Inputs&)>& f,
                         const std::function<Tensor(const Inputs&)>& oracle,
                         const std::vector<Shape>& shapes,
                         const std::string& what, bool check_grads = true) {
  auto run = [&](const std::function<Tensor(const Inputs&)>& fn) {
    Inputs in;
    for (size_t i = 0; i < shapes.size(); ++i) {
      in.push_back(GradLeaf(shapes[i], 40 + i));
    }
    Tensor y = fn(in);
    Rng rng(50);
    Sum(Mul(y, Tensor::Randn(y.shape(), &rng))).Backward();
    std::vector<Tensor> results = {y};
    for (const Tensor& t : in) results.push_back(t.grad());
    return results;
  };
  const std::vector<Tensor> got = run(f);
  const std::vector<Tensor> want = run(oracle);
  ASSERT_EQ(got[0].shape(), want[0].shape()) << what;
  EXPECT_EQ(0, std::memcmp(got[0].data(), want[0].data(),
                           sizeof(float) * got[0].numel()))
      << what << ": output";
  if (!check_grads) return;
  for (size_t i = 1; i < got.size(); ++i) {
    ExpectSameFloats(got[i],
                     std::vector<float>(want[i].data(),
                                        want[i].data() + want[i].numel()),
                     what + ": gradient of input " + std::to_string(i - 1));
  }
}

// The deleted Tile: one Concat per repeated dim.
Tensor ConcatTile(const Tensor& a, const std::vector<int64_t>& repeats) {
  Tensor out = a;
  for (int64_t d = 0; d < a.dim(); ++d) {
    if (repeats[d] > 1) out = Concat(std::vector<Tensor>(repeats[d], out), d);
  }
  return out;
}

// The deleted ReplicatePad: edge slices tiled by Concat.
Tensor ComposedReplicatePad(const Tensor& a, int64_t dim, int64_t before,
                            int64_t after) {
  const int64_t size = a.size(dim);
  std::vector<int64_t> reps(a.dim(), 1);
  std::vector<Tensor> parts;
  if (before > 0) {
    reps[dim] = before;
    parts.push_back(ConcatTile(Slice(a, dim, 0, 1), reps));
  }
  parts.push_back(a);
  if (after > 0) {
    reps[dim] = after;
    parts.push_back(ConcatTile(Slice(a, dim, size - 1, size), reps));
  }
  return Concat(parts, dim);
}

// The deleted Conv1d padding, including the Concat-tiled wide circular pad.
Tensor ComposedPad1d(const Tensor& input, int64_t padding, PadMode mode) {
  if (padding == 0) return input;
  if (mode == PadMode::kZeros) return Pad(input, 2, padding, padding);
  if (mode == PadMode::kReplicate) {
    return ComposedReplicatePad(input, 2, padding, padding);
  }
  const int64_t length = input.size(2);
  if (padding <= length) {
    return Concat({Slice(input, 2, length - padding, length), input,
                   Slice(input, 2, 0, padding)},
                  2);
  }
  const int64_t rem = padding % length;
  Tensor tiles = ConcatTile(input, {1, 1, padding / length});
  std::vector<Tensor> parts;
  if (rem > 0) parts.push_back(Slice(input, 2, length - rem, length));
  parts.insert(parts.end(), {tiles, input, tiles});
  if (rem > 0) parts.push_back(Slice(input, 2, 0, rem));
  return Concat(parts, 2);
}

// The deleted per-tap im2col Conv1d; a strided tap picks its positions with
// IndexSelect now that Slice has no step.
Tensor ComposedConv1d(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, int64_t padding, PadMode mode,
                      int64_t dilation, int64_t stride) {
  const Tensor padded = ComposedPad1d(input, padding, mode);
  const int64_t batch = padded.size(0), length = padded.size(2);
  const int64_t cin = input.size(1), cout = weight.size(0),
                kernel = weight.size(2);
  const int64_t out_len = (length - (kernel - 1) * dilation - 1) / stride + 1;
  std::vector<Tensor> taps;
  for (int64_t k = 0; k < kernel; ++k) {
    if (stride == 1) {
      taps.push_back(Slice(padded, 2, k * dilation, k * dilation + out_len));
    } else {
      std::vector<int64_t> at;
      for (int64_t t = 0; t < out_len; ++t) {
        at.push_back(k * dilation + t * stride);
      }
      taps.push_back(IndexSelect(padded, 2, at));
    }
  }
  Tensor columns = Reshape(Permute(StackTensors(taps, 2), {0, 3, 1, 2}),
                           {batch, out_len, cin * kernel});
  Tensor wmat = Transpose(Reshape(weight, {cout, cin * kernel}), 0, 1);
  Tensor out = MatMul(columns, wmat);
  if (bias.defined()) out = Add(out, Reshape(bias, {1, 1, cout}));
  return Permute(out, {0, 2, 1});
}

// The deleted per-tap im2col Conv2d.
Tensor ComposedConv2d(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, int64_t ph, int64_t pw) {
  Tensor padded = input;
  if (ph > 0) padded = Pad(padded, 2, ph, ph);
  if (pw > 0) padded = Pad(padded, 3, pw, pw);
  const int64_t batch = padded.size(0), cin = input.size(1);
  const int64_t cout = weight.size(0), kh = weight.size(2), kw = weight.size(3);
  const int64_t out_h = padded.size(2) - kh + 1;
  const int64_t out_w = padded.size(3) - kw + 1;
  std::vector<Tensor> taps;
  for (int64_t i = 0; i < kh; ++i) {
    for (int64_t j = 0; j < kw; ++j) {
      taps.push_back(Slice(Slice(padded, 2, i, i + out_h), 3, j, j + out_w));
    }
  }
  Tensor columns = Reshape(Permute(StackTensors(taps, 2), {0, 3, 4, 1, 2}),
                           {batch, out_h * out_w, cin * kh * kw});
  Tensor wmat = Transpose(Reshape(weight, {cout, cin * kh * kw}), 0, 1);
  Tensor out = MatMul(columns, wmat);
  if (bias.defined()) out = Add(out, Reshape(bias, {1, 1, cout}));
  return Permute(Reshape(out, {batch, out_h, out_w, cout}), {0, 3, 1, 2});
}

TEST(StridedViewOracleTest, SliceMatchesDeletedLoop) {
  const Shape shape = {3, 5, 4};
  for (int64_t dim = 0; dim < 3; ++dim) {
    for (auto [start, end] : {std::pair<int64_t, int64_t>{0, 1}, {1, 3},
                              {0, 3}, {2, 3}}) {
      ExpectViewMatchesOffsets(
          [&](const Tensor& x) { return Slice(x, dim, start, end); }, shape,
          DeletedSliceOffsets(shape, dim, start, end, 1));
    }
  }
  // Negative indices count from the end: [-3, -1) of dim 1 is [2, 4).
  ExpectViewMatchesOffsets([](const Tensor& x) { return Slice(x, -2, -3, -1); },
                           shape, DeletedSliceOffsets(shape, 1, 2, 4, 1));
  // A stepped slice is an AsStrided view: rows 1, 3 of dim 1.
  ExpectViewMatchesOffsets(
      [](const Tensor& x) {
        return AsStrided(x, {3, 2, 4}, {20, 8, 1}, 4, "Slice");
      },
      shape, DeletedSliceOffsets(shape, 1, 1, 5, 2));
}

TEST(StridedViewOracleTest, PermuteMatchesDeletedLoop) {
  const Shape shape = {2, 3, 4, 5};
  for (const std::vector<int64_t>& perm :
       {std::vector<int64_t>{0, 1, 2, 3}, {3, 2, 1, 0}, {0, 3, 1, 2},
        {1, 0, 3, 2}, {2, 0, 3, 1}}) {
    ExpectViewMatchesOffsets(
        [&](const Tensor& x) { return Permute(x, perm); }, shape,
        DeletedPermuteOffsets(shape, perm));
  }
  ExpectViewMatchesOffsets(
      [](const Tensor& x) { return Transpose(x, -1, 1); }, shape,
      DeletedPermuteOffsets(shape, {0, 3, 2, 1}));
}

TEST(StridedViewOracleTest, TileBroadcastAndReplicatePadMatchCompositions) {
  for (const std::vector<int64_t>& reps :
       {std::vector<int64_t>{3, 1, 1}, {1, 4, 1}, {1, 1, 2}}) {
    ExpectMatchesOracle(
        [&](const Inputs& in) { return Tile(in[0], reps); },
        [&](const Inputs& in) { return ConcatTile(in[0], reps); },
        {{2, 3, 4}}, "Tile");
  }
  // Tiling several dims at once: the Concat chain summed the gradient one
  // dim at a time, the view in one flat pass, so only values are pinned.
  ExpectMatchesOracle(
      [](const Inputs& in) { return Tile(in[0], {2, 3, 2}); },
      [](const Inputs& in) { return ConcatTile(in[0], {2, 3, 2}); },
      {{2, 3, 4}}, "multi-dim Tile", /*check_grads=*/false);
  for (const Shape& from : {Shape{1, 4}, Shape{3, 1}, Shape{4}, Shape{1, 1}}) {
    ExpectMatchesOracle(
        [](const Inputs& in) { return BroadcastTo(in[0], {2, 3, 4}); },
        [](const Inputs& in) { return Mul(in[0], Tensor::Ones({2, 3, 4})); },
        {from}, "BroadcastTo");
  }
  for (int64_t dim : {0, 1, -1}) {
    for (auto [before, after] : {std::pair<int64_t, int64_t>{1, 1}, {3, 0},
                                 {0, 2}, {4, 3}}) {
      const int64_t d = dim < 0 ? dim + 3 : dim;
      ExpectMatchesOracle(
          [&](const Inputs& in) {
            return ReplicatePad(in[0], dim, before, after);
          },
          [&](const Inputs& in) {
            return ComposedReplicatePad(in[0], d, before, after);
          },
          {{2, 3, 5}}, "ReplicatePad dim " + std::to_string(dim));
    }
  }
}

TEST(StridedViewOracleTest, Conv1dMatchesComposedIm2col) {
  for (PadMode mode : {PadMode::kZeros, PadMode::kReplicate,
                       PadMode::kCircular}) {
    for (int64_t padding : {0, 1, 2}) {
      for (int64_t dilation : {1, 2, 3}) {
        for (int64_t stride : {1, 2, 3}) {
          const std::string what =
              "Conv1d mode " + std::to_string(static_cast<int>(mode)) +
              " padding " + std::to_string(padding) + " dilation " +
              std::to_string(dilation) + " stride " + std::to_string(stride);
          ExpectMatchesOracle(
              [&](const Inputs& in) {
                return Conv1d(in[0], in[1], in[2], padding, mode, dilation,
                              stride);
              },
              [&](const Inputs& in) {
                return ComposedConv1d(in[0], in[1], in[2], padding, mode,
                                      dilation, stride);
              },
              {{2, 3, 11}, {4, 3, 3}, {4}}, what);
        }
      }
    }
  }
}

TEST(StridedViewOracleTest, Conv1dWideCircularPadMatchesComposedValues) {
  // Padding wider than the input: one Slice of a stride-0 tiling replaced a
  // Concat of remainder slices and Concat-chain tiles. The gradient sums the
  // same periodic copies in a different association, so only values are
  // pinned here; GradCheckTest.CircularPadWiderThanInput checks the
  // gradient.
  for (auto [length, padding] : {std::pair<int64_t, int64_t>{3, 4}, {3, 5},
                                 {2, 6}, {4, 5}}) {
    ExpectMatchesOracle(
        [&](const Inputs& in) {
          return Conv1d(in[0], in[1], in[2], padding, PadMode::kCircular);
        },
        [&](const Inputs& in) {
          return ComposedConv1d(in[0], in[1], in[2], padding,
                                PadMode::kCircular, 1, 1);
        },
        {{2, 3, length}, {4, 3, 3}, {4}},
        "wide circular length " + std::to_string(length) + " padding " +
            std::to_string(padding),
        /*check_grads=*/false);
  }
}

TEST(StridedViewOracleTest, Conv2dMatchesComposedIm2col) {
  for (auto [ph, pw] : {std::pair<int64_t, int64_t>{0, 0}, {1, 0}, {0, 1},
                        {1, 1}, {2, 1}}) {
    for (auto [kh, kw] : {std::pair<int64_t, int64_t>{3, 3}, {2, 3}, {1, 1}}) {
      ExpectMatchesOracle(
          [&](const Inputs& in) { return Conv2d(in[0], in[1], in[2], ph, pw); },
          [&](const Inputs& in) {
            return ComposedConv2d(in[0], in[1], in[2], ph, pw);
          },
          {{2, 3, 5, 6}, {4, 3, kh, kw}, {4}},
          "Conv2d pad " + std::to_string(ph) + "x" + std::to_string(pw) +
              " kernel " + std::to_string(kh) + "x" + std::to_string(kw));
    }
  }
}

// -- Strided kernels against flat-order naive loops ----------------------------
//
// Gather, ScatterAdd and the broadcast loops walk coalesced row blocks; the
// oracles below walk every flat index in order with a full odometer, so the
// walk's bookkeeping (blocks, partial rows at chunk edges, carries) must
// reproduce them bit for bit at 1 and 8 threads.

// The element of a strided view that flat index i of `shape` reads.
int64_t FlatToOffset(int64_t i, const Shape& shape,
                     const std::vector<int64_t>& strides, int64_t offset) {
  for (int64_t d = static_cast<int64_t>(shape.size()) - 1; d >= 0; --d) {
    offset += (i % shape[d]) * strides[d];
    i /= shape[d];
  }
  return offset;
}

// Values of mixed sign and magnitude, so any change in summation order
// shows in the bits.
std::vector<float> OracleValues(int64_t n, std::mt19937& gen) {
  std::uniform_real_distribution<float> mantissa(-1.0f, 1.0f);
  std::uniform_int_distribution<int> exponent(-6, 6);
  std::vector<float> v(n);
  for (float& x : v) x = std::ldexp(mantissa(gen), exponent(gen));
  return v;
}

struct StridedCase {
  Shape shape;
  std::vector<int64_t> strides;
  int64_t offset;
};

// A random strided view of rank 1-6: size-0 and size-1 dims, stride 0,
// unit and wider strides, and overlapping reads.
StridedCase RandomStridedCase(std::mt19937& gen) {
  std::uniform_int_distribution<int> rank_dist(1, 6);
  std::uniform_int_distribution<int> pick(0, 99);
  StridedCase c;
  const int rank = rank_dist(gen);
  int64_t budget = 40000;
  for (int d = 0; d < rank; ++d) {
    const int r = pick(gen);
    int64_t size = r < 5 ? 0 : r < 25 ? 1 : r < 80 ? 2 + r % 5 : 9 + r % 31;
    size = std::min(size, std::max<int64_t>(1, budget));
    budget /= std::max<int64_t>(size, 1);
    c.shape.push_back(size);
    const int s = pick(gen);
    c.strides.push_back(s < 15 ? 0 : s < 40 ? 1 : s % 23);
  }
  c.offset = pick(gen) % 4;
  // Half the time, make it a contiguous-backed view (permuted, sliced).
  if (pick(gen) < 50) {
    std::vector<int64_t> contiguous = ContiguousStrides(c.shape);
    for (int d = 0; d < rank; ++d) {
      if (c.strides[d] != 0) c.strides[d] = contiguous[d] + (pick(gen) < 20);
    }
  }
  return c;
}

int64_t SourceSize(const StridedCase& c) {
  int64_t last = c.offset;
  for (size_t d = 0; d < c.shape.size(); ++d) {
    if (c.shape[d] == 0) return c.offset + 1;
    last += (c.shape[d] - 1) * c.strides[d];
  }
  return last + 1;
}

void ExpectGatherAndScatterMatchOracle(const StridedCase& c,
                                       std::mt19937& gen) {
  SCOPED_TRACE("shape " + ShapeToString(c.shape) + " strides " +
               ShapeToString(c.strides) + " offset " +
               std::to_string(c.offset));
  const int64_t n = NumElements(c.shape);
  const std::vector<float> src = OracleValues(SourceSize(c), gen);
  const std::vector<float> grad = OracleValues(n, gen);
  std::vector<float> want_gather(n);
  std::vector<float> want_scatter = OracleValues(src.size(), gen);
  const std::vector<float> scatter_init = want_scatter;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t at = FlatToOffset(i, c.shape, c.strides, c.offset);
    want_gather[i] = src[at];
    want_scatter[at] += grad[i];
  }
  for (const int threads : {1, 8}) {
    ThreadPool::Global().SetNumThreads(threads);
    std::vector<float> got_gather(n, -7.0f);
    kernels::Gather(src.data(), c.shape, c.strides, c.offset,
                    got_gather.data());
    // An empty vector's data() may be null, which memcmp must not see.
    if (n > 0) {
      EXPECT_EQ(0, std::memcmp(got_gather.data(), want_gather.data(),
                               sizeof(float) * n))
          << "Gather at " << threads << " threads";
    }
    std::vector<float> got_scatter = scatter_init;
    kernels::ScatterAdd(grad.data(), c.shape, c.strides, c.offset,
                        got_scatter.data());
    EXPECT_EQ(0, std::memcmp(got_scatter.data(), want_scatter.data(),
                             sizeof(float) * want_scatter.size()))
        << "ScatterAdd at " << threads << " threads";
  }
}

TEST(StridedKernelOracleTest, GatherAndScatterAddMatchFlatLoops) {
  const int64_t ambient = ThreadPool::Global().num_threads();
  std::mt19937 gen(2024);
  for (int trial = 0; trial < 300; ++trial) {
    ExpectGatherAndScatterMatchOracle(RandomStridedCase(gen), gen);
  }
  // Conv im2col windows that overlap (kernel wider than the stride), with
  // dilation, over the channels-first padded input [B, C, L].
  for (auto [kernel, stride, dilation] :
       {std::array<int64_t, 3>{3, 1, 1}, {5, 2, 1}, {3, 1, 2}, {4, 3, 2}}) {
    const int64_t batch = 5, cin = 7, length = 300;
    const int64_t out_len = (length - (kernel - 1) * dilation - 1) / stride + 1;
    ExpectGatherAndScatterMatchOracle(
        {{batch, out_len, cin, kernel},
         {cin * length, stride, length, dilation},
         0},
        gen);
  }
  ThreadPool::Global().SetNumThreads(ambient);
}

// A random broadcast pair: the output shape, then each operand with some
// dims set to 1 and some leading dims dropped; often both are broadcast.
std::array<Shape, 3> RandomBroadcastShapes(std::mt19937& gen) {
  std::uniform_int_distribution<int> rank_dist(1, 6);
  std::uniform_int_distribution<int> pick(0, 99);
  Shape out;
  const int rank = rank_dist(gen);
  int64_t budget = 40000;
  for (int d = 0; d < rank; ++d) {
    const int r = pick(gen);
    int64_t size = r < 4 ? 0 : r < 20 ? 1 : r < 80 ? 2 + r % 6 : 9 + r % 40;
    size = std::min(size, std::max<int64_t>(1, budget));
    budget /= std::max<int64_t>(size, 1);
    out.push_back(size);
  }
  auto operand = [&] {
    Shape s = out;
    for (int64_t& dim : s) {
      if (pick(gen) < 35) dim = 1;
    }
    const int drop = pick(gen) < 30 ? pick(gen) % (rank + 1) : 0;
    s.erase(s.begin(), s.begin() + drop);
    return s;
  };
  Shape a = operand();
  Shape b = operand();
  return {kernels::BroadcastShape(a, b), a, b};
}

Tensor OracleLeaf(const Shape& shape, std::mt19937& gen) {
  Tensor t = Tensor::FromVector(OracleValues(NumElements(shape), gen), shape);
  t.set_requires_grad(true);
  return t;
}

TEST(StridedKernelOracleTest, BroadcastForwardAndBackwardMatchFlatLoops) {
  struct Op {
    const char* name;
    Tensor (*op)(const Tensor&, const Tensor&);
    float (*f)(float, float);
    float (*dfda)(float, float);
    float (*dfdb)(float, float);
  };
  const Op ops[] = {
      {"Add", Add, [](float x, float y) { return x + y; },
       [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; }},
      {"Sub", Sub, [](float x, float y) { return x - y; },
       [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; }},
      {"Mul", Mul, [](float x, float y) { return x * y; },
       [](float, float y) { return y; }, [](float x, float) { return x; }},
      {"Div", Div, [](float x, float y) { return x / y; },
       [](float, float y) { return 1.0f / y; },
       [](float x, float y) { return -x / (y * y); }},
  };
  const int64_t ambient = ThreadPool::Global().num_threads();
  std::mt19937 gen(77);
  for (int trial = 0; trial < 120; ++trial) {
    const auto [out_shape, a_shape, b_shape] = RandomBroadcastShapes(gen);
    const std::vector<int64_t> sa = kernels::BroadcastStrides(a_shape, out_shape);
    const std::vector<int64_t> sb = kernels::BroadcastStrides(b_shape, out_shape);
    const int64_t n = NumElements(out_shape);
    for (const Op& op : ops) {
      SCOPED_TRACE(std::string(op.name) + " " + ShapeToString(a_shape) +
                   " with " + ShapeToString(b_shape));
      std::mt19937 values(trial);
      Tensor a = OracleLeaf(a_shape, values);
      Tensor b = OracleLeaf(b_shape, values);
      const std::vector<float> g = OracleValues(n, values);
      // Flat-order oracle: the scalar functor per element; each operand's
      // gradient adds df * g from +0 in ascending flat order.
      std::vector<float> want_y(n);
      std::vector<float> want_da(a.numel(), 0.0f), want_db(b.numel(), 0.0f);
      for (int64_t i = 0; i < n; ++i) {
        const int64_t ia = FlatToOffset(i, out_shape, sa, 0);
        const int64_t ib = FlatToOffset(i, out_shape, sb, 0);
        const float x = a.data()[ia], y = b.data()[ib];
        want_y[i] = op.f(x, y);
        want_da[ia] += op.dfda(x, y) * g[i];
        want_db[ib] += op.dfdb(x, y) * g[i];
      }
      for (const int threads : {1, 8}) {
        ThreadPool::Global().SetNumThreads(threads);
        a.ZeroGrad();
        b.ZeroGrad();
        Tensor out = op.op(a, b);
        ASSERT_EQ(out.shape(), out_shape);
        Sum(Mul(out, Tensor::FromVector(g, out_shape))).Backward();
        // An empty tensor's data() may be null, which memcmp must not see.
        if (n == 0) continue;
        EXPECT_EQ(0, std::memcmp(out.data(), want_y.data(), sizeof(float) * n))
            << "forward at " << threads << " threads";
        if (a.numel() > 0) {
          EXPECT_EQ(0, std::memcmp(a.grad().data(), want_da.data(),
                                   sizeof(float) * a.numel()))
              << "da at " << threads << " threads";
        }
        if (b.numel() > 0) {
          EXPECT_EQ(0, std::memcmp(b.grad().data(), want_db.data(),
                                   sizeof(float) * b.numel()))
              << "db at " << threads << " threads";
        }
      }
    }
  }
  ThreadPool::Global().SetNumThreads(ambient);
}

TEST(StridedKernelOracleTest, BroadcastSpanMatchesFlatLoop) {
  // The dispatched spans on broadcast rows (a held operand replicated into
  // the span's buffer) against the scalar functor.
  const int64_t ambient = ThreadPool::Global().num_threads();
  std::mt19937 gen(91);
  for (int trial = 0; trial < 200; ++trial) {
    const auto [out_shape, a_shape, b_shape] = RandomBroadcastShapes(gen);
    const std::vector<float> a = OracleValues(NumElements(a_shape), gen);
    const std::vector<float> b = OracleValues(NumElements(b_shape), gen);
    const std::vector<int64_t> sa = kernels::BroadcastStrides(a_shape, out_shape);
    const std::vector<int64_t> sb = kernels::BroadcastStrides(b_shape, out_shape);
    const int64_t n = NumElements(out_shape);
    std::vector<float> want(n);
    for (int64_t i = 0; i < n; ++i) {
      want[i] = a[FlatToOffset(i, out_shape, sa, 0)] /
                b[FlatToOffset(i, out_shape, sb, 0)];
    }
    for (const int threads : {1, 8}) {
      ThreadPool::Global().SetNumThreads(threads);
      std::vector<float> got(n, -7.0f);
      kernels::BroadcastBinarySpan(a.data(), a_shape, b.data(), b_shape,
                                   got.data(), out_shape, vec::DivN);
      if (n == 0) continue;  // An empty vector's null data() must not
                             // reach memcmp.
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), sizeof(float) * n))
          << ShapeToString(a_shape) << " / " << ShapeToString(b_shape)
          << " at " << threads << " threads";
    }
  }
  ThreadPool::Global().SetNumThreads(ambient);
}

// -- MovingAverage against naive loops ------------------------------------------

// The centred, edge-clamped moving average along `dim` as plain nested loops
// over [outer, length, inner]: the forward sums each window from +0 in
// ascending k, then scales by 1/K; the backward scatters each gradient
// element times 1/K into its clamped input rows in ascending (t, k) order.
std::pair<std::vector<float>, std::vector<float>> NaiveMovingAverage(
    const Tensor& x, const Tensor& g, int64_t dim, int64_t kernel) {
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= x.size(d);
  for (int64_t d = dim + 1; d < x.dim(); ++d) inner *= x.size(d);
  const int64_t length = x.size(dim), half = kernel / 2;
  const float inv_k = 1.0f / static_cast<float>(kernel);
  auto clamp = [&](int64_t u) {
    return std::min(std::max<int64_t>(u, 0), length - 1);
  };
  std::vector<float> y(x.numel()), dx(x.numel(), 0.0f);
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t t = 0; t < length; ++t) {
      for (int64_t i = 0; i < inner; ++i) {
        const int64_t at = (o * length + t) * inner + i;
        float acc = 0.0f;
        for (int64_t k = 0; k < kernel; ++k) {
          acc += x.data()[(o * length + clamp(t - half + k)) * inner + i];
        }
        y[at] = acc * inv_k;
        for (int64_t k = 0; k < kernel; ++k) {
          dx[(o * length + clamp(t - half + k)) * inner + i] +=
              g.data()[at] * inv_k;
        }
      }
    }
  }
  return {y, dx};
}

TEST(MovingAverageTest, MatchesNaiveLoopsAt1And8Threads) {
  struct Case {
    Shape shape;
    int64_t dim;
    int64_t kernel;
  };
  const std::vector<Case> cases = {
      {{2, 11, 5}, 1, 1},    // identity window
      {{2, 11, 5}, 1, 3},    // D not a multiple of 8
      {{2, 11, 5}, 1, 11},   // window clamped to L
      {{2, 11, 5}, 1, 13},   // window wider than L
      {{3, 1, 4}, 1, 5},     // L = 1: every tap clamps to row 0
      {{2, 2, 9}, 1, 3},     // both rows are edge rows
      {{2, 7, 19}, 1, 5},    // two vector blocks plus a 3-wide tail
      {{2, 48, 16}, 1, 13},  // the SIRN shape: row groups of four
      {{4, 9}, 1, 3},        // dim is the last dim
      {{3, 10}, -1, 7},      // negative dim
      {{2, 3, 10, 3}, 2, 5},  // a middle dim of rank 4
      {{17, 3}, 0, 9},       // the leading dim
  };
  const int64_t ambient = ThreadPool::Global().num_threads();
  for (const int threads : {1, 8}) {
    ThreadPool::Global().SetNumThreads(threads);
    for (const Case& c : cases) {
      SCOPED_TRACE(ShapeToString(c.shape) + " dim " + std::to_string(c.dim) +
                   " kernel " + std::to_string(c.kernel) + " at " +
                   std::to_string(threads) + " threads");
      Tensor x = GradLeaf(c.shape, 60);
      Tensor y = MovingAverage(x, c.dim, c.kernel);
      ASSERT_EQ(y.shape(), c.shape);
      Rng rng(61);
      Tensor g = Tensor::Randn(c.shape, &rng);
      Sum(Mul(y, g)).Backward();
      const int64_t dim = c.dim < 0 ? c.dim + x.dim() : c.dim;
      const auto [want_y, want_dx] = NaiveMovingAverage(x, g, dim, c.kernel);
      EXPECT_EQ(0, std::memcmp(y.data(), want_y.data(),
                               sizeof(float) * want_y.size()))
          << "forward";
      EXPECT_EQ(0, std::memcmp(x.grad().data(), want_dx.data(),
                               sizeof(float) * want_dx.size()))
          << "backward";
    }
  }
  ThreadPool::Global().SetNumThreads(ambient);
}

TEST(MovingAverageTest, ForwardMatchesReplicatePaddedWindows) {
  // The composition DecomposeSeries ran before: replicate-pad time, then
  // average each window of the padded row from +0 in ascending k.
  Tensor x = GradLeaf({3, 20, 6}, 62);
  for (int64_t kernel : {1, 5, 19}) {
    const int64_t half = kernel / 2;
    Tensor padded = ReplicatePad(x, 1, half, half);
    const float inv_k = 1.0f / static_cast<float>(kernel);
    std::vector<float> want(x.numel());
    for (int64_t b = 0; b < 3; ++b) {
      for (int64_t t = 0; t < 20; ++t) {
        for (int64_t d = 0; d < 6; ++d) {
          float acc = 0.0f;
          for (int64_t k = 0; k < kernel; ++k) {
            acc += padded.at({b, t + k, d});
          }
          want[(b * 20 + t) * 6 + d] = acc * inv_k;
        }
      }
    }
    Tensor y = MovingAverage(x, 1, kernel);
    EXPECT_EQ(0, std::memcmp(y.data(), want.data(),
                             sizeof(float) * want.size()))
        << "kernel " << kernel;
  }
}

// -- nn functionals ----------------------------------------------------------------

TEST(SoftmaxTest, RowsSumToOne) {
  Tensor x = Tensor::Randn({3, 5});
  Tensor y = Softmax(x, -1);
  for (int64_t i = 0; i < 3; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < 5; ++j) total += y.at({i, j});
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
}

TEST(SoftmaxTest, LargeValuesStable) {
  Tensor x = Tensor::FromVector({1000.0f, 1000.0f}, {2});
  Tensor y = Softmax(x, 0);
  EXPECT_NEAR(y.at({0}), 0.5f, 1e-6);
}

TEST(SoftmaxTest, MiddleDim) {
  Tensor x = Tensor::Randn({2, 4, 3});
  Tensor y = Softmax(x, 1);
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t k = 0; k < 3; ++k) {
      float total = 0.0f;
      for (int64_t j = 0; j < 4; ++j) total += y.at({b, j, k});
      EXPECT_NEAR(total, 1.0f, 1e-5);
    }
  }
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor x = Tensor::Randn({4, 6});
  Tensor a = LogSoftmax(x, -1);
  Tensor b = Log(Softmax(x, -1));
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-4);
  }
}

TEST(DropoutTest, EvalIsIdentity) {
  Tensor x = Tensor::Randn({10});
  Tensor y = DropoutOp(x, 0.5f, /*training=*/false);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(x.data()[i], y.data()[i]);
}

TEST(DropoutTest, TrainingScalesSurvivors) {
  Rng rng(3);
  Tensor x = Tensor::Ones({1000});
  Tensor y = DropoutOp(x, 0.5f, /*training=*/true, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    if (y.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.data()[i], 2.0f, 1e-6);
    }
  }
  EXPECT_NEAR(zeros / 1000.0, 0.5, 0.07);
}

TEST(LossTest, MseMae) {
  Tensor pred = Tensor::FromVector({1, 2}, {2});
  Tensor target = Tensor::FromVector({0, 4}, {2});
  EXPECT_NEAR(MseLoss(pred, target).item(), (1.0f + 4.0f) / 2.0f, 1e-6);
}

// -- contract violations (CHECK deaths) -------------------------------------------

TEST(DeathTest, ConcatShapeMismatch) {
  Tensor a = Tensor::Ones({2, 3});
  Tensor b = Tensor::Ones({2, 4});
  EXPECT_DEATH(Concat({a, b}, 0), "mismatch");
}

TEST(DeathTest, MatMulInnerDimMismatch) {
  EXPECT_DEATH(MatMul(Tensor::Ones({2, 3}), Tensor::Ones({4, 2})),
               "inner dims");
}

TEST(DeathTest, IndexSelectOutOfRange) {
  Tensor a = Tensor::Ones({3, 2});
  EXPECT_DEATH(IndexSelect(a, 0, {3}), "out of range");
}

TEST(DeathTest, PoolWindowLongerThanInput) {
  Tensor a = Tensor::Ones({1, 3});
  EXPECT_DEATH(MovingAverage(a, 1, 2), "odd");
  EXPECT_DEATH(MaxPool1d(a, 5, 1), "longer");
}

TEST(DeathTest, ReshapeWrongElementCount) {
  EXPECT_DEATH(Reshape(Tensor::Ones({6}), {4}), "reshape");
}

TEST(DeathTest, SqueezeNonSingleton) {
  EXPECT_DEATH(Squeeze(Tensor::Ones({2, 3}), 0), "singleton");
}

TEST(DeathTest, TransposeDimOutOfRange) {
  // The swap used to run before any check and wrote past the permutation.
  EXPECT_DEATH(Transpose(Tensor::Ones({2, 3}), 5, 0), "out of range");
  EXPECT_DEATH(Transpose(Tensor::Ones({2, 3}), 0, -3), "out of range");
}

TEST(DeathTest, AsStridedViewOutOfBounds) {
  Tensor a = Tensor::Ones({2, 3});
  // The last element sits at 1 + 1*3 + 2*1 = 6, one past the end.
  EXPECT_DEATH(AsStrided(a, {2, 3}, {3, 1}, 1, "Slice"), "reads element 6");
  EXPECT_DEATH(AsStrided(a, {2}, {-1}, 1, "Slice"), "negative");
}

TEST(DeathTest, PadDimOutOfRange) {
  // The pad shape used to be written at the unchecked dim.
  EXPECT_DEATH(Pad(Tensor::Ones({2, 3}), 2, 1, 1), "out of range");
  EXPECT_DEATH(Pad(Tensor::Ones({2, 3}), -3, 1, 0), "out of range");
}

TEST(DeathTest, LogSoftmaxDimOutOfRange) {
  // The row split used to read the shape at the unchecked dim.
  EXPECT_DEATH(LogSoftmax(Tensor::Ones({2, 3}), 2), "dim < rank");
  EXPECT_DEATH(LogSoftmax(Tensor::Ones({2, 3}), -3), "dim < rank");
}

TEST(EdgeCaseTest, SingleElementTensorsWork) {
  Tensor a = Tensor::Full({1}, 2.0f);
  Tensor b = Tensor::Full({1}, 3.0f);
  EXPECT_EQ(Add(a, b).item(), 5.0f);
  EXPECT_EQ(MatMul(Reshape(a, {1, 1}), Reshape(b, {1, 1})).item(), 6.0f);
  EXPECT_EQ(Softmax(a, 0).item(), 1.0f);
  EXPECT_EQ(Sum(a).item(), 2.0f);
}

TEST(EdgeCaseTest, LengthOneSequencePools) {
  Tensor a = Tensor::Full({1, 1}, 4.0f);
  EXPECT_EQ(MovingAverage(a, 1, 1).item(), 4.0f);
  EXPECT_EQ(MaxPool1d(a, 1, 1).item(), 4.0f);
}

// -- allocation stats -----------------------------------------------------------

TEST(AllocStatsTest, TracksPeak) {
  ResetAllocPeak();
  const AllocStats before = GetAllocStats();
  {
    Tensor big = Tensor::Zeros({1024});
    const AllocStats during = GetAllocStats();
    EXPECT_GE(during.current_bytes, before.current_bytes + 4096);
    EXPECT_GE(during.peak_bytes, before.current_bytes + 4096);
  }
  const AllocStats after = GetAllocStats();
  EXPECT_EQ(after.current_bytes, before.current_bytes);
  EXPECT_GE(after.peak_bytes, before.current_bytes + 4096);
}

// -- views ----------------------------------------------------------------------

TEST(ViewTest, ReshapeSqueezeUnsqueezeShareStorageAndAllocateNothing) {
  for (bool record : {false, true}) {
    Tensor a = Tensor::Arange(24);
    a.set_requires_grad(record);
    const AllocStats before = GetAllocStats();
    Tensor r = Reshape(a, {2, 3, 4});
    Tensor u = Unsqueeze(r, 0);
    Tensor s = Squeeze(u, 0);
    const AllocStats after = GetAllocStats();
    EXPECT_EQ(r.data(), a.data()) << "record " << record;
    EXPECT_EQ(u.data(), a.data()) << "record " << record;
    EXPECT_EQ(s.data(), a.data()) << "record " << record;
    EXPECT_EQ(after.total_allocs, before.total_allocs) << "record " << record;
    EXPECT_EQ(after.current_bytes, before.current_bytes)
        << "record " << record;
    // Each view keeps its own shape and tape node.
    EXPECT_EQ(u.shape(), (Shape{1, 2, 3, 4}));
    EXPECT_EQ(s.shape(), (Shape{2, 3, 4}));
    EXPECT_EQ(s.impl()->autograd != nullptr, record);
    EXPECT_NE(s.impl(), r.impl());
  }
}

TEST(ViewTest, DetachAndCloneReturnFreshBuffers) {
  Tensor a = Tensor::Arange(6);
  Tensor view = Reshape(a, {2, 3});
  Tensor detached = view.Detach();
  Tensor cloned = view.Clone();
  EXPECT_NE(detached.data(), a.data());
  EXPECT_NE(cloned.data(), a.data());
  EXPECT_NE(cloned.data(), detached.data());
  detached.data()[0] = 9.0f;
  cloned.data()[1] = 9.0f;
  EXPECT_EQ(a.data()[0], 0.0f);
  EXPECT_EQ(a.data()[1], 1.0f);
}

TEST(ViewTest, CopyDataFromShowsThroughViews) {
  Tensor base = Tensor::Zeros({2, 3});
  Tensor view = Reshape(base, {6});
  base.CopyDataFrom(Tensor::Arange(6));
  EXPECT_EQ(view.at({4}), 4.0f);
  view.CopyDataFrom(Tensor::Full({6}, -1.0f));
  EXPECT_EQ(base.at({1, 2}), -1.0f);
}

TEST(ViewTest, StorageIsCountedOnceWhicheverOwnerDiesLast) {
  const int64_t bytes = 1024 * static_cast<int64_t>(sizeof(float));
  for (bool base_dies_first : {true, false}) {
    const AllocStats before = GetAllocStats();
    Tensor base = Tensor::Arange(1024);
    Tensor view = Reshape(base, {32, 32});
    EXPECT_EQ(GetAllocStats().current_bytes - before.current_bytes, bytes);
    EXPECT_EQ(GetAllocStats().total_allocs - before.total_allocs, 1);
    (base_dies_first ? base : view) = Tensor();
    EXPECT_EQ(GetAllocStats().current_bytes - before.current_bytes, bytes);
    // The survivor still reads the storage (use-after-free shows under asan).
    const Tensor& survivor = base_dies_first ? view : base;
    EXPECT_EQ(survivor.data()[1023], 1023.0f);
    (base_dies_first ? view : base) = Tensor();
    EXPECT_EQ(GetAllocStats().current_bytes, before.current_bytes);
  }
}

TEST(ViewTest, ViewOfATemporaryOutlivesIt) {
  Tensor view;
  {
    Tensor x = Tensor::Arange(12);
    view = Unsqueeze(Reshape(Tanh(x), {3, 4}), 0);
  }
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(view.at({0, i / 4, i % 4}), std::tanh(static_cast<float>(i)));
  }
}

// A Reshape chain, run once with the view Reshape and once with a copying
// reshape (a contiguous AsStrided gather, whose backward scatters the
// gradient into a fresh buffer): gradients must agree bitwise. The chain
// reads both a view and its base, and one view twice, so gradients both
// move into an empty input and add into a held one.
TEST(ViewTest, GradientsThroughReshapeChainsMatchACopyingReshape) {
  using ReshapeFn = std::function<Tensor(const Tensor&, Shape)>;
  const ReshapeFn copying = [](const Tensor& a, Shape shape) {
    std::vector<int64_t> strides = ContiguousStrides(shape);
    return AsStrided(a, std::move(shape), std::move(strides), 0, "Reshape");
  };
  const ReshapeFn views = [](const Tensor& a, Shape shape) {
    return Reshape(a, std::move(shape));
  };
  auto grads = [](const ReshapeFn& reshape) {
    Rng rng(11);
    Tensor x = Tensor::Randn({2, 3, 4}, &rng).set_requires_grad(true);
    Tensor w = Tensor::Randn({4, 5}, &rng).set_requires_grad(true);
    Tensor flat = reshape(x, {6, 4});
    Tensor h = Tanh(MatMul(flat, w));                  // [6, 5]
    Tensor back = reshape(reshape(h, {2, 3, 5}), {30});
    Tensor twice = Mul(back, back);
    Tensor direct = Sum(Mul(x, x));
    Tensor loss = Add(Add(Sum(twice), direct), Sum(Mul(flat, flat)));
    loss.Backward();
    const Tensor gx = x.grad();
    const Tensor gw = w.grad();
    std::vector<float> out(gx.data(), gx.data() + gx.numel());
    out.insert(out.end(), gw.data(), gw.data() + gw.numel());
    return out;
  };
  const std::vector<float> want = grads(copying);
  const std::vector<float> got = grads(views);
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), sizeof(float) * want.size()));
}

}  // namespace
}  // namespace conformer
