// Determinism suite for the thread-pool parallel kernel layer: every
// threaded kernel must produce bitwise-identical outputs AND gradients at 1
// thread and at many threads (the pool's chunk decomposition depends only on
// the range and grain, never the thread count). Also covers the ParallelFor
// contract itself (empty range, oversubscription, exactly-once) and the
// zero-sized Gemm / MatMul edge cases.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "attention/attention.h"
#include "baselines/timesnet_lite.h"
#include "data/window_dataset.h"
#include "tensor/gradcheck.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace conformer {
namespace {

using Inputs = std::vector<Tensor>;

constexpr int64_t kManyThreads = 8;

Tensor Leaf(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Randn(shape, &rng);
  t.set_requires_grad(true);
  return t;
}

// Restores the ambient single-thread setting after each test so the order
// of tests never matters.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::Global().SetNumThreads(1); }
};

// Runs `compute` pinned to 1 thread and to kManyThreads, then verifies that
// every returned tensor matches bitwise (memcmp over the raw floats — not
// EXPECT_FLOAT_EQ, which would accept reordered summation).
void ExpectBitwiseIdentical(const std::function<std::vector<Tensor>()>& compute) {
  ThreadPool::Global().SetNumThreads(1);
  const std::vector<Tensor> single = compute();
  ThreadPool::Global().SetNumThreads(kManyThreads);
  const std::vector<Tensor> multi = compute();
  ASSERT_EQ(single.size(), multi.size());
  for (size_t t = 0; t < single.size(); ++t) {
    ASSERT_EQ(single[t].shape(), multi[t].shape()) << "tensor " << t;
    const int64_t n = single[t].numel();
    ASSERT_EQ(0, std::memcmp(single[t].data(), multi[t].data(),
                             sizeof(float) * n))
        << "tensor " << t << " differs between 1 and " << kManyThreads
        << " threads";
  }
}

// Forward + backward through `f` on fresh leaves; returns {out, grads...}.
std::vector<Tensor> ForwardBackward(
    const std::function<Tensor(const Inputs&)>& f,
    const std::vector<Shape>& shapes) {
  Inputs inputs;
  for (size_t i = 0; i < shapes.size(); ++i) {
    inputs.push_back(Leaf(shapes[i], /*seed=*/100 + i));
  }
  Tensor out = f(inputs);
  Sum(Mul(out, out)).Backward();
  std::vector<Tensor> results = {out};
  for (const Tensor& in : inputs) results.push_back(in.grad());
  return results;
}

// -- ParallelFor contract ---------------------------------------------------

TEST_F(ParallelTest, EmptyRangeNeverInvokesFn) {
  ThreadPool::Global().SetNumThreads(kManyThreads);
  bool called = false;
  ParallelFor(0, 0, 4, [&](int64_t, int64_t) { called = true; });
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { called = true; });
  ParallelFor(7, 3, 1, [&](int64_t, int64_t) { called = true; });  // inverted
  EXPECT_FALSE(called);
}

TEST_F(ParallelTest, OversubscriptionRunsEveryIndexExactlyOnce) {
  // Far more threads (16) than items (5): stripes beyond the chunk count
  // must simply find no work, and each index runs exactly once.
  ThreadPool::Global().SetNumThreads(16);
  std::vector<std::atomic<int>> hits(5);
  for (auto& h : hits) h = 0;
  ParallelFor(0, 5, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_F(ParallelTest, ChunkBoundariesIndependentOfThreadCount) {
  auto record = [](std::vector<std::pair<int64_t, int64_t>>* chunks) {
    std::mutex m;
    ParallelFor(3, 103, 7, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lock(m);
      chunks->emplace_back(b, e);
    });
    std::sort(chunks->begin(), chunks->end());
  };
  std::vector<std::pair<int64_t, int64_t>> single;
  std::vector<std::pair<int64_t, int64_t>> multi;
  ThreadPool::Global().SetNumThreads(1);
  record(&single);
  ThreadPool::Global().SetNumThreads(kManyThreads);
  record(&multi);
  EXPECT_EQ(single, multi);
  // 100 items at grain 7 -> 15 chunks, last one short.
  ASSERT_EQ(single.size(), 15u);
  EXPECT_EQ(single.front(), (std::pair<int64_t, int64_t>{3, 10}));
  EXPECT_EQ(single.back(), (std::pair<int64_t, int64_t>{101, 103}));
}

TEST_F(ParallelTest, NestedParallelForRunsInline) {
  ThreadPool::Global().SetNumThreads(kManyThreads);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h = 0;
  ParallelFor(0, 8, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      ParallelFor(0, 8, 1, [&](int64_t ib, int64_t ie) {
        for (int64_t i = ib; i < ie; ++i) hits[o * 8 + i].fetch_add(1);
      });
    }
  });
  for (int64_t i = 0; i < 64; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_F(ParallelTest, SetNumThreadsSurvivesRepeatedResizing) {
  // Regression: after dispatches, a resize used to hand new workers the
  // historic job slot (stale fn pointer). Exercise dispatch -> resize ->
  // dispatch across several sizes.
  std::vector<float> buf(1024, 0.0f);
  for (int64_t threads : {2, 1, 4, 16, 2, 8}) {
    ThreadPool::Global().SetNumThreads(threads);
    EXPECT_EQ(ThreadPool::Global().num_threads(), threads);
    ParallelFor(0, 1024, 64, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) buf[i] += 1.0f;
    });
  }
  for (float v : buf) EXPECT_EQ(v, 6.0f);
}

// -- zero-sized Gemm / MatMul ----------------------------------------------

TEST_F(ParallelTest, GemmZeroM) {
  // m == 0: nothing written, no crash.
  std::vector<float> b(6, 1.0f);
  kernels::Gemm(false, false, 0, 3, 2, nullptr, b.data(), nullptr,
                /*accumulate=*/false);
}

TEST_F(ParallelTest, GemmZeroK) {
  // k == 0: the product is a zero matrix; accumulate must keep c.
  std::vector<float> c(6, 7.0f);
  kernels::Gemm(false, false, 2, 3, 0, nullptr, nullptr, c.data(),
                /*accumulate=*/false);
  for (float v : c) EXPECT_EQ(v, 0.0f);

  std::vector<float> c2(6, 7.0f);
  kernels::Gemm(false, false, 2, 3, 0, nullptr, nullptr, c2.data(),
                /*accumulate=*/true);
  for (float v : c2) EXPECT_EQ(v, 7.0f);
}

TEST_F(ParallelTest, GemmZeroN) {
  kernels::Gemm(false, false, 2, 0, 3, nullptr, nullptr, nullptr,
                /*accumulate=*/false);
}

TEST_F(ParallelTest, MatMulZeroInnerDim) {
  // [2, 0] x [0, 3] is a 2x3 zero matrix.
  Tensor a = Tensor::Zeros({2, 0});
  Tensor b = Tensor::Zeros({0, 3});
  Tensor out = MatMul(a, b);
  ASSERT_EQ(out.shape(), (Shape{2, 3}));
  for (int64_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out.data()[i], 0.0f);
}

// -- bitwise determinism per kernel ----------------------------------------

TEST_F(ParallelTest, GemmAllTransposeVariants) {
  Rng rng(11);
  const int64_t m = 33, n = 29, k = 31;  // not multiples of any grain
  Tensor a_mk = Tensor::Randn({m, k}, &rng);
  Tensor a_km = Tensor::Randn({k, m}, &rng);
  Tensor b_kn = Tensor::Randn({k, n}, &rng);
  Tensor b_nk = Tensor::Randn({n, k}, &rng);
  // NN, NT and TN; Gemm rejects A^T * B^T.
  for (auto [ta, tb] :
       {std::pair{false, false}, {false, true}, {true, false}}) {
    ExpectBitwiseIdentical([&] {
      std::vector<float> c(m * n, 0.5f);
      kernels::Gemm(ta, tb, m, n, k, (ta ? a_km : a_mk).data(),
                    (tb ? b_nk : b_kn).data(), c.data(), /*accumulate=*/true);
      return std::vector<Tensor>{Tensor::FromVector(std::move(c), {m, n})};
    });
  }
}

TEST_F(ParallelTest, BroadcastRowRunsSplitMidRow) {
  // Rows of 41 floats over 4551 elements: more than kGrainStrided, which 41
  // does not divide, so the second chunk starts mid-row. The reduce splits
  // its unreduced leading dim into 4 row blocks of 10 x 390 elements.
  const Shape full = {3, 37, 41};
  static_assert(kernels::kGrainStrided % 41 != 0);
  ASSERT_GT(NumElements(full), kernels::kGrainStrided);
  const Shape grad_shape = {40, 130, 3};
  const Shape target = {40, 1, 3};
  Rng rng(5);
  const Tensor a = Tensor::Randn(full, &rng);
  const Tensor bias = Tensor::Randn({41}, &rng);
  const Tensor col = Tensor::Randn({3, 37, 1}, &rng);
  const Tensor grad = Tensor::Randn(grad_shape, &rng);
  ExpectBitwiseIdentical([&] {
    const auto f = [](float x, float y) { return x * 3.0f - y; };
    std::vector<Tensor> out;
    for (const Tensor* b : {&bias, &col}) {
      std::vector<float> o(a.numel());
      kernels::BroadcastBinary(a.data(), full, b->data(), b->shape(),
                               o.data(), full, f);
      out.push_back(Tensor::FromVector(std::move(o), full));
    }
    std::vector<float> reduced(NumElements(target), 0.25f);
    kernels::ScatterAdd(grad.data(), grad_shape,
                        kernels::BroadcastStrides(target, grad_shape), 0,
                        reduced.data());
    out.push_back(Tensor::FromVector(std::move(reduced), target));
    return out;
  });
}

TEST_F(ParallelTest, ElementwiseBroadcastForwardAndBackward) {
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) { return Mul(Add(in[0], in[1]), in[2]); },
        {{64, 1, 33}, {1, 17, 33}, {64, 17, 1}});
  });
}

TEST_F(ParallelTest, UnaryForwardAndBackward) {
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) { return Tanh(Gelu(in[0])); }, {{130, 257}});
  });
}

TEST_F(ParallelTest, SoftmaxAndLogSoftmax) {
  for (int64_t dim : {0, 1, 2}) {
    ExpectBitwiseIdentical([dim] {
      return ForwardBackward(
          [dim](const Inputs& in) {
            return Add(Softmax(in[0], dim), LogSoftmax(in[0], dim));
          },
          {{19, 23, 17}});
    });
  }
}

TEST_F(ParallelTest, SumOverVariousDims) {
  const std::vector<std::vector<int64_t>> dim_sets = {
      {}, {0}, {1}, {-1}, {0, 2}};
  for (const auto& dims : dim_sets) {
    ExpectBitwiseIdentical([&dims] {
      return ForwardBackward(
          [&dims](const Inputs& in) { return Sum(in[0], dims); },
          {{23, 19, 29}});
    });
  }
  // Large flat reduction (n >= 2*grain): one serial scatter-add.
  ExpectBitwiseIdentical([] {
    return ForwardBackward([](const Inputs& in) { return Sum(in[0]); },
                           {{5, 41, 61}});
  });
}

TEST_F(ParallelTest, PoolingForwardAndBackward) {
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) {
          return Concat({MovingAverage(in[0], 1, 5), MovingAverage(in[0], 2, 7),
                         MaxPool1d(in[0], 4, 2)},
                        2);
        },
        {{6, 7, 64}});
  });
}

TEST_F(ParallelTest, IndexSelectForwardAndBackward) {
  // Repeated indices: backward scatter-adds into the same rows.
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) {
          return IndexSelect(in[0], 1, {0, 2, 2, 5, 1, 2});
        },
        {{9, 7, 13}});
  });
}

TEST_F(ParallelTest, AsStridedForwardAndBackward) {
  // Each view spans many chunks of the parallel gather: a transpose, a
  // stride-0 tile, and overlapping im2col windows whose backward adds
  // several output gradients into one input element. The im2col windows of
  // batch b stay inside its 672-float slice (span 1 + 44*2 + 6*96 + 4 =
  // 669), so that scatter splits over the batch; the last view steps its
  // leading dim by 384 over slices spanning 672 floats, which overlap, so
  // its scatter runs serially.
  using View = std::function<Tensor(const Tensor&)>;
  for (const View& view : std::vector<View>{
           [](const Tensor& x) {
             return AsStrided(x, {16, 96, 7}, {672, 1, 96}, 0, "Permute");
           },
           [](const Tensor& x) {
             return AsStrided(x, {3, 16, 7, 96}, {0, 672, 96, 1}, 0, "Tile");
           },
           [](const Tensor& x) {
             return AsStrided(x, {16, 45, 7, 5}, {672, 2, 96, 1}, 0,
                              "Unfold");
           },
           [](const Tensor& x) {
             return AsStrided(x, {24, 7, 96}, {384, 96, 1}, 0, "Unfold");
           }}) {
    ExpectBitwiseIdentical([&view] {
      return ForwardBackward([&view](const Inputs& in) { return view(in[0]); },
                             {{16, 7, 96}});
    });
  }
}

TEST_F(ParallelTest, BatchedMatMulForwardAndBackward) {
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) { return MatMul(in[0], in[1]); },
        {{8, 17, 13}, {8, 13, 19}});
  });
}

TEST_F(ParallelTest, BroadcastBatchMatMulForwardAndBackward) {
  // b is broadcast across the batch: its gradient accumulates over all
  // batches, which must stay in the fixed sequential order.
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) { return MatMul(in[0], in[1]); },
        {{6, 4, 11, 13}, {13, 19}});
  });
}

TEST_F(ParallelTest, Conv1dForwardAndBackward) {
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) {
          return Conv1d(in[0], in[1], in[2], /*padding=*/2,
                        PadMode::kReplicate, /*dilation=*/2);
        },
        {{4, 3, 48}, {5, 3, 3}, {5}});
  });
}

TEST_F(ParallelTest, StridedConv1dForwardAndBackward) {
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) {
          return Conv1d(in[0], in[1], in[2], /*padding=*/1, PadMode::kZeros,
                        /*dilation=*/1, /*stride=*/3);
        },
        {{4, 3, 48}, {5, 3, 3}, {5}});
  });
}

TEST_F(ParallelTest, Conv2dForwardAndBackward) {
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) { return Conv2d(in[0], in[1], in[2], 1, 1); },
        {{3, 4, 9, 7}, {6, 4, 3, 3}, {6}});
  });
}

TEST_F(ParallelTest, GruSequenceForwardAndBackward) {
  // Batch 24 x 3h 96 puts the per-step recurrent Gemms and the backward
  // weight Gemm past the row grain, so 8 threads really split them.
  ExpectBitwiseIdentical([] {
    return ForwardBackward(
        [](const Inputs& in) { return GruSequence(in[0], in[1], in[2]); },
        {{24, 6, 96}, {32, 96}, {96}});
  });
}

TEST_F(ParallelTest, TimesNetLitePeriodPathForwardAndBackward) {
  // Whole period-adaptive path: FFT period selection, grid fold, 2-D convs,
  // softmax recombine. Params are built once; only execution is re-run.
  models::TimesNetLite model({.input_len = 24, .label_len = 8, .pred_len = 8},
                             /*dims=*/3, /*d_model=*/8, /*top_k=*/3);
  ExpectBitwiseIdentical([&] {
    model.ZeroGrad();
    data::Batch batch;
    Rng rng(424);
    batch.x = Tensor::Randn({2, 24, 3}, &rng);
    Tensor out = model.Forward(batch);
    Sum(Mul(out, out)).Backward();
    std::vector<Tensor> results = {out};
    for (Tensor& p : model.Parameters()) results.push_back(p.grad().Clone());
    return results;
  });
}

TEST_F(ParallelTest, AttentionMechanismsForwardAndBackward) {
  attention::AttentionConfig config;
  config.window = 3;
  config.factor = 2;
  config.lsh_chunk = 8;
  const attention::AttentionKind kinds[] = {
      attention::AttentionKind::kFull,
      attention::AttentionKind::kSlidingWindow,
      attention::AttentionKind::kProbSparse,
      attention::AttentionKind::kLogSparse,
      attention::AttentionKind::kLsh,
      attention::AttentionKind::kAutoCorrelation,
  };
  for (attention::AttentionKind kind : kinds) {
    auto mech = attention::MakeAttention(kind, config);
    ExpectBitwiseIdentical([&] {
      return ForwardBackward(
          [&](const Inputs& in) {
            return mech->Forward(in[0], in[1], in[2], /*causal=*/false);
          },
          {{4, 24, 8}, {4, 24, 8}, {4, 24, 8}});
    });
  }
}

// -- gradcheck under many threads ------------------------------------------

TEST_F(ParallelTest, GradCheckPassesAtManyThreads) {
  ThreadPool::Global().SetNumThreads(kManyThreads);
  GradCheckResult r = CheckGradients(
      [](const Inputs& in) {
        return Sum(Softmax(MatMul(in[0], in[1]), -1));
      },
      {Leaf({3, 5}, 1), Leaf({5, 4}, 2)});
  EXPECT_TRUE(r.passed) << r.message << " (max err " << r.max_abs_error << ")";
}

}  // namespace
}  // namespace conformer
