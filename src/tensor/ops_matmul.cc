#include <utility>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/profiler.h"

namespace conformer {

namespace {

// Splits a rank>=2 shape into (batch dims, m, n).
void SplitMatmulShape(const Shape& shape, Shape* batch, int64_t* rows,
                      int64_t* cols) {
  const int64_t rank = static_cast<int64_t>(shape.size());
  CONFORMER_CHECK_GE(rank, 2) << "matmul operand must have rank >= 2";
  batch->assign(shape.begin(), shape.end() - 2);
  *rows = shape[rank - 2];
  *cols = shape[rank - 1];
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CONFORMER_PROFILE_SCOPE("matmul");
  CONFORMER_CHECK(a.defined() && b.defined());
  Shape a_batch;
  Shape b_batch;
  int64_t m = 0;
  int64_t ka = 0;
  int64_t kb = 0;
  int64_t n = 0;
  SplitMatmulShape(a.shape(), &a_batch, &m, &ka);
  SplitMatmulShape(b.shape(), &b_batch, &kb, &n);
  CONFORMER_CHECK_EQ(ka, kb) << "matmul inner dims differ: "
                             << ShapeToString(a.shape()) << " x "
                             << ShapeToString(b.shape());
  const int64_t k = ka;
  Shape batch = kernels::BroadcastShape(a_batch, b_batch);

  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);
  std::vector<float> out = internal::AcquireBuffer(NumElements(out_shape));

  // One shared B: A's batches stack into the rows of a single Gemm. Output
  // and dA rows are independent, and dB adds the rows batch by batch in
  // ascending order, as the per-batch loop does, so every bit is unchanged.
  if (NumElements(b_batch) == 1) {
    m *= NumElements(batch);
    a_batch.clear();
    b_batch.clear();
    batch.clear();
  }
  const int64_t num_batches = NumElements(batch);

  // Map each output batch index to the (possibly broadcast) input batch.
  const std::vector<int64_t> a_strides = kernels::BroadcastStrides(a_batch, batch);
  const std::vector<int64_t> b_strides = kernels::BroadcastStrides(b_batch, batch);
  const int64_t brank = static_cast<int64_t>(batch.size());

  // Captured by value: these are reused inside the backward closure, which
  // outlives the enclosing scope. Maps a flat batch index to the (possibly
  // broadcast) input offsets.
  auto batch_offsets = [batch, a_strides, b_strides, brank](int64_t i) {
    int64_t a_off = 0;
    int64_t b_off = 0;
    int64_t rem = i;
    for (int64_t d = brank - 1; d >= 0; --d) {
      const int64_t idx = rem % batch[d];
      rem /= batch[d];
      a_off += idx * a_strides[d];
      b_off += idx * b_strides[d];
    }
    return std::pair<int64_t, int64_t>(a_off, b_off);
  };
  // Without broadcast, every batch owns disjoint slices of both inputs, so
  // the backward Gemm accumulations can run batch-parallel.
  const bool batches_disjoint = a_batch == batch && b_batch == batch;

  // Each batch writes its own out slice; the per-batch Gemm runs inline
  // when nested (its own ParallelFor covers the single-batch case). The
  // eager pass and the captured replay closure share this loop.
  auto forward = [batch_offsets, m, n, k, num_batches](const float* ad,
                                                       const float* bd,
                                                       float* od) {
    ParallelFor(0, num_batches, 1, [&](int64_t bb, int64_t be) {
      for (int64_t i = bb; i < be; ++i) {
        const auto [a_off, b_off] = batch_offsets(i);
        kernels::Gemm(false, false, m, n, k, ad + a_off * m * k,
                      bd + b_off * k * n, od + i * m * n, /*accumulate=*/false);
      }
    });
  };
  forward(a.data(), b.data(), out.data());

  // dA reads B and dB reads A, so each operand is saved only when the other
  // needs a gradient.
  const auto make_backward = [&] {
    return [a_vals = internal::SavedValues(a, internal::NeedsGrad(b)),
            b_vals = internal::SavedValues(b, internal::NeedsGrad(a)), m, n, k,
            num_batches, batch_offsets,
            batches_disjoint](AutogradMeta& self) {
      const float* gd = self.grad.data();
      // Runs `batch_gemm(i)` for every batch.
      const auto for_batches = [&](const auto& batch_gemm) {
        if (batches_disjoint) {
          ParallelFor(0, num_batches, 1, [&](int64_t bb, int64_t be) {
            for (int64_t i = bb; i < be; ++i) batch_gemm(i);
          });
        } else {
          // Broadcast batches accumulate into shared input slices; keep the
          // fixed sequential order (deterministic and race-free).
          for (int64_t i = 0; i < num_batches; ++i) batch_gemm(i);
        }
      };
      // dA = dOut * B^T, dB = A^T * dOut, accumulated per broadcast batch.
      if (AutogradMeta* in = self.input(0)) {
        const float* bd = b_vals->data();
        internal::AccumulateGradWith(*in, [&](float* da) {
          for_batches([&](int64_t i) {
            const auto [a_off, b_off] = batch_offsets(i);
            kernels::Gemm(false, true, m, k, n, gd + i * m * n,
                          bd + b_off * k * n, da + a_off * m * k,
                          /*accumulate=*/true);
          });
        });
      }
      if (AutogradMeta* in = self.input(1)) {
        const float* ad = a_vals->data();
        internal::AccumulateGradWith(*in, [&](float* db) {
          for_batches([&](int64_t i) {
            const auto [a_off, b_off] = batch_offsets(i);
            kernels::Gemm(true, false, k, n, m, ad + a_off * m * k,
                          gd + i * m * n, db + b_off * k * n,
                          /*accumulate=*/true);
          });
        });
      }
    };
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         {a, b}, make_backward, "MatMul");
  internal::MaybeCaptureStep(
      result, {a, b}, {"MatMul", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], in[1], o);
        };
      });
  return result;
}

}  // namespace conformer
