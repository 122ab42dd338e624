#include <algorithm>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/profiler.h"

namespace conformer {

namespace {

// Applies padding to [B, C, L] input according to `mode`.
Tensor PadInput(const Tensor& input, int64_t padding, PadMode mode) {
  if (padding == 0) return input;
  switch (mode) {
    case PadMode::kZeros:
      return Pad(input, /*dim=*/2, padding, padding, 0.0f);
    case PadMode::kReplicate:
      return ReplicatePad(input, /*dim=*/2, padding, padding);
    case PadMode::kCircular: {
      const int64_t length = input.size(2);
      if (padding <= length) {
        Tensor head = Slice(input, 2, length - padding, length);
        Tensor tail = Slice(input, 2, 0, padding);
        return Concat({head, input, tail}, 2);
      }
      // Pad wider than the input: the periodic extension is a window of
      // the input tiled often enough to cover both sides, so any width is
      // legal, where this used to CHECK-abort (reachable from model config).
      const int64_t side = (padding + length - 1) / length;  // tiles per side
      Tensor tiled = Tile(input, {1, 1, 2 * side + 1});
      return Slice(tiled, 2, side * length - padding,
                   (side + 1) * length + padding);
    }
  }
  CONFORMER_CHECK(false) << "unreachable";
  return input;
}

// The argmax buffer MaxPool1d's replay needs but never reads back.
// Thread-local and grown on first use, so replay allocates nothing after
// warm-up and one replay closure can run on many threads at once.
int64_t* MaxPoolArgScratch(int64_t n) {
  thread_local std::vector<int64_t> scratch;
  if (static_cast<int64_t>(scratch.size()) < n) scratch.resize(n);
  return scratch.data();
}

}  // namespace

Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t padding, PadMode mode, int64_t dilation,
              int64_t stride) {
  CONFORMER_PROFILE_SCOPE("conv1d");
  CONFORMER_CHECK(input.defined() && weight.defined());
  CONFORMER_CHECK_EQ(input.dim(), 3) << "Conv1d input must be [B, Cin, L]";
  CONFORMER_CHECK_EQ(weight.dim(), 3) << "Conv1d weight must be [Cout, Cin, K]";
  CONFORMER_CHECK_GE(dilation, 1);
  CONFORMER_CHECK_GE(stride, 1);
  const int64_t cin = input.size(1);
  CONFORMER_CHECK_EQ(weight.size(1), cin) << "Conv1d channel mismatch";

  const Tensor padded = PadInput(input, padding, mode);
  const int64_t batch = padded.size(0);
  const int64_t length = padded.size(2);
  const int64_t cout = weight.size(0);
  const int64_t kernel = weight.size(2);
  const int64_t span = (kernel - 1) * dilation + 1;  // effective kernel
  const int64_t out_len = (length - span) / stride + 1;
  CONFORMER_CHECK_GT(out_len, 0) << "Conv1d kernel longer than padded input";

  // im2col as one strided view of the padded input:
  // columns[b, t, c, k] = padded[b, c, t*stride + k*dilation], then
  // out = columns x W^T.
  Tensor columns = Reshape(
      AsStrided(padded, {batch, out_len, cin, kernel},
                {cin * length, stride, length, dilation}, 0, "Unfold"),
      {batch, out_len, cin * kernel});
  // weight [Cout, Cin, K] -> [Cin*K, Cout]
  Tensor wmat = Transpose(Reshape(weight, {cout, cin * kernel}), 0, 1);
  Tensor out = MatMul(columns, wmat);  // [B, out_len, Cout]
  if (bias.defined()) {
    CONFORMER_CHECK_EQ(bias.numel(), cout);
    out = Add(out, Reshape(bias, {1, 1, cout}));
  }
  return Permute(out, {0, 2, 1});  // [B, Cout, out_len]
}

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t padding_h, int64_t padding_w) {
  CONFORMER_PROFILE_SCOPE("conv2d");
  CONFORMER_CHECK(input.defined() && weight.defined());
  CONFORMER_CHECK_EQ(input.dim(), 4) << "Conv2d input must be [B, Cin, H, W]";
  CONFORMER_CHECK_EQ(weight.dim(), 4)
      << "Conv2d weight must be [Cout, Cin, Kh, Kw]";
  CONFORMER_CHECK_GE(padding_h, 0);
  CONFORMER_CHECK_GE(padding_w, 0);
  const int64_t cin = input.size(1);
  CONFORMER_CHECK_EQ(weight.size(1), cin) << "Conv2d channel mismatch";

  Tensor padded = input;
  if (padding_h > 0) padded = Pad(padded, /*dim=*/2, padding_h, padding_h);
  if (padding_w > 0) padded = Pad(padded, /*dim=*/3, padding_w, padding_w);
  const int64_t batch = padded.size(0);
  const int64_t height = padded.size(2);
  const int64_t width = padded.size(3);
  const int64_t cout = weight.size(0);
  const int64_t kh = weight.size(2);
  const int64_t kw = weight.size(3);
  const int64_t out_h = height - kh + 1;
  const int64_t out_w = width - kw + 1;
  CONFORMER_CHECK(out_h > 0 && out_w > 0)
      << "Conv2d kernel larger than padded input";

  // im2col as one strided view, exactly like Conv1d, in the weight's
  // (Cin, Kh, Kw) memory order so one MatMul against the reshaped weight
  // applies the whole kernel: columns[b, y, x, c, i, j] = padded[b, c, y+i,
  // x+j].
  Tensor columns = Reshape(
      AsStrided(padded, {batch, out_h, out_w, cin, kh, kw},
                {cin * height * width, width, 1, height * width, width, 1}, 0,
                "Unfold"),
      {batch, out_h * out_w, cin * kh * kw});
  // weight [Cout, Cin, Kh, Kw] -> [Cin*Kh*Kw, Cout]
  Tensor wmat = Transpose(Reshape(weight, {cout, cin * kh * kw}), 0, 1);
  Tensor out = MatMul(columns, wmat);  // [B, out_h*out_w, Cout]
  if (bias.defined()) {
    CONFORMER_CHECK_EQ(bias.numel(), cout);
    out = Add(out, Reshape(bias, {1, 1, cout}));
  }
  return Permute(Reshape(out, {batch, out_h, out_w, cout}), {0, 3, 1, 2});
}

Tensor MovingAverage(const Tensor& x, int64_t dim, int64_t kernel) {
  CONFORMER_PROFILE_SCOPE("moving_average");
  CONFORMER_CHECK(x.defined());
  const int64_t rank = x.dim();
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank) << "MovingAverage dim out of range";
  CONFORMER_CHECK(kernel >= 1 && kernel % 2 == 1)
      << "MovingAverage window must be odd and positive, got " << kernel;
  const int64_t length = x.size(dim);
  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= x.size(d);
  for (int64_t d = dim + 1; d < rank; ++d) inner *= x.size(d);
  const float inv_k = 1.0f / static_cast<float>(kernel);
  // Each [length, inner] slab is independent and each chunk owns whole
  // output rows, so the result is the same at any thread count.
  const int64_t row_grain = std::max<int64_t>(
      1, kernels::kGrainStrided / std::max<int64_t>(1, inner * kernel));
  auto run = [outer, length, inner, kernel, inv_k, row_grain](
                 const float* src, float* dst, bool adjoint) {
    ParallelFor(0, outer * length, row_grain, [&](int64_t q0, int64_t q1) {
      for (int64_t q = q0; q < q1;) {
        const int64_t slab = q / length;
        const int64_t base = slab * length;
        const int64_t r1 = std::min(q1, base + length) - base;
        vec::MovingAverageRows(src + base * inner, length, inner, kernel,
                               inv_k, adjoint, q - base, r1,
                               dst + base * inner);
        q = base + r1;
      }
    });
  };
  std::vector<float> out = internal::AcquireBuffer(x.numel());
  run(x.data(), out.data(), /*adjoint=*/false);

  const auto make_backward = [&] {
    return [run](AutogradMeta& self) {
      internal::AccumulateGradWith(*self.input(0), [&](float* dst) {
        run(self.grad.data(), dst, /*adjoint=*/true);
      });
    };
  };
  Tensor result = internal::MakeOpResult(x.shape(), std::move(out), {x},
                                         make_backward, "MovingAverage");
  internal::MaybeCaptureStep(
      result, {x},
      {"MovingAverage", /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [run](const float* const* in, float* o) {
          run(in[0], o, /*adjoint=*/false);
        };
      });
  return result;
}

Tensor MaxPool1d(const Tensor& input, int64_t kernel, int64_t stride) {
  CONFORMER_PROFILE_SCOPE("max_pool1d");
  CONFORMER_CHECK(input.defined());
  CONFORMER_CHECK_GE(input.dim(), 1);
  CONFORMER_CHECK(kernel >= 1 && stride >= 1);
  const int64_t rank = input.dim();
  const int64_t length = input.size(rank - 1);
  CONFORMER_CHECK_GE(length, kernel) << "MaxPool1d window longer than input";
  const int64_t out_len = (length - kernel) / stride + 1;

  int64_t outer = 1;
  for (int64_t i = 0; i < rank - 1; ++i) outer *= input.size(i);

  Shape out_shape = input.shape();
  out_shape[rank - 1] = out_len;
  std::vector<float> out = internal::AcquireBuffer(outer * out_len);
  std::vector<int64_t> argmax(outer * out_len);
  const int64_t pool_grain = std::max<int64_t>(
      1, kernels::kGrainStrided / std::max<int64_t>(1, out_len * kernel));
  auto forward = [outer, length, out_len, kernel, stride,
                  pool_grain](const float* ad, float* dst, int64_t* arg_out) {
    ParallelFor(0, outer, pool_grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        const float* row = ad + o * length;
        for (int64_t j = 0; j < out_len; ++j) {
          const int64_t start = j * stride;
          float best = row[start];
          int64_t arg = start;
          for (int64_t k = 1; k < kernel; ++k) {
            if (row[start + k] > best) {
              best = row[start + k];
              arg = start + k;
            }
          }
          dst[o * out_len + j] = best;
          arg_out[o * out_len + j] = arg;
        }
      }
    });
  };
  forward(input.data(), out.data(), argmax.data());

  const auto make_backward = [&] {
    return [argmax = std::move(argmax), outer, length, out_len,
            pool_grain](AutogradMeta& self) {
      const float* gd = self.grad.data();
      // argmax indices stay within their own row, so rows scatter
      // disjointly.
      internal::AccumulateGradWith(*self.input(0), [&](float* delta) {
        ParallelFor(0, outer, pool_grain, [&](int64_t o0, int64_t o1) {
          for (int64_t o = o0; o < o1; ++o) {
            for (int64_t j = 0; j < out_len; ++j) {
              delta[o * length + argmax[o * out_len + j]] +=
                  gd[o * out_len + j];
            }
          }
        });
      });
    };
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         {input}, make_backward, "MaxPool1d");
  internal::MaybeCaptureStep(
      result, {input},
      {"MaxPool1d", /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [forward, scratch = outer * out_len](const float* const* in,
                                                    float* o) {
          forward(in[0], o, MaxPoolArgScratch(scratch));
        };
      });
  return result;
}

}  // namespace conformer
