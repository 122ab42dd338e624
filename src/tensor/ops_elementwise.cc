#include <algorithm>
#include <cmath>
#include <memory>
#include <type_traits>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/profiler.h"

namespace conformer {

namespace {

using kernels::kReadsA;
using kernels::kReadsB;
using kernels::kReadsNone;

// Shared plumbing for broadcasting binary ops. `span` (a dispatched vec::
// kernel) computes whole contiguous chunks when no broadcasting is needed
// and the rows of each broadcast block otherwise. `dfda` / `dfdb` compute
// local partials from (a_i, b_i), or are a constant float (Add, Sub), and
// `kDfaReads` / `kDfbReads` name the operands each reads: the backward
// saves an operand only when a partial it will evaluate reads it, and walks
// only the operands the partial reads. A broadcast operand's gradient is
// reduced straight from df * g, in ScatterAdd's order, with no temporary.
template <int kDfaReads, int kDfbReads, typename SpanFn, typename DfA,
          typename DfB>
Tensor BinaryOpSpan(const Tensor& a, const Tensor& b, SpanFn span, DfA dfda,
                    DfB dfdb, const char* name) {
  CONFORMER_PROFILE_SCOPE(name);
  CONFORMER_CHECK(a.defined() && b.defined()) << name << " on undefined tensor";
  const Shape out_shape = kernels::BroadcastShape(a.shape(), b.shape());
  std::vector<float> out = internal::AcquireBuffer(NumElements(out_shape));
  kernels::BroadcastBinarySpan(a.data(), a.shape(), b.data(), b.shape(),
                               out.data(), out_shape, span);
  const auto make_backward = [&] {
    const int reads = (internal::NeedsGrad(a) ? kDfaReads : kReadsNone) |
                      (internal::NeedsGrad(b) ? kDfbReads : kReadsNone);
    return [a_vals = internal::SavedValues(a, (reads & kReadsA) != 0),
            b_vals = internal::SavedValues(b, (reads & kReadsB) != 0),
            a_shape = a.shape(), b_shape = b.shape(), out_shape, dfda,
            dfdb](AutogradMeta& self) {
      const float* gd = self.grad.data();
      // An operand that was not saved is read by no partial.
      const float* ad = a_vals != nullptr ? a_vals->data() : nullptr;
      const float* bd = b_vals != nullptr ? b_vals->data() : nullptr;
      // Adds the terms df_i * g_i into `in`'s gradient: one per element
      // when `in` has the output shape, else summed over its broadcast dims.
      // `reads` is df's kReads as a std::integral_constant.
      const auto accumulate = [&](auto reads, AutogradMeta* in,
                                  const Shape& in_shape, const auto& df) {
        if (in == nullptr) return;
        constexpr bool kConstant =
            std::is_arithmetic_v<std::decay_t<decltype(df)>>;
        bool unit = false;
        if constexpr (kConstant) unit = df == 1.0f;
        const auto term = [&df](float x, float y, float g) {
          if constexpr (kConstant) {
            return df * g;
          } else {
            return df(x, y) * g;
          }
        };
        const auto scatter = [&](float* dst) {
          kernels::BroadcastScatterAdd<decltype(reads)::value>(
              ad, a_shape, bd, b_shape, gd, out_shape, dst, in_shape, unit,
              term);
        };
        // An output-shaped gradient takes one term per element, so it adds
        // straight in; a reduced one is a multi-term sum.
        if (in_shape == out_shape) {
          scatter(in->MutableGrad());
        } else {
          internal::AccumulateGradWith(*in, scatter);
        }
      };
      accumulate(std::integral_constant<int, kDfaReads>(), self.input(0),
                 a_shape, dfda);
      accumulate(std::integral_constant<int, kDfbReads>(), self.input(1),
                 b_shape, dfdb);
    };
  };
  Tensor result = internal::MakeOpResult(out_shape, std::move(out), {a, b},
                                         make_backward, name);
  // BroadcastBinarySpan fully overwrites and reads operand i of iteration i
  // only within that iteration, so replay with out == in[0] is safe
  // whenever the first operand is not broadcast.
  internal::MaybeCaptureStep(
      result, {a, b},
      {name, /*zero_init=*/false, /*inplace_safe=*/a.shape() == out_shape},
      [&] {
        return [span, a_shape = a.shape(), b_shape = b.shape(),
                out_shape](const float* const* in, float* o) {
          kernels::BroadcastBinarySpan(in[0], a_shape, in[1], b_shape, o,
                                       out_shape, span);
        };
      });
  return result;
}

// The forward loop shared by the eager path and the captured replay closure
// of every unary op: `span` computes one contiguous chunk at a time.
template <typename SpanFn>
void UnaryForward(int64_t n, SpanFn span, const float* a, float* out) {
  ParallelFor(0, n, kernels::kGrainElementwise, [&](int64_t cb, int64_t ce) {
    span(a + cb, out + cb, ce - cb);
  });
}

// Runs `fn(i0, len, scratch)` over [0, n) in blocks of at most kBlock
// elements, handing each block a stack scratch span of `len` floats.
template <typename Fn>
void InBlocks(int64_t n, Fn fn) {
  constexpr int64_t kBlock = 256;
  float scratch[kBlock];
  for (int64_t i0 = 0; i0 < n; i0 += kBlock) {
    fn(i0, std::min(kBlock, n - i0), scratch);
  }
}

// What a unary op's backward saves: the one value its derivative reads.
enum class Saves { kNothing, kInput, kOutput };

// Shared plumbing for unary ops: `span` computes whole contiguous output
// chunks from input chunks. `df` computes d out_i / d a_i, either per
// element from (a_i, out_i) or, when it takes spans (a, out, d, len), into
// d for a whole block, for derivatives that call a span kernel. `saves`
// names the value `df` reads; it is given the output gradient in place of
// the other, which it must not read.
template <typename SpanFn, typename Df>
Tensor UnaryOpSpan(const Tensor& a, SpanFn span, Df df, Saves saves,
                   const char* name) {
  CONFORMER_PROFILE_SCOPE(name);
  CONFORMER_CHECK(a.defined()) << name << " on undefined tensor";
  const int64_t n = a.numel();
  auto out = std::make_shared<Storage>(internal::AcquireBuffer(n));
  UnaryForward(n, span, a.data(), out->data());
  const auto make_backward = [&] {
    return [x = internal::SavedValues(a, saves == Saves::kInput),
            y = saves == Saves::kOutput ? out : nullptr,
            df](AutogradMeta& self) {
      const int64_t n = self.numel;
      const float* gd = self.grad.data();
      const float* ad = x != nullptr ? x->data() : gd;
      const float* yd = y != nullptr ? y->data() : gd;
      float* dst = self.input(0)->MutableGrad();
      ParallelFor(0, n, kernels::kGrainElementwise, [&](int64_t cb,
                                                        int64_t ce) {
        if constexpr (std::is_invocable_v<Df, const float*, const float*,
                                          float*, int64_t>) {
          InBlocks(ce - cb, [&](int64_t i0, int64_t len, float* d) {
            const int64_t b = cb + i0;
            df(ad + b, yd + b, d, len);
            for (int64_t i = 0; i < len; ++i) dst[b + i] += gd[b + i] * d[i];
          });
        } else {
          for (int64_t i = cb; i < ce; ++i) {
            dst[i] += gd[i] * df(ad[i], yd[i]);
          }
        }
      });
    };
  };
  // `out` is passed by copy: make_backward runs inside and may save it.
  Tensor result =
      internal::MakeOpResult(a.shape(), out, {a}, make_backward, name);
  internal::MaybeCaptureStep(
      result, {a}, {name, /*zero_init=*/false, /*inplace_safe=*/true}, [&] {
        return [n, span](const float* const* in, float* o) {
          UnaryForward(n, span, in[0], o);
        };
      });
  return result;
}

// `f` computes out_i from a_i, for ops without a dedicated SIMD kernel in
// tensor/vec; it runs chunk-by-chunk as a span.
template <typename Fn, typename Df>
Tensor UnaryOp(const Tensor& a, Fn f, Df df, Saves saves, const char* name) {
  return UnaryOpSpan(
      a,
      [f](const float* x, float* o, int64_t n) {
        for (int64_t i = 0; i < n; ++i) o[i] = f(x[i]);
      },
      df, saves, name);
}

// Gelu's tanh approximation constants: sqrt(2/pi) and the cubic weight.
constexpr float kGeluC = 0.7978845608f;
constexpr float kGeluB = 0.044715f;

// t[i] = tanh(sqrt(2/pi) (x + 0.044715 x^3)) for a span.
void GeluTanhSpan(const float* x, float* t, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    t[i] = kGeluC * (x[i] + kGeluB * x[i] * x[i] * x[i]);
  }
  vec::TanhN(t, t, n);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOpSpan<kReadsNone, kReadsNone>(a, b, vec::AddN, 1.0f, 1.0f,
                                              "Add");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOpSpan<kReadsNone, kReadsNone>(a, b, vec::SubN, 1.0f, -1.0f,
                                              "Sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOpSpan<kReadsB, kReadsA>(
      a, b, vec::MulN, [](float, float y) { return y; },
      [](float x, float) { return x; }, "Mul");
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOpSpan<kReadsB, kReadsA | kReadsB>(
      a, b, vec::DivN, [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); }, "Div");
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOpSpan(
      a,
      [s](const float* x, float* o, int64_t n) { vec::AddScalarN(x, s, o, n); },
      [](float, float) { return 1.0f; }, Saves::kNothing, "AddScalar");
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOpSpan(
      a,
      [s](const float* x, float* o, int64_t n) { vec::MulScalarN(x, s, o, n); },
      [s](float, float) { return s; }, Saves::kNothing, "MulScalar");
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; }, Saves::kInput, "Log");
}

Tensor Sqrt(const Tensor& a) {
  // Hardware sqrt is IEEE correctly-rounded, so vec::SqrtN == std::sqrt.
  return UnaryOpSpan(a, vec::SqrtN, [](float, float y) { return 0.5f / y; },
                     Saves::kOutput, "Sqrt");
}

Tensor Tanh(const Tensor& a) {
  // vec::TanhN is the shared polynomial tanh (docs/SIMD.md): <= 2 ulp of
  // the exact tanh, bitwise identical across SIMD levels.
  return UnaryOpSpan(a, vec::TanhN, [](float, float y) { return 1.0f - y * y; },
                     Saves::kOutput, "Tanh");
}

Tensor Sigmoid(const Tensor& a) {
  // vec::SigmoidN uses the same tail-stable formulation (z = exp(-|x|),
  // branch on sign) built on the shared polynomial exp.
  return UnaryOpSpan(a, vec::SigmoidN,
                     [](float, float y) { return y * (1.0f - y); },
                     Saves::kOutput, "Sigmoid");
}

Tensor Relu(const Tensor& a) {
  return UnaryOpSpan(a, vec::ReluN,
                     [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; },
                     Saves::kInput, "Relu");
}

Tensor Gelu(const Tensor& a) {
  // tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))),
  // the forward and the derivative's recomputed tanh both through
  // vec::TanhN.
  return UnaryOpSpan(
      a,
      [](const float* x, float* o, int64_t n) {
        InBlocks(n, [&](int64_t i0, int64_t len, float* t) {
          GeluTanhSpan(x + i0, t, len);
          for (int64_t i = 0; i < len; ++i) {
            o[i0 + i] = 0.5f * x[i0 + i] * (1.0f + t[i]);
          }
        });
      },
      [](const float* x, const float*, float* d, int64_t n) {
        GeluTanhSpan(x, d, n);
        for (int64_t i = 0; i < n; ++i) {
          const float t = d[i];
          const float dinner = kGeluC * (1.0f + 3.0f * kGeluB * x[i] * x[i]);
          d[i] = 0.5f * (1.0f + t) + 0.5f * x[i] * (1.0f - t * t) * dinner;
        }
      },
      Saves::kInput, "Gelu");
}

Tensor Softplus(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        // log(1+e^x) = max(x,0) + log1p(e^{-|x|})
        return std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
      },
      [](float x, float) {
        if (x >= 0.0f) {
          const float z = std::exp(-x);
          return 1.0f / (1.0f + z);
        }
        const float z = std::exp(x);
        return z / (1.0f + z);
      },
      Saves::kInput, "Softplus");
}

}  // namespace conformer
