#include <algorithm>
#include <cmath>
#include <memory>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/profiler.h"

namespace conformer {

namespace {

// Softmax / LogSoftmax share the row iteration. `dim` is moved innermost by
// operating on (outer, n, inner) coordinates directly.
struct DimSplit {
  int64_t outer = 1;
  int64_t n = 1;
  int64_t inner = 1;
};

DimSplit SplitAt(const Shape& shape, int64_t dim) {
  DimSplit s;
  const int64_t rank = static_cast<int64_t>(shape.size());
  for (int64_t i = 0; i < dim; ++i) s.outer *= shape[i];
  s.n = shape[dim];
  for (int64_t i = dim + 1; i < rank; ++i) s.inner *= shape[i];
  return s;
}

// Runs `row_fn(base)` for every (outer, inner) row of the split in parallel;
// each row owns the disjoint offsets {base + j * inner}, so the per-row
// reduction order is sequential and the result thread-count independent.
template <typename RowFn>
void ParallelRows(const DimSplit& s, RowFn row_fn) {
  const int64_t rows = s.outer * s.inner;
  const int64_t grain =
      std::max<int64_t>(1, kernels::kGrainStrided / std::max<int64_t>(1, s.n));
  ParallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t o = r / s.inner;
      const int64_t i = r % s.inner;
      row_fn(o * s.n * s.inner + i);
    }
  });
}

// GruSequence's per-step working set: the carried state [B, h], the
// recurrent pre-activations gh [B, 3h], the r|z activations [B, 2h] and the
// candidate n [B, h]. Thread-local and grown on first use, so plan replay
// allocates nothing after warm-up and one replay closure can run on many
// threads at once.
float* GruStepScratch(int64_t n) {
  thread_local std::vector<float> scratch;
  if (static_cast<int64_t>(scratch.size()) < n) scratch.resize(n);
  return scratch.data();
}

// Runs one GRU layer over `length` steps from a zero state, writing every
// state to `out` [B, L, h]. The float order per element is the composed
// per-step graph's: Gemm for h·W_hh, then + b_hh, sigmoid(gi + gh) and
// tanh(gi_n + r*gh_n) through the dispatched kernels, ((1-z)*n) + (z*h).
// Each step makes three passes over the whole batch, so the sigmoid and
// the tanh each run as one span. When `saved` is non-null it receives,
// time-major, h_{t-1} [L, B, h] followed by r, z, n, gh_n [L, B, 4h] for
// the backward pass.
void GruSequenceForward(const float* gates, const float* w_hh,
                        const float* b_hh, int64_t batch, int64_t length,
                        int64_t hs, float* out, float* saved) {
  const int64_t g3 = 3 * hs;
  float* h = GruStepScratch(batch * (hs + g3 + 2 * hs + hs));
  float* gh = h + batch * hs;
  float* rz = gh + batch * g3;
  float* cand = rz + batch * 2 * hs;
  std::fill(h, h + batch * hs, 0.0f);
  float* saved_h = saved;
  float* saved_act = saved == nullptr ? nullptr : saved + length * batch * hs;
  for (int64_t t = 0; t < length; ++t) {
    kernels::Gemm(false, false, batch, g3, hs, h, w_hh, gh,
                  /*accumulate=*/false);
    for (int64_t b = 0; b < batch; ++b) {
      const float* gi = gates + (b * length + t) * g3;
      float* ghb = gh + b * g3;
      float* rzb = rz + b * 2 * hs;
      for (int64_t j = 0; j < g3; ++j) ghb[j] = ghb[j] + b_hh[j];
      for (int64_t j = 0; j < 2 * hs; ++j) rzb[j] = gi[j] + ghb[j];
    }
    vec::SigmoidN(rz, rz, batch * 2 * hs);
    for (int64_t b = 0; b < batch; ++b) {
      const float* gi = gates + (b * length + t) * g3 + 2 * hs;
      const float* ghn = gh + b * g3 + 2 * hs;
      const float* r = rz + b * 2 * hs;
      float* nb = cand + b * hs;
      for (int64_t j = 0; j < hs; ++j) nb[j] = gi[j] + r[j] * ghn[j];
    }
    vec::TanhN(cand, cand, batch * hs);
    if (saved != nullptr) {
      std::copy(h, h + batch * hs, saved_h + t * batch * hs);
    }
    for (int64_t b = 0; b < batch; ++b) {
      const float* rzb = rz + b * 2 * hs;
      const float* z = rzb + hs;
      const float* nb = cand + b * hs;
      float* hb = h + b * hs;
      float* ob = out + (b * length + t) * hs;
      if (saved != nullptr) {
        float* sa = saved_act + (t * batch + b) * 4 * hs;
        std::copy(rzb, rzb + 2 * hs, sa);
        std::copy(nb, nb + hs, sa + 2 * hs);
        std::copy(gh + b * g3 + 2 * hs, gh + (b + 1) * g3, sa + 3 * hs);
      }
      for (int64_t j = 0; j < hs; ++j) {
        hb[j] = (1.0f - z[j]) * nb[j] + z[j] * hb[j];
        ob[j] = hb[j];
      }
    }
  }
}

}  // namespace

Tensor GruSequence(const Tensor& gates, const Tensor& w_hh,
                   const Tensor& b_hh) {
  CONFORMER_PROFILE_SCOPE("gru_sequence");
  CONFORMER_CHECK(gates.defined() && w_hh.defined() && b_hh.defined());
  CONFORMER_CHECK_EQ(w_hh.dim(), 2) << "GruSequence w_hh must be [h, 3h]";
  const int64_t hs = w_hh.size(0);
  const int64_t g3 = 3 * hs;
  CONFORMER_CHECK_EQ(w_hh.size(1), g3)
      << "GruSequence w_hh must be [h, 3h], got "
      << ShapeToString(w_hh.shape());
  CONFORMER_CHECK(b_hh.shape() == Shape{g3})
      << "GruSequence b_hh must be [" << g3 << "], got "
      << ShapeToString(b_hh.shape());
  CONFORMER_CHECK(gates.dim() == 3 && gates.size(2) == g3)
      << "GruSequence gates must be [B, L, " << g3 << "], got "
      << ShapeToString(gates.shape());
  const int64_t batch = gates.size(0);
  const int64_t length = gates.size(1);

  const bool record = internal::GradWillFlow(gates) ||
                      internal::GradWillFlow(w_hh) ||
                      internal::GradWillFlow(b_hh);
  std::vector<float> out = internal::AcquireBuffer(batch * length * hs);
  // The BPTT state is a Storage so AllocStats counts it like a tensor value.
  std::shared_ptr<Storage> saved;
  if (record) {
    saved = std::make_shared<Storage>(
        std::vector<float>(length * batch * 5 * hs));
  }
  GruSequenceForward(gates.data(), w_hh.data(), b_hh.data(), batch, length, hs,
                     out.data(), record ? saved->data() : nullptr);

  // BPTT reads the saved state and W_hh; the gates' values are spent.
  const auto make_backward = [&] {
    return [w_vals = w_hh.impl()->storage, saved = std::move(saved), batch,
            length, hs, g3](AutogradMeta& self) {
      const int64_t rows = length * batch;
      const float* gd = self.grad.data();
      const float* saved_h = saved->data();
      const float* saved_act = saved_h + rows * hs;
      // dgh: gradient wrt each step's recurrent pre-activations
      // h·W_hh + b_hh, time-major [L, B, 3h] so one step's block is a
      // contiguous Gemm operand. A Storage, so AllocStats counts it.
      Storage dgh(std::vector<float>(rows * g3));
      // Each gate gradient is one term, so it adds straight into the gates'
      // gradient.
      AutogradMeta* gates_in = self.input(0);
      float* dgates = gates_in != nullptr ? gates_in->MutableGrad() : nullptr;
      std::vector<float> dh(batch * hs, 0.0f);  // dL/dh_t from later steps.
      std::vector<float> dh_prev(batch * hs);
      for (int64_t t = length - 1; t >= 0; --t) {
        for (int64_t b = 0; b < batch; ++b) {
          const float* hp = saved_h + (t * batch + b) * hs;
          const float* act = saved_act + (t * batch + b) * 4 * hs;
          const float* g = gd + (b * length + t) * hs;
          float* dghb = dgh.data() + (t * batch + b) * g3;
          float* dgi = dgates == nullptr ? nullptr
                                         : dgates + (b * length + t) * g3;
          for (int64_t j = 0; j < hs; ++j) {
            const float r = act[j];
            const float z = act[hs + j];
            const float n = act[2 * hs + j];
            const float d = g[j] + dh[b * hs + j];
            const float dn = d * (1.0f - z) * (1.0f - n * n);
            const float dz = d * (hp[j] - n) * z * (1.0f - z);
            const float dr = dn * act[3 * hs + j] * r * (1.0f - r);
            if (dgi != nullptr) {
              dgi[j] += dr;
              dgi[hs + j] += dz;
              dgi[2 * hs + j] += dn;
            }
            dghb[j] = dr;
            dghb[hs + j] = dz;
            dghb[2 * hs + j] = dn * r;
            dh_prev[b * hs + j] = d * z;
          }
        }
        if (t == 0) break;
        // dL/dh_{t-1} = d*z + dgh_t · W_hh^T.
        kernels::Gemm(false, true, batch, hs, g3, dgh.data() + t * batch * g3,
                      w_vals->data(), dh_prev.data(), /*accumulate=*/true);
        std::swap(dh, dh_prev);
      }
      if (AutogradMeta* w_in = self.input(1)) {
        // dW_hh = sum_t h_{t-1}^T · dgh_t, as one Gemm over every (t, b) row.
        internal::AccumulateGradWith(*w_in, [&](float* dw) {
          kernels::Gemm(true, false, hs, g3, rows, saved_h, dgh.data(), dw,
                        /*accumulate=*/true);
        });
      }
      if (AutogradMeta* b_in = self.input(2)) {
        internal::AccumulateGradWith(*b_in, [&](float* db) {
          for (int64_t r = 0; r < rows; ++r) {
            const float* row = dgh.data() + r * g3;
            for (int64_t j = 0; j < g3; ++j) db[j] += row[j];
          }
        });
      }
    };
  };
  Tensor result = internal::MakeOpResult({batch, length, hs}, std::move(out),
                                         {gates, w_hh, b_hh}, make_backward,
                                         "GruSequence");
  internal::MaybeCaptureStep(
      result, {gates, w_hh, b_hh},
      {"GruSequence", /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [batch, length, hs](const float* const* in, float* o) {
          GruSequenceForward(in[0], in[1], in[2], batch, length, hs, o,
                             /*saved=*/nullptr);
        };
      });
  return result;
}

namespace {

// BandedAttention's geometry: q [BH, Lq, dk], k [BH, Lk, dk], v [BH, Lk, dv]
// and `width` taps per query.
struct Band {
  int64_t bh = 0;
  int64_t lq = 0;
  int64_t lk = 0;
  int64_t dk = 0;
  int64_t dv = 0;
  int64_t width = 0;
  float scale = 1.0f;

  // Rows of BH per ParallelFor chunk: one row is Lq * W dot products and
  // weighted sums of d floats.
  int64_t Grain() const {
    return std::max<int64_t>(
        1, kernels::kGrainStrided /
               std::max<int64_t>(1, lq * width * (dk + dv)));
  }
};

// One query row's softmax weights when the forward saves none (plan replay
// and no-grad calls). Thread-local and grown on first use, as GruStepScratch.
float* BandWeightScratch(int64_t n) {
  thread_local std::vector<float> scratch;
  if (static_cast<int64_t>(scratch.size()) < n) scratch.resize(n);
  return scratch.data();
}

// Writes out [BH, Lq, dv] and, when `weights` is non-null, the softmax
// weights [BH, Lq, W]. Per (bh, i): score_j = DotN(q_i, k_tap) * scale +
// mask_j, then SoftmaxRowN over the W scores, then out_i = +0 plus w_j * v_tap
// for ascending j. DotN keeps SumN's bins, tail and fold, so every bit is
// that of the composed Mul, Sum, MulScalar, Add, Softmax, Mul and Sum graph.
void BandedAttentionForward(const Band& g, const float* q, const float* k,
                            const float* v, const int64_t* taps,
                            const float* mask, float* out, float* weights) {
  ParallelFor(0, g.bh, g.Grain(), [&](int64_t b0, int64_t b1) {
    float* row_scratch =
        weights == nullptr ? BandWeightScratch(g.width) : nullptr;
    for (int64_t b = b0; b < b1; ++b) {
      const float* kb = k + b * g.lk * g.dk;
      const float* vb = v + b * g.lk * g.dv;
      for (int64_t i = 0; i < g.lq; ++i) {
        const int64_t r = b * g.lq + i;
        const int64_t* tap = taps + i * g.width;
        const float* qi = q + r * g.dk;
        float* w = weights == nullptr ? row_scratch : weights + r * g.width;
        for (int64_t j = 0; j < g.width; ++j) {
          w[j] = vec::DotN(qi, kb + tap[j] * g.dk, g.dk) * g.scale +
                 mask[i * g.width + j];
        }
        vec::SoftmaxRowN(w, w, g.width);
        float* o = out + r * g.dv;
        std::fill(o, o + g.dv, 0.0f);
        for (int64_t j = 0; j < g.width; ++j) {
          vec::MulAddN(vb + tap[j] * g.dv, w[j], o, g.dv);
        }
      }
    }
  });
}

// Adds the gradients of q, k and v (each null when not wanted) into zeroed
// buffers from the output gradient `gd` and the saved weights. Per (bh, i):
// dw_j = sum_d g_d * v_tap,d and dot = sum_j dw_j * w_j, both sequential
// from +0 (the broadcast-gradient and Softmax-backward orders); then
// gs_j = w_j * (dw_j - dot) * scale, and dq_i += gs_j * k_tap,
// dk_tap += gs_j * q_i and dv_tap += w_j * g in ascending (i, j): the
// order of the composed graph's broadcast reduce and IndexSelect scatter.
// dk and dv rows are shared across queries, so chunks own whole BH rows.
// `k` is read only for dq and `q` only for dk; either may be null when its
// reader is.
void BandedAttentionBackward(const Band& g, const float* q, const float* k,
                             const float* v, const int64_t* taps,
                             const float* weights, const float* gd, float* dq,
                             float* dk, float* dv) {
  ParallelFor(0, g.bh, g.Grain(), [&](int64_t b0, int64_t b1) {
    float* gs = BandWeightScratch(g.width);
    for (int64_t b = b0; b < b1; ++b) {
      const float* vb = v + b * g.lk * g.dv;
      for (int64_t i = 0; i < g.lq; ++i) {
        const int64_t r = b * g.lq + i;
        const int64_t* tap = taps + i * g.width;
        const float* w = weights + r * g.width;
        const float* go = gd + r * g.dv;
        float dot = 0.0f;
        for (int64_t j = 0; j < g.width; ++j) {
          const float* vt = vb + tap[j] * g.dv;
          float dw = 0.0f;
          for (int64_t d = 0; d < g.dv; ++d) dw += vt[d] * go[d];
          gs[j] = dw;
          dot += dw * w[j];
        }
        for (int64_t j = 0; j < g.width; ++j) {
          gs[j] = w[j] * (gs[j] - dot) * g.scale;
        }
        for (int64_t j = 0; j < g.width; ++j) {
          const int64_t key = b * g.lk + tap[j];
          if (dq != nullptr) {
            vec::MulAddN(k + key * g.dk, gs[j], dq + r * g.dk, g.dk);
          }
          if (dk != nullptr) {
            vec::MulAddN(q + r * g.dk, gs[j], dk + key * g.dk, g.dk);
          }
          if (dv != nullptr) {
            vec::MulAddN(go, w[j], dv + key * g.dv, g.dv);
          }
        }
      }
    }
  });
}

// Runs fn(dst) with `in`'s zeroed gradient contribution buffer, or
// fn(nullptr) when no gradient flows to `in` (null).
template <typename Fn>
void WithGradBuffer(AutogradMeta* in, Fn fn) {
  if (in == nullptr) {
    fn(nullptr);
    return;
  }
  internal::AccumulateGradWith(*in, fn);
}

}  // namespace

Tensor BandedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                       std::vector<int64_t> taps, std::vector<float> mask,
                       int64_t width) {
  CONFORMER_PROFILE_SCOPE("banded_attention");
  CONFORMER_CHECK(q.defined() && k.defined() && v.defined());
  CONFORMER_CHECK(q.dim() == 3 && k.dim() == 3 && v.dim() == 3)
      << "BandedAttention expects [BH, L, d] operands";
  Band g;
  g.bh = q.size(0);
  g.lq = q.size(1);
  g.lk = k.size(1);
  g.dk = q.size(2);
  g.dv = v.size(2);
  g.width = width;
  g.scale = 1.0f / std::sqrt(static_cast<float>(g.dk));
  CONFORMER_CHECK(k.size(0) == g.bh && v.size(0) == g.bh &&
                  k.size(2) == g.dk && v.size(1) == g.lk)
      << "BandedAttention shapes q " << ShapeToString(q.shape()) << ", k "
      << ShapeToString(k.shape()) << ", v " << ShapeToString(v.shape());
  CONFORMER_CHECK_GE(width, 1);
  CONFORMER_CHECK_EQ(static_cast<int64_t>(taps.size()), g.lq * width);
  CONFORMER_CHECK_EQ(static_cast<int64_t>(mask.size()), g.lq * width);
  for (int64_t t : taps) {
    CONFORMER_CHECK(t >= 0 && t < g.lk)
        << "tap " << t << " out of range [0, " << g.lk << ")";
  }

  const bool record = internal::GradWillFlow(q) || internal::GradWillFlow(k) ||
                      internal::GradWillFlow(v);
  std::vector<float> out = internal::AcquireBuffer(g.bh * g.lq * g.dv);
  // Saved as a Storage so AllocStats counts it like a tensor value.
  std::shared_ptr<Storage> weights;
  if (record) {
    weights = std::make_shared<Storage>(
        std::vector<float>(g.bh * g.lq * width));
  }
  BandedAttentionForward(g, q.data(), k.data(), v.data(), taps.data(),
                         mask.data(), out.data(),
                         record ? weights->data() : nullptr);

  // Every gradient reads V (through dw); dq reads K and dk reads Q.
  const auto make_backward = [&] {
    return [q_vals = internal::SavedValues(q, internal::NeedsGrad(k)),
            k_vals = internal::SavedValues(k, internal::NeedsGrad(q)),
            v_vals = v.impl()->storage, g, taps,
            weights = std::move(weights)](AutogradMeta& self) {
      WithGradBuffer(self.input(0), [&](float* dq) {
        WithGradBuffer(self.input(1), [&](float* dk) {
          WithGradBuffer(self.input(2), [&](float* dv) {
            BandedAttentionBackward(
                g, q_vals != nullptr ? q_vals->data() : nullptr,
                k_vals != nullptr ? k_vals->data() : nullptr, v_vals->data(),
                taps.data(), weights->data(), self.grad.data(), dq, dk, dv);
          });
        });
      });
    };
  };
  Tensor result = internal::MakeOpResult({g.bh, g.lq, g.dv}, std::move(out),
                                         {q, k, v}, make_backward,
                                         "BandedAttention");
  internal::MaybeCaptureStep(
      result, {q, k, v},
      {"BandedAttention", /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [g, taps = std::move(taps), mask = std::move(mask)](
                   const float* const* in, float* o) {
          BandedAttentionForward(g, in[0], in[1], in[2], taps.data(),
                                 mask.data(), o, /*weights=*/nullptr);
        };
      });
  return result;
}

Tensor Softmax(const Tensor& a, int64_t dim) {
  CONFORMER_PROFILE_SCOPE("softmax");
  CONFORMER_CHECK(a.defined());
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  const DimSplit s = SplitAt(a.shape(), dim);

  auto out = std::make_shared<Storage>(internal::AcquireBuffer(a.numel()));
  auto forward = [s](const float* ad, float* dst) {
    if (s.inner == 1) {
      // Contiguous rows: the dispatched SIMD row kernel (same max/exp/sum
      // algorithm with the fixed 8-bin fold; see docs/SIMD.md).
      ParallelRows(s, [&](int64_t base) {
        vec::SoftmaxRowN(ad + base, dst + base, s.n);
      });
      return;
    }
    ParallelRows(s, [&](int64_t base) {
      float mx = ad[base];
      for (int64_t j = 1; j < s.n; ++j) {
        mx = std::max(mx, ad[base + j * s.inner]);
      }
      float total = 0.0f;
      for (int64_t j = 0; j < s.n; ++j) {
        const float e = std::exp(ad[base + j * s.inner] - mx);
        dst[base + j * s.inner] = e;
        total += e;
      }
      const float inv = 1.0f / total;
      for (int64_t j = 0; j < s.n; ++j) dst[base + j * s.inner] *= inv;
    });
  };
  forward(a.data(), out->data());

  const auto make_backward = [&] {
    return [y = out, s](AutogradMeta& self) {
      // dx_j = y_j * (g_j - sum_k g_k y_k), one term per element.
      float* delta = self.input(0)->MutableGrad();
      const float* gd = self.grad.data();
      const float* yd = y->data();
      ParallelRows(s, [&](int64_t base) {
        float dot = 0.0f;
        for (int64_t j = 0; j < s.n; ++j) {
          const int64_t off = base + j * s.inner;
          dot += gd[off] * yd[off];
        }
        for (int64_t j = 0; j < s.n; ++j) {
          const int64_t off = base + j * s.inner;
          delta[off] += yd[off] * (gd[off] - dot);
        }
      });
    };
  };
  // `out` is passed by copy: make_backward runs inside and saves it.
  Tensor result =
      internal::MakeOpResult(a.shape(), out, {a}, make_backward, "Softmax");
  internal::MaybeCaptureStep(
      result, {a}, {"Softmax", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor LogSoftmax(const Tensor& a, int64_t dim) {
  CONFORMER_PROFILE_SCOPE("log_softmax");
  CONFORMER_CHECK(a.defined());
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  const DimSplit s = SplitAt(a.shape(), dim);

  auto out = std::make_shared<Storage>(internal::AcquireBuffer(a.numel()));
  auto forward = [s](const float* ad, float* dst) {
    if (s.inner == 1) {
      ParallelRows(s, [&](int64_t base) {
        vec::LogSoftmaxRowN(ad + base, dst + base, s.n);
      });
      return;
    }
    ParallelRows(s, [&](int64_t base) {
      float mx = ad[base];
      for (int64_t j = 1; j < s.n; ++j) {
        mx = std::max(mx, ad[base + j * s.inner]);
      }
      float total = 0.0f;
      for (int64_t j = 0; j < s.n; ++j) {
        total += std::exp(ad[base + j * s.inner] - mx);
      }
      const float lse = mx + std::log(total);
      for (int64_t j = 0; j < s.n; ++j) {
        dst[base + j * s.inner] = ad[base + j * s.inner] - lse;
      }
    });
  };
  forward(a.data(), out->data());

  const auto make_backward = [&] {
    return [y = out, s](AutogradMeta& self) {
      // dx_j = g_j - softmax_j * sum_k g_k, one term per element.
      float* delta = self.input(0)->MutableGrad();
      const float* gd = self.grad.data();
      const float* yd = y->data();
      ParallelRows(s, [&](int64_t base) {
        float gsum = 0.0f;
        for (int64_t j = 0; j < s.n; ++j) gsum += gd[base + j * s.inner];
        for (int64_t j = 0; j < s.n; ++j) {
          const int64_t off = base + j * s.inner;
          delta[off] += gd[off] - std::exp(yd[off]) * gsum;
        }
      });
    };
  };
  // `out` is passed by copy: make_backward runs inside and saves it.
  Tensor result =
      internal::MakeOpResult(a.shape(), out, {a}, make_backward, "LogSoftmax");
  internal::MaybeCaptureStep(
      result, {a}, {"LogSoftmax", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor DropoutOp(const Tensor& a, float p, bool training, Rng* rng) {
  CONFORMER_PROFILE_SCOPE("dropout");
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK(p >= 0.0f && p < 1.0f) << "dropout p must be in [0, 1)";
  if (!training || p == 0.0f) return a;
  Rng& r = rng != nullptr ? *rng : GlobalRng();
  const float scale = 1.0f / (1.0f - p);
  std::vector<float> mask(a.numel());
  for (float& m : mask) m = r.Bernoulli(p) ? 0.0f : scale;
  Tensor mask_t = Tensor::FromVector(std::move(mask), a.shape());
  return Mul(a, mask_t);
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  CONFORMER_PROFILE_SCOPE("mse_loss");
  Tensor diff = Sub(pred, target.Detach());
  return Mean(Mul(diff, diff));
}

}  // namespace conformer
