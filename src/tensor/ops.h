// Differentiable tensor operations. Every function returns a fresh tensor
// and records an autograd node when recording is enabled (see NoGradGuard).
//
// Implementations are split across ops_*.cc by family:
//   elementwise | matmul | reduce | shape | index | conv | nn

#ifndef CONFORMER_TENSOR_OPS_H_
#define CONFORMER_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/random.h"

namespace conformer {

// -- Elementwise binary (numpy broadcasting) ------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }

// -- Elementwise with scalar ----------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

inline Tensor operator+(const Tensor& a, float s) { return AddScalar(a, s); }
inline Tensor operator-(const Tensor& a, float s) { return AddScalar(a, -s); }
inline Tensor operator*(const Tensor& a, float s) { return MulScalar(a, s); }
inline Tensor operator/(const Tensor& a, float s) { return MulScalar(a, 1.0f / s); }
inline Tensor operator*(float s, const Tensor& a) { return MulScalar(a, s); }

// -- Elementwise unary ------------------------------------------------------

Tensor Neg(const Tensor& a);
/// Natural log; inputs must be positive.
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
/// Gaussian error linear unit (tanh approximation).
Tensor Gelu(const Tensor& a);
/// log(1 + e^x), numerically stabilized.
Tensor Softplus(const Tensor& a);

inline Tensor operator-(const Tensor& a) { return Neg(a); }

// -- Matrix multiplication ---------------------------------------------------

/// Batched matmul: [..., m, k] x [..., k, n] -> [..., m, n]. Leading batch
/// dims broadcast. Rank-2 inputs work as plain matmul.
Tensor MatMul(const Tensor& a, const Tensor& b);

// -- Reductions -------------------------------------------------------------

/// Sum over `dims` (all dims when empty). Negative dims allowed.
Tensor Sum(const Tensor& a, std::vector<int64_t> dims = {}, bool keepdim = false);
Tensor Mean(const Tensor& a, std::vector<int64_t> dims = {}, bool keepdim = false);

// -- Shape manipulation -------------------------------------------------------

/// Reshape to `shape`; one entry may be -1 (inferred). Data order preserved.
Tensor Reshape(const Tensor& a, Shape shape);
/// The one strided-view primitive: output element i (flat, row-major over
/// `shape`) is a[offset + sum_d idx_d(i) * strides[d]]. Strides may be 0
/// (repeats) and views may overlap (im2col windows); CHECKs that every read
/// stays inside `a`. The forward is kernels::Gather; the backward
/// kernels::ScatterAdd, in ascending flat output order per input element
/// (batch-parallel for im2col). `name` (a string literal) names the
/// autograd node and the plan step. Slice, Permute, Transpose, Tile,
/// BroadcastTo, ReplicatePad and conv im2col ("Unfold") are views built on
/// it.
Tensor AsStrided(const Tensor& a, Shape shape, std::vector<int64_t> strides,
                 int64_t offset, const char* name);
/// Permutes dimensions; `perm` is the new order of old dims.
Tensor Permute(const Tensor& a, std::vector<int64_t> perm);
/// Swaps two dimensions.
Tensor Transpose(const Tensor& a, int64_t d0, int64_t d1);
/// Contiguous slice along `dim`: elements [start, end); negative indices
/// count from the end. Use AsStrided for a stepped view.
Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end);
/// Concatenates along `dim`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t dim);
/// Stacks equal-shaped tensors along a new leading `dim`.
Tensor StackTensors(const std::vector<Tensor>& parts, int64_t dim = 0);
Tensor Unsqueeze(const Tensor& a, int64_t dim);
Tensor Squeeze(const Tensor& a, int64_t dim);
/// Pads `dim` with `before`/`after` constant values.
Tensor Pad(const Tensor& a, int64_t dim, int64_t before, int64_t after,
           float value = 0.0f);
/// Pads `dim` by replicating the edge values (Autoformer's moving-average
/// padding convention).
Tensor ReplicatePad(const Tensor& a, int64_t dim, int64_t before, int64_t after);
/// Materializes a broadcast to `shape` (a stride-0 view).
Tensor BroadcastTo(const Tensor& a, const Shape& shape);
/// Repeats the tensor `repeats[d]` times along each dim (a stride-0 view).
Tensor Tile(const Tensor& a, const std::vector<int64_t>& repeats);

// -- Indexing -----------------------------------------------------------------

/// Selects rows along `dim` by `indices` (may repeat / reorder). Gradient
/// scatter-adds back.
Tensor IndexSelect(const Tensor& a, int64_t dim, const std::vector<int64_t>& indices);
/// Circular shift along `dim` by `shift` (positive rolls toward higher
/// indices), like torch.roll.
Tensor Roll(const Tensor& a, int64_t dim, int64_t shift);
/// Per-batch gather along dim 1 of a [B, L, D] tensor: `indices` holds B*K
/// row indices (batch-major); returns [B, K, D]. Gradient scatter-adds.
Tensor BatchedIndexSelect(const Tensor& a, const std::vector<int64_t>& indices,
                          int64_t k);
/// Rows of `table` [n, d] at `indices` (any shape; every value an integer
/// in [0, n) stored as a float): [indices..., d]. The indices are a tensor so
/// a static plan reads them from their slot. Gradient scatter-adds into
/// `table`, in IndexSelect's order; none flows to `indices`.
Tensor EmbeddingLookup(const Tensor& table, const Tensor& indices);

// -- Convolution / pooling -------------------------------------------------------

enum class PadMode { kZeros, kCircular, kReplicate };

/// 1-D convolution. input [B, Cin, L], weight [Cout, Cin, K], optional bias
/// [Cout]; `padding` added on both sides with `mode`; `dilation` spaces the
/// kernel taps (effective kernel span = (K-1)*dilation + 1); `stride` steps
/// the window, out_len = (padded_len - span) / stride + 1. Circular padding
/// folds whole-tile repeats, so any padding width is legal.
Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t padding, PadMode mode = PadMode::kZeros,
              int64_t dilation = 1, int64_t stride = 1);
/// 2-D convolution over [B, Cin, H, W] with weight [Cout, Cin, Kh, Kw] and
/// optional bias [Cout]; symmetric zero padding per axis, unit stride.
/// Like Conv1d, im2col is one AsStrided "Unfold" view of the padded input
/// followed by one MatMul, so autograd, static-plan capture, and the
/// threading / SIMD determinism contracts are inherited rather than
/// re-implemented.
Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t padding_h, int64_t padding_w);
/// Centred moving average along `dim` with an odd window `kernel`; the
/// edges replicate (source indices clamp to [0, size(dim))), so the output
/// has the input's shape. Along time in [B, L, D] each output row is the sum
/// of `kernel` whole input rows from +0 in window order, times 1/kernel:
/// the forward is bitwise equal to replicate-padding and averaging each
/// window. The backward adds each gradient row times 1/kernel into its
/// clamped input rows in ascending (t, k) order.
Tensor MovingAverage(const Tensor& x, int64_t dim, int64_t kernel);
/// 1-D max pooling over the last dim (gradient routes to the argmax).
Tensor MaxPool1d(const Tensor& input, int64_t kernel, int64_t stride);

// -- NN functionals ---------------------------------------------------------------

/// Softmax over `dim` (numerically stabilized).
Tensor Softmax(const Tensor& a, int64_t dim);
Tensor LogSoftmax(const Tensor& a, int64_t dim);
/// Inverted dropout; identity when `training` is false or p == 0.
Tensor DropoutOp(const Tensor& a, float p, bool training, Rng* rng = nullptr);
/// Mean squared error over all elements.
Tensor MseLoss(const Tensor& pred, const Tensor& target);

/// One GRU layer (torch gate layout r, z, n) over a whole sequence from a
/// zero state, as a single op: `gates` [B, L, 3h] holds the input-side
/// pre-activations x·W_ih + b_ih of every step; returns the state after
/// every step, [B, L, h]. Per step: gh = h·W_hh + b_hh,
/// r|z = sigmoid(gi + gh), n = tanh(gi_n + r*gh_n), h' = (1-z)*n + z*h, in
/// exactly that float order. Backward is hand-written BPTT.
Tensor GruSequence(const Tensor& gates, const Tensor& w_hh, const Tensor& b_hh);

/// Banded attention over `width` taps per query, as a single op (the
/// sliding-window and LogSparse patterns): query i of every row attends to
/// keys taps[i * width + j] with the additive mask[i * width + j] (0 or
/// -1e9) on its score. q [BH, Lq, dk], k [BH, Lk, dk], v [BH, Lk, dv] ->
/// [BH, Lq, dv]; taps (in [0, Lk)) and mask hold Lq * width entries. Keys
/// and values are read in place and only the [BH, Lq, W] softmax weights
/// are saved. Bitwise equal to the composed IndexSelect / Mul / Sum /
/// MulScalar / Add / Softmax graph; backward is hand-written, and both
/// passes are parallel over BH only.
Tensor BandedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                       std::vector<int64_t> taps, std::vector<float> mask,
                       int64_t width);

}  // namespace conformer

#endif  // CONFORMER_TENSOR_OPS_H_
