// A small dense float32 tensor with reverse-mode automatic differentiation.
//
// Tensors are contiguous, row-major, and have value semantics over a shared
// implementation (copying a Tensor aliases the same buffer, like
// torch.Tensor). Operations are free functions declared in tensor/ops.h;
// each op records an AutogradNode so that calling Backward() on a scalar
// result accumulates gradients into every `requires_grad` leaf.

#ifndef CONFORMER_TENSOR_TENSOR_H_
#define CONFORMER_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/random.h"

namespace conformer {

using Shape = std::vector<int64_t>;

/// Number of elements for a shape (product of dims; 1 for rank-0).
int64_t NumElements(const Shape& shape);

/// Row-major strides for a contiguous tensor of `shape`.
std::vector<int64_t> ContiguousStrides(const Shape& shape);

/// Renders e.g. "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

class TensorImpl;

/// \brief One recorded operation in the autograd tape.
///
/// `inputs` keeps the producing subgraph alive; `backward` reads the output
/// gradient (passed as the owning TensorImpl) and accumulates into the
/// inputs' gradients.
struct AutogradNode {
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  std::function<void(TensorImpl&)> backward;
  const char* op_name = "";
};

/// \brief Shared tensor storage: data, shape, gradient, and tape node.
class TensorImpl {
 public:
  TensorImpl(Shape shape, std::vector<float> values);
  ~TensorImpl();

  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  /// Accumulates `delta` (same length as data) into the gradient buffer,
  /// allocating it on first use.
  void AccumulateGrad(const float* delta, int64_t n);

  std::vector<float> data;
  Shape shape;
  std::vector<float> grad;  // Empty until a gradient is accumulated.
  bool requires_grad = false;
  std::shared_ptr<AutogradNode> node;  // Null for leaves.
};

/// \brief Value-semantics handle to a TensorImpl.
class Tensor {
 public:
  /// An empty (null) tensor; most operations on it are invalid.
  Tensor() = default;

  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // -- Factories --------------------------------------------------------

  static Tensor Zeros(const Shape& shape);
  static Tensor Ones(const Shape& shape);
  static Tensor Full(const Shape& shape, float value);
  static Tensor FromVector(std::vector<float> values, const Shape& shape);
  /// 1-D tensor [start, start+step, ...) of `n` values.
  static Tensor Arange(int64_t n, float start = 0.0f, float step = 1.0f);
  /// Standard-normal entries drawn from `rng` (GlobalRng() by default).
  static Tensor Randn(const Shape& shape, Rng* rng = nullptr);
  /// Uniform [lo, hi) entries drawn from `rng` (GlobalRng() by default).
  static Tensor Rand(const Shape& shape, float lo = 0.0f, float hi = 1.0f,
                     Rng* rng = nullptr);
  /// 2-D identity.
  static Tensor Eye(int64_t n);

  // -- Introspection ----------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int64_t dim() const { return static_cast<int64_t>(shape().size()); }
  int64_t numel() const { return NumElements(shape()); }
  /// Size along dimension `d`; negative d counts from the back.
  int64_t size(int64_t d) const;

  const float* data() const;
  float* data();
  /// Value of a rank-<=1 single-element tensor.
  float item() const;
  /// Element access by multi-index (debug/test convenience; bounds-checked).
  float at(std::initializer_list<int64_t> index) const;

  std::string ToString(int64_t max_per_dim = 8) const;

  // -- Autograd ---------------------------------------------------------

  bool requires_grad() const;
  /// Marks this tensor as a differentiable leaf (or not). Returns *this.
  Tensor& set_requires_grad(bool value);

  bool has_grad() const;
  /// The accumulated gradient as a detached tensor (zeros if none).
  Tensor grad() const;
  float* grad_data();
  /// Clears the accumulated gradient.
  void ZeroGrad();

  /// Runs backpropagation from this scalar (numel()==1) tensor. Frees the
  /// tape afterwards unless `retain_graph`.
  void Backward(bool retain_graph = false);

  /// A tensor sharing this buffer but cut off from the tape.
  Tensor Detach() const;
  /// A deep copy (fresh buffer, no tape).
  Tensor Clone() const;

  /// In-place elementwise copy from `src` (same numel; no autograd).
  void CopyDataFrom(const Tensor& src);

  std::shared_ptr<TensorImpl> impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// \brief Temporarily disables autograd recording (RAII), like
/// torch.no_grad(). Nestable.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True when op recording is currently enabled.
bool GradRecordingEnabled();

/// No-op, kept for source compatibility: op outputs are plain allocations,
/// so there is no per-thread buffer cache to drop.
void ClearBufferPool();

namespace internal {

/// True if autograd should record an op over these inputs.
bool ShouldRecord(const std::vector<Tensor>& inputs);

/// A zero-filled buffer of `n` floats for an op output (empty for n <= 0).
std::vector<float> AcquireBuffer(int64_t n);

/// Builds the output tensor for an op: attaches an AutogradNode with the
/// given backward fn when recording is active.
Tensor MakeOpResult(Shape shape, std::vector<float> values,
                    std::vector<Tensor> inputs,
                    std::function<void(TensorImpl&)> backward,
                    const char* op_name);

}  // namespace internal
}  // namespace conformer

#endif  // CONFORMER_TENSOR_TENSOR_H_
