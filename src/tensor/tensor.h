// A small dense float32 tensor with reverse-mode automatic differentiation.
//
// Tensors are contiguous, row-major, and have value semantics over a shared
// implementation (copying a Tensor aliases the same TensorImpl, like
// torch.Tensor). A TensorImpl's values live in a reference-counted Storage:
// `Reshape` (and `Squeeze`/`Unsqueeze`, built on it) returns a view, a new
// TensorImpl with its own shape and autograd state over its input's
// Storage, so a reshape allocates and copies nothing. Every other op writes
// a fresh buffer, and no op writes into its inputs. Operations are free
// functions declared in tensor/ops.h; each op records an AutogradNode so
// that calling Backward() on a scalar result accumulates gradients into
// every `requires_grad` leaf. The tape holds gradient slots and only the
// values each backward formula reads (see AutogradNode).

#ifndef CONFORMER_TENSOR_TENSOR_H_
#define CONFORMER_TENSOR_TENSOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
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

struct AutogradMeta;

/// \brief One recorded operation in the autograd tape.
///
/// `inputs` are the graph's edges: each points at an input's gradient slot
/// (its AutogradMeta), never at its values, and is null where no gradient
/// flows. `backward` owns exactly the values its formula reads (an input's
/// or the output's Storage, or op state such as GruSequence's activations),
/// so an intermediate that only value-free ops consume (`Add`, `Sub`, the
/// `AsStrided` family, `Reshape`, `Concat`, `Sum`, ...) is freed when its
/// last handle drops. A closure never captures a Tensor or an AutogradMeta:
/// its own output's would form a `shared_ptr` cycle.
///
/// `backward` reads the output gradient from the AutogradMeta it is called
/// with and adds its contribution into the inputs' gradients, each written
/// once and in place:
///
/// - **Fresh:** an input with no gradient yet in this pass (the common case)
///   gets a zero-filled buffer from `AutogradMeta::MutableGrad()`, and the op
///   computes straight into it in the same per-element order its own
///   temporary would use, bitwise equal to adding that temporary into a
///   zeroed buffer (`0 + x == x` for every such sum).
/// - **Already holds a gradient:** an elementwise contribution still adds
///   straight in (`grad += g * df` is one expression either way). A
///   multi-term or strided one (broadcast reduction, overlapping views,
///   Gemm, GruSequence) goes through `internal::AccumulateGradWith`: a zeroed
///   scratch buffer, then one add, so `grad + (0 + terms)` keeps its
///   association.
///
/// Every gradient sum starts from +0, and in round-to-nearest such a sum is
/// never -0; so no gradient buffer holds -0, a gather may overwrite a fresh
/// buffer instead of adding into it, and `Reshape`'s backward may move its
/// output gradient into an input that has none instead of copying it.
struct AutogradNode {
  std::vector<std::shared_ptr<AutogradMeta>> inputs;
  std::function<void(AutogradMeta&)> backward;
  const char* op_name = "";
};

/// \brief A tensor's autograd state, apart from its values: its gradient
/// buffer, its leaf flag and the tape node that produced it.
///
/// A TensorImpl gets one only when it needs one (a `requires_grad` leaf or a
/// recorded op's output), so the no-grad path allocates none. The tensor
/// and each recorded consumer's edge share it, so the gradient slot
/// outlives the tensor's handle and values. The gradient buffer has one owner and is counted in AllocStats while it
/// is allocated. Backward functions read `grad` directly but change it only
/// through the methods below. A non-leaf's gradient lives from its first
/// consumer's backward until its own backward has run, when
/// `Tensor::Backward` frees it and the node's closure (unless
/// `retain_graph`); a leaf's keeps accumulating across passes until
/// `Tensor::ZeroGrad`.
struct AutogradMeta {
  explicit AutogradMeta(int64_t numel_in) : numel(numel_in) {}
  ~AutogradMeta();

  AutogradMeta(const AutogradMeta&) = delete;
  AutogradMeta& operator=(const AutogradMeta&) = delete;

  /// The gradient buffer, zero-filled on first use. Take it before any
  /// ParallelFor so that chunks never race on the allocation.
  float* MutableGrad();

  /// Adds `delta` (`numel` floats) into the gradient buffer.
  void AccumulateGrad(const float* delta, int64_t n);

  /// Moves `from`'s gradient buffer (same length) into this one, which must
  /// have none: an ownership transfer, not a new allocation.
  void TakeGrad(AutogradMeta& from);

  /// Frees the gradient buffer (no-op when there is none).
  void ReleaseGrad();

  /// The gradient slot of the node's `i`-th input; null when no gradient
  /// flows there.
  AutogradMeta* input(size_t i) const { return node->inputs[i].get(); }

  const int64_t numel;      // The gradient's length: the tensor's numel().
  std::vector<float> grad;  // Empty until a gradient is written.
  bool requires_grad = false;
  std::optional<AutogradNode> node;  // Empty for leaves.
};

/// \brief A tensor's value buffer, shared by reference between a tensor and
/// its reshaped views. It is counted in AllocStats once: when it is created
/// and when its last owner lets go, whatever order those owners die in.
class Storage {
 public:
  explicit Storage(std::vector<float> values);
  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* data() { return values_.data(); }
  const float* data() const { return values_.data(); }
  int64_t size() const { return static_cast<int64_t>(values_.size()); }

 private:
  // Fixed length for the storage's life: views rely on it, and the
  // destructor frees what the constructor counted.
  std::vector<float> values_;
};

/// \brief One tensor: shared value storage, shape, and autograd state.
///
/// `numel()` always equals the storage's length: a view differs from its
/// base only in shape. The autograd state (gradient, leaf flag, tape node)
/// lives apart from the values, in an AutogradMeta that is per TensorImpl,
/// never shared with a view.
class TensorImpl {
 public:
  /// A tensor over a fresh storage holding `values`.
  TensorImpl(Shape shape, std::vector<float> values);
  /// A view: `shape` (same element count) over an existing storage.
  TensorImpl(Shape shape, std::shared_ptr<Storage> storage);

  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  /// The autograd state, created on first use.
  AutogradMeta& MutableAutograd();

  float* data() { return storage->data(); }
  const float* data() const { return storage->data(); }
  int64_t numel() const { return storage->size(); }

  std::shared_ptr<Storage> storage;
  Shape shape;
  std::shared_ptr<AutogradMeta> autograd;  // Null until a gradient is needed.
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
  /// Frees the accumulated gradient.
  void ZeroGrad();

  /// Runs backpropagation from this scalar (numel()==1) tensor. Each
  /// non-leaf's gradient is freed once its backward has consumed it, and
  /// the tape is freed at the end, both unless `retain_graph`. Leaves
  /// accumulate. (Even with `retain_graph`, a `Reshape` output's gradient
  /// may have been moved into its input.)
  void Backward(bool retain_graph = false);

  /// A copy of this tensor's values in a fresh storage, cut off from the
  /// tape: unlike a `Reshape` view, it shares nothing with this tensor.
  Tensor Detach() const;
  /// A deep copy (fresh storage, no tape).
  Tensor Clone() const;

  /// In-place elementwise copy from `src` (same numel; no autograd) into
  /// this tensor's existing storage, so every view of it sees the new
  /// values.
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

/// True if a backward pass must produce a gradient for `t`: it is a
/// differentiable leaf or the output of a recorded op.
inline bool NeedsGrad(const Tensor& t) {
  const AutogradMeta* meta = t.impl()->autograd.get();
  return meta != nullptr && (meta->requires_grad || meta->node.has_value());
}

/// True if an op recorded now sends a gradient to `t`: recording is on and
/// `t` needs one. Ops decide from it what their backward must save.
inline bool GradWillFlow(const Tensor& t) {
  return GradRecordingEnabled() && NeedsGrad(t);
}

/// `t`'s values for a backward formula that reads them, or null unless
/// `needed`.
inline std::shared_ptr<Storage> SavedValues(const Tensor& t, bool needed) {
  return needed ? t.impl()->storage : nullptr;
}

/// Adds one multi-term or strided gradient contribution into `meta`.
/// `write(dst)` adds the contribution into a zero-filled `dst` (a gather,
/// one term per element, may overwrite it instead). On the first write of a
/// pass `dst` is the gradient itself; otherwise it is a zeroed scratch
/// buffer, added into the gradient afterwards in one pass. The scratch is a
/// Storage, so AllocStats counts it like any other float buffer.
template <typename WriteFn>
void AccumulateGradWith(AutogradMeta& meta, WriteFn write) {
  if (meta.grad.empty()) {
    write(meta.MutableGrad());
    return;
  }
  Storage scratch(std::vector<float>(static_cast<size_t>(meta.numel), 0.0f));
  write(scratch.data());
  meta.AccumulateGrad(scratch.data(), scratch.size());
}

/// A zero-filled buffer of `n` floats for an op output (empty for n <= 0).
std::vector<float> AcquireBuffer(int64_t n);

/// Wraps an op's output `storage` in a tensor. When `backward` is non-null
/// it also attaches an AutogradMeta whose node runs it, with an edge to the
/// gradient slot of each input that needs a gradient.
Tensor AttachOpResult(Shape shape, std::shared_ptr<Storage> storage,
                      const std::vector<Tensor>& inputs,
                      std::function<void(AutogradMeta&)> backward,
                      const char* op_name);

/// Builds the output tensor for an op over an existing `storage`: a view
/// op's input's, or an output the op made first because its backward reads
/// it. `make_backward()` returns the backward closure; it is invoked only
/// when recording is on and some input needs a gradient, so the no-grad
/// path builds no closure and saves nothing.
template <typename MakeBackward>
Tensor MakeOpResult(Shape shape, std::shared_ptr<Storage> storage,
                    const std::vector<Tensor>& inputs,
                    MakeBackward&& make_backward, const char* op_name) {
  std::function<void(AutogradMeta&)> backward;
  if (std::any_of(inputs.begin(), inputs.end(), [](const Tensor& t) {
        return t.defined() && GradWillFlow(t);
      })) {
    backward = make_backward();
  }
  return AttachOpResult(std::move(shape), std::move(storage), inputs,
                        std::move(backward), op_name);
}

/// The same over fresh output `values`.
template <typename MakeBackward>
Tensor MakeOpResult(Shape shape, std::vector<float> values,
                    const std::vector<Tensor>& inputs,
                    MakeBackward&& make_backward, const char* op_name) {
  return MakeOpResult(std::move(shape),
                      std::make_shared<Storage>(std::move(values)), inputs,
                      std::forward<MakeBackward>(make_backward), op_name);
}

}  // namespace internal
}  // namespace conformer

#endif  // CONFORMER_TENSOR_TENSOR_H_
