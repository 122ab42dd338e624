#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tensor/alloc_stats.h"
#include "tensor/capture.h"

namespace conformer {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

std::vector<int64_t> ContiguousStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * shape[i + 1];
  }
  return strides;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Storage::Storage(std::vector<float> values) : values_(std::move(values)) {
  internal::RecordAlloc(size() * static_cast<int64_t>(sizeof(float)));
}

Storage::~Storage() {
  internal::RecordFree(size() * static_cast<int64_t>(sizeof(float)));
}

TensorImpl::TensorImpl(Shape shape_in, std::vector<float> values)
    : TensorImpl(std::move(shape_in),
                 std::make_shared<Storage>(std::move(values))) {}

TensorImpl::TensorImpl(Shape shape_in, std::shared_ptr<Storage> storage_in)
    : storage(std::move(storage_in)), shape(std::move(shape_in)) {
  CONFORMER_CHECK_EQ(numel(), NumElements(shape))
      << "data size does not match shape " << ShapeToString(shape);
}

AutogradMeta& TensorImpl::MutableAutograd() {
  if (autograd == nullptr) autograd = std::make_shared<AutogradMeta>(numel());
  return *autograd;
}

AutogradMeta::~AutogradMeta() { ReleaseGrad(); }

float* AutogradMeta::MutableGrad() {
  if (grad.empty() && numel > 0) {
    grad.assign(static_cast<size_t>(numel), 0.0f);
    internal::RecordAlloc(static_cast<int64_t>(grad.size()) * sizeof(float));
  }
  return grad.data();
}

void AutogradMeta::AccumulateGrad(const float* delta, int64_t n) {
  CONFORMER_CHECK_EQ(n, numel);
  float* dst = MutableGrad();
  for (int64_t i = 0; i < n; ++i) dst[i] += delta[i];
}

void AutogradMeta::TakeGrad(AutogradMeta& from) {
  CONFORMER_CHECK(grad.empty()) << "TakeGrad into a tensor holding a gradient";
  CONFORMER_CHECK_EQ(static_cast<int64_t>(from.grad.size()), numel);
  grad.swap(from.grad);
}

void AutogradMeta::ReleaseGrad() {
  if (grad.empty()) return;
  internal::RecordFree(static_cast<int64_t>(grad.size()) * sizeof(float));
  std::vector<float>().swap(grad);  // clear() would keep the capacity
}

// -- Factories ----------------------------------------------------------

Tensor Tensor::Zeros(const Shape& shape) {
  return Tensor(
      std::make_shared<TensorImpl>(shape, internal::AcquireBuffer(NumElements(shape))));
}

Tensor Tensor::Ones(const Shape& shape) { return Full(shape, 1.0f); }

Tensor Tensor::Full(const Shape& shape, float value) {
  return Tensor(std::make_shared<TensorImpl>(
      shape, std::vector<float>(NumElements(shape), value)));
}

Tensor Tensor::FromVector(std::vector<float> values, const Shape& shape) {
  return Tensor(std::make_shared<TensorImpl>(shape, std::move(values)));
}

Tensor Tensor::Arange(int64_t n, float start, float step) {
  std::vector<float> values(n);
  for (int64_t i = 0; i < n; ++i) values[i] = start + step * static_cast<float>(i);
  return FromVector(std::move(values), {n});
}

Tensor Tensor::Randn(const Shape& shape, Rng* rng) {
  Rng& r = rng != nullptr ? *rng : GlobalRng();
  std::vector<float> values(NumElements(shape));
  r.FillNormal(&values);
  return FromVector(std::move(values), shape);
}

Tensor Tensor::Rand(const Shape& shape, float lo, float hi, Rng* rng) {
  Rng& r = rng != nullptr ? *rng : GlobalRng();
  std::vector<float> values(NumElements(shape));
  for (float& v : values) v = static_cast<float>(r.Uniform(lo, hi));
  return FromVector(std::move(values), shape);
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t = Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) t.data()[i * n + i] = 1.0f;
  return t;
}

// -- Introspection ------------------------------------------------------

const Shape& Tensor::shape() const {
  CONFORMER_CHECK(defined()) << "shape() on an undefined tensor";
  return impl_->shape;
}

int64_t Tensor::size(int64_t d) const {
  const Shape& s = shape();
  int64_t rank = static_cast<int64_t>(s.size());
  if (d < 0) d += rank;
  CONFORMER_CHECK(d >= 0 && d < rank)
      << "dim " << d << " out of range for shape " << ShapeToString(s);
  return s[d];
}

const float* Tensor::data() const {
  CONFORMER_CHECK(defined());
  return impl_->data();
}

float* Tensor::data() {
  CONFORMER_CHECK(defined());
  return impl_->data();
}

float Tensor::item() const {
  CONFORMER_CHECK_EQ(numel(), 1) << "item() requires a single-element tensor";
  return impl_->data()[0];
}

float Tensor::at(std::initializer_list<int64_t> index) const {
  const Shape& s = shape();
  CONFORMER_CHECK_EQ(static_cast<int64_t>(index.size()),
                     static_cast<int64_t>(s.size()));
  std::vector<int64_t> strides = ContiguousStrides(s);
  int64_t offset = 0;
  int64_t d = 0;
  for (int64_t i : index) {
    CONFORMER_CHECK(i >= 0 && i < s[d])
        << "index " << i << " out of range in dim " << d;
    offset += i * strides[d];
    ++d;
  }
  return impl_->data()[offset];
}

namespace {
void AppendSlice(std::ostringstream& out, const float* data, const Shape& shape,
                 const std::vector<int64_t>& strides, int64_t dim,
                 int64_t offset, int64_t max_per_dim) {
  if (dim == static_cast<int64_t>(shape.size())) {
    out << data[offset];
    return;
  }
  out << "[";
  int64_t n = shape[dim];
  int64_t shown = std::min(n, max_per_dim);
  for (int64_t i = 0; i < shown; ++i) {
    if (i > 0) out << ", ";
    AppendSlice(out, data, shape, strides, dim + 1, offset + i * strides[dim],
                max_per_dim);
  }
  if (shown < n) out << ", ...";
  out << "]";
}
}  // namespace

std::string Tensor::ToString(int64_t max_per_dim) const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream out;
  out << "Tensor" << ShapeToString(shape()) << " ";
  AppendSlice(out, data(), shape(), ContiguousStrides(shape()), 0, 0,
              max_per_dim);
  return out.str();
}

// -- Autograd -----------------------------------------------------------

bool Tensor::requires_grad() const {
  return defined() && impl_->autograd != nullptr &&
         impl_->autograd->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  CONFORMER_CHECK(defined());
  if (value || impl_->autograd != nullptr) {
    impl_->MutableAutograd().requires_grad = value;
  }
  return *this;
}

bool Tensor::has_grad() const {
  return defined() && impl_->autograd != nullptr &&
         !impl_->autograd->grad.empty();
}

Tensor Tensor::grad() const {
  CONFORMER_CHECK(defined());
  if (!has_grad()) return Tensor::Zeros(impl_->shape);
  return Tensor::FromVector(impl_->autograd->grad, impl_->shape);
}

float* Tensor::grad_data() {
  CONFORMER_CHECK(defined());
  return impl_->MutableAutograd().MutableGrad();
}

void Tensor::ZeroGrad() {
  CONFORMER_CHECK(defined());
  if (impl_->autograd != nullptr) impl_->autograd->ReleaseGrad();
}

Tensor Tensor::Detach() const {
  CONFORMER_CHECK(defined());
  // Fresh storage with copied values: no tape, no leaf status.
  Tensor result = Tensor::FromVector(
      std::vector<float>(data(), data() + numel()), impl_->shape);
  internal::MaybeCaptureAlias(result, *this, "Detach");
  return result;
}

Tensor Tensor::Clone() const {
  CONFORMER_CHECK(defined());
  Tensor result = Tensor::FromVector(
      std::vector<float>(data(), data() + numel()), impl_->shape);
  internal::MaybeCaptureAlias(result, *this, "Clone");
  return result;
}

void Tensor::CopyDataFrom(const Tensor& src) {
  CONFORMER_CHECK(defined() && src.defined());
  CONFORMER_CHECK_EQ(numel(), src.numel());
  std::copy(src.data(), src.data() + src.numel(), data());
}

// -- Recording plumbing --------------------------------------------------

namespace {
thread_local bool g_recording_enabled = true;
}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_recording_enabled) {
  g_recording_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_recording_enabled = previous_; }

bool GradRecordingEnabled() { return g_recording_enabled; }

void ClearBufferPool() {}

namespace internal {

std::vector<float> AcquireBuffer(int64_t n) {
  return std::vector<float>(static_cast<size_t>(n < 0 ? 0 : n));
}

Tensor AttachOpResult(Shape shape, std::shared_ptr<Storage> storage,
                      const std::vector<Tensor>& inputs,
                      std::function<void(AutogradMeta&)> backward,
                      const char* op_name) {
  auto impl = std::make_shared<TensorImpl>(std::move(shape), std::move(storage));
  if (backward) {
    AutogradMeta& meta = impl->MutableAutograd();
    meta.requires_grad = true;
    AutogradNode& node = meta.node.emplace();
    node.op_name = op_name;
    node.backward = std::move(backward);
    node.inputs.reserve(inputs.size());
    for (const Tensor& t : inputs) {
      node.inputs.push_back(t.defined() && GradWillFlow(t) ? t.impl()->autograd
                                                           : nullptr);
    }
  }
  Tensor result(std::move(impl));
  if (CaptureSink* sink = ActiveCaptureSink()) {
    sink->RecordRaw(result, op_name);
  }
  return result;
}

}  // namespace internal
}  // namespace conformer
