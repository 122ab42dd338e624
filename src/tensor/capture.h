// Trace-capture hooks for the static inference runtime; see
// docs/STATIC_RUNTIME.md.
//
// While a CaptureSink is installed on the calling thread, every primitive op
// reports itself right after it executes eagerly: its output tensor, its
// input tensors, and a replay closure that re-runs the exact same kernel
// call over raw pointers. The runtime's tracer turns that stream into a
// flat, ahead-of-time-planned step list that replays a Predict() with zero
// per-op dispatch.
//
// The hooks are deliberately one TLS load on the eager fast path: the replay
// closure (and its std::function allocation) is only materialized when a
// sink is active.

#ifndef CONFORMER_TENSOR_CAPTURE_H_
#define CONFORMER_TENSOR_CAPTURE_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace conformer::internal {

/// Replay closure for one captured primitive op: reads the op's inputs
/// through `in` (one pointer per recorded input, in recording order) and
/// writes the output through `out`. Every other parameter — shapes, strides,
/// indices, scalars — is captured by value when the closure is built, so the
/// closure is immutable, reentrant, and shareable across threads.
using ReplayFn = std::function<void(const float* const* in, float* out)>;

struct CaptureStepMeta {
  const char* op_name = "";
  /// Replay must zero the output region before invoking the closure (ops
  /// that accumulate into AcquireBuffer's zero-filled storage, e.g. Sum).
  bool zero_init = false;
  /// The closure writes out[i] reading in[0] only at the same flat index i
  /// within the same loop iteration — safe to run with out == in[0]. This
  /// is what permits in-place fusion of elementwise chains onto their
  /// producer's buffer.
  bool inplace_safe = false;
};

/// \brief Observes op construction on the calling thread while a trace is
/// active. Implemented by runtime::Tracer; the tensor layer only talks to
/// this interface so it never depends on src/runtime.
class CaptureSink {
 public:
  virtual ~CaptureSink() = default;

  /// One primitive op: `out = fn(inputs)` has already run eagerly; `fn`
  /// reproduces it bitwise over raw pointers.
  virtual void RecordStep(const Tensor& out, const std::vector<Tensor>& inputs,
                          ReplayFn fn, const CaptureStepMeta& meta) = 0;

  /// `out` holds exactly the bytes of `src` (Reshape / Detach / Clone):
  /// replay elides the copy and reads the producer's buffer directly.
  virtual void RecordAlias(const Tensor& out, const Tensor& src,
                           const char* op_name) = 0;

  /// Every MakeOpResult reports its output here, before the op decides
  /// whether it also calls RecordStep. An output that is never upgraded to a
  /// step/alias came from an op without a replay closure — consuming it later
  /// must invalidate the trace instead of silently freezing its value.
  virtual void RecordRaw(const Tensor& out, const char* op_name) = 0;

  /// A composite whose control flow depends on tensor values (top-k
  /// selection, hashing, FFT lag picking) ran: no fixed step list replays
  /// it, so the trace must not build a plan.
  virtual void Fail(const std::string& why) = 0;
};

/// The calling thread's active sink (null when not tracing).
CaptureSink* ActiveCaptureSink();

/// Installs `sink` on the calling thread; returns the previous sink.
CaptureSink* SwapCaptureSink(CaptureSink* sink);

/// Called by op implementations right after building `out`. `make_fn` is
/// only invoked (and the ReplayFn only allocated) under an active sink.
template <typename MakeFn>
inline void MaybeCaptureStep(const Tensor& out,
                             std::initializer_list<Tensor> inputs,
                             const CaptureStepMeta& meta, MakeFn&& make_fn) {
  if (CaptureSink* sink = ActiveCaptureSink()) {
    sink->RecordStep(out, std::vector<Tensor>(inputs), make_fn(), meta);
  }
}

/// Overload for ops with a dynamic input list (Concat).
template <typename MakeFn>
inline void MaybeCaptureStep(const Tensor& out,
                             const std::vector<Tensor>& inputs,
                             const CaptureStepMeta& meta, MakeFn&& make_fn) {
  if (CaptureSink* sink = ActiveCaptureSink()) {
    sink->RecordStep(out, inputs, make_fn(), meta);
  }
}

/// Notifies the sink (if any) that `out` aliases `src` byte-for-byte.
inline void MaybeCaptureAlias(const Tensor& out, const Tensor& src,
                              const char* op_name) {
  if (CaptureSink* sink = ActiveCaptureSink()) {
    sink->RecordAlias(out, src, op_name);
  }
}

/// Fails the active trace, if any, naming why (see CaptureSink::Fail). A
/// composite with data-dependent host control flow calls it on entry; a
/// session whose trace fails serves that geometry eagerly.
inline void FailCapture(const std::string& why) {
  if (CaptureSink* sink = ActiveCaptureSink()) sink->Fail(why);
}

/// Runs host code `fn` as one step with no gradient: `fn` reads `inputs`'
/// values through raw pointers and writes a fresh `out_shape` output. The
/// eager call and the plan's replay closure are the same `fn`, so replay is
/// bitwise equal by construction. For blocks that are constant w.r.t.
/// parameters but read values on the host (the FFT auto-correlation of
/// Eq. 1, the calendar-index decode of Eq. 3). `fn` must write every output
/// element and be a pure function of its inputs.
Tensor CaptureHostStep(const char* op_name, Shape out_shape,
                       const std::vector<Tensor>& inputs, ReplayFn fn);

}  // namespace conformer::internal

#endif  // CONFORMER_TENSOR_CAPTURE_H_
