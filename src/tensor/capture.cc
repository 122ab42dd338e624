#include "tensor/capture.h"

namespace conformer::internal {

namespace {
thread_local CaptureSink* g_capture_sink = nullptr;
}  // namespace

CaptureSink* ActiveCaptureSink() { return g_capture_sink; }

CaptureSink* SwapCaptureSink(CaptureSink* sink) {
  CaptureSink* previous = g_capture_sink;
  g_capture_sink = sink;
  return previous;
}

Tensor CaptureHostStep(const char* op_name, Shape out_shape,
                       const std::vector<Tensor>& inputs, ReplayFn fn) {
  std::vector<const float*> in;
  in.reserve(inputs.size());
  for (const Tensor& t : inputs) in.push_back(t.data());
  std::vector<float> out = AcquireBuffer(NumElements(out_shape));
  fn(in.data(), out.data());
  Tensor result =
      AttachOpResult(std::move(out_shape),
                     std::make_shared<Storage>(std::move(out)), inputs,
                     /*backward=*/nullptr, op_name);
  MaybeCaptureStep(result, inputs,
                   {op_name, /*zero_init=*/false, /*inplace_safe=*/false},
                   [&] { return std::move(fn); });
  return result;
}

}  // namespace conformer::internal
