// Static inference runtime (docs/STATIC_RUNTIME.md).
//
// Capture one eager Predict() through the tensor layer's trace hooks
// (tensor/capture.h), compile the recorded op stream into an
// ahead-of-time-planned Plan — one activation arena with liveness-based
// buffer reuse, trivial producer-consumer chains fused in place, aliases
// (Reshape/Detach/Clone) elided entirely — and replay it with zero per-op
// dispatch, tape bookkeeping, or pool lookups. Replay is bitwise identical
// to the eager path at any thread count; VerifyParity() proves it per node.

#ifndef CONFORMER_RUNTIME_STATIC_RUNTIME_H_
#define CONFORMER_RUNTIME_STATIC_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "data/window_dataset.h"
#include "tensor/capture.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace conformer::runtime {

/// Arena alignment for planned buffers, in floats (64 bytes).
inline constexpr int64_t kArenaAlignFloats = 16;

enum class SlotKind {
  kInput,       ///< One of the request batch tensors; memcpy'd per run.
  kConstant,    ///< Pinned trace-time tensor (weights, fixed embeddings).
  kActivation,  ///< Intermediate; lives at a planned arena offset.
};

/// \brief One logical buffer of the plan. Activations and inputs live in the
/// executor's arena at `offset`; constants point into pinned TensorImpls.
struct PlanSlot {
  SlotKind kind = SlotKind::kActivation;
  int64_t numel = 0;
  /// Arena offset in floats (kInput/kActivation with consumers); -1 when the
  /// slot needs no arena space (constants, unused inputs).
  int64_t offset = -1;
  std::shared_ptr<TensorImpl> constant;  ///< Keeps kConstant storage alive.
  int input_index = -1;                  ///< kInput: position in the batch.
  int def_step = -1;   ///< Producing step; -1 for inputs/constants.
  int last_use = -1;   ///< Last step reading it (num_steps for the output).
};

/// \brief One kernel invocation of a fused step. Links after the first read
/// their primary operand from (and write back into) the chain's buffer.
struct PlanChainLink {
  internal::ReplayFn fn;
  /// Pointers this link consumes from the step's input list: the full input
  /// count for link 0, only the non-chain extras for later links.
  int num_inputs = 0;
  int trace_node = -1;  ///< Producing node in the capture trace.
};

/// \brief One executable step: a chain of >= 1 fused kernel links writing a
/// single output slot.
struct PlanStep {
  std::vector<PlanChainLink> chain;  ///< Link 0 writes the output slot.
  std::vector<int> in_slots;         ///< All links' inputs, concatenated.
  int out_slot = -1;
  bool zero_init = false;  ///< memset the output before link 0 (Sum).
  std::string op_name;     ///< "MatMul+Add+Relu" for fused chains.
  int trace_node = -1;     ///< Node whose value the step's output equals.
};

/// \brief An immutable compiled replay program for one (model, geometry)
/// pair. Shareable across threads; per-thread state lives in PlanExecutor.
class Plan {
 public:
  const std::vector<PlanSlot>& slots() const { return slots_; }
  const std::vector<PlanStep>& steps() const { return steps_; }
  /// Total arena size in floats (inputs + live activations after reuse).
  int64_t arena_numel() const { return arena_numel_; }
  int output_slot() const { return output_slot_; }
  const Shape& output_shape() const { return output_shape_; }
  /// Trace-time shape of each batch input ({} for an undefined tensor);
  /// replay requires an exact geometry match.
  const std::vector<Shape>& input_shapes() const { return input_shapes_; }
  /// Op names of the capture trace, pre-fusion (structural parity checks).
  const std::vector<std::string>& trace_op_names() const {
    return trace_op_names_;
  }
  /// Sum of activation numels had every slot owned distinct storage —
  /// against arena_numel() this is the liveness-reuse win.
  int64_t unshared_activation_numel() const {
    return unshared_activation_numel_;
  }

  /// Test-only: after step `step_index` executes, flip one bit of its
  /// output so the per-node parity checker must trip. -1 disarms.
  void CorruptStepForTesting(int step_index) { corrupted_step_ = step_index; }
  int corrupted_step() const { return corrupted_step_; }

 private:
  friend class Tracer;

  std::vector<PlanSlot> slots_;
  std::vector<PlanStep> steps_;
  int64_t arena_numel_ = 0;
  int64_t unshared_activation_numel_ = 0;
  int output_slot_ = -1;
  Shape output_shape_;
  std::vector<Shape> input_shapes_;
  std::vector<std::string> trace_op_names_;
  int corrupted_step_ = -1;
};

/// \brief CaptureSink that records one eager Predict() into a node stream
/// and compiles it into a Plan. Single-use: trace once, then BuildPlan().
class Tracer : public internal::CaptureSink {
 public:
  Tracer();
  ~Tracer() override;

  /// Declares a batch tensor as replay input `input_index` before tracing.
  void RegisterInput(const Tensor& t, int input_index);

  // CaptureSink:
  void RecordStep(const Tensor& out, const std::vector<Tensor>& inputs,
                  internal::ReplayFn fn,
                  const internal::CaptureStepMeta& meta) override;
  void RecordAlias(const Tensor& out, const Tensor& src,
                   const char* op_name) override;
  void RecordRaw(const Tensor& out, const char* op_name) override;
  void Fail(const std::string& why) override;

  /// Recorded steps, in execution order (aliases excluded).
  int num_nodes() const;
  const std::string& node_op(int i) const;
  /// The retained eager output of node `i` — the per-node parity reference.
  const Tensor& node_value(int i) const;

  /// Compiles the trace: slot unification, fusion, liveness, arena offsets.
  /// `output` must be the traced call's result; `num_inputs` the batch
  /// tensor count registered via RegisterInput. Fails (so callers fall back
  /// to eager) when the output or any consumed value is untraceable, or a
  /// host-logic composite failed the trace.
  Result<std::shared_ptr<const Plan>> BuildPlan(const Tensor& output,
                                                int num_inputs);

 private:
  struct Node;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// \brief RAII: installs a Tracer as the calling thread's capture sink.
class TraceScope {
 public:
  explicit TraceScope(Tracer* tracer)
      : previous_(internal::SwapCaptureSink(tracer)) {}
  ~TraceScope() { internal::SwapCaptureSink(previous_); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  internal::CaptureSink* previous_;
};

/// \brief Observes replay step-by-step (parity checking, diagnostics).
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  /// Called right after step `step_index` wrote `out[0..numel)`.
  virtual void OnStep(int step_index, const float* out, int64_t numel) = 0;
};

/// \brief Replays a Plan. Owns the arena and the precomputed per-step
/// pointer tables, so Run() performs no allocation and no slot lookups.
/// One executor serves one caller at a time; share the Plan and give each
/// concurrent thread its own executor.
class PlanExecutor {
 public:
  explicit PlanExecutor(std::shared_ptr<const Plan> plan);

  /// True when `batch` matches the plan's captured geometry exactly.
  bool GeometryMatches(const data::Batch& batch) const;

  /// Replays the plan on `batch` and returns the output tensor. The batch
  /// must satisfy GeometryMatches().
  Tensor Run(const data::Batch& batch, StepObserver* observer = nullptr);

  const Plan& plan() const { return *plan_; }

 private:
  std::shared_ptr<const Plan> plan_;
  std::vector<float> arena_;
  /// Per step: input pointer table for link 0 (chain buffer excluded).
  std::vector<std::vector<const float*>> step_inputs_;
  /// Per step, per link >= 1: {out_ptr, extra inputs...} tables.
  std::vector<std::vector<std::vector<const float*>>> link_inputs_;
  std::vector<float*> step_out_;
  std::vector<int64_t> step_numel_;
};

/// \brief Result of capturing a Predict(): the compiled plan plus the traced
/// call's eager output (so a capture-on-miss also answers the request).
struct TraceResult {
  std::shared_ptr<const Plan> plan;
  Tensor output;
};

/// Traces `predict(batch)` (normally a bound Forecaster::Predict) under a
/// fresh Tracer and compiles the plan. Inputs are registered in Batch order:
/// x, x_mark, y, y_mark. The traced call is the eager forward, so its output
/// answers `batch` whether or not the plan builds: when it does not, the
/// error is returned and the output goes to `*failed_output` if given.
Result<TraceResult> CapturePredictPlan(
    const std::function<Tensor(const data::Batch&)>& predict,
    const data::Batch& batch, Tensor* failed_output = nullptr);

/// \brief One per-node bitwise difference between replay and eager.
struct ParityMismatch {
  int step_index = -1;
  std::string op_name;
  int64_t flat_index = -1;  ///< First differing element.
  float eager_value = 0.0f;
  float replay_value = 0.0f;
};

/// \brief Outcome of a checked replay.
struct ParityReport {
  /// The re-traced op sequence matched the plan's recorded trace.
  bool structural_ok = true;
  std::string structural_error;
  std::vector<ParityMismatch> mismatches;
  bool ok() const { return structural_ok && mismatches.empty(); }
};

/// Replays the plan on `executor` while re-running `predict(batch)` eagerly
/// under a fresh trace, comparing every planned step's output region
/// bitwise against the retained eager value of its source node (fused
/// chains compare at the chain-final node). Costs one extra eager forward —
/// a debug/validation mode, off on the serving fast path. `replay_out`
/// (optional) receives the replayed output tensor.
ParityReport VerifyParity(
    PlanExecutor& executor,
    const std::function<Tensor(const data::Batch&)>& predict,
    const data::Batch& batch, Tensor* replay_out = nullptr);

}  // namespace conformer::runtime

#endif  // CONFORMER_RUNTIME_STATIC_RUNTIME_H_
