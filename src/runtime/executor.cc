// PlanExecutor: flat replay of a compiled Plan — memcpy the batch inputs
// into the arena, run each step's precomputed closure chain over precomputed
// pointer tables, copy the output slot out. Plus VerifyParity(), the
// per-node differential harness that re-traces the eager path and compares
// every planned step's output bitwise.

#include <cstring>
#include <utility>

#include "runtime/static_runtime.h"
#include "util/logging.h"

namespace conformer::runtime {

namespace {

// Pointer a step reads slot `slot` through: pinned storage for constants,
// the executor's arena otherwise.
const float* SlotPtr(const PlanSlot& slot, const std::vector<float>& arena) {
  if (slot.kind == SlotKind::kConstant) return slot.constant->data();
  CONFORMER_CHECK_GE(slot.offset, 0) << "reading a slot with no storage";
  return arena.data() + slot.offset;
}

}  // namespace

PlanExecutor::PlanExecutor(std::shared_ptr<const Plan> plan)
    : plan_(std::move(plan)), arena_(plan_->arena_numel(), 0.0f) {
  const auto& slots = plan_->slots();
  const auto& steps = plan_->steps();
  step_inputs_.resize(steps.size());
  link_inputs_.resize(steps.size());
  step_out_.resize(steps.size());
  step_numel_.resize(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& step = steps[i];
    const PlanSlot& out = slots[step.out_slot];
    CONFORMER_CHECK(out.kind != SlotKind::kConstant);
    CONFORMER_CHECK_GE(out.offset, 0);
    step_out_[i] = arena_.data() + out.offset;
    step_numel_[i] = out.numel;
    // Link 0 (or the opaque fn) reads the leading inputs; later links get
    // their own {chain buffer, extras...} table.
    const size_t lead = step.chain.empty()
                            ? step.in_slots.size()
                            : static_cast<size_t>(step.chain[0].num_inputs);
    step_inputs_[i].reserve(lead);
    for (size_t k = 0; k < lead; ++k) {
      step_inputs_[i].push_back(SlotPtr(slots[step.in_slots[k]], arena_));
    }
    size_t base = lead;
    for (size_t l = 1; l < step.chain.size(); ++l) {
      std::vector<const float*> table;
      table.reserve(step.chain[l].num_inputs + 1);
      table.push_back(step_out_[i]);
      for (int k = 0; k < step.chain[l].num_inputs; ++k) {
        table.push_back(SlotPtr(slots[step.in_slots[base + k]], arena_));
      }
      base += step.chain[l].num_inputs;
      link_inputs_[i].push_back(std::move(table));
    }
  }
}

bool PlanExecutor::GeometryMatches(const data::Batch& batch) const {
  const Tensor* inputs[] = {&batch.x, &batch.x_mark, &batch.y, &batch.y_mark};
  const std::vector<Shape>& expected = plan_->input_shapes();
  for (size_t i = 0; i < expected.size() && i < 4; ++i) {
    const bool traced = !expected[i].empty();
    if (inputs[i]->defined() != traced) return false;
    if (traced && inputs[i]->shape() != expected[i]) return false;
  }
  return true;
}

Tensor PlanExecutor::Run(const data::Batch& batch, StepObserver* observer) {
  CONFORMER_CHECK(GeometryMatches(batch))
      << "batch geometry differs from the captured plan";
  const Tensor* inputs[] = {&batch.x, &batch.x_mark, &batch.y, &batch.y_mark};
  for (const PlanSlot& slot : plan_->slots()) {
    if (slot.kind != SlotKind::kInput || slot.offset < 0) continue;
    std::memcpy(arena_.data() + slot.offset,
                inputs[slot.input_index]->data(),
                slot.numel * sizeof(float));
  }

  const auto& steps = plan_->steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& step = steps[i];
    float* out = step_out_[i];
    const int64_t numel = step_numel_[i];
    if (!step.chain.empty()) {
      if (step.zero_init) std::memset(out, 0, numel * sizeof(float));
      step.chain[0].fn(step_inputs_[i].data(), out);
      for (size_t l = 1; l < step.chain.size(); ++l) {
        step.chain[l].fn(link_inputs_[i][l - 1].data(), out);
      }
    } else {
      // Opaque composite: materialize tensors from the planned buffers and
      // re-run the recorded host logic (deterministic by contract).
      std::vector<Tensor> in_tensors;
      in_tensors.reserve(step.in_slots.size());
      for (size_t k = 0; k < step.in_slots.size(); ++k) {
        const Shape& shape = step.opaque_in_shapes[k];
        const float* src = step_inputs_[i][k];
        in_tensors.push_back(Tensor::FromVector(
            std::vector<float>(src, src + NumElements(shape)), shape));
      }
      Tensor value;
      {
        NoGradGuard no_grad;
        internal::CaptureSuspendGuard no_capture;
        value = step.opaque_fn(in_tensors);
      }
      CONFORMER_CHECK_EQ(value.numel(), numel)
          << "opaque step '" << step.op_name << "' changed output size";
      std::memcpy(out, value.data(), numel * sizeof(float));
    }
    if (plan_->corrupted_step() == static_cast<int>(i) && numel > 0) {
      out[0] = out[0] == 0.0f ? 1.0f : -out[0];
    }
    if (observer != nullptr) {
      observer->OnStep(static_cast<int>(i), out, numel);
    }
  }

  const PlanSlot& out_slot = plan_->slots()[plan_->output_slot()];
  const float* src = SlotPtr(out_slot, arena_);
  return Tensor::FromVector(std::vector<float>(src, src + out_slot.numel),
                            plan_->output_shape());
}

Result<TraceResult> CapturePredictPlan(
    const std::function<Tensor(const data::Batch&)>& predict,
    const data::Batch& batch) {
  Tracer tracer;
  const Tensor* inputs[] = {&batch.x, &batch.x_mark, &batch.y, &batch.y_mark};
  for (int i = 0; i < 4; ++i) {
    if (inputs[i]->defined()) tracer.RegisterInput(*inputs[i], i);
  }
  Tensor output;
  {
    TraceScope scope(&tracer);
    output = predict(batch);
  }
  Result<std::shared_ptr<const Plan>> plan = tracer.BuildPlan(output, 4);
  if (!plan.ok()) return plan.status();
  return TraceResult{std::move(plan).value(), std::move(output)};
}

namespace {

constexpr size_t kMaxReportedMismatches = 16;

// Compares each executed step's output region against the retained eager
// value of the step's final source node, bit-for-bit.
class ParityObserver : public StepObserver {
 public:
  ParityObserver(const Plan& plan, const Tracer& trace, ParityReport* report)
      : plan_(plan), trace_(trace), report_(report) {}

  void OnStep(int step_index, const float* out, int64_t numel) override {
    if (report_->mismatches.size() >= kMaxReportedMismatches) return;
    const PlanStep& step = plan_.steps()[step_index];
    const Tensor& reference = trace_.node_value(step.trace_node);
    ParityMismatch mismatch;
    mismatch.step_index = step_index;
    mismatch.op_name = step.op_name;
    if (reference.numel() != numel) {
      report_->mismatches.push_back(std::move(mismatch));
      return;
    }
    const float* ref = reference.data();
    if (std::memcmp(ref, out, numel * sizeof(float)) == 0) return;
    for (int64_t k = 0; k < numel; ++k) {
      if (std::memcmp(&ref[k], &out[k], sizeof(float)) != 0) {
        mismatch.flat_index = k;
        mismatch.eager_value = ref[k];
        mismatch.replay_value = out[k];
        break;
      }
    }
    report_->mismatches.push_back(std::move(mismatch));
  }

 private:
  const Plan& plan_;
  const Tracer& trace_;
  ParityReport* report_;
};

}  // namespace

ParityReport VerifyParity(
    PlanExecutor& executor,
    const std::function<Tensor(const data::Batch&)>& predict,
    const data::Batch& batch, Tensor* replay_out) {
  ParityReport report;
  const Plan& plan = executor.plan();

  Tracer trace;
  const Tensor* inputs[] = {&batch.x, &batch.x_mark, &batch.y, &batch.y_mark};
  for (int i = 0; i < 4; ++i) {
    if (inputs[i]->defined()) trace.RegisterInput(*inputs[i], i);
  }
  Tensor eager;
  {
    TraceScope scope(&trace);
    eager = predict(batch);
  }

  const std::vector<std::string>& expected = plan.trace_op_names();
  if (trace.num_nodes() != static_cast<int>(expected.size())) {
    report.structural_ok = false;
    report.structural_error =
        "re-trace recorded " + std::to_string(trace.num_nodes()) +
        " nodes, plan expected " + std::to_string(expected.size());
    return report;
  }
  for (int i = 0; i < trace.num_nodes(); ++i) {
    if (trace.node_op(i) != expected[i]) {
      report.structural_ok = false;
      report.structural_error = "node " + std::to_string(i) + " is '" +
                                trace.node_op(i) + "', plan expected '" +
                                expected[i] + "'";
      return report;
    }
  }

  ParityObserver observer(plan, trace, &report);
  Tensor replayed = executor.Run(batch, &observer);
  if (replay_out != nullptr) *replay_out = replayed;

  // Boundary check: the final returned tensors must match bitwise too
  // (covers output slots the per-step loop cannot see, e.g. aliases).
  ParityMismatch boundary;
  boundary.step_index = static_cast<int>(plan.steps().size());
  boundary.op_name = "output";
  if (eager.numel() != replayed.numel() || eager.shape() != replayed.shape()) {
    report.mismatches.push_back(std::move(boundary));
  } else if (std::memcmp(eager.data(), replayed.data(),
                         eager.numel() * sizeof(float)) != 0) {
    for (int64_t k = 0; k < eager.numel(); ++k) {
      if (std::memcmp(&eager.data()[k], &replayed.data()[k],
                      sizeof(float)) != 0) {
        boundary.flat_index = k;
        boundary.eager_value = eager.data()[k];
        boundary.replay_value = replayed.data()[k];
        break;
      }
    }
    report.mismatches.push_back(std::move(boundary));
  }
  return report;
}

}  // namespace conformer::runtime
