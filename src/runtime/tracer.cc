// Tracer: records one eager Predict() as a node stream (via the capture
// hooks in tensor/capture.h) and compiles it into a Plan — alias
// unification, producer-consumer fusion, liveness analysis, and greedy
// free-list arena assignment.

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "runtime/static_runtime.h"
#include "util/logging.h"

namespace conformer::runtime {

namespace {

int64_t AlignUp(int64_t n) {
  return (n + kArenaAlignFloats - 1) / kArenaAlignFloats * kArenaAlignFloats;
}

}  // namespace

struct Tracer::Node {
  std::string op_name;
  internal::ReplayFn fn;
  std::vector<int> in_slots;
  int out_slot = -1;
  bool zero_init = false;
  bool inplace_safe = false;
  Tensor value;  // Retained eager output (parity reference).
};

struct Tracer::Impl {
  std::vector<Node> nodes;
  std::vector<PlanSlot> slots;
  std::unordered_map<const TensorImpl*, int> slot_of;
  // Outputs of ops without a replay closure: consuming one of these as an
  // input invalidates the trace (its value would be wrongly frozen).
  std::unordered_map<const TensorImpl*, std::string> raw;
  // Pins every impl the maps reference, so addresses are never reused
  // within a trace.
  std::vector<Tensor> retained;
  std::vector<Shape> input_shapes;
  std::string failure;  // First fatal trace problem; empty when clean.

  void Fail(const std::string& why) {
    if (failure.empty()) failure = why;
  }

  // Slot for `t` as an op input: known output, registered input, or — for
  // anything the trace has never seen — a pinned constant.
  int ResolveInput(const Tensor& t, const char* consumer) {
    const TensorImpl* key = t.impl().get();
    auto it = slot_of.find(key);
    if (it != slot_of.end()) return it->second;
    auto raw_it = raw.find(key);
    if (raw_it != raw.end()) {
      Fail(std::string(consumer) + " consumed the output of '" +
           raw_it->second + "', which has no replay closure");
    }
    PlanSlot slot;
    slot.kind = SlotKind::kConstant;
    slot.numel = t.numel();
    slot.constant = t.impl();
    const int id = static_cast<int>(slots.size());
    slots.push_back(std::move(slot));
    slot_of.emplace(key, id);
    retained.push_back(t);
    return id;
  }

  int NewActivation(const Tensor& out) {
    PlanSlot slot;
    slot.kind = SlotKind::kActivation;
    slot.numel = out.numel();
    const int id = static_cast<int>(slots.size());
    slots.push_back(std::move(slot));
    slot_of[out.impl().get()] = id;
    raw.erase(out.impl().get());
    return id;
  }
};

Tracer::Tracer() : impl_(std::make_unique<Impl>()) {}
Tracer::~Tracer() = default;

void Tracer::RegisterInput(const Tensor& t, int input_index) {
  CONFORMER_CHECK(t.defined());
  if (impl_->input_shapes.size() <= static_cast<size_t>(input_index)) {
    impl_->input_shapes.resize(input_index + 1);
  }
  impl_->input_shapes[input_index] = t.shape();
  PlanSlot slot;
  slot.kind = SlotKind::kInput;
  slot.numel = t.numel();
  slot.input_index = input_index;
  const int id = static_cast<int>(impl_->slots.size());
  impl_->slots.push_back(std::move(slot));
  impl_->slot_of[t.impl().get()] = id;
  impl_->retained.push_back(t);
}

void Tracer::RecordStep(const Tensor& out, const std::vector<Tensor>& inputs,
                        internal::ReplayFn fn,
                        const internal::CaptureStepMeta& meta) {
  Node node;
  node.op_name = meta.op_name;
  node.fn = std::move(fn);
  node.in_slots.reserve(inputs.size());
  for (const Tensor& t : inputs) {
    node.in_slots.push_back(impl_->ResolveInput(t, meta.op_name));
  }
  node.out_slot = impl_->NewActivation(out);
  node.zero_init = meta.zero_init;
  node.inplace_safe = meta.inplace_safe;
  node.value = out;
  impl_->nodes.push_back(std::move(node));
}

void Tracer::RecordAlias(const Tensor& out, const Tensor& src,
                         const char* op_name) {
  // Same bytes, same slot: replay elides the eager copy entirely.
  const int slot = impl_->ResolveInput(src, op_name);
  impl_->slot_of[out.impl().get()] = slot;
  impl_->raw.erase(out.impl().get());
  impl_->retained.push_back(out);
}

void Tracer::RecordRaw(const Tensor& out, const char* op_name) {
  // Provisional: RecordStep/RecordAlias for the same tensor (which runs
  // right after MakeOpResult) upgrades it to a planned value.
  impl_->raw.emplace(out.impl().get(), op_name);
  impl_->retained.push_back(out);
}

void Tracer::Fail(const std::string& why) { impl_->Fail(why); }

int Tracer::num_nodes() const { return static_cast<int>(impl_->nodes.size()); }

const std::string& Tracer::node_op(int i) const {
  return impl_->nodes[i].op_name;
}

const Tensor& Tracer::node_value(int i) const {
  return impl_->nodes[i].value;
}

Result<std::shared_ptr<const Plan>> Tracer::BuildPlan(const Tensor& output,
                                                      int num_inputs) {
  Impl& t = *impl_;
  if (!t.failure.empty()) {
    return Status::Unimplemented("trace not replayable: " + t.failure);
  }
  if (!output.defined()) {
    return Status::InvalidArgument("traced call returned an undefined tensor");
  }
  const auto out_it = t.slot_of.find(output.impl().get());
  if (out_it == t.slot_of.end()) {
    const auto raw_it = t.raw.find(output.impl().get());
    return Status::Unimplemented(
        raw_it != t.raw.end()
            ? "output produced by '" + raw_it->second +
                  "', which has no replay closure"
            : "output was not produced under the capture trace");
  }
  if (t.nodes.empty()) {
    return Status::Unimplemented("trace recorded no steps");
  }
  int output_slot = out_it->second;

  // Consumer occurrence counts per original slot id; the model output
  // counts as one extra consumer (it must survive to the end).
  std::vector<int> consumers(t.slots.size(), 0);
  for (const Node& nd : t.nodes) {
    for (int s : nd.in_slots) ++consumers[s];
  }
  ++consumers[output_slot];

  // -- Fusion: fold a node onto the previous step when it is the sole
  // consumer of that step's output and can run in place on the same buffer.
  auto plan = std::make_shared<Plan>();
  std::vector<int> remap(t.slots.size());
  for (size_t i = 0; i < remap.size(); ++i) remap[i] = static_cast<int>(i);
  auto resolve = [&remap](int s) {
    while (remap[s] != s) s = remap[s];
    return s;
  };

  std::vector<PlanStep>& steps = plan->steps_;
  // Original out-slot id of each step's final chain link (fusion target).
  std::vector<int> chain_out;
  for (int ni = 0; ni < static_cast<int>(t.nodes.size()); ++ni) {
    Node& nd = t.nodes[ni];
    if (nd.inplace_safe && !steps.empty() && !nd.in_slots.empty()) {
      PlanStep& prev = steps.back();
      const int o = chain_out.back();
      if (nd.in_slots[0] == o &&
          std::count(nd.in_slots.begin(), nd.in_slots.end(), o) == 1 &&
          consumers[o] == 1 &&
          t.slots[nd.out_slot].numel == t.slots[o].numel) {
        PlanChainLink link;
        link.fn = nd.fn;
        link.num_inputs = static_cast<int>(nd.in_slots.size()) - 1;
        link.trace_node = ni;
        prev.chain.push_back(std::move(link));
        prev.in_slots.insert(prev.in_slots.end(), nd.in_slots.begin() + 1,
                             nd.in_slots.end());
        prev.op_name += "+";
        prev.op_name += nd.op_name;
        prev.trace_node = ni;
        remap[nd.out_slot] = prev.out_slot;
        chain_out.back() = nd.out_slot;
        continue;
      }
    }
    PlanStep step;
    step.in_slots = nd.in_slots;
    step.out_slot = nd.out_slot;
    step.zero_init = nd.zero_init;
    step.op_name = nd.op_name;
    step.trace_node = ni;
    PlanChainLink link;
    link.fn = nd.fn;
    link.num_inputs = static_cast<int>(nd.in_slots.size());
    link.trace_node = ni;
    step.chain.push_back(std::move(link));
    steps.push_back(std::move(step));
    chain_out.push_back(nd.out_slot);
  }

  // Resolve every reference through the fusion remap.
  for (PlanStep& step : steps) {
    for (int& s : step.in_slots) s = resolve(s);
    step.out_slot = resolve(step.out_slot);
  }
  output_slot = resolve(output_slot);

  // -- Liveness on the final steps: def at the producing step, last_use at
  // the last read. The output (even when it is an input slot) must survive
  // past the final step so the executor can copy it out.
  std::vector<PlanSlot>& slots = plan->slots_;
  slots = t.slots;
  const int num_steps = static_cast<int>(steps.size());
  for (int si = 0; si < num_steps; ++si) {
    PlanSlot& out = slots[steps[si].out_slot];
    if (out.def_step < 0) out.def_step = si;
    out.last_use = std::max(out.last_use, si);
    for (int s : steps[si].in_slots) {
      slots[s].last_use = std::max(slots[s].last_use, si);
    }
  }
  if (slots[output_slot].kind != SlotKind::kConstant) {
    slots[output_slot].last_use = num_steps;
  }

  // -- Arena assignment: greedy first-fit free list, processing step by
  // step — allocate the slots defined at step s, then release the ones
  // whose last read was step s (never earlier: a buffer read during step s
  // must not back a slot written during step s).
  struct Block {
    int64_t off;
    int64_t size;
  };
  std::vector<Block> free_blocks;  // Sorted by offset, coalesced.
  int64_t arena_end = 0;
  auto allocate = [&](PlanSlot& slot) {
    const int64_t need = AlignUp(slot.numel);
    for (size_t i = 0; i < free_blocks.size(); ++i) {
      if (free_blocks[i].size >= need) {
        slot.offset = free_blocks[i].off;
        free_blocks[i].off += need;
        free_blocks[i].size -= need;
        if (free_blocks[i].size == 0) {
          free_blocks.erase(free_blocks.begin() + i);
        }
        return;
      }
    }
    slot.offset = arena_end;
    arena_end += need;
  };
  auto release = [&](const PlanSlot& slot) {
    Block block{slot.offset, AlignUp(slot.numel)};
    auto it = std::lower_bound(
        free_blocks.begin(), free_blocks.end(), block.off,
        [](const Block& b, int64_t off) { return b.off < off; });
    it = free_blocks.insert(it, block);
    // Coalesce with the next, then the previous neighbor.
    if (it + 1 != free_blocks.end() && it->off + it->size == (it + 1)->off) {
      it->size += (it + 1)->size;
      free_blocks.erase(it + 1);
    }
    if (it != free_blocks.begin() &&
        (it - 1)->off + (it - 1)->size == it->off) {
      (it - 1)->size += it->size;
      free_blocks.erase(it);
    }
  };
  for (int step = -1; step < num_steps; ++step) {
    for (PlanSlot& slot : slots) {
      if (slot.kind == SlotKind::kConstant) continue;
      if (slot.def_step == step && slot.last_use >= 0) allocate(slot);
    }
    for (PlanSlot& slot : slots) {
      if (slot.kind == SlotKind::kConstant || slot.offset < 0) continue;
      if (slot.last_use == step) release(slot);
    }
  }

  // -- Validate: any two slots with overlapping lifetimes must occupy
  // disjoint arena ranges.
  for (size_t i = 0; i < slots.size(); ++i) {
    const PlanSlot& a = slots[i];
    if (a.kind == SlotKind::kConstant || a.offset < 0) continue;
    plan->unshared_activation_numel_ += a.numel;
    for (size_t j = i + 1; j < slots.size(); ++j) {
      const PlanSlot& b = slots[j];
      if (b.kind == SlotKind::kConstant || b.offset < 0) continue;
      const bool lifetimes_overlap =
          a.def_step <= b.last_use && b.def_step <= a.last_use;
      if (!lifetimes_overlap) continue;
      const bool ranges_disjoint = a.offset + AlignUp(a.numel) <= b.offset ||
                                   b.offset + AlignUp(b.numel) <= a.offset;
      CONFORMER_CHECK(ranges_disjoint)
          << "arena plan aliases live slots " << i << " and " << j;
    }
  }

  plan->arena_numel_ = arena_end;
  plan->output_slot_ = output_slot;
  plan->output_shape_ = output.shape();
  plan->input_shapes_ = t.input_shapes;
  plan->input_shapes_.resize(num_inputs);
  plan->trace_op_names_.reserve(t.nodes.size());
  for (const Node& nd : t.nodes) plan->trace_op_names_.push_back(nd.op_name);
  return std::shared_ptr<const Plan>(std::move(plan));
}

}  // namespace conformer::runtime
