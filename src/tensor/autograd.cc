// Reverse-mode backpropagation over the tape recorded by the ops.

#include <unordered_set>

#include "tensor/tensor.h"
#include "util/profiler.h"

namespace conformer {

namespace {

// Iterative post-order DFS producing children-before-parents order; the
// reverse of the accumulated list visits each node before its inputs'
// producers, which is the order backward functions must run in.
void TopologicalOrder(AutogradMeta* root, std::vector<AutogradMeta*>* order) {
  std::unordered_set<AutogradMeta*> visited;
  struct Frame {
    AutogradMeta* meta;
    size_t next_input;
  };
  std::vector<Frame> stack;
  if (root->node) stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const AutogradNode& node = *frame.meta->node;
    if (frame.next_input < node.inputs.size()) {
      AutogradMeta* input = node.inputs[frame.next_input].get();
      ++frame.next_input;
      if (input != nullptr && input->node && visited.insert(input).second) {
        stack.push_back({input, 0});
      }
    } else {
      order->push_back(frame.meta);
      stack.pop_back();
    }
  }
}

}  // namespace

void Tensor::Backward(bool retain_graph) {
  CONFORMER_PROFILE_SCOPE_CAT("autograd", "backward");
  CONFORMER_CHECK(defined());
  CONFORMER_CHECK_EQ(numel(), 1)
      << "Backward() must start from a scalar; got shape "
      << ShapeToString(shape());
  AutogradMeta* root = impl_->autograd.get();
  if (root == nullptr || (!root->node && !root->requires_grad)) return;

  std::vector<AutogradMeta*> order;
  TopologicalOrder(root, &order);

  // Non-leaf gradients are scratch space for this pass: drop any residue
  // from an earlier retain_graph backward so repeated passes don't
  // double-count. Leaf gradients keep accumulating across passes.
  for (AutogradMeta* meta : order) meta->ReleaseGrad();

  root->MutableGrad()[0] += 1.0f;

  // `order` is post-order (inputs first); walk it backwards so each node's
  // output gradient is complete before its backward function runs.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    AutogradMeta* meta = *it;
    if (meta->grad.empty()) continue;  // No gradient flowed here.
    {
      // op_name is a string literal owned by the recording op, so the
      // profiler can keep the pointer.
      CONFORMER_PROFILE_SCOPE_CAT("bwd", meta->node->op_name);
      meta->node->backward(*meta);
    }
    // Every consumer ran before this node, so its gradient is now spent,
    // and no later node reads what its closure saved: free both rather than
    // hold every activation to the end. The edges stay until the pass ends,
    // because `order` points at the metas they keep alive.
    if (!retain_graph) {
      meta->ReleaseGrad();
      meta->node->backward = nullptr;
    }
  }

  // Inputs come first in `order`, so each meta an edge frees here has
  // already been visited.
  if (!retain_graph) {
    for (AutogradMeta* meta : order) meta->node.reset();
  }
}

}  // namespace conformer
