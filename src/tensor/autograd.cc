// Reverse-mode backpropagation over the tape recorded by the ops.

#include <unordered_set>

#include "tensor/tensor.h"
#include "util/profiler.h"

namespace conformer {

namespace {

// Iterative post-order DFS producing children-before-parents order; the
// reverse of the accumulated list visits each node before its inputs'
// producers, which is the order backward functions must run in.
void TopologicalOrder(TensorImpl* root,
                      std::vector<TensorImpl*>* order) {
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* impl;
    size_t next_input;
  };
  std::vector<Frame> stack;
  if (root->node != nullptr) stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    AutogradNode* node = frame.impl->node.get();
    if (frame.next_input < node->inputs.size()) {
      TensorImpl* input = node->inputs[frame.next_input].get();
      ++frame.next_input;
      if (input->node != nullptr && visited.insert(input).second) {
        stack.push_back({input, 0});
      }
    } else {
      order->push_back(frame.impl);
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
  TensorImpl* root = impl_.get();
  if (root->node == nullptr && !root->requires_grad) return;

  std::vector<TensorImpl*> order;
  TopologicalOrder(root, &order);

  // Non-leaf gradients are scratch space for this pass: drop any residue
  // from an earlier retain_graph backward so repeated passes don't
  // double-count. Leaf gradients keep accumulating across passes.
  for (TensorImpl* impl : order) impl->ReleaseGrad();

  root->MutableGrad()[0] += 1.0f;

  // `order` is post-order (inputs first); walk it backwards so each node's
  // output gradient is complete before its backward function runs.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* impl = *it;
    if (impl->grad.empty()) continue;  // No gradient flowed here.
    {
      // op_name is a string literal owned by the recording op, so the
      // profiler can keep the pointer.
      CONFORMER_PROFILE_SCOPE_CAT("bwd", impl->node->op_name);
      impl->node->backward(*impl);
    }
    // Every consumer ran before this node, so its gradient is now spent:
    // free it rather than hold every activation's gradient to the end.
    if (!retain_graph) impl->ReleaseGrad();
  }

  if (!retain_graph) {
    for (TensorImpl* impl : order) impl->node.reset();
  }
}

}  // namespace conformer
