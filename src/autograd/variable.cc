#include "autograd/variable.h"

#include <unordered_set>
#include <utility>

#include "tensor/tensor_ops.h"

namespace kt {
namespace ag {
namespace {

thread_local bool g_grad_enabled = true;

}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}
NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool GradModeEnabled() { return g_grad_enabled; }

namespace internal {

void Node::EnsureGrad() {
  if (!has_grad) {
    grad = Tensor::Zeros(value.shape());
    has_grad = true;
  }
}

void Node::AccumulateGrad(Tensor g) {
  if (!g.SameShape(value)) {
    // Reverse of broadcasting in the forward pass.
    EnsureGrad();
    grad.AddInPlace(ReduceToShape(g, grad.shape()));
    return;
  }
  if (!has_grad && g.StorageIsUnique()) {
    // Adopt g. The old path computed fl(0 + g[i]) into a zero-filled
    // buffer; IEEE addition commutes, so fl(g[i] + 0) has the same bits,
    // including -0 -> +0. Storage shared with anything else (a sibling's
    // gradient, a saved tensor) is never adopted: later in-place
    // accumulation into `grad` must not be seen through another handle.
    float* d = g.data();
    for (int64_t i = 0; i < g.numel(); ++i) d[i] = d[i] + 0.0f;
    grad = std::move(g);
    has_grad = true;
    return;
  }
  EnsureGrad();
  grad.AddInPlace(g);
}

void Node::ReleaseGrad() {
  // Moving out frees the storage without allocating a placeholder; `grad`
  // is not read again until has_grad is set.
  Tensor released = std::move(grad);
  has_grad = false;
}

}  // namespace internal

Variable Variable::Leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<internal::Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return FromNode(std::move(node));
}

const Tensor& Variable::value() const {
  KT_CHECK(defined());
  return node_->value;
}

Tensor& Variable::mutable_value() {
  KT_CHECK(defined());
  return node_->value;
}

Tensor Variable::grad() const {
  KT_CHECK(defined());
  if (!node_->has_grad) return Tensor::Zeros(node_->value.shape());
  return node_->grad;
}

bool Variable::requires_grad() const {
  KT_CHECK(defined());
  return node_->requires_grad;
}

void Variable::ZeroGrad() {
  KT_CHECK(defined());
  node_->ReleaseGrad();
}

void Variable::Backward() const {
  KT_CHECK(defined());
  KT_CHECK_EQ(node_->value.numel(), 1)
      << "Backward() requires a scalar loss, got "
      << ShapeToString(node_->value.shape());

  // Iterative post-order DFS to get a topological order (inputs before
  // outputs), then run backward closures in reverse.
  std::vector<internal::Node*> topo;
  std::unordered_set<internal::Node*> visited;
  struct Frame {
    internal::Node* node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({node_.get(), 0});
  visited.insert(node_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_child < frame.node->inputs.size()) {
      internal::Node* child = frame.node->inputs[frame.next_child++].get();
      if (visited.insert(child).second) stack.push_back({child, 0});
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }

  node_->EnsureGrad();
  node_->grad.Fill(1.0f);
  // Every consumer of a node runs before it, so its gradient is complete
  // when its closure runs and dead right after: free interior gradients
  // there, which keeps one step's working set to the live frontier.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    internal::Node* n = *it;
    if (!n->backward_fn || !n->has_grad) continue;
    n->backward_fn();
    n->ReleaseGrad();
  }
}

Variable Variable::FromNode(std::shared_ptr<internal::Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

bool RecordsGrad(const std::vector<Variable>& inputs) {
  if (!GradModeEnabled()) return false;
  for (const Variable& v : inputs) {
    KT_CHECK(v.defined());
    if (v.requires_grad()) return true;
  }
  return false;
}

Variable MakeOpNode(Tensor value, const std::vector<Variable>& inputs,
                    std::function<void(internal::Node&)> backward_fn) {
  auto node = std::make_shared<internal::Node>();
  node->value = std::move(value);
  const bool needs_grad = RecordsGrad(inputs);
  node->requires_grad = needs_grad;
  if (needs_grad) {
    for (const Variable& v : inputs) node->inputs.push_back(v.node());
    // Bind the closure to the node with a raw pointer: the node owns the
    // closure, so the pointer is valid whenever the closure runs.
    internal::Node* raw = node.get();
    node->backward_fn = [raw, fn = std::move(backward_fn)]() { fn(*raw); };
  }
  return Variable::FromNode(std::move(node));
}

}  // namespace ag
}  // namespace kt
