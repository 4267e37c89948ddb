// Tape-based reverse-mode automatic differentiation.
//
// A Variable wraps a Tensor value plus a node in a dynamically built
// computation graph. Each op (see autograd/ops.h) records a closure that
// propagates the output gradient to its inputs; Backward() runs those
// closures in reverse topological order.
//
// Conventions:
//   * Variables are cheap shared handles; copying shares the node.
//   * Gradients accumulate (+=) into `grad`, which is lazily allocated. A
//     first contribution of the node's own shape whose storage nothing else
//     references becomes `grad` itself instead of being added into zeros.
//   * Backward() releases an interior (op output) node's gradient as soon as
//     its closure has propagated it, so grad() of an interior Variable reads
//     zeros afterwards. Leaves keep their gradients until ZeroGrad().
//   * An op output requires grad iff any input does AND grad mode is on;
//     otherwise no tape entry is recorded, making inference allocation-light.
#ifndef KT_AUTOGRAD_VARIABLE_H_
#define KT_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace kt {
namespace ag {

// RAII guard disabling gradient recording (inference mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

// True when ops should record tape entries.
bool GradModeEnabled();

namespace internal {

struct Node {
  Tensor value;
  Tensor grad;                 // allocated or adopted on first accumulation
  bool has_grad = false;
  bool requires_grad = false;
  // Parents in the computation graph (kept alive for backward).
  std::vector<std::shared_ptr<Node>> inputs;
  // Propagates `grad` (of this node) into inputs. Null for leaves.
  std::function<void()> backward_fn;

  void EnsureGrad();
  // grad += g, where g broadcasts-to/equals value.shape(). Pass temporaries
  // by move: a first same-shape contribution that owns its storage alone is
  // kept as `grad` without a zero-filled copy.
  void AccumulateGrad(Tensor g);
  // Frees `grad`; has_grad reads false until the next accumulation.
  void ReleaseGrad();
};

}  // namespace internal

class Variable {
 public:
  // Default: empty handle; only valid after assignment.
  Variable() = default;

  // A leaf holding `value`. Parameters pass requires_grad = true;
  // data/constants pass false.
  static Variable Leaf(Tensor value, bool requires_grad);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  Tensor& mutable_value();
  // Gradient tensor; zeros if backward has not reached this node or, for an
  // op output, once Backward() has propagated and released it.
  Tensor grad() const;
  bool requires_grad() const;

  // Drops any accumulated gradient (used between optimizer steps).
  void ZeroGrad();

  // Shape conveniences.
  const Shape& shape() const { return value().shape(); }
  int64_t size(int64_t d) const { return value().size(d); }
  int64_t numel() const { return value().numel(); }

  // Runs backpropagation from this variable, which must be a scalar
  // (numel() == 1). Seeds its gradient with 1.
  void Backward() const;

  // Internal: used by ops to build graph nodes.
  static Variable FromNode(std::shared_ptr<internal::Node> node);
  const std::shared_ptr<internal::Node>& node() const { return node_; }

 private:
  std::shared_ptr<internal::Node> node_;
};

// True when an op over `inputs` records a tape entry: grad mode is on and
// some input requires grad. Ops that keep state for backward ask first.
bool RecordsGrad(const std::vector<Variable>& inputs);

// Builds an op output node. `inputs` are the parent variables, `value` the
// forward result, and `backward_fn` the gradient closure (invoked with the
// node's grad already populated; it should call AccumulateGrad on inputs).
// If grad mode is off or no input requires grad, the tape entry is elided.
Variable MakeOpNode(Tensor value, const std::vector<Variable>& inputs,
                    std::function<void(internal::Node&)> backward_fn);

}  // namespace ag
}  // namespace kt

#endif  // KT_AUTOGRAD_VARIABLE_H_
