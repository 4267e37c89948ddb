// Base class for neural network modules.
//
// A Module owns named parameters (ag::Variable leaves with requires_grad)
// and child modules; Parameters() flattens the tree for the optimizer.
// Modules are stateless with respect to training mode: forward methods take
// a Context carrying the train flag and the RNG used for dropout, so the
// same module can serve training and inference without mode toggles.
#ifndef KT_NN_MODULE_H_
#define KT_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "core/rng.h"

namespace kt {
namespace nn {

// Per-call context: training mode and the dropout RNG streams. `rng` points
// at `rng_count` consecutive streams and may be null when train is false. A
// stacked forward over K row blocks (the RCKT counterfactual fan-out) sets
// rng_count = K, and dropout draws row block j's mask from rng[j] — the
// draws a lone pass over that block would make from its own stream.
struct Context {
  bool train = false;
  Rng* rng = nullptr;
  int64_t rng_count = 1;
};

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All parameters of this module and its children, in registration order.
  std::vector<ag::Variable> Parameters() const;
  // Parameter names parallel to Parameters(), child names dotted-prefixed.
  std::vector<std::string> ParameterNames() const;
  // Total scalar parameter count.
  int64_t NumParameters() const;

  // Zeroes gradients of every parameter.
  void ZeroGrad();

  // Deep copies of all parameter values in Parameters() order; used for
  // best-epoch checkpointing during early stopping.
  std::vector<Tensor> StateClone() const;
  // Restores values captured by StateClone (shapes must match).
  void SetState(const std::vector<Tensor>& state);

 protected:
  // Registers a trainable parameter; returns the shared handle.
  ag::Variable RegisterParameter(std::string name, Tensor init);
  // Registers a child whose parameters are exposed through this module.
  // The child must outlive this module (typically a member).
  void RegisterChild(std::string name, Module* child);

 private:
  std::vector<std::pair<std::string, ag::Variable>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

}  // namespace nn
}  // namespace kt

#endif  // KT_NN_MODULE_H_
