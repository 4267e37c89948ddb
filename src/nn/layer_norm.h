// Layer normalization over the last dimension.
#ifndef KT_NN_LAYER_NORM_H_
#define KT_NN_LAYER_NORM_H_

#include "autograd/ops.h"
#include "nn/module.h"

namespace kt {
namespace nn {

class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  // `x` is [*, dim]; normalizes the last dimension, then applies the learned
  // gain and bias, as one fused ag::LayerNormCore node.
  ag::Variable Forward(const ag::Variable& x) const;

  // Parameter handles, for blocks that run the norm inside a fused op.
  const ag::Variable& gamma() const { return gamma_; }
  const ag::Variable& beta() const { return beta_; }
  float eps() const { return eps_; }

 private:
  int64_t dim_;
  float eps_;
  ag::Variable gamma_;  // [dim]
  ag::Variable beta_;   // [dim]
};

}  // namespace nn
}  // namespace kt

#endif  // KT_NN_LAYER_NORM_H_
