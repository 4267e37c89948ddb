#include "nn/layer_norm.h"

namespace kt {
namespace nn {

LayerNorm::LayerNorm(int64_t dim, float eps) : dim_(dim), eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones(Shape{dim}));
  beta_ = RegisterParameter("beta", Tensor::Zeros(Shape{dim}));
}

ag::Variable LayerNorm::Forward(const ag::Variable& x) const {
  KT_CHECK_EQ(x.shape().back(), dim_);
  return ag::LayerNormCore(x, gamma_, beta_, eps_);
}

}  // namespace nn
}  // namespace kt
