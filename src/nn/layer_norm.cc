#include "nn/layer_norm.h"

namespace kt {
namespace nn {

LayerNorm::LayerNorm(int64_t dim, float eps) : dim_(dim), eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones(Shape{dim}));
  beta_ = RegisterParameter("beta", Tensor::Zeros(Shape{dim}));
}

ag::Variable LayerNorm::Forward(const ag::Variable& x) const {
  KT_CHECK_EQ(x.shape().back(), dim_);
  if (FusedOpsEnabled()) return ag::LayerNormCore(x, gamma_, beta_, eps_);
  ag::Variable mu = ag::Mean(x, -1, /*keepdim=*/true);
  ag::Variable centered = ag::Sub(x, mu);
  ag::Variable var =
      ag::Mean(ag::Mul(centered, centered), -1, /*keepdim=*/true);
  ag::Variable inv_std = ag::Sqrt(ag::AddScalar(var, eps_));
  ag::Variable normalized = ag::Div(centered, inv_std);
  return ag::Add(ag::Mul(normalized, gamma_), beta_);
}

}  // namespace nn
}  // namespace kt
