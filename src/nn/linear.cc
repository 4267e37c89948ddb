#include "nn/linear.h"

#include "nn/init.h"

namespace kt {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               bool use_bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ =
      RegisterParameter("weight", XavierUniform(in_features, out_features, rng));
  if (use_bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros(Shape{out_features}));
  }
}

ag::Variable Linear::Forward(const ag::Variable& x, ag::Act act) const {
  const Shape& in_shape = x.shape();
  KT_CHECK_GE(in_shape.size(), 1u);
  KT_CHECK_EQ(in_shape.back(), in_features_);

  Shape out_shape(in_shape.begin(), in_shape.end() - 1);
  out_shape.push_back(out_features_);
  ag::Variable flat = ag::Reshape(x, Shape{-1, in_features_});
  return ag::Reshape(ag::LinearBiasAct(flat, weight_, bias_, act),
                     std::move(out_shape));
}

}  // namespace nn
}  // namespace kt
