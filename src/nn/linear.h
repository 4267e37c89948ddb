// Affine layer y = x W + b.
#ifndef KT_NN_LINEAR_H_
#define KT_NN_LINEAR_H_

#include "autograd/ops.h"
#include "nn/module.h"

namespace kt {
namespace nn {

class Linear : public Module {
 public:
  // Xavier-initialized weight [in, out]; zero bias unless disabled.
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool use_bias = true);

  // `x` may be [*, in]; leading dimensions are preserved.
  ag::Variable Forward(const ag::Variable& x) const;

  // act(x W + b) with the bias add and activation fused into the GEMM node
  // (ag::LinearBiasAct): the same bits as Forward followed by the
  // activation op, in one tape node.
  ag::Variable ForwardAct(const ag::Variable& x, ag::Act act) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

  // Raw parameter handles, for graph-free inference over the same weights
  // (e.g. the serve predict head, via ag::LinearBiasActForward). bias() is
  // undefined (.defined() == false) when the layer was built without one.
  const ag::Variable& weight() const { return weight_; }
  const ag::Variable& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  ag::Variable weight_;  // [in, out]
  ag::Variable bias_;    // [out], undefined when use_bias == false
};

}  // namespace nn
}  // namespace kt

#endif  // KT_NN_LINEAR_H_
