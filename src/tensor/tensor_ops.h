// Free functions over Tensor: broadcast arithmetic, activations, matrix
// products, reductions, and softmax. These are the forward kernels the
// autograd layer builds on.
#ifndef KT_TENSOR_TENSOR_OPS_H_
#define KT_TENSOR_TENSOR_OPS_H_

#include <bit>
#include <cstdint>
#include <functional>

#include "tensor/tensor.h"

namespace kt {

// ---- Broadcasting ----
// Returns the broadcast result shape of `a` and `b` under NumPy rules, or
// aborts if they are incompatible.
Shape BroadcastShape(const Shape& a, const Shape& b);
// True if a tensor of shape `from` broadcasts to exactly `to`.
bool BroadcastsTo(const Shape& from, const Shape& to);
// Sums `t` down to `target` shape (the adjoint of broadcasting). Requires
// BroadcastsTo(target, t.shape()).
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// ---- Elementwise binary (broadcasting) ----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);
// 1.0 where a >= b else 0.0 (broadcasting).
Tensor GreaterEqualMask(const Tensor& a, const Tensor& b);

// Scalar forms.
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// `s` if `keep`, else +0.0f, picked by a bit mask (bits(s) & -keep)
// rather than a branch. x * SelectOrZero(keep, s) has the bits of
// x * (keep ? s : 0.0f) for every x and s, NaN and ±0 included, and a loop
// over it vectorizes where the ternary compiles to a data-dependent branch.
inline float SelectOrZero(bool keep, float s) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(s) &
                              (0u - static_cast<uint32_t>(keep)));
}

// ---- Elementwise unary ----
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Abs(const Tensor& a);
// Generic pointwise map (not differentiable; for tests/tools).
Tensor Map(const Tensor& a, const std::function<float(float)>& fn);

// ---- Matrix products ----
// 2-D matmul: [m, k] x [k, n] -> [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// Batched matmul: [..., m, k] x [..., k, n] -> [..., m, n]; leading batch
// dims must match exactly.
Tensor BatchMatMul(const Tensor& a, const Tensor& b);

// ---- Reductions ----
// Sum of all elements -> rank-0 scalar.
Tensor SumAll(const Tensor& a);
Tensor MeanAll(const Tensor& a);
// Sum along dimension `d`; result drops that dim unless keepdim.
Tensor Sum(const Tensor& a, int64_t d, bool keepdim = false);
Tensor Mean(const Tensor& a, int64_t d, bool keepdim = false);
// Max along the last dimension; returns values (and indices if non-null).
Tensor MaxLastDim(const Tensor& a, std::vector<int64_t>* argmax = nullptr);

// ---- Softmax ----
// Numerically stable softmax along the last dimension.
Tensor SoftmaxLastDim(const Tensor& a);
// Softmax of one contiguous row of n > 0 values: the running max from
// in[0], exp(x - max), an ascending denominator, then × 1/denom. `out` may
// equal `in`. SoftmaxLastDim runs it per row; fused kernels run it on rows
// they already hold, so both give the same bits.
void SoftmaxRow(const float* in, float* out, int64_t n);

}  // namespace kt

#endif  // KT_TENSOR_TENSOR_OPS_H_
