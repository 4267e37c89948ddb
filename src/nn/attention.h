// Multi-head scaled dot-product attention and a transformer block.
//
// Heads are realized by chunking the feature dimension (dim / num_heads per
// head) rather than by a 4-D permute; with the small dimensions used in this
// library the two are equivalent and chunking keeps the tensor rank at 3.
//
// Two score variants are supported:
//   * standard dot-product (SAKT),
//   * monotonic distance decay (AKT): score_ij - softplus(theta_h) * |i-j|
//     before softmax, a learned-per-head exponential decay with position
//     distance. Because it depends on |i-j|, the same mechanism works in
//     both causal and bidirectional settings ("duality of distance",
//     paper Sec. V-A4).
#ifndef KT_NN_ATTENTION_H_
#define KT_NN_ATTENTION_H_

#include <vector>

#include "autograd/ops.h"
#include "nn/linear.h"
#include "nn/layer_norm.h"
#include "nn/module.h"

namespace kt {
namespace nn {

// Builds a [t, t] mask where entry (i, j) is 1 if position i may attend to
// position j.
//   kCausalStrict:          j <  i (SAKT-style, no self)
//   kCausalInclusive:       j <= i (forward stream of a bidirectional
//                                   encoder; outputs are shifted afterwards)
//   kAntiCausalInclusive:   j >= i (backward stream)
//   kBidirectionalNoSelf:   j != i
//   kFull:                  all ones
enum class AttentionMaskKind {
  kCausalStrict,
  kCausalInclusive,
  kAntiCausalInclusive,
  kBidirectionalNoSelf,
  kFull,
};
Tensor MakeAttentionMask(int64_t t, AttentionMaskKind kind);

// Append-only key/value cache for incremental causal decoding of one
// sequence through one block's attention (see ag::AttentionKVCache).
using AttentionKVCache = ag::AttentionKVCache;

// The attention's parameters: the q/k/v projections (no bias), the output
// projection and, with `monotonic`, the AKT-style per-head distance decay.
// It has no forward of its own: TransformerBlock runs it inside the fused
// ag::TransformerBlockCore, and tests run the core over its parameters.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t dim, int64_t num_heads, bool monotonic, Rng& rng);

  int64_t num_heads() const { return num_heads_; }

 private:
  friend class TransformerBlock;

  int64_t num_heads_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear out_proj_;
  ag::Variable decay_;  // [num_heads] raw decay params (monotonic only)
};

// Pre-LN transformer block: x + Attn(LN(x)) then x + FFN(LN(x)). Every
// call runs ag::TransformerBlockCore: one tape node for self-attention,
// two (the query norm, then the block) for cross-attention.
class TransformerBlock : public Module {
 public:
  TransformerBlock(int64_t dim, int64_t num_heads, float dropout_p,
                   bool monotonic, Rng& rng);

  // Self-attention over x with the given mask.
  ag::Variable Forward(const ag::Variable& x, const Tensor& mask,
                       const Context& ctx,
                       std::vector<Tensor>* attention_out = nullptr) const;

  // Cross-attention: queries from `q`, keys/values from `kv`.
  ag::Variable ForwardCross(const ag::Variable& q, const ag::Variable& kv,
                            const Tensor& mask, const Context& ctx,
                            std::vector<Tensor>* attention_out = nullptr) const;

  // Causal-inclusive decode of S new positions through the whole block
  // (pre-LN attention + feed-forward), appending to `cache`. `x_rows` is
  // [1, S, dim]; row i is bitwise row len+i (pre-call len) of Forward(x,
  // causal inclusive mask) over the full sequence, inference mode (no
  // dropout): projections and the feed-forward are row-independent, and
  // the blocked future entries of each row's masked softmax carry
  // exact-zero probability mass.
  ag::Variable StepCausalRun(const ag::Variable& x_rows,
                             AttentionKVCache& cache) const;

 private:
  // The parameters and attention options the fused core runs with.
  ag::TransformerBlockWeights Weights() const;
  ag::AttentionCoreOptions Options(const Context& ctx) const;

  MultiHeadAttention attention_;
  LayerNorm norm1_;
  LayerNorm norm2_;
  Linear ff1_;
  Linear ff2_;
  float dropout_p_;
};

}  // namespace nn
}  // namespace kt

#endif  // KT_NN_ATTENTION_H_
