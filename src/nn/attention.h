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

#include <memory>
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

// Append-only key/value cache for incremental causal decoding of ONE
// sequence (one batch row) through one attention module. Holds the
// post-projection key and value rows of every position seen so far, so a
// new position attends over its history without re-projecting it. The rows
// are bitwise the same values the full-sequence Forward computes, which is
// what makes incremental decode bit-identical to the offline pass
// (see kt::serve and DESIGN.md §11).
struct AttentionKVCache {
  int64_t len = 0;      // positions appended so far
  std::vector<float> k;  // [len * dim], row-major post-k_proj rows
  std::vector<float> v;  // [len * dim], row-major post-v_proj rows
};

class MultiHeadAttention : public Module {
 public:
  // `monotonic` enables the AKT-style distance decay.
  MultiHeadAttention(int64_t dim, int64_t num_heads, float dropout_p,
                     bool monotonic, Rng& rng);

  // q, k, v: [B, T, dim]; `mask` is [Tq, Tk] (1 = attend). If
  // `attention_out` is non-null it receives one [B, Tq, Tk] probability
  // tensor per head (detached; for interpretability analyses).
  ag::Variable Forward(const ag::Variable& q, const ag::Variable& k,
                       const ag::Variable& v, const Tensor& mask,
                       const Context& ctx,
                       std::vector<Tensor>* attention_out = nullptr) const;

  // Causal-inclusive decode of ONE sequence: `x_rows` is [1, S, dim], the
  // (already normed) inputs of S new positions, whose key/value
  // projections are appended to `cache` in one pass. Row i of the result
  // is bitwise row len+i (pre-call len) of Forward(x, x, x, m, ...) over
  // the full sequence with m = kCausalInclusive, for any split of the
  // sequence into runs: projections and the weighted sum are
  // row-independent, and the blocked future entries of each row's masked
  // softmax carry exact-zero probability mass (inference only: no dropout
  // is applied).
  ag::Variable StepCausalRun(const ag::Variable& x_rows,
                             AttentionKVCache& cache) const;

  int64_t num_heads() const { return num_heads_; }

 private:
  // Shared head loop: the fused ag::MultiHeadAttentionCore (scores, decay,
  // mask, softmax, dropout, weighted sum, head merge) and the
  // out-projection. Forward and StepCausalRun both run through it, so
  // incremental decode replays exactly the arithmetic of the full pass.
  // `mask` is [Tq, Tk] (1 = attend) and query row i sits at global
  // position query_offset + i for the decay's distance.
  ag::Variable AttendHeads(const ag::Variable& qp, const ag::Variable& kp,
                           const ag::Variable& vp, const Tensor& mask,
                           int64_t query_offset, const Context& ctx,
                           std::vector<Tensor>* attention_out) const;

  int64_t dim_;
  int64_t num_heads_;
  float dropout_p_;
  bool monotonic_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear out_proj_;
  ag::Variable decay_;  // [num_heads] raw decay params (monotonic only)
};

// Pre-LN transformer block: x + Attn(LN(x)) then x + FFN(LN(x)).
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
  // dropout).
  ag::Variable StepCausalRun(const ag::Variable& x_rows,
                             AttentionKVCache& cache) const;

 private:
  ag::Variable FeedForward(const ag::Variable& x, const Context& ctx) const;

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
