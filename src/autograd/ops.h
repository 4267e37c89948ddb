// Differentiable operations over ag::Variable.
//
// Every function computes the forward result with the kernels in
// tensor/tensor_ops.h and records a backward closure when gradients are
// required. Binary arithmetic broadcasts like NumPy; gradients of broadcast
// inputs are reduced back to the input shape.
#ifndef KT_AUTOGRAD_OPS_H_
#define KT_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "core/rng.h"

namespace kt {
namespace ag {

// ---- Arithmetic (broadcasting) ----
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);
// Elementwise max; gradient flows to the larger operand (ties favor `a`).
Variable Maximum(const Variable& a, const Variable& b);

Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);
Variable Neg(const Variable& a);

// ---- Matrix products ----
Variable MatMul(const Variable& a, const Variable& b);
Variable BatchMatMul(const Variable& a, const Variable& b);

// ---- Activations / pointwise ----
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
Variable Exp(const Variable& a);
// Natural log; inputs must be positive (callers clamp or offset).
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable SoftmaxLastDim(const Variable& a);

// ---- Shape ----
Variable Reshape(const Variable& a, Shape shape);
Variable TransposeLast2(const Variable& a);
Variable Slice(const Variable& a, int64_t d, int64_t start, int64_t end);
Variable Concat(const std::vector<Variable>& inputs, int64_t d);

// ---- Reductions ----
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);
Variable Sum(const Variable& a, int64_t d, bool keepdim = false);
Variable Mean(const Variable& a, int64_t d, bool keepdim = false);

// ---- Lookup / regularization ----
// Rows of a 2-D `table` gathered by `indices`: result [indices.size(), dim].
// Backward scatter-adds into the table gradient.
Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int64_t>& indices);
// Mean of table rows per bag: result[i, :] = mean_{j in bags[i]} table[j, :].
// An empty bag yields a zero row. Used for the paper's Eq. 23 (question
// embedding plus the mean of its concept embeddings).
Variable EmbeddingBagMean(const Variable& table,
                          const std::vector<std::vector<int64_t>>& bags);
// Inverted dropout: scales kept activations by 1/(1-p) during training; the
// identity when `train` is false or p == 0.
Variable Dropout(const Variable& a, float p, Rng& rng, bool train);
// Row-block form: `a`'s leading dimension splits into `num_streams` equal
// blocks, and block j's mask is drawn from streams[j] in element order.
// With one stream it is the form above.
Variable Dropout(const Variable& a, float p, Rng* streams,
                 int64_t num_streams, bool train);

// ---- Fused ops (DESIGN.md §9) ----
//
// Each fused op computes what a chain of the primitive ops above would,
// with one tape node and no intermediate tensors, and is bit-identical to
// the composed chain (the epilogues replay the same per-element expressions
// in the same order; autograd/ops.cc builds with -ffp-contract=off so no
// FMA contraction can merge what the composed path rounds separately). The
// one exception is the recurrent layer's backward, which keeps the order of
// the per-step graph it replaced (see RecurrentLayer). The composed chains
// themselves live in tests/composed_reference.h, the references the tests
// hold the nn modules to.

// Activation epilogue selector for LinearBiasAct.
enum class Act { kIdentity, kRelu, kSigmoid, kTanh };

// y = act(x W + b): fused GEMM + bias + activation. x is [m, in], w is
// [in, out], b is [out] or undefined (no bias). Backward feeds the three
// gradients straight into the input/parameter grad buffers through the
// transposed GEMM accumulators — zero temporaries besides act'.
Variable LinearBiasAct(const Variable& x, const Variable& w,
                       const Variable& b, Act act);

// The forward half of LinearBiasAct on plain tensors, with no graph node:
// the same GEMM and epilogue, so LinearBiasAct(...).value() equals it bit
// for bit. `b` is [out] or null (no bias). For inference paths that never
// run backward, e.g. the serve predict head.
Tensor LinearBiasActForward(const Tensor& x, const Tensor& w, const Tensor* b,
                            Act act);

// A gated recurrent layer over x ([B, T, in]) as one node, returning the
// hidden state after every step, [B, T, H]. With `reverse` the steps run
// from t = T-1 down to 0, so the output at t summarizes x_t..x_{T-1}. w_x
// is [in, G*H], w_h [H, G*H] and bias [G*H], gate blocks as below.
// `initial` seeds the state before the first step (empty: zeros).
// `final_state`, when non-null, receives the state after the last step as
// plain tensors; it is not differentiable, so it may only be asked for
// when no tape entry is recorded. A call that records none keeps nothing
// for backward.
//   kLstm: gates i|f|g|o, state {h, c}; z = (x w_x + h w_h) + b,
//          c' = sigmoid(f)*c + sigmoid(i)*tanh(g), h' = sigmoid(o)*tanh(c').
//   kGru:  gates r|z|n, state {h}; zx = x w_x + b, zh = h w_h,
//          r = sigmoid(zx_r + zh_r), u = sigmoid(zx_z + zh_z),
//          n = tanh(zx_n + r * zh_n), h' = (1 - u) * n + u * h.
// The values equal the composed step-by-step chains of
// tests/composed_reference.h bit for bit. The gradients keep the bits of
// the per-step fused-cell graph the op replaced (DESIGN.md §9.2), which
// golden digests pin.
enum class RecurrentCell { kLstm, kGru };
Variable RecurrentLayer(RecurrentCell cell, const Variable& x,
                        const Variable& w_x, const Variable& w_h,
                        const Variable& bias, bool reverse,
                        const std::vector<Variable>& initial,
                        std::vector<Tensor>* final_state);

// Layer normalization over the last dimension of x ([*, d]) as one node:
// (x - mean)/sqrt(var + eps)·gamma + beta with gamma and beta [d].
// Bit-identical, value and the gradients of x, gamma and beta, to the
// composed Mean/Sub/Mul/Mean/AddScalar/Sqrt/Div/Mul/Add chain
// (ComposedLayerNorm in tests/composed_reference.h). Keeps the row means
// and deviations for backward, which recomputes x - mean from x.
Variable LayerNormCore(const Variable& x, const Variable& gamma,
                       const Variable& beta, float eps);

// Everything MultiHeadAttentionCore needs besides its tensors. The dropout
// fields mirror nn::Context: `rng` points at `rng_count` streams, and the
// probabilities of head h draw their mask head by head, row block j of the
// batch from rng[j] in element order — what ag::Dropout does per head.
struct AttentionCoreOptions {
  int64_t num_heads = 1;
  // Global position of query row 0 within the key sequence; the decay's
  // distance is |query_offset + i - j|. Zero for a full pass, the cache
  // length before the new rows for incremental decode.
  int64_t query_offset = 0;
  float dropout_p = 0.0f;
  Rng* rng = nullptr;
  int64_t rng_count = 1;
  bool train = false;
};

// The multi-head attention core between the projections and the output
// projection: heads are column chunks of the [B, T, D] inputs q, k and v,
// and per head
//   s = (q_h k_hᵀ)·scale [- softplus(decay[h])·dist] + additive(mask),
//   p = softmax(s) · row_any(mask),  y_h = dropout(p) v_h,
// with the merged [B, Tq, D] result holding y_h in columns of head h. `mask`
// is [Tq, Tk] (1 = attend); `decay` is [num_heads] or undefined (no
// distance decay). Bit-identical, values and every gradient, to the
// composed Slice/BatchMatMul/.../Dropout/Concat chain (the attention-head
// reference in tests/composed_reference.h). If `attention_out` is non-null
// it receives p, the row-masked probabilities before dropout, as one
// [B, Tq, Tk] tensor per head. Work is banded: blocks of query rows visit
// only the keys their rows may attend (exact for 0/1 masks, finite v and
// scores far from the -1e9 mask offset; DESIGN.md §9.2).
Variable MultiHeadAttentionCore(const Variable& q, const Variable& k,
                                const Variable& v, const Tensor& mask,
                                const Variable& decay,
                                const AttentionCoreOptions& options,
                                std::vector<Tensor>* attention_out);

// Append-only key/value cache for incremental causal decoding of ONE
// sequence (one batch row) through one attention: the post-projection key
// and value rows of every position seen so far, so a new position attends
// over its history without re-projecting it. The rows are bitwise the ones
// a full-sequence pass computes, which is what makes incremental decode
// bit-identical to the offline pass (see kt::serve and DESIGN.md §11).
struct AttentionKVCache {
  int64_t len = 0;       // positions appended so far
  std::vector<float> k;  // [len * dim], row-major post-projection rows
  std::vector<float> v;  // [len * dim], row-major post-projection rows
};

// The parameters of one pre-norm transformer block, as
// nn::TransformerBlock registers them. The q/k/v projections have no bias;
// `decay` is [num_heads] or undefined (no distance decay).
struct TransformerBlockWeights {
  Variable norm1_gamma, norm1_beta;
  Variable q_weight, k_weight, v_weight;
  Variable out_weight, out_bias;
  Variable decay;
  Variable norm2_gamma, norm2_beta;
  Variable ff1_weight, ff1_bias;
  Variable ff2_weight, ff2_bias;
  float eps = 1e-5f;
};

// A pre-norm transformer block over x ([B, Tq, D]) as one node:
//   n1 = LN1(x), q = n1 Wq, k = src Wk, v = src Wv,
//   mid = x + (MultiHeadAttentionCore(q, k, v) Wo + bo),
//   h1 = relu(LN2(mid) W1 + b1),
//   out = mid + (dropout(h1) W2 + b2),
// where src is n1 for self-attention (`kv` undefined) and the raw `kv`
// ([B, Tk, D]) for cross-attention. `mask`, `options` and `attention_out`
// are the attention core's; the dropout draws the attention masks head by
// head, then the feed-forward mask, row block j from stream j.
//
// Values and every gradient equal the composed chain of LayerNormCore,
// LinearBiasAct, MultiHeadAttentionCore, Add and Dropout nodes
// (ComposedTransformerBlock in tests/composed_reference.h) bit for bit,
// gradient accumulation order included (DESIGN.md §9.2). Backward keeps
// q, k, v, the attention's softmax output and masks, its merged heads,
// mid, h1, the feed-forward mask and the two norms' row statistics; it
// recomputes both norms' outputs and dropout(h1).
//
// Cross-attention normalizes x in a LayerNormCore node of its own, so a
// cross call records two nodes: the keys' subtree may feed x's gradient
// (AKT's retriever reads keys computed from its own queries), and the
// composed tape lands that contribution between the residual's and the
// norm's.
//
// With `cache` non-null (self-attention, no tape entry) the block decodes
// the S rows of x ([1, S, D]) causally: their key/value rows are appended
// to the cache and the queries attend over all of it, with
// options.query_offset the cache length before the call and `mask`
// [S, len + S].
Variable TransformerBlockCore(const Variable& x, const Variable& kv,
                              const Tensor& mask,
                              const TransformerBlockWeights& weights,
                              const AttentionCoreOptions& options,
                              std::vector<Tensor>* attention_out,
                              AttentionKVCache* cache);

// ---- Constants ----
// Wraps a tensor as a non-differentiable graph input.
Variable Constant(Tensor t);

}  // namespace ag
}  // namespace kt

#endif  // KT_AUTOGRAD_OPS_H_
