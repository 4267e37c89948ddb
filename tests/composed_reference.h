// Op-per-node reference chains for the fused nn forward paths.
//
// Every nn module runs one forward path built on the fused autograd ops
// (ag::LinearBiasAct, RecurrentLayer, LayerNormCore, MultiHeadAttentionCore,
// TransformerBlockCore) and rckt::ShiftAndAdd. The chains below are what
// those
// ops replace, written in the primitive ops one node per step. The tests
// hold the modules to them bit for bit (values, attention maps and, where a
// test checks them, every gradient), so the chains here must keep the node
// order of the graphs the fused ops were derived from: gradient sums land in
// tape order, and a reordered chain is a different reference.
//
// The functions take parameter handles, never module internals; a test
// reaches a module's parameters by the names Module::ParameterNames()
// gives them (see Param).
#ifndef KT_TESTS_COMPOSED_REFERENCE_H_
#define KT_TESTS_COMPOSED_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "core/check.h"
#include "nn/attention.h"
#include "nn/recurrent.h"
#include "nn/module.h"
#include "tensor/tensor_ops.h"

namespace kt {
namespace reference {

// The parameter `module` registers under `name`, spelled as in
// ParameterNames() ("attention.q_proj.weight"); undefined when there is
// none, e.g. the decay of an attention without distance decay.
inline ag::Variable FindParam(const nn::Module& module,
                              const std::string& name) {
  const std::vector<std::string> names = module.ParameterNames();
  const std::vector<ag::Variable> params = module.Parameters();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return params[i];
  }
  return ag::Variable();
}

// FindParam for a parameter the module must have.
inline ag::Variable Param(const nn::Module& module, const std::string& name) {
  ag::Variable param = FindParam(module, name);
  KT_CHECK(param.defined()) << "no parameter named " << name;
  return param;
}

// act(x W + b) as the op-per-node chain nn::Linear::Forward fuses (flatten,
// MatMul, Add, restore the leading dims, then the activation node). `bias`
// may be undefined.
inline ag::Variable ComposedLinearAct(const ag::Variable& x,
                                      const ag::Variable& weight,
                                      const ag::Variable& bias, ag::Act act) {
  const Shape& in_shape = x.shape();
  const int64_t in_features = weight.size(0);
  ag::Variable flat = ag::Reshape(x, Shape{-1, in_features});
  ag::Variable out = ag::MatMul(flat, weight);
  if (bias.defined()) out = ag::Add(out, bias);
  Shape out_shape(in_shape.begin(), in_shape.end() - 1);
  out_shape.push_back(weight.size(1));
  out = ag::Reshape(out, std::move(out_shape));
  switch (act) {
    case ag::Act::kIdentity:
      return out;
    case ag::Act::kRelu:
      return ag::Relu(out);
    case ag::Act::kSigmoid:
      return ag::Sigmoid(out);
    case ag::Act::kTanh:
      return ag::Tanh(out);
  }
  return out;
}

// One LSTM step (ag::RecurrentLayer's kLstm cell); w_x, w_h and bias are
// the layer's parameters, gate blocks i|f|g|o.
inline nn::LSTM::State ComposedLstmCell(const ag::Variable& x,
                                        const nn::LSTM::State& state,
                                        const ag::Variable& w_x,
                                        const ag::Variable& w_h,
                                        const ag::Variable& bias) {
  const ag::Variable& h_prev = state[0];
  const ag::Variable& c_prev = state[1];
  ag::Variable z =
      ag::Add(ag::Add(ag::MatMul(x, w_x), ag::MatMul(h_prev, w_h)), bias);
  const int64_t h = c_prev.size(1);
  ag::Variable i_gate = ag::Sigmoid(ag::Slice(z, 1, 0, h));
  ag::Variable f_gate = ag::Sigmoid(ag::Slice(z, 1, h, 2 * h));
  ag::Variable g_gate = ag::Tanh(ag::Slice(z, 1, 2 * h, 3 * h));
  ag::Variable o_gate = ag::Sigmoid(ag::Slice(z, 1, 3 * h, 4 * h));

  ag::Variable c_next =
      ag::Add(ag::Mul(f_gate, c_prev), ag::Mul(i_gate, g_gate));
  ag::Variable h_next = ag::Mul(o_gate, ag::Tanh(c_next));
  return {h_next, c_next};
}

// One GRU step (ag::RecurrentLayer's kGru cell); w_x, w_h and bias are the
// layer's parameters, gate blocks r|z|n.
inline ag::Variable ComposedGruCell(const ag::Variable& x,
                                    const ag::Variable& h_prev,
                                    const ag::Variable& w_x,
                                    const ag::Variable& w_h,
                                    const ag::Variable& bias) {
  ag::Variable zx = ag::Add(ag::MatMul(x, w_x), bias);  // [B, 3h]
  ag::Variable zh = ag::MatMul(h_prev, w_h);            // [B, 3h]
  const int64_t n = h_prev.size(1);
  ag::Variable r = ag::Sigmoid(
      ag::Add(ag::Slice(zx, 1, 0, n), ag::Slice(zh, 1, 0, n)));
  ag::Variable z = ag::Sigmoid(
      ag::Add(ag::Slice(zx, 1, n, 2 * n), ag::Slice(zh, 1, n, 2 * n)));
  ag::Variable candidate = ag::Tanh(ag::Add(
      ag::Slice(zx, 1, 2 * n, 3 * n),
      ag::Mul(r, ag::Slice(zh, 1, 2 * n, 3 * n))));

  // h' = (1 - z) * candidate + z * h
  ag::Variable one_minus_z =
      ag::Sub(ag::Constant(Tensor::Ones(z.shape())), z);
  return ag::Add(ag::Mul(one_minus_z, candidate), ag::Mul(z, h_prev));
}

// Layer normalization over the last dimension: what LayerNormCore fuses.
inline ag::Variable ComposedLayerNorm(const ag::Variable& x,
                                      const ag::Variable& gamma,
                                      const ag::Variable& beta, float eps) {
  ag::Variable mu = ag::Mean(x, -1, /*keepdim=*/true);
  ag::Variable centered = ag::Sub(x, mu);
  ag::Variable var =
      ag::Mean(ag::Mul(centered, centered), -1, /*keepdim=*/true);
  ag::Variable inv_std = ag::Sqrt(ag::AddScalar(var, eps));
  ag::Variable normalized = ag::Div(centered, inv_std);
  return ag::Add(ag::Mul(normalized, gamma), beta);
}

// The attention heads between the projections and the out-projection:
// what MultiHeadAttentionCore fuses. qp, kp and vp are the projected
// [B, T, dim] inputs, `mask` is [Tq, Tk] (1 = attend), `decay` is
// [num_heads] or undefined (no distance decay), and query row i sits at
// global position query_offset + i. Per head: Slice, BatchMatMul, scale,
// decay, additive mask, softmax, row mask and Dropout with probability `p`;
// then Concat. Appends each head's pre-dropout probabilities to `maps`
// when it is non-null. Returns the merged [B, Tq, dim] heads.
inline ag::Variable ComposedHeads(const ag::Variable& qp,
                                  const ag::Variable& kp,
                                  const ag::Variable& vp, const Tensor& mask,
                                  const ag::Variable& decay,
                                  int64_t num_heads, int64_t query_offset,
                                  float p, const nn::Context& ctx,
                                  std::vector<Tensor>* maps) {
  const int64_t tq = mask.size(0);
  const int64_t tk = mask.size(1);
  const int64_t head_dim = qp.size(2) / num_heads;
  const bool monotonic = decay.defined();
  // Additive mask: 0 where allowed, -1e9 where blocked, shaped [1, Tq, Tk]
  // to broadcast over the batch.
  Tensor additive = Map(mask, [](float m) { return (m - 1.0f) * 1e9f; })
                        .Reshape(Shape{1, tq, tk});
  ag::Variable additive_mask = ag::Constant(additive);
  // Zero-out factor for rows with no attendable positions, [1, Tq, 1].
  Tensor row_any(Shape{1, tq, 1});
  for (int64_t i = 0; i < tq; ++i) {
    float any = 0.0f;
    for (int64_t j = 0; j < tk; ++j) any = std::max(any, mask.at({i, j}));
    row_any.flat(i) = any;
  }
  ag::Variable row_any_mask = ag::Constant(row_any);
  // Distance matrix for monotonic decay, [1, Tq, Tk].
  ag::Variable distance;
  if (monotonic) {
    Tensor dist(Shape{1, tq, tk});
    for (int64_t i = 0; i < tq; ++i)
      for (int64_t j = 0; j < tk; ++j)
        dist.flat(i * tk + j) =
            static_cast<float>(std::abs(query_offset + i - j));
    distance = ag::Constant(dist);
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::vector<ag::Variable> head_outputs;
  head_outputs.reserve(static_cast<size_t>(num_heads));
  for (int64_t h = 0; h < num_heads; ++h) {
    const int64_t lo = h * head_dim;
    const int64_t hi = lo + head_dim;
    ag::Variable qh = ag::Slice(qp, 2, lo, hi);  // [B, Tq, dh]
    ag::Variable kh = ag::Slice(kp, 2, lo, hi);  // [B, Tk, dh]
    ag::Variable vh = ag::Slice(vp, 2, lo, hi);  // [B, Tk, dh]

    ag::Variable scores = ag::MulScalar(
        ag::BatchMatMul(qh, ag::TransposeLast2(kh)), scale);  // [B, Tq, Tk]
    if (monotonic) {
      // softplus keeps the decay positive; larger distance -> lower score.
      ag::Variable theta = ag::Slice(decay, 0, h, h + 1);          // [1]
      ag::Variable softplus =
          ag::Log(ag::AddScalar(ag::Exp(theta), 1.0f));            // [1]
      ag::Variable penalty =
          ag::Mul(ag::Reshape(softplus, Shape{1, 1, 1}), distance);
      scores = ag::Sub(scores, penalty);
    }
    scores = ag::Add(scores, additive_mask);
    ag::Variable probs = ag::SoftmaxLastDim(scores);
    // Rows that can attend nowhere become exact zeros instead of uniform.
    probs = ag::Mul(probs, row_any_mask);
    if (maps) maps->push_back(probs.value().Clone());
    probs = ag::Dropout(probs, p, ctx.rng, ctx.rng_count, ctx.train);
    head_outputs.push_back(ag::BatchMatMul(probs, vh));  // [B, Tq, dh]
  }
  return num_heads == 1 ? head_outputs[0] : ag::Concat(head_outputs, 2);
}

// The attention inside nn::TransformerBlock, over the parameters `module`
// holds under `prefix` ("attention." for a block): projections,
// ComposedHeads, out-projection.
inline ag::Variable ComposedAttention(const nn::Module& module,
                                      const std::string& prefix,
                                      const ag::Variable& q,
                                      const ag::Variable& k,
                                      const ag::Variable& v,
                                      const Tensor& mask, int64_t num_heads,
                                      float p, const nn::Context& ctx,
                                      std::vector<Tensor>* maps) {
  // The q/k/v projections carry no bias.
  auto project = [&](const ag::Variable& x, const char* name) {
    return ComposedLinearAct(x, Param(module, prefix + name), ag::Variable(),
                             ag::Act::kIdentity);
  };
  ag::Variable qp = project(q, "q_proj.weight");
  ag::Variable kp = project(k, "k_proj.weight");
  ag::Variable vp = project(v, "v_proj.weight");
  ag::Variable merged =
      ComposedHeads(qp, kp, vp, mask, FindParam(module, prefix + "decay"),
                    num_heads, /*query_offset=*/0, p, ctx, maps);
  return ComposedLinearAct(merged, Param(module, prefix + "out_proj.weight"),
                           Param(module, prefix + "out_proj.bias"),
                           ag::Act::kIdentity);
}

// nn::TransformerBlock over the parameters `module` holds under `prefix`:
// Forward (self-attention) when `kv` is null, ForwardCross(q, *kv)
// otherwise. The norms use nn::LayerNorm's default eps.
inline ag::Variable ComposedTransformerBlock(
    const nn::Module& module, const std::string& prefix,
    const ag::Variable& q, const ag::Variable* kv, const Tensor& mask,
    int64_t num_heads, float p, const nn::Context& ctx,
    std::vector<Tensor>* maps) {
  constexpr float kEps = 1e-5f;
  ag::Variable normed =
      ComposedLayerNorm(q, Param(module, prefix + "norm1.gamma"),
                        Param(module, prefix + "norm1.beta"), kEps);
  const ag::Variable& keys = kv != nullptr ? *kv : normed;
  ag::Variable attended =
      ComposedAttention(module, prefix + "attention.", normed, keys, keys,
                        mask, num_heads, p, ctx, maps);
  ag::Variable mid = ag::Add(q, attended);
  ag::Variable ff_in =
      ComposedLayerNorm(mid, Param(module, prefix + "norm2.gamma"),
                        Param(module, prefix + "norm2.beta"), kEps);
  ag::Variable hidden = ComposedLinearAct(
      ff_in, Param(module, prefix + "ff1.weight"),
      Param(module, prefix + "ff1.bias"), ag::Act::kRelu);
  hidden = ag::Dropout(hidden, p, ctx.rng, ctx.rng_count, ctx.train);
  ag::Variable ff_out = ComposedLinearAct(
      hidden, Param(module, prefix + "ff2.weight"),
      Param(module, prefix + "ff2.bias"), ag::Act::kIdentity);
  return ag::Add(mid, ff_out);
}

// rckt::ShiftAndAdd: out_i = fwd_{i-1} + bwd_{i+1}, the boundaries read
// from a zero row, as Slice, Concat and Add nodes.
inline ag::Variable ComposedShiftAndAdd(const ag::Variable& forward_stream,
                                        const ag::Variable& backward_stream) {
  const int64_t b = forward_stream.size(0);
  const int64_t t = forward_stream.size(1);
  const int64_t d = forward_stream.size(2);
  ag::Variable zeros = ag::Constant(Tensor::Zeros(Shape{b, 1, d}));
  // fwd_{i-1}: shift right; bwd_{i+1}: shift left.
  ag::Variable f_shift =
      ag::Concat({zeros, ag::Slice(forward_stream, 1, 0, t - 1)}, 1);
  ag::Variable b_shift =
      ag::Concat({ag::Slice(backward_stream, 1, 1, t), zeros}, 1);
  return ag::Add(f_shift, b_shift);
}

// rckt::BiAttentionEncoder::Encode over `encoder`'s parameters: causal
// blocks fwd0..fwd{L-1}, anti-causal blocks bwd0..bwd{L-1},
// ComposedShiftAndAdd.
inline ag::Variable ComposedBiAttentionEncode(const nn::Module& encoder,
                                              const ag::Variable& a,
                                              int64_t num_layers,
                                              int64_t num_heads, float p,
                                              const nn::Context& ctx) {
  const int64_t t = a.size(1);
  const Tensor causal =
      nn::MakeAttentionMask(t, nn::AttentionMaskKind::kCausalInclusive);
  const Tensor anticausal =
      nn::MakeAttentionMask(t, nn::AttentionMaskKind::kAntiCausalInclusive);

  ag::Variable f = a;
  for (int64_t l = 0; l < num_layers; ++l) {
    f = ComposedTransformerBlock(encoder, "fwd" + std::to_string(l) + ".", f,
                                 nullptr, causal, num_heads, p, ctx, nullptr);
  }
  ag::Variable b = a;
  for (int64_t l = 0; l < num_layers; ++l) {
    b = ComposedTransformerBlock(encoder, "bwd" + std::to_string(l) + ".", b,
                                 nullptr, anticausal, num_heads, p, ctx,
                                 nullptr);
  }
  return ComposedShiftAndAdd(f, b);
}

// The bidirectional recurrent encoder (rckt::MakeBiEncoder with kDKT or
// kGRU) over `encoder`'s parameters: layers fwd0..fwd{L-1} forward and
// bwd0..bwd{L-1} reversed, each the fused ag::RecurrentLayer (its own
// reference is the step chain above) followed by Dropout, then
// ComposedShiftAndAdd.
inline ag::Variable ComposedBiRecurrentEncode(const nn::Module& encoder,
                                              ag::RecurrentCell cell,
                                              const ag::Variable& a,
                                              int64_t num_layers, float p,
                                              const nn::Context& ctx) {
  auto stream = [&](const std::string& prefix, bool reverse) {
    ag::Variable x = a;
    for (int64_t l = 0; l < num_layers; ++l) {
      const std::string layer = prefix + std::to_string(l) + ".cell.";
      x = ag::RecurrentLayer(cell, x, Param(encoder, layer + "w_x"),
                             Param(encoder, layer + "w_h"),
                             Param(encoder, layer + "bias"), reverse, {},
                             nullptr);
      x = ag::Dropout(x, p, ctx.rng, ctx.rng_count, ctx.train);
    }
    return x;
  };
  ag::Variable f = stream("fwd", /*reverse=*/false);
  ag::Variable b = stream("bwd", /*reverse=*/true);
  return ComposedShiftAndAdd(f, b);
}

}  // namespace reference
}  // namespace kt

#endif  // KT_TESTS_COMPOSED_REFERENCE_H_
