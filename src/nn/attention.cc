#include "nn/attention.h"

namespace kt {
namespace nn {

Tensor MakeAttentionMask(int64_t t, AttentionMaskKind kind) {
  Tensor mask(Shape{t, t});
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      bool allowed = false;
      switch (kind) {
        case AttentionMaskKind::kCausalStrict:
          allowed = j < i;
          break;
        case AttentionMaskKind::kCausalInclusive:
          allowed = j <= i;
          break;
        case AttentionMaskKind::kAntiCausalInclusive:
          allowed = j >= i;
          break;
        case AttentionMaskKind::kBidirectionalNoSelf:
          allowed = j != i;
          break;
        case AttentionMaskKind::kFull:
          allowed = true;
          break;
      }
      mask.at({i, j}) = allowed ? 1.0f : 0.0f;
    }
  }
  return mask;
}

namespace {

// Checks the head count before anything divides by it.
int64_t CheckedHeads(int64_t dim, int64_t num_heads) {
  KT_CHECK_GT(num_heads, 0) << "attention needs at least one head";
  KT_CHECK_EQ(dim % num_heads, 0)
      << "dim " << dim << " not divisible by heads " << num_heads;
  return num_heads;
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(int64_t dim, int64_t num_heads,
                                       bool monotonic, Rng& rng)
    : num_heads_(CheckedHeads(dim, num_heads)),
      q_proj_(dim, dim, rng, /*use_bias=*/false),
      k_proj_(dim, dim, rng, /*use_bias=*/false),
      v_proj_(dim, dim, rng, /*use_bias=*/false),
      out_proj_(dim, dim, rng) {
  RegisterChild("q_proj", &q_proj_);
  RegisterChild("k_proj", &k_proj_);
  RegisterChild("v_proj", &v_proj_);
  RegisterChild("out_proj", &out_proj_);
  if (monotonic) {
    // softplus(0) ~ 0.69 decay per unit distance initially.
    decay_ = RegisterParameter("decay", Tensor::Zeros(Shape{num_heads}));
  }
}

TransformerBlock::TransformerBlock(int64_t dim, int64_t num_heads,
                                   float dropout_p, bool monotonic, Rng& rng)
    : attention_(dim, num_heads, monotonic, rng),
      norm1_(dim),
      norm2_(dim),
      ff1_(dim, 2 * dim, rng),
      ff2_(2 * dim, dim, rng),
      dropout_p_(dropout_p) {
  RegisterChild("attention", &attention_);
  RegisterChild("norm1", &norm1_);
  RegisterChild("norm2", &norm2_);
  RegisterChild("ff1", &ff1_);
  RegisterChild("ff2", &ff2_);
}

ag::TransformerBlockWeights TransformerBlock::Weights() const {
  KT_CHECK_EQ(norm1_.eps(), norm2_.eps());
  ag::TransformerBlockWeights w;
  w.norm1_gamma = norm1_.gamma();
  w.norm1_beta = norm1_.beta();
  w.q_weight = attention_.q_proj_.weight();
  w.k_weight = attention_.k_proj_.weight();
  w.v_weight = attention_.v_proj_.weight();
  w.out_weight = attention_.out_proj_.weight();
  w.out_bias = attention_.out_proj_.bias();
  w.decay = attention_.decay_;
  w.norm2_gamma = norm2_.gamma();
  w.norm2_beta = norm2_.beta();
  w.ff1_weight = ff1_.weight();
  w.ff1_bias = ff1_.bias();
  w.ff2_weight = ff2_.weight();
  w.ff2_bias = ff2_.bias();
  w.eps = norm1_.eps();
  return w;
}

ag::AttentionCoreOptions TransformerBlock::Options(const Context& ctx) const {
  ag::AttentionCoreOptions options;
  options.num_heads = attention_.num_heads();
  options.dropout_p = dropout_p_;
  options.rng = ctx.rng;
  options.rng_count = ctx.rng_count;
  options.train = ctx.train;
  return options;
}

ag::Variable TransformerBlock::Forward(
    const ag::Variable& x, const Tensor& mask, const Context& ctx,
    std::vector<Tensor>* attention_out) const {
  return ag::TransformerBlockCore(x, ag::Variable(), mask, Weights(),
                                  Options(ctx), attention_out, nullptr);
}

ag::Variable TransformerBlock::ForwardCross(
    const ag::Variable& q, const ag::Variable& kv, const Tensor& mask,
    const Context& ctx, std::vector<Tensor>* attention_out) const {
  return ag::TransformerBlockCore(q, kv, mask, Weights(), Options(ctx),
                                  attention_out, nullptr);
}

ag::Variable TransformerBlock::StepCausalRun(const ag::Variable& x_rows,
                                             AttentionKVCache& cache) const {
  KT_CHECK_EQ(x_rows.size(0), 1);
  const int64_t s = x_rows.size(1);
  const int64_t offset = cache.len;  // global position of the first new row
  const int64_t tk = offset + s;
  // Row i queries global position offset+i: the causal-inclusive mask rows
  // offset..offset+S-1 of the full pass. Allowed entries add the same +0.0f
  // and blocked ones the same -1e9, so blocked entries carry exactly zero
  // probability mass and truncating the keys to the prefix keeps every bit.
  Tensor mask(Shape{s, tk});
  for (int64_t i = 0; i < s; ++i)
    for (int64_t j = 0; j <= offset + i; ++j) mask.flat(i * tk + j) = 1.0f;
  ag::AttentionCoreOptions options = Options(Context());  // no dropout
  options.query_offset = offset;
  return ag::TransformerBlockCore(x_rows, ag::Variable(), mask, Weights(),
                                  options, nullptr, &cache);
}

}  // namespace nn
}  // namespace kt
