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
                                       float dropout_p, bool monotonic,
                                       Rng& rng)
    : dim_(dim),
      num_heads_(CheckedHeads(dim, num_heads)),
      dropout_p_(dropout_p),
      monotonic_(monotonic),
      q_proj_(dim, dim, rng, /*use_bias=*/false),
      k_proj_(dim, dim, rng, /*use_bias=*/false),
      v_proj_(dim, dim, rng, /*use_bias=*/false),
      out_proj_(dim, dim, rng) {
  RegisterChild("q_proj", &q_proj_);
  RegisterChild("k_proj", &k_proj_);
  RegisterChild("v_proj", &v_proj_);
  RegisterChild("out_proj", &out_proj_);
  if (monotonic_) {
    // softplus(0) ~ 0.69 decay per unit distance initially.
    decay_ = RegisterParameter("decay", Tensor::Zeros(Shape{num_heads}));
  }
}

ag::Variable MultiHeadAttention::AttendHeads(
    const ag::Variable& qp, const ag::Variable& kp, const ag::Variable& vp,
    const Tensor& mask, int64_t query_offset, const Context& ctx,
    std::vector<Tensor>* attention_out) const {
  ag::AttentionCoreOptions options;
  options.num_heads = num_heads_;
  options.query_offset = query_offset;
  options.dropout_p = dropout_p_;
  options.rng = ctx.rng;
  options.rng_count = ctx.rng_count;
  options.train = ctx.train;
  return out_proj_.Forward(ag::MultiHeadAttentionCore(
      qp, kp, vp, mask, decay_, options, attention_out));
}

ag::Variable MultiHeadAttention::Forward(
    const ag::Variable& q, const ag::Variable& k, const ag::Variable& v,
    const Tensor& mask, const Context& ctx,
    std::vector<Tensor>* attention_out) const {
  const int64_t tq = q.size(1);
  const int64_t tk = k.size(1);
  KT_CHECK_EQ(mask.size(0), tq);
  KT_CHECK_EQ(mask.size(1), tk);

  ag::Variable qp = q_proj_.Forward(q);
  ag::Variable kp = k_proj_.Forward(k);
  ag::Variable vp = v_proj_.Forward(v);

  return AttendHeads(qp, kp, vp, mask, /*query_offset=*/0, ctx,
                     attention_out);
}

ag::Variable MultiHeadAttention::StepCausalRun(const ag::Variable& x_rows,
                                               AttentionKVCache& cache) const {
  KT_CHECK_EQ(x_rows.size(0), 1);
  KT_CHECK_EQ(x_rows.size(2), dim_);
  const int64_t s = x_rows.size(1);
  const int64_t offset = cache.len;  // global position of the first new row

  ag::Variable qp = q_proj_.Forward(x_rows);  // [1, S, dim]
  ag::Variable kp = k_proj_.Forward(x_rows);
  ag::Variable vp = v_proj_.Forward(x_rows);
  const Tensor& kt = kp.value();
  const Tensor& vt = vp.value();
  cache.k.insert(cache.k.end(), kt.data(), kt.data() + kt.numel());
  cache.v.insert(cache.v.end(), vt.data(), vt.data() + vt.numel());
  cache.len += s;

  const int64_t tk = cache.len;
  ag::Variable kc = ag::Constant(Tensor(Shape{1, tk, dim_}, cache.k));
  ag::Variable vc = ag::Constant(Tensor(Shape{1, tk, dim_}, cache.v));
  // Row i queries global position offset+i: the causal-inclusive mask rows
  // offset..offset+S-1 of the full pass. Allowed entries add the same +0.0f
  // and blocked ones the same -1e9, so blocked entries carry exactly zero
  // probability mass and truncating the keys to the prefix keeps every bit.
  Tensor mask(Shape{s, tk});
  for (int64_t i = 0; i < s; ++i)
    for (int64_t j = 0; j <= offset + i; ++j) mask.flat(i * tk + j) = 1.0f;
  const Context inference;  // no dropout on the decode path
  return AttendHeads(qp, kc, vc, mask, offset, inference, nullptr);
}

TransformerBlock::TransformerBlock(int64_t dim, int64_t num_heads,
                                   float dropout_p, bool monotonic, Rng& rng)
    : attention_(dim, num_heads, dropout_p, monotonic, rng),
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

ag::Variable TransformerBlock::FeedForward(const ag::Variable& x,
                                           const Context& ctx) const {
  ag::Variable hidden = ff1_.Forward(x, ag::Act::kRelu);
  hidden = ag::Dropout(hidden, dropout_p_, ctx.rng, ctx.rng_count, ctx.train);
  return ff2_.Forward(hidden);
}

ag::Variable TransformerBlock::Forward(
    const ag::Variable& x, const Tensor& mask, const Context& ctx,
    std::vector<Tensor>* attention_out) const {
  ag::Variable normed = norm1_.Forward(x);
  ag::Variable attended =
      attention_.Forward(normed, normed, normed, mask, ctx, attention_out);
  ag::Variable mid = ag::Add(x, attended);
  return ag::Add(mid, FeedForward(norm2_.Forward(mid), ctx));
}

ag::Variable TransformerBlock::StepCausalRun(const ag::Variable& x_rows,
                                             AttentionKVCache& cache) const {
  ag::Variable normed = norm1_.Forward(x_rows);
  ag::Variable attended = attention_.StepCausalRun(normed, cache);
  ag::Variable mid = ag::Add(x_rows, attended);
  const Context inference;
  return ag::Add(mid, FeedForward(norm2_.Forward(mid), inference));
}

ag::Variable TransformerBlock::ForwardCross(
    const ag::Variable& q, const ag::Variable& kv, const Tensor& mask,
    const Context& ctx, std::vector<Tensor>* attention_out) const {
  ag::Variable qn = norm1_.Forward(q);
  ag::Variable attended =
      attention_.Forward(qn, kv, kv, mask, ctx, attention_out);
  ag::Variable mid = ag::Add(q, attended);
  return ag::Add(mid, FeedForward(norm2_.Forward(mid), ctx));
}

}  // namespace nn
}  // namespace kt
