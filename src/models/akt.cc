#include "models/akt.h"

#include "autograd/ops.h"
#include "models/embedder.h"

namespace kt {
namespace models {

AKT::AKT(int64_t num_questions, int64_t num_concepts, NeuralConfig config)
    : NeuralKTModel("AKT", config),
      concept_emb_(num_concepts, config.dim, rng_),
      variation_emb_(num_concepts, config.dim, rng_),
      response_emb_(3, config.dim, rng_),
      hidden_(2 * config.dim, config.dim, rng_),
      out_(config.dim, 1, rng_) {
  RegisterChild("concept_emb", &concept_emb_);
  RegisterChild("variation_emb", &variation_emb_);
  RegisterChild("response_emb", &response_emb_);
  // Rasch difficulty scalars start at zero so e_q begins as the pure
  // concept embedding.
  difficulty_ =
      RegisterParameter("difficulty", Tensor::Zeros(Shape{num_questions, 1}));
  for (int64_t l = 0; l < config.num_layers; ++l) {
    knowledge_blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        config.dim, config.num_heads, config.dropout, /*monotonic=*/true,
        rng_));
    RegisterChild("knowledge" + std::to_string(l),
                  knowledge_blocks_.back().get());
  }
  retriever_ = std::make_unique<nn::TransformerBlock>(
      config.dim, config.num_heads, config.dropout, /*monotonic=*/true, rng_);
  RegisterChild("retriever", retriever_.get());
  RegisterChild("hidden", &hidden_);
  RegisterChild("out", &out_);
  FinishInit();
}

ag::Variable AKT::RaschQuestionEmbed(const data::Batch& batch) const {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t d = config_.dim;
  ag::Variable c =
      ag::EmbeddingBagMean(concept_emb_.table(), batch.concept_bags);
  ag::Variable v =
      ag::EmbeddingBagMean(variation_emb_.table(), batch.concept_bags);
  ag::Variable mu = ag::EmbeddingLookup(difficulty_, batch.questions);
  // e = c + mu * v, with mu broadcasting over the feature dimension.
  ag::Variable e = ag::Add(c, ag::Mul(mu, v));
  return ag::Reshape(e, Shape{b, t, d});
}

ag::Variable AKT::RaschInteractionEmbed(const data::Batch& batch,
                                        const ag::Variable& e) const {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t d = config_.dim;
  std::vector<int64_t> r_idx(batch.responses.begin(), batch.responses.end());
  ag::Variable r =
      ag::Reshape(response_emb_.Forward(r_idx), Shape{b, t, d});
  return ag::Add(e, r);
}

ag::Variable AKT::ForwardLogits(const data::Batch& batch,
                                const nn::Context& ctx) {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;

  ag::Variable e = RaschQuestionEmbed(batch);
  ag::Variable a = RaschInteractionEmbed(batch, e);

  const Tensor strict =
      nn::MakeAttentionMask(t, nn::AttentionMaskKind::kCausalStrict);

  // Knowledge encoder: causal self-attention over interactions.
  ag::Variable knowledge = a;
  for (const auto& block : knowledge_blocks_) {
    knowledge = block->Forward(knowledge, strict, ctx);
  }
  // Knowledge retriever: target questions attend over knowledge states.
  ag::Variable context = retriever_->ForwardCross(e, knowledge, strict, ctx);

  ag::Variable x = ag::Concat({context, e}, 2);
  ag::Variable mid = hidden_.Forward(x, ag::Act::kRelu);
  if (ctx.train) mid = ag::Dropout(mid, config_.dropout, *ctx.rng, true);
  return ag::Reshape(out_.Forward(mid), Shape{b, t});
}

}  // namespace models
}  // namespace kt
