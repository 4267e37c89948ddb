#include "models/sakt.h"

#include "tensor/tensor_ops.h"

namespace kt {
namespace models {

SAKT::SAKT(int64_t num_questions, int64_t num_concepts, NeuralConfig config)
    : NeuralKTModel("SAKT", config),
      embedder_(num_questions, num_concepts, config.dim, rng_),
      hidden_(2 * config.dim, config.dim, rng_),
      out_(config.dim, 1, rng_) {
  RegisterChild("embedder", &embedder_);
  for (int64_t l = 0; l < config.num_layers; ++l) {
    blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        config.dim, config.num_heads, config.dropout, /*monotonic=*/false,
        rng_));
    RegisterChild("block" + std::to_string(l), blocks_.back().get());
  }
  RegisterChild("hidden", &hidden_);
  RegisterChild("out", &out_);
  FinishInit();
}

ag::Variable SAKT::ForwardLogits(const data::Batch& batch,
                                 const nn::Context& ctx) {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;

  ag::Variable e = embedder_.QuestionEmbed(batch);
  ag::Variable a = embedder_.InteractionEmbed(
      batch, InteractionEmbedder::FactualCategories(batch));

  const Tensor mask =
      nn::MakeAttentionMask(t, nn::AttentionMaskKind::kCausalStrict);

  // First block: target question embeddings query the interaction history.
  std::vector<Tensor> attention;
  std::vector<Tensor>* attention_ptr =
      capture_attention_ ? &attention : nullptr;
  ag::Variable context = blocks_[0]->ForwardCross(e, a, mask, ctx,
                                                  attention_ptr);
  for (size_t l = 1; l < blocks_.size(); ++l) {
    context = blocks_[l]->Forward(context, mask, ctx);
  }

  if (capture_attention_ && !attention.empty()) {
    // Mean over heads -> [B, T, T].
    Tensor mean = attention[0].Clone();
    for (size_t h = 1; h < attention.size(); ++h) mean.AddInPlace(attention[h]);
    mean.MulInPlace(1.0f / static_cast<float>(attention.size()));
    last_attention_ = mean;
  }

  ag::Variable x = ag::Concat({context, e}, 2);
  ag::Variable mid = hidden_.Forward(x, ag::Act::kRelu);
  if (ctx.train) mid = ag::Dropout(mid, config_.dropout, *ctx.rng, true);
  return ag::Reshape(out_.Forward(mid), Shape{b, t});
}

}  // namespace models
}  // namespace kt
