#include "models/dkt.h"

namespace kt {
namespace models {

DKT::DKT(int64_t num_questions, int64_t num_concepts, NeuralConfig config)
    : NeuralKTModel("DKT", config),
      embedder_(num_questions, num_concepts, config.dim, rng_),
      hidden_(2 * config.dim, config.dim, rng_),
      out_(config.dim, 1, rng_) {
  RegisterChild("embedder", &embedder_);
  for (int64_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_unique<nn::LSTM>(config.dim, config.dim, rng_));
    RegisterChild("lstm" + std::to_string(l), layers_.back().get());
  }
  RegisterChild("hidden", &hidden_);
  RegisterChild("out", &out_);
  FinishInit();
}

ag::Variable DKT::ForwardLogits(const data::Batch& batch,
                                const nn::Context& ctx) {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t d = config_.dim;

  ag::Variable e = embedder_.QuestionEmbed(batch);
  ag::Variable a = embedder_.InteractionEmbed(
      batch, InteractionEmbedder::FactualCategories(batch));

  ag::Variable h = a;
  for (const auto& layer : layers_) {
    h = layer->Forward(h);
    if (ctx.train) h = ag::Dropout(h, config_.dropout, *ctx.rng, true);
  }

  // Shift hidden states right: prediction for position t sees h_{t-1};
  // position 0 sees zeros.
  ag::Variable zeros = ag::Constant(Tensor::Zeros(Shape{b, 1, d}));
  ag::Variable h_shifted =
      ag::Concat({zeros, ag::Slice(h, 1, 0, t - 1)}, 1);

  ag::Variable x = ag::Concat({h_shifted, e}, 2);  // [B, T, 2d]
  ag::Variable mid = hidden_.Forward(x, ag::Act::kRelu);
  if (ctx.train) mid = ag::Dropout(mid, config_.dropout, *ctx.rng, true);
  ag::Variable logits = out_.Forward(mid);  // [B, T, 1]
  return ag::Reshape(logits, Shape{b, t});
}

}  // namespace models
}  // namespace kt
