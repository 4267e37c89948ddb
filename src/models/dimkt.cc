#include "models/dimkt.h"

namespace kt {
namespace models {

DIMKT::DIMKT(int64_t num_questions, int64_t num_concepts,
             DifficultyTable difficulty, NeuralConfig config)
    : NeuralKTModel("DIMKT", config),
      difficulty_(std::move(difficulty)),
      embedder_(num_questions, num_concepts, config.dim, rng_),
      level_emb_(difficulty_.num_levels, config.dim, rng_),
      hidden_(3 * config.dim, config.dim, rng_),
      out_(config.dim, 1, rng_) {
  RegisterChild("embedder", &embedder_);
  RegisterChild("level_emb", &level_emb_);
  lstm_ = std::make_unique<nn::LSTM>(config.dim, config.dim, rng_);
  RegisterChild("lstm", lstm_.get());
  RegisterChild("hidden", &hidden_);
  RegisterChild("out", &out_);
  FinishInit();
}

ag::Variable DIMKT::DifficultyEmbed(const data::Batch& batch) const {
  std::vector<int64_t> levels(batch.questions.size());
  for (size_t i = 0; i < batch.questions.size(); ++i) {
    levels[i] = difficulty_.level[static_cast<size_t>(batch.questions[i])];
  }
  return ag::Reshape(level_emb_.Forward(levels),
                     Shape{batch.batch_size, batch.max_len, config_.dim});
}

ag::Variable DIMKT::ForwardLogits(const data::Batch& batch,
                                  const nn::Context& ctx) {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t d = config_.dim;

  ag::Variable diff = DifficultyEmbed(batch);
  ag::Variable e = ag::Add(embedder_.QuestionEmbed(batch), diff);
  ag::Variable a = ag::Add(
      embedder_.InteractionEmbed(batch,
                                 InteractionEmbedder::FactualCategories(batch)),
      diff);

  ag::Variable h = lstm_->Forward(a);
  if (ctx.train) h = ag::Dropout(h, config_.dropout, *ctx.rng, true);
  ag::Variable zeros = ag::Constant(Tensor::Zeros(Shape{b, 1, d}));
  ag::Variable h_shifted = ag::Concat({zeros, ag::Slice(h, 1, 0, t - 1)}, 1);

  ag::Variable x = ag::Concat({h_shifted, e, diff}, 2);  // [B, T, 3d]
  ag::Variable mid = hidden_.Forward(x, ag::Act::kRelu);
  if (ctx.train) mid = ag::Dropout(mid, config_.dropout, *ctx.rng, true);
  return ag::Reshape(out_.Forward(mid), Shape{b, t});
}

}  // namespace models
}  // namespace kt
