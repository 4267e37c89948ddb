#include "models/qikt.h"

namespace kt {
namespace models {

QIKT::QIKT(int64_t num_questions, int64_t num_concepts, NeuralConfig config)
    : NeuralKTModel("QIKT", config),
      embedder_(num_questions, num_concepts, config.dim, rng_),
      mastery_hidden_(2 * config.dim, config.dim, rng_),
      mastery_out_(config.dim, 1, rng_),
      difficulty_out_(config.dim, 1, rng_),
      discrimination_out_(config.dim, 1, rng_) {
  RegisterChild("embedder", &embedder_);
  lstm_ = std::make_unique<nn::LSTM>(config.dim, config.dim, rng_);
  RegisterChild("lstm", lstm_.get());
  RegisterChild("mastery_hidden", &mastery_hidden_);
  RegisterChild("mastery_out", &mastery_out_);
  RegisterChild("difficulty_out", &difficulty_out_);
  RegisterChild("discrimination_out", &discrimination_out_);
  FinishInit();
}

ag::Variable QIKT::ForwardLogits(const data::Batch& batch,
                                 const nn::Context& ctx) {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t d = config_.dim;

  ag::Variable e = embedder_.QuestionEmbed(batch);
  ag::Variable a = embedder_.InteractionEmbed(
      batch, InteractionEmbedder::FactualCategories(batch));

  ag::Variable h = lstm_->Forward(a);
  if (ctx.train) h = ag::Dropout(h, config_.dropout, *ctx.rng, true);
  ag::Variable zeros = ag::Constant(Tensor::Zeros(Shape{b, 1, d}));
  ag::Variable h_shifted = ag::Concat({zeros, ag::Slice(h, 1, 0, t - 1)}, 1);

  // IRT terms.
  ag::Variable mastery_in = ag::Concat({h_shifted, e}, 2);
  ag::Variable mastery_mid =
      mastery_hidden_.Forward(mastery_in, ag::Act::kRelu);
  ag::Variable mastery =
      ag::Reshape(mastery_out_.Forward(mastery_mid), Shape{b, t});
  ag::Variable difficulty =
      ag::Reshape(difficulty_out_.Forward(e), Shape{b, t});
  // softplus keeps discrimination positive.
  ag::Variable discrimination = ag::Log(ag::AddScalar(
      ag::Exp(ag::Reshape(discrimination_out_.Forward(e), Shape{b, t})),
      1.0f));

  if (!ctx.train) {
    last_terms_.mastery = mastery.value().Clone();
    last_terms_.difficulty = difficulty.value().Clone();
    last_terms_.discrimination = discrimination.value().Clone();
  }
  return ag::Mul(discrimination, ag::Sub(mastery, difficulty));
}

}  // namespace models
}  // namespace kt
