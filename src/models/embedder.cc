#include "models/embedder.h"

#include "autograd/ops.h"

namespace kt {
namespace models {

InteractionEmbedder::InteractionEmbedder(int64_t num_questions,
                                         int64_t num_concepts, int64_t dim,
                                         Rng& rng)
    : dim_(dim),
      q_emb_(num_questions, dim, rng),
      k_emb_(num_concepts, dim, rng),
      r_emb_(3, dim, rng) {
  RegisterChild("q_emb", &q_emb_);
  RegisterChild("k_emb", &k_emb_);
  RegisterChild("r_emb", &r_emb_);
}

ag::Variable InteractionEmbedder::QuestionEmbed(
    const data::Batch& batch) const {
  return ag::Reshape(QuestionEmbedRows(batch.questions, batch.concept_bags),
                     Shape{batch.batch_size, batch.max_len, dim_});
}

ag::Variable InteractionEmbedder::QuestionEmbedRows(
    const std::vector<int64_t>& questions,
    const std::vector<std::vector<int64_t>>& concept_bags) const {
  KT_CHECK_EQ(questions.size(), concept_bags.size());
  ag::Variable q = q_emb_.Forward(questions);  // [n, d]
  ag::Variable k = ag::EmbeddingBagMean(k_emb_.table(), concept_bags);
  return ag::Add(q, k);
}

ag::Variable InteractionEmbedder::AddResponseEmbed(
    const ag::Variable& e, const std::vector<int>& categories) const {
  KT_CHECK_EQ(e.numel(), static_cast<int64_t>(categories.size()) * dim_);
  std::vector<int64_t> r_idx(categories.size());
  for (size_t i = 0; i < categories.size(); ++i) {
    KT_DCHECK(categories[i] >= 0 && categories[i] <= 2);
    r_idx[i] = categories[i];
  }
  return ag::Add(e, ag::Reshape(r_emb_.Forward(r_idx), e.shape()));
}

ag::Variable InteractionEmbedder::InteractionEmbed(
    const data::Batch& batch, const std::vector<int>& categories) const {
  return AddResponseEmbed(QuestionEmbed(batch), categories);
}

std::vector<int> InteractionEmbedder::FactualCategories(
    const data::Batch& batch) {
  return std::vector<int>(batch.responses.begin(), batch.responses.end());
}

ag::Variable InteractionEmbedder::ConceptProbeEmbed(
    const std::vector<int64_t>& questions, int64_t concept_id) const {
  KT_CHECK(!questions.empty());
  std::vector<std::vector<int64_t>> bag = {questions};
  ag::Variable q_mean = ag::EmbeddingBagMean(q_emb_.table(), bag);  // [1, d]
  ag::Variable k = k_emb_.Forward({concept_id});                       // [1, d]
  return ag::Add(q_mean, k);
}

}  // namespace models
}  // namespace kt
