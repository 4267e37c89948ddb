#include "rckt/rckt_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "autograd/ops.h"
#include "nn/losses.h"
#include "obs/obs.h"
#include "rckt/counterfactual.h"
#include "tensor/tensor_ops.h"

namespace kt {
namespace rckt {
namespace {

constexpr float kLogEps = 1e-6f;

// Times one stage of a training step's forward (DESIGN.md §9.4), so that
// rckt/embed, encode, head and loss sum to rckt/forward. Passes that
// record no tape (evaluation, explain, serving) are not split: the
// caller's own scope, such as rckt/score_targets, times them whole.
class TrainStageScope {
 public:
  explicit TrainStageScope(const char* name) {
    if (ag::GradModeEnabled()) timer_.emplace(name);
  }

 private:
  std::optional<obs::ScopedTimer> timer_;
};

// Extracts one row's responses from a flattened batch.
std::vector<int> RowResponses(const data::Batch& batch, int64_t b) {
  std::vector<int> out(static_cast<size_t>(batch.max_len));
  for (int64_t t = 0; t < batch.max_len; ++t) {
    out[static_cast<size_t>(t)] =
        batch.responses[static_cast<size_t>(batch.FlatIndex(b, t))];
  }
  return out;
}

// Writes one row's categories back into a flattened vector.
void PutRow(std::vector<int>& flat, const data::Batch& batch, int64_t b,
            const std::vector<int>& row) {
  for (int64_t t = 0; t < batch.max_len; ++t) {
    flat[static_cast<size_t>(batch.FlatIndex(b, t))] =
        row[static_cast<size_t>(t)];
  }
}

// The joint-term sequences of Eq. 27-28, flattened: the factual responses,
// then the two correctness-masked augmentations.
std::vector<std::vector<int>> JointCategories(const data::Batch& batch) {
  const size_t flat = static_cast<size_t>(batch.batch_size * batch.max_len);
  std::vector<std::vector<int>> cats(3, std::vector<int>(flat));
  for (int64_t row = 0; row < batch.batch_size; ++row) {
    const std::vector<int> responses = RowResponses(batch, row);
    PutRow(cats[0], batch, row, responses);
    PutRow(cats[1], batch, row,
           MaskByCorrectness(responses, /*keep_correct=*/true));
    PutRow(cats[2], batch, row,
           MaskByCorrectness(responses, /*keep_correct=*/false));
  }
  return cats;
}

// Exact mode stacks its O(t) counterfactual passes in chunks of this many
// passes per stacked batch, bounding peak graph memory.
constexpr int64_t kExactStackChunk = 8;

// Replicates a batch k times along the row dimension for a stacked fan-out
// pass. Only the fields the generator path reads (questions, concept bags,
// responses, lengths) are stacked; valid/targets are loss-side tensors that
// never enter GenerateProbs.
data::Batch StackBatch(const data::Batch& batch, int64_t k) {
  data::Batch out;
  out.batch_size = batch.batch_size * k;
  out.max_len = batch.max_len;
  out.questions.reserve(batch.questions.size() * static_cast<size_t>(k));
  out.responses.reserve(batch.responses.size() * static_cast<size_t>(k));
  out.concept_bags.reserve(batch.concept_bags.size() * static_cast<size_t>(k));
  out.lengths.reserve(batch.lengths.size() * static_cast<size_t>(k));
  for (int64_t rep = 0; rep < k; ++rep) {
    out.questions.insert(out.questions.end(), batch.questions.begin(),
                         batch.questions.end());
    out.responses.insert(out.responses.end(), batch.responses.begin(),
                         batch.responses.end());
    out.concept_bags.insert(out.concept_bags.end(), batch.concept_bags.begin(),
                            batch.concept_bags.end());
    out.lengths.insert(out.lengths.end(), batch.lengths.begin(),
                       batch.lengths.end());
  }
  return out;
}

// When dropout will actually be drawn, forks one Rng per pass from the
// caller's stream, in pass order; otherwise returns no streams. A stacked
// pass hands these to dropout as row-block streams, so each pass's masks are
// the draws a lone pass would make.
std::vector<Rng> ForkPassStreams(const nn::Context& ctx, int64_t count,
                                 float dropout) {
  std::vector<Rng> streams;
  if (ctx.train && ctx.rng != nullptr && dropout > 0.0f) {
    streams.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) streams.push_back(ctx.rng->Fork());
  }
  return streams;
}

// The context for a stacked pass over `count` row blocks drawing from
// streams [first, first + count), or `ctx` itself when no streams were
// forked.
nn::Context StreamContext(const nn::Context& ctx, std::vector<Rng>& streams,
                          int64_t first, int64_t count) {
  nn::Context local = ctx;
  if (!streams.empty()) {
    local.rng = &streams[static_cast<size_t>(first)];
    local.rng_count = count;
  }
  return local;
}

}  // namespace

Status ValidateArchitecture(const RcktConfig& config, int64_t num_questions,
                            int64_t num_concepts) {
  const int encoder = static_cast<int>(config.encoder);
  if (encoder < 0 || encoder > static_cast<int>(EncoderKind::kGRU)) {
    return Status::InvalidArgument("unknown encoder kind " +
                                   std::to_string(encoder));
  }
  const std::pair<const char*, int64_t> positive[] = {
      {"dim", config.dim},
      {"num_layers", config.num_layers},
      {"num_questions", num_questions},
      {"num_concepts", num_concepts}};
  for (const auto& [name, value] : positive) {
    if (value <= 0) {
      return Status::InvalidArgument(std::string(name) + " " +
                                     std::to_string(value) +
                                     " must be positive");
    }
  }
  if (config.encoder == EncoderKind::kSAKT ||
      config.encoder == EncoderKind::kAKT) {
    if (config.num_heads <= 0 || config.dim % config.num_heads != 0) {
      return Status::InvalidArgument(
          "num_heads " + std::to_string(config.num_heads) +
          " must be positive and divide dim " + std::to_string(config.dim));
    }
  }
  return Status::Ok();
}

nn::ModelMeta ArchitectureMeta(const RCKT& model) {
  const RcktConfig& config = model.config();
  return {static_cast<int32_t>(config.encoder), config.dim, config.num_layers,
          config.num_heads, model.num_questions(), model.num_concepts()};
}

RcktConfig ArchitectureFromMeta(const nn::ModelMeta& meta,
                                int64_t* num_questions, int64_t* num_concepts) {
  RcktConfig config;
  config.encoder = static_cast<EncoderKind>(meta.encoder_kind);
  config.dim = meta.dim;
  config.num_layers = meta.num_layers;
  config.num_heads = meta.num_heads;
  *num_questions = meta.num_questions;
  *num_concepts = meta.num_concepts;
  return config;
}

RcktConfig RcktConfigFor(const std::string& dataset, EncoderKind encoder) {
  // Paper Table III: {lr, lambda, l2, dropout, layers} per dataset/encoder.
  // Values follow the table; layer counts are capped at 2 for the CPU build.
  struct Row {
    float lr, lambda, l2, dropout;
    int64_t layers;
  };
  auto pick = [&]() -> Row {
    const bool dkt = encoder == EncoderKind::kDKT;
    const bool sakt = encoder == EncoderKind::kSAKT;
    if (dataset == "assist09") {
      if (dkt) return {1e-3f, 0.1f, 1e-5f, 0.3f, 2};
      if (sakt) return {2e-3f, 0.1f, 2e-4f, 0.2f, 2};
      return {5e-4f, 0.01f, 5e-5f, 0.0f, 2};
    }
    if (dataset == "assist12") {
      if (dkt) return {2e-3f, 0.01f, 1e-5f, 0.0f, 2};
      if (sakt) return {2e-3f, 0.1f, 5e-4f, 0.2f, 2};
      return {5e-4f, 0.05f, 1e-5f, 0.0f, 2};
    }
    if (dataset == "slepemapy") {
      if (dkt) return {1e-3f, 0.1f, 0.0f, 0.0f, 2};
      if (sakt) return {5e-4f, 0.4f, 1e-5f, 0.0f, 2};
      return {5e-4f, 0.01f, 1e-5f, 0.0f, 2};
    }
    // eedi (default)
    if (dkt) return {1e-3f, 0.1f, 0.0f, 0.0f, 2};
    if (sakt) return {1e-3f, 0.1f, 1e-5f, 0.0f, 2};
    return {5e-4f, 0.01f, 1e-5f, 0.0f, 2};
  };
  const Row row = pick();
  RcktConfig config;
  config.encoder = encoder;
  config.lr = row.lr;
  config.lambda = row.lambda;
  config.weight_decay = row.l2;
  config.dropout = row.dropout;
  config.num_layers = row.layers;
  return config;
}

RCKT::RCKT(int64_t num_questions, int64_t num_concepts, RcktConfig config)
    : config_(config),
      num_questions_(num_questions),
      num_concepts_(num_concepts),
      rng_(config.seed * 77 + 13),
      embedder_(num_questions, num_concepts, config.dim, rng_),
      mlp_hidden_(2 * config.dim, config.dim, rng_),
      mlp_out_(config.dim, 1, rng_) {
  RegisterChild("embedder", &embedder_);
  encoder_ = MakeBiEncoder(config.encoder, config.dim, config.num_layers,
                           config.num_heads, config.dropout, rng_);
  RegisterChild("encoder", encoder_.get());
  RegisterChild("mlp_hidden", &mlp_hidden_);
  RegisterChild("mlp_out", &mlp_out_);

  nn::AdamOptions options;
  options.lr = config.lr;
  options.weight_decay = config.weight_decay;
  optimizer_ = std::make_unique<nn::Adam>(Parameters(), options);
}

std::string RCKT::name() const {
  return std::string("RCKT-") + EncoderKindName(config_.encoder);
}

void RCKT::CheckEqualLength(const data::Batch& batch) {
  for (int64_t len : batch.lengths) {
    KT_CHECK_EQ(len, batch.max_len)
        << "RCKT requires equal-length prefix batches";
  }
  KT_CHECK_GE(batch.max_len, 2) << "need at least one history response";
}

ag::Variable RCKT::GenerateProbs(const data::Batch& batch,
                                 const std::vector<int>& categories,
                                 const nn::Context& ctx,
                                 const ag::Variable* probe) const {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t d = config_.dim;

  ag::Variable e, a;
  {
    TrainStageScope scope("rckt/embed");
    e = embedder_.QuestionEmbed(batch);  // [B, T, d]
    if (probe != nullptr) {
      // Replace the target (last) position's question embedding with the
      // probe, broadcast across the batch.
      ag::Variable probe_rows = ag::Add(
          ag::Reshape(*probe, Shape{1, 1, d}),
          ag::Constant(Tensor::Zeros(Shape{b, 1, d})));
      e = ag::Concat({ag::Slice(e, 1, 0, t - 1), probe_rows}, 1);
    }
    a = embedder_.AddResponseEmbed(e, categories);
  }
  ag::Variable h;
  {
    TrainStageScope scope("rckt/encode");
    h = encoder_->Encode(a, ctx);
  }
  TrainStageScope head_scope("rckt/head");
  ag::Variable x = ag::Concat({h, e}, 2);  // [B, T, 2d]
  ag::Variable mid = ag::Dropout(mlp_hidden_.Forward(x, ag::Act::kRelu),
                                 config_.dropout, ctx.rng, ctx.rng_count,
                                 ctx.train);
  return ag::Reshape(mlp_out_.Forward(mid, ag::Act::kSigmoid),
                     Shape{b, t});
}

std::vector<ag::Variable> RCKT::GenerateProbsFanOut(
    const data::Batch& batch,
    const std::vector<const std::vector<int>*>& category_sets,
    const nn::Context& ctx, const ag::Variable* probe,
    const std::vector<const std::vector<int>*>& gathered_sets) const {
  const int64_t k = static_cast<int64_t>(category_sets.size());
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const size_t flat = static_cast<size_t>(b * t);
  std::vector<int> cats;
  cats.reserve(flat * category_sets.size());
  for (const std::vector<int>* set : category_sets) {
    KT_CHECK_EQ(set->size(), flat);
    cats.insert(cats.end(), set->begin(), set->end());
  }

  // Block plan for the gathered sets: row r reuses the first block whose
  // row r is identical, else takes row r of the first extra block where
  // that row is still free. An extra block starts as the factual
  // responses, so a row no gathered set claims still holds valid
  // categories.
  std::vector<std::vector<int64_t>> gather_rows(gathered_sets.size());
  std::vector<int64_t> extra_rows_taken(static_cast<size_t>(b), 0);
  for (size_t j = 0; j < gathered_sets.size(); ++j) {
    const std::vector<int>& set = *gathered_sets[j];
    KT_CHECK_EQ(set.size(), flat);
    gather_rows[j].resize(static_cast<size_t>(b));
    for (int64_t row = 0; row < b; ++row) {
      const auto first = set.begin() + batch.FlatIndex(row, 0);
      int64_t block = 0;
      while (block < k &&
             !std::equal(first, first + t,
                         category_sets[static_cast<size_t>(block)]->begin() +
                             batch.FlatIndex(row, 0))) {
        ++block;
      }
      if (block == k) {
        block = k + extra_rows_taken[static_cast<size_t>(row)]++;
        if (cats.size() == flat * static_cast<size_t>(block)) {
          cats.insert(cats.end(), batch.responses.begin(),
                      batch.responses.end());
        }
        std::copy(first, first + t,
                  cats.begin() + static_cast<int64_t>(flat) * block +
                      batch.FlatIndex(row, 0));
      }
      gather_rows[j][static_cast<size_t>(row)] = block * b + row;
    }
  }

  const int64_t blocks = static_cast<int64_t>(cats.size() / flat);
  KT_CHECK_GT(blocks, 0);
  if (obs::Enabled()) {
    static obs::Counter* const passes = obs::Counter::Get("rckt.fanout_passes");
    static obs::Counter* const eval_passes =
        obs::Counter::Get("rckt.fanout_eval_passes");
    (ag::GradModeEnabled() ? passes : eval_passes)->Add(blocks);
  }
  std::vector<Rng> streams = ForkPassStreams(ctx, blocks, config_.dropout);
  const nn::Context local = StreamContext(ctx, streams, 0, blocks);
  ag::Variable probs;  // [blocks*B, T]
  if (blocks == 1) {
    probs = GenerateProbs(batch, cats, local, probe);
  } else {
    KT_OBS_SCOPE("rckt/fanout_stacked");
    probs = GenerateProbs(StackBatch(batch, blocks), cats, local, probe);
  }
  std::vector<ag::Variable> out;
  out.reserve(category_sets.size() + gathered_sets.size());
  for (int64_t rep = 0; rep < k; ++rep) {
    out.push_back(blocks == 1 ? probs
                              : ag::Slice(probs, 0, rep * b, (rep + 1) * b));
  }
  // The probabilities are a 2-D table of rows, so the embedding lookup is
  // the row gather, and its backward scatter-adds each gathered row's
  // gradient into the row it was read from.
  for (const std::vector<int64_t>& rows : gather_rows) {
    out.push_back(ag::EmbeddingLookup(probs, rows));
  }
  return out;
}

void RCKT::SumHistoryInfluences(const data::Batch& batch,
                                InfluenceTensors& result) {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  result.mask_correct = Tensor::Zeros(Shape{b, t});
  result.mask_incorrect = Tensor::Zeros(Shape{b, t});
  for (int64_t row = 0; row < b; ++row) {
    for (int64_t i = 0; i < t - 1; ++i) {
      const int64_t idx = batch.FlatIndex(row, i);
      if (batch.responses[static_cast<size_t>(idx)] == 1) {
        result.mask_correct.flat(idx) = 1.0f;
      } else {
        result.mask_incorrect.flat(idx) = 1.0f;
      }
    }
  }
  result.delta_plus = ag::Sum(
      ag::Mul(result.delta_plus_per_pos, ag::Constant(result.mask_correct)),
      1);
  result.delta_minus = ag::Sum(
      ag::Mul(result.delta_minus_per_pos,
              ag::Constant(result.mask_incorrect)),
      1);
}

RCKT::InfluenceTensors RCKT::ComputeInfluences(
    const data::Batch& batch, const nn::Context& ctx,
    const ag::Variable* probe,
    const std::vector<const std::vector<int>*>& joint_sets,
    std::vector<ag::Variable>* joint_probs) const {
  CheckEqualLength(batch);
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t target = t - 1;
  const size_t flat = static_cast<size_t>(b * t);

  // Category assignments for the four generator passes.
  std::vector<int> cats_f_plus(flat), cats_cf_minus(flat), cats_f_minus(flat),
      cats_cf_plus(flat);
  for (int64_t row = 0; row < b; ++row) {
    const std::vector<int> responses = RowResponses(batch, row);
    PutRow(cats_f_plus, batch, row,
           AssumedFactualCategories(responses, target, 1));
    PutRow(cats_f_minus, batch, row,
           AssumedFactualCategories(responses, target, 0));
    PutRow(cats_cf_minus, batch, row,
           BackwardCounterfactualCategories(responses, target, 0,
                                            config_.use_monotonicity));
    PutRow(cats_cf_plus, batch, row,
           BackwardCounterfactualCategories(responses, target, 1,
                                            config_.use_monotonicity));
  }

  // All four assignments run as one stacked fan-out pass, the joint sets
  // with them.
  const auto probs = GenerateProbsFanOut(
      batch, {&cats_f_plus, &cats_cf_minus, &cats_f_minus, &cats_cf_plus},
      ctx, probe, joint_sets);
  const ag::Variable& p_a = probs[0];
  const ag::Variable& p_b = probs[1];
  const ag::Variable& p_c = probs[2];
  const ag::Variable& p_d = probs[3];
  if (joint_probs != nullptr) {
    joint_probs->assign(probs.begin() + 4, probs.end());
  }

  InfluenceTensors result;
  // Delta+_i = pA_i - pB_i (drop in p(correct) when target flips to
  // incorrect); Delta-_i = pD_i - pC_i (drop in p(incorrect), rewritten in
  // terms of p(correct)).
  result.delta_plus_per_pos = ag::Sub(p_a, p_b);
  result.delta_minus_per_pos = ag::Sub(p_d, p_c);
  SumHistoryInfluences(batch, result);
  return result;
}

RCKT::InfluenceTensors RCKT::ComputeInfluencesExact(
    const data::Batch& batch, const nn::Context& ctx) const {
  CheckEqualLength(batch);
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t target = t - 1;
  const size_t flat = static_cast<size_t>(b * t);

  // Per-row response vectors, extracted once and shared by the factual pass
  // and all t-1 counterfactual passes below.
  std::vector<std::vector<int>> responses(static_cast<size_t>(b));
  for (int64_t row = 0; row < b; ++row) {
    responses[static_cast<size_t>(row)] = RowResponses(batch, row);
  }

  // Factual pass: target masked, history factual; prediction read at target.
  std::vector<int> cats_f(flat);
  for (int64_t row = 0; row < b; ++row) {
    PutRow(cats_f, batch, row,
           MaskedTargetCategories(responses[static_cast<size_t>(row)], target));
  }
  ag::Variable p_f = GenerateProbs(batch, cats_f, ctx, nullptr);  // [B, T]
  // p(correct at target) per row, [B].
  ag::Variable pf_target =
      ag::Reshape(ag::Slice(p_f, 1, target, target + 1), Shape{b});

  // One counterfactual pass per history position: flip response i, apply
  // mask/retain, read the target probability. The passes are independent
  // given p_f, so they stack (the t-1 passes are the entire cost of exact
  // mode — see Table VI); columns land in position-indexed slots and
  // concatenate in fixed order.
  std::vector<ag::Variable> plus_cols(static_cast<size_t>(t)),
      minus_cols(static_cast<size_t>(t));

  // Builds the flattened category assignment for counterfactual position i.
  const auto fill_counterfactual = [&](int64_t i, std::vector<int>& cats,
                                       size_t offset) {
    for (int64_t row = 0; row < b; ++row) {
      const std::vector<int> row_cats = ForwardCounterfactualCategories(
          responses[static_cast<size_t>(row)], target, i,
          config_.use_monotonicity);
      for (int64_t j = 0; j < t; ++j) {
        cats[offset + static_cast<size_t>(batch.FlatIndex(row, j))] =
            row_cats[static_cast<size_t>(j)];
      }
    }
  };
  // Reads "Delta at target" out of one [B, T] (or stacked-slice) pass.
  // Correct i:  Delta+ = p_f - p_cf (drop in p(correct)).
  // Incorrect i: Delta- = (1-p_f) - (1-p_cf) = p_cf - p_f.
  const auto store_columns = [&](int64_t i, const ag::Variable& p_cf) {
    ag::Variable pcf_target =
        ag::Reshape(ag::Slice(p_cf, 1, target, target + 1), Shape{b});
    plus_cols[static_cast<size_t>(i)] =
        ag::Reshape(ag::Sub(pf_target, pcf_target), Shape{b, 1});
    minus_cols[static_cast<size_t>(i)] =
        ag::Reshape(ag::Sub(pcf_target, pf_target), Shape{b, 1});
  };

  const ag::Variable zero = ag::Constant(Tensor::Zeros(Shape{b, 1}));
  plus_cols[static_cast<size_t>(target)] = zero;
  minus_cols[static_cast<size_t>(target)] = zero;

  // Chunked stacking: positions [0, target) run as ceil(target/chunk)
  // stacked passes of up to chunk*B rows each. Under live dropout, t streams
  // are forked in position order and chunk [lo, hi) draws from streams
  // lo..hi-1, so each position's masks match a lone pass's.
  std::vector<Rng> streams = ForkPassStreams(ctx, t, config_.dropout);
  for (int64_t lo = 0; lo < target; lo += kExactStackChunk) {
    const int64_t hi = std::min(target, lo + kExactStackChunk);
    const int64_t kk = hi - lo;
    std::vector<int> cats(flat * static_cast<size_t>(kk));
    for (int64_t i = lo; i < hi; ++i) {
      fill_counterfactual(i, cats, static_cast<size_t>(i - lo) * flat);
    }
    ag::Variable p_cf = GenerateProbs(StackBatch(batch, kk), cats,
                                      StreamContext(ctx, streams, lo, kk),
                                      nullptr);  // [kk*B, T]
    for (int64_t i = lo; i < hi; ++i) {
      store_columns(i, ag::Slice(p_cf, 0, (i - lo) * b, (i - lo + 1) * b));
    }
  }

  InfluenceTensors result;
  result.delta_plus_per_pos = ag::Concat(plus_cols, 1);    // [B, T]
  result.delta_minus_per_pos = ag::Concat(minus_cols, 1);  // [B, T]
  SumHistoryInfluences(batch, result);
  return result;
}

ag::Variable RCKT::BuildLoss(
    const data::Batch& batch, const InfluenceTensors& influences,
    const std::vector<ag::Variable>& joint_probs) const {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.max_len;
  const int64_t target = t - 1;
  const float inv_2t = 1.0f / (2.0f * static_cast<float>(target));

  // Sign per row: (-1)^{r_target} — -1 for a correct target, +1 otherwise.
  Tensor sign(Shape{b});
  for (int64_t row = 0; row < b; ++row) {
    const int r = batch.responses[static_cast<size_t>(
        batch.FlatIndex(row, target))];
    sign.flat(row) = r == 1 ? -1.0f : 1.0f;
  }

  // L_CF = -log( sign * (Delta- - Delta+) / (2t) + 1/2 )      (Eq. 16)
  ag::Variable diff = ag::Sub(influences.delta_minus, influences.delta_plus);
  ag::Variable scaled =
      ag::MulScalar(ag::Mul(diff, ag::Constant(sign)), inv_2t);
  ag::Variable inside = ag::AddScalar(scaled, 0.5f + kLogEps);
  ag::Variable loss = ag::MeanAll(ag::Neg(ag::Log(inside)));

  // Constraint term L* (Eq. 17): hinge on negative influences.
  if (config_.use_constraint && config_.alpha > 0.0f) {
    ag::Variable zero_pp = ag::Constant(Tensor::Zeros(Shape{b, t}));
    ag::Variable violation_plus = ag::Mul(
        ag::Maximum(ag::Neg(influences.delta_plus_per_pos), zero_pp),
        ag::Constant(influences.mask_correct));
    ag::Variable violation_minus = ag::Mul(
        ag::Maximum(ag::Neg(influences.delta_minus_per_pos), zero_pp),
        ag::Constant(influences.mask_incorrect));
    ag::Variable constraint = ag::MulScalar(
        ag::Add(ag::SumAll(violation_plus), ag::SumAll(violation_minus)),
        1.0f / static_cast<float>(b));
    loss = ag::Add(loss, ag::MulScalar(constraint, config_.alpha));
  }

  // Joint training terms (Eq. 27-29): BCE of the generator on the factual
  // sequence and the two correctness-masked augmentations.
  if (!joint_probs.empty()) {
    const Tensor all_positions = Tensor::Ones(Shape{b, t});
    ag::Variable l_f = nn::BinaryCrossEntropyFromProbs(
        joint_probs[0], batch.targets, all_positions);
    ag::Variable l_m_plus = nn::BinaryCrossEntropyFromProbs(
        joint_probs[1], batch.targets, all_positions);
    ag::Variable l_m_minus = nn::BinaryCrossEntropyFromProbs(
        joint_probs[2], batch.targets, all_positions);
    ag::Variable joint = ag::Add(ag::Add(l_f, l_m_plus), l_m_minus);
    loss = ag::Add(loss, ag::MulScalar(joint, config_.lambda));
  }
  return loss;
}

float RCKT::RunTrainStep(const data::Batch& prefix_batch, bool exact) {
  KT_OBS_SCOPE("rckt/train_step");
  nn::Context ctx{/*train=*/true, &rng_};
  ag::Variable loss;
  {
    KT_OBS_SCOPE("rckt/forward");
    // The joint terms' sequences are gathered sets of the step's fan-out,
    // after the influence blocks in approximate mode, so each one that an
    // influence block already holds is generated once.
    std::vector<std::vector<int>> joint_cats;
    if (config_.joint_training && config_.lambda > 0.0f) {
      joint_cats = JointCategories(prefix_batch);
    }
    std::vector<const std::vector<int>*> joint_sets;
    for (const std::vector<int>& cats : joint_cats) joint_sets.push_back(&cats);
    std::vector<ag::Variable> joint_probs;
    InfluenceTensors influences;
    if (exact) {
      influences = ComputeInfluencesExact(prefix_batch, ctx);
      if (!joint_sets.empty()) {
        joint_probs =
            GenerateProbsFanOut(prefix_batch, {}, ctx, nullptr, joint_sets);
      }
    } else {
      influences = ComputeInfluences(prefix_batch, ctx, nullptr, joint_sets,
                                     &joint_probs);
    }
    KT_OBS_SCOPE("rckt/loss");
    loss = BuildLoss(prefix_batch, influences, joint_probs);
  }
  {
    KT_OBS_SCOPE("rckt/backward");
    optimizer_->ZeroGrad();
    loss.Backward();
  }
  {
    KT_OBS_SCOPE("rckt/adam");
    optimizer_->Step();
  }
  return loss.value().item();
}

float RCKT::TrainStep(const data::Batch& prefix_batch) {
  return RunTrainStep(prefix_batch, /*exact=*/false);
}

float RCKT::TrainStepExact(const data::Batch& prefix_batch) {
  return RunTrainStep(prefix_batch, /*exact=*/true);
}

std::vector<float> RCKT::ScoreFromInfluences(
    const InfluenceTensors& influences, int64_t history_length) const {
  KT_CHECK_GT(history_length, 0);
  const Tensor& plus = influences.delta_plus.value();
  const Tensor& minus = influences.delta_minus.value();
  std::vector<float> scores(static_cast<size_t>(plus.numel()));
  const float inv_t = 1.0f / static_cast<float>(history_length);
  for (int64_t i = 0; i < plus.numel(); ++i) {
    // sigmoid((Delta+ - Delta-) / t): monotone in the paper's decision
    // statistic with the sign rule's boundary mapped to 0.5. The 1/t
    // normalization (mean rather than summed influence difference) keeps
    // scores comparable across history lengths when AUC pools samples of
    // different prefix sizes — the sign (Eq. 13) is unaffected.
    const float diff = (plus.flat(i) - minus.flat(i)) * inv_t;
    scores[static_cast<size_t>(i)] = 1.0f / (1.0f + std::exp(-diff));
  }
  return scores;
}

std::vector<float> RCKT::ScoreTargets(const data::Batch& prefix_batch) {
  KT_OBS_SCOPE("rckt/score_targets");
  ag::NoGradGuard no_grad;
  nn::Context ctx;
  return ScoreFromInfluences(ComputeInfluences(prefix_batch, ctx, nullptr),
                             prefix_batch.max_len - 1);
}

std::vector<float> RCKT::GeneratorScoreTargets(
    const data::Batch& prefix_batch) {
  ag::NoGradGuard no_grad;
  CheckEqualLength(prefix_batch);
  nn::Context ctx;
  const int64_t b = prefix_batch.batch_size;
  const int64_t t = prefix_batch.max_len;
  const int64_t target = t - 1;
  std::vector<int> categories(static_cast<size_t>(b * t));
  for (int64_t row = 0; row < b; ++row) {
    PutRow(categories, prefix_batch, row,
           MaskedTargetCategories(RowResponses(prefix_batch, row), target));
  }
  ag::Variable probs = GenerateProbs(prefix_batch, categories, ctx, nullptr);
  std::vector<float> out(static_cast<size_t>(b));
  for (int64_t row = 0; row < b; ++row) {
    out[static_cast<size_t>(row)] =
        probs.value().flat(prefix_batch.FlatIndex(row, target));
  }
  return out;
}

Tensor RCKT::EmbedRuns(
    const std::vector<const std::vector<data::Interaction>*>& runs) const {
  std::vector<int64_t> questions;
  std::vector<int> responses;
  std::vector<std::vector<int64_t>> bags;
  for (const std::vector<data::Interaction>* run : runs) {
    for (const data::Interaction& interaction : *run) {
      questions.push_back(interaction.question);
      responses.push_back(interaction.response);
      bags.push_back(interaction.concepts);
    }
  }
  const ag::Variable e = embedder_.QuestionEmbedRows(questions, bags);
  return embedder_.AddResponseEmbed(e, responses).value();
}

Tensor RCKT::AdvanceStreams(
    const std::vector<ForwardStreamState*>& streams,
    const std::vector<data::Interaction>& interactions) const {
  ag::NoGradGuard no_grad;
  const int64_t k = static_cast<int64_t>(streams.size());
  KT_CHECK_GT(k, 0);
  const int64_t run = static_cast<int64_t>(interactions.size()) / k;
  KT_CHECK_GT(run, 0);
  KT_CHECK_EQ(run * k, static_cast<int64_t>(interactions.size()));
  const int64_t d = config_.dim;
  const Tensor f = encoder_->StepForwardRun(
      streams, EmbedRuns({&interactions}).Reshape(Shape{k, run, d}));
  return f.Slice(1, run - 1, run).Reshape(Shape{k, d});
}

std::vector<float> RCKT::PredictNext(
    const std::vector<StreamTarget>& targets) const {
  ag::NoGradGuard no_grad;
  const int64_t k = static_cast<int64_t>(targets.size());
  const int64_t d = config_.dim;
  std::vector<int64_t> questions;
  std::vector<std::vector<int64_t>> bags;
  // An empty history contributes the forward zero boundary.
  Tensor last_rows = Tensor::Zeros(Shape{k, d});
  for (int64_t j = 0; j < k; ++j) {
    const StreamTarget& target = targets[static_cast<size_t>(j)];
    questions.push_back(target.question);
    bags.push_back(*target.concepts);
    if (target.last_f->dim() > 0) {
      KT_CHECK_EQ(target.last_f->numel(), d);
      std::memcpy(last_rows.data() + j * d, target.last_f->data(),
                  static_cast<size_t>(d) * sizeof(float));
    }
  }
  // h = fwd_{T-2} + the backward zero boundary. The explicit Add replays
  // the offline ShiftAndAdd, which normalizes -0.0f the same way.
  const Tensor h = ag::Add(ag::Constant(last_rows),
                           ag::Constant(Tensor::Zeros(Shape{k, d})))
                       .value();
  // x = [h, e] per row, the bytes Concat({h, e}, 2) lays out offline. The
  // head runs graph-free on the exact kernels of the offline one.
  const Tensor x = Tensor::Concat(
      {h, embedder_.QuestionEmbedRows(questions, bags).value()}, 1);
  const Tensor mid = ag::LinearBiasActForward(
      x, mlp_hidden_.weight().value(), &mlp_hidden_.bias().value(),
      ag::Act::kRelu);
  const Tensor p = ag::LinearBiasActForward(
      mid, mlp_out_.weight().value(), &mlp_out_.bias().value(),
      ag::Act::kSigmoid);  // [k, 1]
  return std::vector<float>(p.data(), p.data() + k);
}

std::vector<float> RCKT::ScoreTimelines(
    const ForwardStreamState& stream,
    const std::vector<data::Interaction>& history,
    const std::vector<Timeline>& timelines, int64_t question,
    const std::vector<int64_t>& concepts) const {
  ag::NoGradGuard no_grad;
  const int64_t d = config_.dim;
  const int64_t history_len = static_cast<int64_t>(history.size());

  // Rows embed independently, so each distinct row embeds once: the
  // factual history, then every edited or appended row. A suffix row that
  // equals the factual row at its position reads that one.
  std::vector<data::Interaction> edits;
  std::vector<std::vector<int64_t>> sources(timelines.size());
  std::set<int64_t> walk_stops;
  for (size_t c = 0; c < timelines.size(); ++c) {
    const Timeline& timeline = timelines[c];
    KT_CHECK(timeline.start >= 0 && timeline.start <= history_len &&
             !timeline.suffix.empty());
    if (timeline.start < history_len) walk_stops.insert(timeline.start);
    int64_t pos = timeline.start;
    for (const data::Interaction& row : timeline.suffix) {
      if (pos < history_len && row == history[static_cast<size_t>(pos)]) {
        sources[c].push_back(pos++);
        continue;
      }
      const auto it = std::find(edits.begin(), edits.end(), row);
      sources[c].push_back(history_len + (it - edits.begin()));
      if (it == edits.end()) edits.push_back(row);
      ++pos;
    }
  }
  const Tensor a = EmbedRuns({&history, &edits});

  // The stream at a start: a clone of the factual stream where the encoder
  // can take one, else a copy kept by the prefix walk, which runs once, on
  // first need, through every stop in ascending order.
  std::map<int64_t, std::unique_ptr<ForwardStreamState>> walked;
  const auto state_at = [&](int64_t p) {
    if (auto clone = encoder_->CloneStreamPrefix(stream, p)) return clone;
    if (walked.empty()) {
      auto walk = encoder_->NewForwardStream();
      int64_t pos = 0;
      for (const int64_t stop : walk_stops) {
        if (stop > pos) {
          encoder_->StepForwardRun(
              {walk.get()},
              a.Slice(0, pos, stop).Reshape(Shape{1, stop - pos, d}));
        }
        pos = stop;
        walked[stop] = encoder_->CloneStreamPrefix(*walk, stop);
      }
    }
    return encoder_->CloneStreamPrefix(*walked.at(p), p);
  };

  std::vector<Tensor> last_f(timelines.size());
  std::vector<StreamTarget> targets(timelines.size());
  for (size_t c = 0; c < timelines.size(); ++c) {
    const int64_t len = static_cast<int64_t>(sources[c].size());
    Tensor suffix = Tensor::Uninitialized(Shape{1, len, d});
    for (int64_t j = 0; j < len; ++j) {
      std::memcpy(suffix.data() + j * d,
                  a.data() + sources[c][static_cast<size_t>(j)] * d,
                  static_cast<size_t>(d) * sizeof(float));
    }
    auto replay = state_at(timelines[c].start);
    const Tensor f = encoder_->StepForwardRun({replay.get()}, suffix);
    last_f[c] = f.Slice(1, len - 1, len).Reshape(Shape{1, d});
    targets[c] = StreamTarget{&last_f[c], question, &concepts};
  }
  return PredictNext(targets);
}

std::vector<float> RCKT::ScoreTargetsExact(const data::Batch& prefix_batch) {
  ag::NoGradGuard no_grad;
  nn::Context ctx;
  return ScoreFromInfluences(ComputeInfluencesExact(prefix_batch, ctx),
                             prefix_batch.max_len - 1);
}

std::vector<RCKT::Explanation> RCKT::ExplainTargets(
    const data::Batch& prefix_batch) {
  ag::NoGradGuard no_grad;
  nn::Context ctx;
  return ExplanationsFromInfluences(
      prefix_batch, ComputeInfluences(prefix_batch, ctx, nullptr));
}

std::vector<RCKT::Explanation> RCKT::ExplainConceptProbe(
    const data::Batch& prefix_batch,
    const std::vector<int64_t>& concept_questions, int64_t concept_id) {
  ag::NoGradGuard no_grad;
  nn::Context ctx;
  ag::Variable probe =
      embedder_.ConceptProbeEmbed(concept_questions, concept_id);
  return ExplanationsFromInfluences(
      prefix_batch, ComputeInfluences(prefix_batch, ctx, &probe));
}

std::vector<RCKT::Explanation> RCKT::ExplanationsFromInfluences(
    const data::Batch& prefix_batch,
    const InfluenceTensors& influences) const {
  const int64_t b = prefix_batch.batch_size;
  const int64_t t = prefix_batch.max_len;
  const Tensor& plus_pp = influences.delta_plus_per_pos.value();
  const Tensor& minus_pp = influences.delta_minus_per_pos.value();

  std::vector<Explanation> out(static_cast<size_t>(b));
  for (int64_t row = 0; row < b; ++row) {
    Explanation& ex = out[static_cast<size_t>(row)];
    ex.influence.assign(static_cast<size_t>(t), 0.0f);
    ex.responses = RowResponses(prefix_batch, row);
    for (int64_t i = 0; i < t; ++i) {
      const int64_t idx = prefix_batch.FlatIndex(row, i);
      if (influences.mask_correct.flat(idx) != 0.0f) {
        ex.influence[static_cast<size_t>(i)] = plus_pp.flat(idx);
        ex.total_correct += plus_pp.flat(idx);
      } else if (influences.mask_incorrect.flat(idx) != 0.0f) {
        ex.influence[static_cast<size_t>(i)] = minus_pp.flat(idx);
        ex.total_incorrect += minus_pp.flat(idx);
      }
    }
    ex.score = ex.total_correct - ex.total_incorrect;
    ex.predicted_correct = ex.score >= 0.0f;
  }
  return out;
}

std::vector<float> RCKT::ScoreConceptProbe(
    const data::Batch& prefix_batch,
    const std::vector<int64_t>& concept_questions, int64_t concept_id) {
  ag::NoGradGuard no_grad;
  nn::Context ctx;
  ag::Variable probe =
      embedder_.ConceptProbeEmbed(concept_questions, concept_id);
  return ScoreFromInfluences(ComputeInfluences(prefix_batch, ctx, &probe),
                             prefix_batch.max_len - 1);
}

}  // namespace rckt
}  // namespace kt
