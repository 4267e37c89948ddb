#include "serve/engine.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_set>
#include <utility>

#include "autograd/ops.h"
#include "data/batch.h"
#include "obs/obs.h"

namespace kt {
namespace serve {
namespace {

void BumpCounter(const char* name, int64_t n = 1) {
  if (!obs::Enabled()) return;
  obs::Counter::Get(name)->Add(n);
}

// What one kept interaction costs the session budget: the record plus its
// concept bag.
size_t InteractionBytes(const data::Interaction& interaction) {
  return sizeof(data::Interaction) +
         interaction.concepts.size() * sizeof(int64_t);
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kPredict:
      return "predict";
    case Op::kUpdate:
      return "update";
    case Op::kExplain:
      return "explain";
    case Op::kRecourse:
      return "recourse";
    case Op::kReset:
      return "reset";
    case Op::kStats:
      return "stats";
  }
  return "?";
}

InferenceEngine::InferenceEngine(rckt::RCKT& model, EngineOptions options)
    : model_(model),
      options_(std::move(options)),
      dim_(model.config().dim),
      store_(options_.session_budget_bytes) {
  if (!options_.cold_dir.empty()) {
    cold_ = std::make_unique<ColdTier>(
        options_.cold_dir, model_.bi_encoder(), model_.config().encoder,
        dim_, model_.config().num_layers, options_.model_fingerprint);
    // Eviction becomes demotion: snapshot the victim's neural state right
    // before the store drops it. The hook only reads the session, so it is
    // safe mid-eviction.
    store_.SetEvictionHook([this](Session& victim) { cold_->Save(victim); });
  }
}

void InferenceEngine::LoadConceptMap(const data::Dataset& dataset) {
  for (const auto& sequence : dataset.sequences) {
    for (const auto& interaction : sequence.interactions) {
      concept_map_.emplace(interaction.question, interaction.concepts);
    }
  }
}

const std::vector<int64_t>& InferenceEngine::ConceptsFor(
    const ServeRequest& request) const {
  if (request.has_concepts) return request.concepts;
  return BagFor(request.question);
}

const std::vector<int64_t>& InferenceEngine::BagFor(int64_t question) const {
  auto it = concept_map_.find(question);
  return it == concept_map_.end() ? empty_bag_ : it->second;
}

bool InferenceEngine::Validate(const ServeRequest& request,
                               ServeResponse* response) const {
  response->op = request.op;
  response->student = request.student;
  response->question = request.question;
  auto fail = [&](const std::string& message) {
    response->ok = false;
    response->error = message;
    return false;
  };
  if (request.op != Op::kStats && request.student.empty()) {
    return fail("missing student id");
  }
  if (request.op == Op::kPredict || request.op == Op::kUpdate ||
      request.op == Op::kExplain || request.op == Op::kRecourse) {
    if (request.question < 0 ||
        (options_.num_questions > 0 &&
         request.question >= options_.num_questions)) {
      return fail("question id out of range");
    }
    if (request.has_concepts && options_.num_concepts > 0) {
      for (const int64_t c : request.concepts) {
        if (c < 0 || c >= options_.num_concepts) {
          return fail("concept id out of range");
        }
      }
    }
  }
  if (request.op == Op::kUpdate &&
      (request.response < 0 || request.response > 1)) {
    return fail("response must be 0 or 1");
  }
  if (request.op == Op::kRecourse) {
    if (request.k < 1 || request.k > 4) {
      return fail("k must be in [1, 4]");
    }
    if (request.top < 1 || request.top > 16) {
      return fail("top must be in [1, 16]");
    }
    // target_p == -1.0 is the "no goal" sentinel the wire layer sets when
    // the field is absent.
    if (request.target_p != -1.0 &&
        !(request.target_p >= 0.0 && request.target_p <= 1.0)) {
      return fail("target_p must be in [0, 1]");
    }
    if (request.has_insert_questions) {
      for (const int64_t q : request.insert_questions) {
        if (q < 0 ||
            (options_.num_questions > 0 && q >= options_.num_questions)) {
          return fail("insert question id out of range");
        }
      }
    }
  }
  return true;
}

void InferenceEngine::EnsureStream(Session& session) {
  if (session.stream != nullptr) {
    BumpCounter("serve.cache_hit");
    return;
  }
  BumpCounter("serve.cache_miss");
  if (cold_ != nullptr) {
    const bool loaded = cold_->Load(&session);
    // A load can replace the history wholesale (a warm restart adopts the
    // snapshot's history even when its stream is stale), so the history is
    // charged anew here; updates charge only what they append.
    size_t history_bytes = 0;
    for (const data::Interaction& interaction : session.history) {
      history_bytes += InteractionBytes(interaction);
    }
    store_.SetHistoryBytes(session, history_bytes);
    if (loaded) {
      // Demoted (or snapshotted by a previous server run): the disk state
      // is bit-identical to the replay rebuild below, at O(bytes) instead
      // of O(T) encoder work — and after a warm restart it carries the
      // history a fresh session wouldn't even have.
      ++cold_loads_;
      AccountState(session);
      return;
    }
  }
  session.stream = model_.bi_encoder().NewForwardStream();
  const int64_t n = static_cast<int64_t>(session.history.size());
  if (n > 0) {
    ++replays_;
    // The neural state was evicted (or never built): rebuild it with one
    // run over the kept history — bit-identical to having stepped.
    KT_OBS_SCOPE("serve/replay");
    if (obs::Enabled()) {
      obs::Histogram::Get("serve.replay_len")->Record(static_cast<double>(n));
    }
    const Tensor a =
        EmbedInteractions(session.history).Reshape(Shape{1, n, dim_});
    const Tensor f =
        model_.bi_encoder().StepForwardRun({session.stream.get()}, a);
    session.last_f = f.Slice(1, n - 1, n).Reshape(Shape{1, dim_});
  }
  AccountState(session);
}

void InferenceEngine::AccountState(Session& session) {
  // Charge what the session actually holds: a session whose stream was
  // evicted out from under it carries no neural state regardless of its
  // history length. (The history is charged where it changes: appended in
  // UpdateRun, replaced by a cold load in EnsureStream.)
  const size_t bytes =
      session.stream == nullptr
          ? 0
          : model_.bi_encoder().StateBytes(
                static_cast<int64_t>(session.history.size())) +
                static_cast<size_t>(session.last_f.numel()) * sizeof(float);
  store_.SetStateBytes(session, bytes);
}

Tensor InferenceEngine::PredictInputRow(
    const Session& session, int64_t question,
    const std::vector<int64_t>& concepts) const {
  return HeadInputRow(session.last_f, question, concepts);
}

Tensor InferenceEngine::HeadInputRow(
    const Tensor& last_f, int64_t question,
    const std::vector<int64_t>& concepts) const {
  ag::NoGradGuard no_grad;
  const ag::Variable e =
      model_.embedder().QuestionEmbedRows({question}, {concepts});  // [1, d]
  // ShiftAndAdd at the target: h = fwd_{T-2} + backward-zero-boundary. The
  // explicit Add with zeros replays the offline op (it normalizes -0.0f the
  // same way); an empty history contributes the forward zero boundary too.
  const Tensor h_in =
      last_f.numel() > 0 ? last_f : Tensor::Zeros(Shape{1, dim_});
  const Tensor h = ag::Add(ag::Constant(h_in),
                           ag::Constant(Tensor::Zeros(Shape{1, dim_})))
                       .value();
  // x = concat(h, e) along features, [1, 2d] — same bytes Concat({h,e},2)
  // lays out for this row offline.
  Tensor x(Shape{1, 2 * dim_});
  std::memcpy(x.data(), h.data(), static_cast<size_t>(dim_) * sizeof(float));
  std::memcpy(x.data() + dim_, e.value().data(),
              static_cast<size_t>(dim_) * sizeof(float));
  return x;
}

Tensor InferenceEngine::EmbedInteractions(
    const std::vector<data::Interaction>& interactions) const {
  ag::NoGradGuard no_grad;
  const size_t n = interactions.size();
  std::vector<int64_t> questions(n);
  std::vector<int64_t> responses(n);
  std::vector<std::vector<int64_t>> bags(n);
  for (size_t i = 0; i < n; ++i) {
    questions[i] = interactions[i].question;
    responses[i] = interactions[i].response;
    bags[i] = interactions[i].concepts;
  }
  const ag::Variable e = model_.embedder().QuestionEmbedRows(questions, bags);
  const ag::Variable r =
      ag::EmbeddingLookup(model_.embedder().response_table(), responses);
  return ag::Add(e, r).value();
}

Tensor InferenceEngine::HeadProbs(const Tensor& rows) const {
  const nn::Linear& hidden = model_.mlp_hidden();
  const nn::Linear& out = model_.mlp_out();
  const Tensor mid = ag::LinearBiasActForward(
      rows, hidden.weight().value(), &hidden.bias().value(), ag::Act::kRelu);
  return ag::LinearBiasActForward(mid, out.weight().value(),
                                  &out.bias().value(), ag::Act::kSigmoid);
}

ServeResponse InferenceEngine::ExecuteExplain(const ServeRequest& request) {
  ServeResponse response;
  if (!Validate(request, &response)) return response;
  Session& session = store_.GetOrCreate(request.student);
  if (session.history.empty() && cold_ != nullptr) {
    // After a warm restart the history may live only in the cold tier.
    EnsureStream(session);
  }
  if (session.history.empty()) {
    response.ok = false;
    response.error = "explain needs at least one history interaction";
    return response;
  }
  KT_OBS_SCOPE("serve/explain");
  // Influence attribution needs counterfactual passes over the whole
  // prefix — this is the offline path by construction, run on the
  // session's history with the request as target.
  data::ResponseSequence sequence;
  sequence.interactions = session.history;
  sequence.interactions.push_back(data::Interaction{
      request.question, request.response, ConceptsFor(request)});
  const data::Batch batch = data::MakeBatch({&sequence});
  rckt::RCKT::Explanation explanation =
      std::move(model_.ExplainTargets(batch)[0]);
  response.influence = std::move(explanation.influence);
  response.responses = std::move(explanation.responses);
  response.total_correct = explanation.total_correct;
  response.total_incorrect = explanation.total_incorrect;
  response.score = explanation.score;
  response.predicted_correct = explanation.predicted_correct;
  response.history = static_cast<int64_t>(session.history.size());
  return response;
}

namespace {

// Bounds of the recourse search (DESIGN.md §15). Primitives are the unit
// edits candidate sets are composed from; the candidate cap keeps the
// worst-case stacked batch bounded no matter what K the client asks for.
constexpr int kMaxFlipPrimitives = 8;
constexpr size_t kMaxInsertPrimitives = 4;
constexpr size_t kMaxCandidates = 128;

}  // namespace

ServeResponse InferenceEngine::ExecuteRecourse(const ServeRequest& request) {
  ServeResponse response;
  if (!Validate(request, &response)) return response;
  KT_OBS_SCOPE("serve/recourse");
  ag::NoGradGuard no_grad;
  Session& session = store_.GetOrCreate(request.student);
  EnsureStream(session);
  const std::vector<int64_t>& target_bag = ConceptsFor(request);
  const int64_t history_len = static_cast<int64_t>(session.history.size());
  response.history = history_len;

  // base_p: the factual prediction, through the same head as predict —
  // bitwise the offline GeneratorScoreTargets result by the serve predict
  // contract.
  response.base_p =
      HeadProbs(PredictInputRow(session, request.question, target_bag))
          .flat(0);

  // ---- Primitives ----
  // Flips: the most recent incorrect answers (newest first — recency is
  // the natural recourse horizon), capped.
  struct Primitive {
    Intervention intervention;
    bool is_insert;
  };
  std::vector<Primitive> primitives;
  for (int64_t i = history_len - 1;
       i >= 0 &&
       primitives.size() < static_cast<size_t>(kMaxFlipPrimitives);
       --i) {
    const auto& interaction = session.history[static_cast<size_t>(i)];
    if (interaction.response != 0) continue;
    Primitive prim;
    prim.intervention.kind = Intervention::Kind::kFlipResponse;
    prim.intervention.position = i;
    prim.intervention.question = interaction.question;
    prim.is_insert = false;
    primitives.push_back(prim);
  }
  // Inserts: requested practice questions (deduped in order, capped), else
  // practicing the target question itself.
  std::vector<int64_t> insert_questions;
  if (request.has_insert_questions) {
    for (const int64_t q : request.insert_questions) {
      if (insert_questions.size() >= kMaxInsertPrimitives) break;
      if (std::find(insert_questions.begin(), insert_questions.end(), q) ==
          insert_questions.end()) {
        insert_questions.push_back(q);
      }
    }
  } else {
    insert_questions.push_back(request.question);
  }
  for (const int64_t q : insert_questions) {
    Primitive prim;
    prim.intervention.kind = Intervention::Kind::kInsertPractice;
    prim.intervention.position = -1;
    prim.intervention.question = q;
    prim.is_insert = true;
    primitives.push_back(prim);
  }

  // ---- Candidate enumeration ----
  // All non-empty primitive subsets of size <= k, size-ascending then
  // lexicographic by primitive index, deterministically truncated at the
  // cap. The order is part of the wire contract (ties rank by it).
  const int np = static_cast<int>(primitives.size());
  std::vector<std::vector<int>> candidates;
  for (int s = 1; s <= request.k && s <= np; ++s) {
    std::vector<int> combo(static_cast<size_t>(s));
    for (int j = 0; j < s; ++j) combo[static_cast<size_t>(j)] = j;
    while (candidates.size() < kMaxCandidates) {
      candidates.push_back(combo);
      // Advance to the next lexicographic s-combination of [0, np).
      int j = s - 1;
      while (j >= 0 && combo[static_cast<size_t>(j)] == np - s + j) --j;
      if (j < 0) break;
      ++combo[static_cast<size_t>(j)];
      for (int m = j + 1; m < s; ++m) {
        combo[static_cast<size_t>(m)] = combo[static_cast<size_t>(m - 1)] + 1;
      }
    }
    if (candidates.size() >= kMaxCandidates) break;
  }
  response.evaluated = static_cast<int64_t>(candidates.size());
  if (candidates.empty()) return response;

  // Sequence builder for brute mode: factual history with the candidate's
  // flips applied, then its inserts (correct practice, in primitive order),
  // then the target interaction. The target's response value never
  // matters — GeneratorScoreTargets masks the target category.
  auto build_sequence =
      [&](const std::vector<int>& combo) -> data::ResponseSequence {
    data::ResponseSequence sequence;
    sequence.interactions = session.history;
    for (const int pi : combo) {
      const Primitive& prim = primitives[static_cast<size_t>(pi)];
      if (!prim.is_insert) {
        sequence.interactions[static_cast<size_t>(prim.intervention.position)]
            .response = 1;
      }
    }
    for (const int pi : combo) {
      const Primitive& prim = primitives[static_cast<size_t>(pi)];
      if (prim.is_insert) {
        sequence.interactions.push_back(data::Interaction{
            prim.intervention.question, 1,
            BagFor(prim.intervention.question)});
      }
    }
    sequence.interactions.push_back(
        data::Interaction{request.question, 0, target_bag});
    return sequence;
  };

  std::vector<float> probs(candidates.size(), 0.0f);
  if (request.brute) {
    // Reference path: one full offline re-encode per candidate.
    for (size_t c = 0; c < candidates.size(); ++c) {
      const data::ResponseSequence sequence = build_sequence(candidates[c]);
      probs[c] = model_.GeneratorScoreTargets(
          data::MakeBatch({&sequence}))[0];
    }
  } else {
    // Fast path (DESIGN.md §15): no candidate ever re-encodes the
    // unmodified prefix. A candidate's timeline differs from the factual
    // history only from its earliest edit position p onward, and the serve
    // predict contract needs only the FORWARD stream at the last position
    // (the backward contribution there is the zero boundary row), so each
    // candidate is scored by (a) materializing the forward-stream state at
    // p — a prefix-truncated clone of the session's KV caches for attention
    // encoders, a snapshot from one shared prefix walk for recurrent ones —
    // then (b) bulk-replaying its short modified suffix (flipped rows, then
    // inserted practice) with StepForwardRun, and (c) scoring every final
    // row in one stacked head pass.
    const rckt::BiEncoder& encoder = model_.bi_encoder();

    std::vector<int64_t> earliest(candidates.size(), history_len);
    for (size_t c = 0; c < candidates.size(); ++c) {
      for (const int pi : candidates[c]) {
        const Primitive& prim = primitives[static_cast<size_t>(pi)];
        if (!prim.is_insert) {
          earliest[c] = std::min(earliest[c], prim.intervention.position);
        }
      }
    }

    // Factual embedded rows, then one edited row per primitive: a flip
    // re-embeds its position with the response forced correct, an insert
    // embeds correct practice. Rows embed independently, so each is
    // bitwise the row the session stream was built from.
    Tensor a_factual;  // [history_len, d]
    if (history_len > 0) a_factual = EmbedInteractions(session.history);
    std::vector<data::Interaction> edits;
    for (const Primitive& prim : primitives) {
      const int64_t q = prim.intervention.question;
      const std::vector<int64_t>& bag =
          prim.is_insert ? BagFor(q)
                         : session.history[static_cast<size_t>(
                                               prim.intervention.position)]
                               .concepts;
      edits.push_back(data::Interaction{q, 1, bag});
    }
    const Tensor edited = EmbedInteractions(edits);  // [primitives, d]

    // Prefix states. Attention encoders rewind in O(bytes); recurrent ones
    // cannot, so one shared walk over the factual prefix snapshots the
    // stream at every needed position (ascending, each segment replayed in
    // bulk) — amortized over all candidates.
    std::vector<int64_t> needed;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (earliest[c] < history_len) needed.push_back(earliest[c]);
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    const bool can_rewind =
        needed.empty() ||
        encoder.CloneStreamPrefix(*session.stream, needed.front()) != nullptr;
    std::map<int64_t, std::string> snapshots;
    if (!can_rewind) {
      auto walk = encoder.NewForwardStream();
      int64_t pos = 0;
      for (const int64_t p : needed) {
        if (p > pos) {
          encoder.StepForwardRun(
              {walk.get()},
              a_factual.Slice(0, pos, p).Reshape(Shape{1, p - pos, dim_}));
          pos = p;
        }
        encoder.SerializeStream(*walk, &snapshots[p]);
      }
    }
    std::string full_blob;  // lazily serialized full session stream
    auto state_at =
        [&](int64_t p) -> std::unique_ptr<rckt::ForwardStreamState> {
      if (history_len == 0) return encoder.NewForwardStream();
      if (auto clone = encoder.CloneStreamPrefix(*session.stream, p)) {
        return clone;
      }
      if (p == history_len) {
        // Bit-identical round-trip clone of the full cached stream, so the
        // session's own state is never touched.
        if (full_blob.empty()) {
          encoder.SerializeStream(*session.stream, &full_blob);
        }
        return encoder.DeserializeStream(full_blob.data(), full_blob.size());
      }
      const std::string& blob = snapshots.at(p);
      return encoder.DeserializeStream(blob.data(), blob.size());
    };

    Tensor stacked(Shape{static_cast<int64_t>(candidates.size()), 2 * dim_});
    for (size_t c = 0; c < candidates.size(); ++c) {
      const int64_t p = earliest[c];
      int64_t num_inserts = 0;
      for (const int pi : candidates[c]) {
        if (primitives[static_cast<size_t>(pi)].is_insert) ++num_inserts;
      }
      // Suffix timeline: factual tail rows with this candidate's flips
      // overwritten in place, then its inserted practices in primitive
      // order (candidate combos are index-sorted, and inserts follow flips
      // in the primitive list).
      const int64_t tail = history_len - p;
      const int64_t suffix_len = tail + num_inserts;
      Tensor suffix(Shape{1, suffix_len, dim_});
      if (tail > 0) {
        std::memcpy(suffix.data(), a_factual.data() + p * dim_,
                    static_cast<size_t>(tail * dim_) * sizeof(float));
      }
      int64_t write = tail;
      for (const int pi : candidates[c]) {
        const Primitive& prim = primitives[static_cast<size_t>(pi)];
        const int64_t at =
            prim.is_insert ? write++ : prim.intervention.position - p;
        std::memcpy(suffix.data() + at * dim_, edited.data() + pi * dim_,
                    static_cast<size_t>(dim_) * sizeof(float));
      }
      auto stream = state_at(p);
      const Tensor f_run = encoder.StepForwardRun({stream.get()}, suffix);
      const Tensor row = HeadInputRow(
          f_run.Slice(1, suffix_len - 1, suffix_len).Reshape(Shape{1, dim_}),
          request.question, target_bag);
      std::memcpy(stacked.data() + static_cast<int64_t>(c) * 2 * dim_,
                  row.data(),
                  static_cast<size_t>(2 * dim_) * sizeof(float));
    }
    const Tensor p = HeadProbs(stacked);  // [candidates, 1]
    probs.assign(p.data(), p.data() + p.numel());
  }

  // ---- Ranking ----
  // Lift per intervention first (the "minimal set" objective), then raw
  // lift, then smaller sets, then enumeration order. All keys derive from
  // bitwise-deterministic floats, so the order is reproducible across
  // thread counts, shard counts, and the brute/fast paths.
  std::vector<size_t> order(candidates.size());
  for (size_t c = 0; c < order.size(); ++c) order[c] = c;
  const double base_p = static_cast<double>(response.base_p);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double lift_a = static_cast<double>(probs[a]) - base_p;
    const double lift_b = static_cast<double>(probs[b]) - base_p;
    const double per_a = lift_a / static_cast<double>(candidates[a].size());
    const double per_b = lift_b / static_cast<double>(candidates[b].size());
    if (per_a != per_b) return per_a > per_b;
    if (lift_a != lift_b) return lift_a > lift_b;
    if (candidates[a].size() != candidates[b].size()) {
      return candidates[a].size() < candidates[b].size();
    }
    return a < b;
  });
  const size_t take =
      std::min(order.size(), static_cast<size_t>(request.top));
  response.candidates.reserve(take);
  for (size_t r = 0; r < take; ++r) {
    const size_t c = order[r];
    Counterfactual counterfactual;
    for (const int pi : candidates[c]) {
      counterfactual.interventions.push_back(
          primitives[static_cast<size_t>(pi)].intervention);
    }
    counterfactual.p = probs[c];
    counterfactual.lift = probs[c] - response.base_p;
    counterfactual.reaches_target =
        request.target_p >= 0.0 &&
        static_cast<double>(probs[c]) >= request.target_p;
    response.candidates.push_back(std::move(counterfactual));
  }
  return response;
}

ServeResponse InferenceEngine::ExecuteStats(const ServeRequest& request) {
  ServeResponse response;
  response.op = request.op;
  response.sessions = static_cast<int64_t>(store_.size());
  response.state_bytes = static_cast<int64_t>(store_.total_state_bytes());
  response.history_bytes =
      static_cast<int64_t>(store_.total_history_bytes());
  response.evictions = static_cast<int64_t>(store_.evictions());
  response.model_fingerprint = options_.model_fingerprint;
  return response;
}

void InferenceEngine::OnModelSwapped(uint64_t fingerprint) {
  options_.model_fingerprint = fingerprint;
  // Drop every cached forward stream (and its accounted bytes): the bits
  // were computed under the OLD weights. Histories survive, so the next
  // touch replays them against the new weights — EnsureStream's rebuild is
  // bit-identical to a fresh engine fed the same history.
  store_.ForEach([this](Session& session) {
    session.stream.reset();
    session.last_f = Tensor();
    AccountState(session);
  });
  if (cold_ != nullptr) cold_->set_model_fingerprint(fingerprint);
}

ServeResponse InferenceEngine::Execute(const ServeRequest& request) {
  BumpCounter("serve.requests");
  ServeResponse response;
  switch (request.op) {
    case Op::kPredict:
      PredictRun(&request, 1, &response);
      return response;
    case Op::kUpdate:
      UpdateRun(&request, 1, &response);
      return response;
    case Op::kExplain:
      return ExecuteExplain(request);
    case Op::kRecourse:
      return ExecuteRecourse(request);
    case Op::kReset: {
      if (!Validate(request, &response)) return response;
      store_.Erase(request.student);
      // A reset must forget the student everywhere — a surviving snapshot
      // would resurrect the history on next touch.
      if (cold_ != nullptr) cold_->Erase(request.student);
      return response;
    }
    case Op::kStats:
      return ExecuteStats(request);
  }
  response.ok = false;
  response.error = "unknown op";
  return response;
}

void InferenceEngine::PredictRun(const ServeRequest* requests, size_t count,
                                 ServeResponse* out) {
  KT_OBS_SCOPE("serve/predict");
  ag::NoGradGuard no_grad;
  std::vector<size_t> slots;
  std::vector<Tensor> rows;
  for (size_t i = 0; i < count; ++i) {
    if (!Validate(requests[i], &out[i])) continue;
    Session& session = store_.GetOrCreate(requests[i].student);
    EnsureStream(session);
    rows.push_back(PredictInputRow(session, requests[i].question,
                                   ConceptsFor(requests[i])));
    slots.push_back(i);
    out[i].history = static_cast<int64_t>(session.history.size());
  }
  if (rows.empty()) return;
  // One stacked MLP-head pass for the whole run; row j is bitwise the
  // single-request result.
  const int64_t k = static_cast<int64_t>(rows.size());
  Tensor stacked(Shape{k, 2 * dim_});
  for (int64_t j = 0; j < k; ++j) {
    std::memcpy(stacked.data() + j * 2 * dim_,
                rows[static_cast<size_t>(j)].data(),
                static_cast<size_t>(2 * dim_) * sizeof(float));
  }
  const Tensor p = HeadProbs(stacked);  // [k, 1]
  for (int64_t j = 0; j < k; ++j) {
    out[slots[static_cast<size_t>(j)]].p = p.flat(j);
  }
}

void InferenceEngine::UpdateRun(const ServeRequest* requests, size_t count,
                                ServeResponse* out) {
  KT_OBS_SCOPE("serve/update");
  ag::NoGradGuard no_grad;
  std::vector<size_t> slots;
  std::vector<Session*> touched;
  std::vector<rckt::ForwardStreamState*> states;
  std::vector<data::Interaction> appended;
  // The raw stream pointers in `states` stay live across the whole run:
  // pin every session before a later request's EnsureStream/AccountState
  // can trigger eviction, which would free an earlier session's stream
  // under StepForwardRun. The budget is re-enforced when the scope ends.
  SessionStore::PinScope pins(store_);
  for (size_t i = 0; i < count; ++i) {
    if (!Validate(requests[i], &out[i])) continue;
    Session& session = store_.GetOrCreate(requests[i].student);
    pins.Pin(session);
    EnsureStream(session);
    appended.push_back(data::Interaction{
        requests[i].question, requests[i].response, ConceptsFor(requests[i])});
    slots.push_back(i);
    touched.push_back(&session);
    states.push_back(session.stream.get());
  }
  if (appended.empty()) return;
  // One encoder run across the distinct students of the run, one row each.
  const int64_t k = static_cast<int64_t>(appended.size());
  const Tensor f = model_.bi_encoder().StepForwardRun(
      states, EmbedInteractions(appended).Reshape(Shape{k, 1, dim_}));
  for (size_t j = 0; j < slots.size(); ++j) {
    Session& session = *touched[j];
    const ServeRequest& request = requests[slots[j]];
    const int64_t index = static_cast<int64_t>(session.history.size());
    const int64_t row = static_cast<int64_t>(j);
    session.last_f = f.Slice(0, row, row + 1).Reshape(Shape{1, dim_});
    session.history.push_back(std::move(appended[j]));
    store_.SetHistoryBytes(
        session,
        session.history_bytes + InteractionBytes(session.history.back()));
    AccountState(session);
    if (options_.update_sink) {
      UpdateEvent event;
      event.student = session.id;
      event.index = index;
      event.question = request.question;
      event.response = request.response;
      event.concepts = &session.history.back().concepts;
      options_.update_sink(options_.shard_index, event);
    }
    out[slots[j]].history = static_cast<int64_t>(session.history.size());
  }
}

void InferenceEngine::FlushColdSnapshots() {
  if (cold_ == nullptr) return;
  store_.ForEach([this](Session& session) { cold_->Save(session); });
}

std::vector<ServeResponse> InferenceEngine::ExecuteBatch(
    const std::vector<ServeRequest>& requests) {
  const size_t n = requests.size();
  std::vector<ServeResponse> out(n);
  size_t i = 0;
  while (i < n) {
    const Op op = requests[i].op;
    if (op == Op::kPredict) {
      size_t j = i;
      while (j < n && requests[j].op == Op::kPredict) ++j;
      BumpCounter("serve.requests", static_cast<int64_t>(j - i));
      PredictRun(&requests[i], j - i, &out[i]);
      i = j;
    } else if (op == Op::kUpdate) {
      // A student appearing twice must step sequentially: close the run at
      // the repeat so the second step sees the first one's state.
      std::unordered_set<std::string> seen;
      size_t j = i;
      while (j < n && requests[j].op == Op::kUpdate &&
             seen.insert(requests[j].student).second) {
        ++j;
      }
      BumpCounter("serve.requests", static_cast<int64_t>(j - i));
      UpdateRun(&requests[i], j - i, &out[i]);
      i = j;
    } else {
      out[i] = Execute(requests[i]);
      ++i;
    }
  }
  return out;
}

}  // namespace serve
}  // namespace kt
