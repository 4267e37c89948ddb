#include "serve/engine.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

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
      store_(options_.session_budget_bytes) {
  if (!options_.cold_dir.empty()) {
    cold_ = std::make_unique<ColdTier>(
        options_.cold_dir, model_.bi_encoder(), model_.config().encoder,
        model_.config().dim, model_.config().num_layers,
        options_.model_fingerprint);
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
    session.last_f = model_.AdvanceStreams({session.stream.get()},
                                           session.history);
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
  Session& session = store_.GetOrCreate(request.student);
  EnsureStream(session);
  const std::vector<int64_t>& target_bag = ConceptsFor(request);
  const int64_t history_len = static_cast<int64_t>(session.history.size());
  response.history = history_len;

  // base_p: the factual prediction, through the same head as predict —
  // bitwise the offline GeneratorScoreTargets result by the serve predict
  // contract.
  response.base_p = model_.PredictNext(
      {{&session.last_f, request.question, &target_bag}})[0];

  // ---- Primitives ----
  // Flips: the most recent incorrect answers (newest first — recency is
  // the natural recourse horizon), capped.
  std::vector<Intervention> primitives;
  for (int64_t i = history_len - 1;
       i >= 0 &&
       primitives.size() < static_cast<size_t>(kMaxFlipPrimitives);
       --i) {
    const auto& interaction = session.history[static_cast<size_t>(i)];
    if (interaction.response != 0) continue;
    primitives.push_back(Intervention{Intervention::Kind::kFlipResponse, i,
                                      interaction.question});
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
    primitives.push_back(
        Intervention{Intervention::Kind::kInsertPractice, -1, q});
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

  // A candidate's timeline: the factual history from its first flip on
  // (none of it when it only inserts) with its flips applied, then its
  // inserts (correct practice). Combos are index-sorted and flips precede
  // inserts among the primitives, so one pass keeps primitive order.
  std::vector<rckt::RCKT::Timeline> timelines;
  for (const std::vector<int>& combo : candidates) {
    int64_t start = history_len;
    for (const int pi : combo) {
      const Intervention& edit = primitives[static_cast<size_t>(pi)];
      if (edit.kind == Intervention::Kind::kFlipResponse) {
        start = std::min(start, edit.position);
      }
    }
    rckt::RCKT::Timeline& timeline = timelines.emplace_back();
    timeline.start = start;
    timeline.suffix.assign(session.history.begin() + start,
                           session.history.end());
    for (const int pi : combo) {
      const Intervention& edit = primitives[static_cast<size_t>(pi)];
      if (edit.kind == Intervention::Kind::kFlipResponse) {
        timeline.suffix[static_cast<size_t>(edit.position - start)].response =
            1;
      } else {
        timeline.suffix.push_back(
            data::Interaction{edit.question, 1, BagFor(edit.question)});
      }
    }
  }

  std::vector<float> probs;
  if (request.brute) {
    // Reference path: one full offline re-encode per candidate, the target
    // appended. Its response never matters: GeneratorScoreTargets masks
    // the target category.
    for (const rckt::RCKT::Timeline& timeline : timelines) {
      data::ResponseSequence sequence;
      sequence.interactions.assign(session.history.begin(),
                                   session.history.begin() + timeline.start);
      sequence.interactions.insert(sequence.interactions.end(),
                                   timeline.suffix.begin(),
                                   timeline.suffix.end());
      sequence.interactions.push_back(
          data::Interaction{request.question, 0, target_bag});
      probs.push_back(
          model_.GeneratorScoreTargets(data::MakeBatch({&sequence}))[0]);
    }
  } else {
    // Fast path (DESIGN.md §15): each candidate replays only its suffix,
    // and one stacked head pass scores them all.
    probs = model_.ScoreTimelines(*session.stream, session.history,
                                  timelines, request.question, target_bag);
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
          primitives[static_cast<size_t>(pi)]);
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
  std::vector<size_t> slots;
  // Each target reads a copy of its session's row (sharing its storage): a
  // later request's EnsureStream may evict an earlier session's state.
  std::vector<Tensor> last_f;
  last_f.reserve(count);
  std::vector<rckt::RCKT::StreamTarget> targets;
  for (size_t i = 0; i < count; ++i) {
    if (!Validate(requests[i], &out[i])) continue;
    Session& session = store_.GetOrCreate(requests[i].student);
    EnsureStream(session);
    last_f.push_back(session.last_f);
    targets.push_back({&last_f.back(), requests[i].question,
                       &ConceptsFor(requests[i])});
    slots.push_back(i);
    out[i].history = static_cast<int64_t>(session.history.size());
  }
  if (targets.empty()) return;
  // One stacked MLP-head pass for the whole run; row j is bitwise the
  // single-request result.
  const std::vector<float> p = model_.PredictNext(targets);
  for (size_t j = 0; j < slots.size(); ++j) out[slots[j]].p = p[j];
}

void InferenceEngine::UpdateRun(const ServeRequest* requests, size_t count,
                                ServeResponse* out) {
  KT_OBS_SCOPE("serve/update");
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
  const Tensor f = model_.AdvanceStreams(states, appended);
  for (size_t j = 0; j < slots.size(); ++j) {
    Session& session = *touched[j];
    const ServeRequest& request = requests[slots[j]];
    const int64_t index = static_cast<int64_t>(session.history.size());
    const int64_t row = static_cast<int64_t>(j);
    session.last_f = f.Slice(0, row, row + 1);
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
