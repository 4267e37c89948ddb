// Tape-free online inference engine over a trained RCKT model.
//
// The offline scorer (`ktcli evaluate`) re-encodes a student's whole prefix
// for every prediction. Online, the engine keeps each session's forward
// stream and runs the generator through RCKT's streaming methods
// (rckt_model.h), which own the generator's layout:
//
//   predict(q): RCKT::PredictNext on the cached forward output of the last
//     history step: O(1) work per request for every encoder.
//   update(q, r): RCKT::AdvanceStreams by one step (O(1) for DKT/GRU,
//     O(history) attention over the KV cache for SAKT/AKT).
//   explain(q): full response-influence breakdown (RCKT::ExplainTargets)
//     over the session history — inherently O(T) counterfactual passes.
//   recourse(q): the engine enumerates and ranks candidate edits; each
//     candidate's edited timeline is scored by RCKT::ScoreTimelines.
//
// The engine owns what belongs to serving: sessions, the memory budget,
// validation, batching, and the recourse search space and ranking.
//
// Load-bearing contract (tests/serve_test.cc, scripts/check_serve.sh):
// predict is BIT-IDENTICAL to RCKT::GeneratorScoreTargets on the
// equivalent offline prefix batch, at any thread count, because every op on
// the incremental path replays the same kernel chain on the same bits (see
// DESIGN.md §11).
#ifndef KT_SERVE_ENGINE_H_
#define KT_SERVE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rckt/rckt_model.h"
#include "serve/coldtier.h"
#include "serve/session.h"

namespace kt {
namespace serve {

enum class Op { kPredict, kUpdate, kExplain, kRecourse, kReset, kStats };

// One primitive edit of a student's trajectory, the unit the recourse
// search composes into candidate sets (ROADMAP's typed intervention model).
struct Intervention {
  enum class Kind {
    kFlipResponse,    // history[position]: incorrect -> correct
    kInsertPractice,  // append a correct practice of `question` after the
                      // history, before the target
  };
  Kind kind = Kind::kFlipResponse;
  // kFlipResponse: index into the session history. -1 for inserts.
  int64_t position = -1;
  // The question involved (the flipped interaction's question, or the
  // inserted practice question).
  int64_t question = -1;
};

// One scored candidate intervention set: apply `interventions` and the
// target's predicted mastery becomes `p` (lift = p - base_p).
struct Counterfactual {
  std::vector<Intervention> interventions;
  float p = 0.0f;
  float lift = 0.0f;
  bool reaches_target = false;  // p >= target_p (when target_p was given)
};

struct ServeRequest {
  Op op = Op::kPredict;
  std::string student;
  int64_t question = -1;
  int response = 0;
  // Explicit concept bag; when absent the engine falls back to the
  // question->concepts map seeded from the training data.
  bool has_concepts = false;
  std::vector<int64_t> concepts;
  // ---- recourse fields ----
  int k = 2;             // max interventions per candidate set, in [1, 4]
  int top = 3;           // number of ranked sets to return, in [1, 16]
  double target_p = -1.0;  // mastery goal in [0, 1]; < 0 means "no goal"
  // Candidate practice questions for kInsertPractice primitives. When
  // absent the engine defaults to {question} (practice the target itself).
  bool has_insert_questions = false;
  std::vector<int64_t> insert_questions;
  // Evaluate every candidate by brute-force full re-encode instead of the
  // stream-reuse fast path (RCKT::ScoreTimelines). Same bits by contract;
  // exists so tests and the loadgen gate can prove it.
  bool brute = false;
};

struct ServeResponse {
  bool ok = true;
  std::string error;
  Op op = Op::kPredict;
  std::string student;
  int64_t question = -1;
  float p = 0.0f;       // predict: p(correct) at the target
  int64_t history = 0;  // session history length after the op
  // explain payload (RCKT::Explanation of the session's prefix).
  std::vector<float> influence;
  std::vector<int> responses;
  float total_correct = 0.0f;
  float total_incorrect = 0.0f;
  float score = 0.0f;
  bool predicted_correct = false;
  // stats payload
  int64_t sessions = 0;
  int64_t state_bytes = 0;
  int64_t history_bytes = 0;
  int64_t evictions = 0;
  // stats: model identity (which weights served this traffic). The
  // fingerprint is nn::FingerprintModule of the serving parameters; the
  // version counts continual-trainer promotions (0 = the offline model).
  uint64_t model_fingerprint = 0;
  int64_t weight_version = 0;
  // stats: continual-trainer section, filled by the ShardSet stats
  // decorator when `serve --continual` is live (absent from the wire
  // otherwise).
  bool has_continual = false;
  int64_t continual_events = 0;
  int64_t continual_mini_epochs = 0;
  int64_t continual_promotions = 0;
  int64_t continual_reservoir_size = 0;
  uint64_t continual_reservoir_fnv64 = 0;
  // recourse payload
  float base_p = 0.0f;     // factual predict probability
  int64_t evaluated = 0;   // candidate sets scored
  std::vector<Counterfactual> candidates;  // ranked, best first
};

// One committed history update, as seen by the continual-learning event
// stream: `index` is the student's per-session event index (the history
// length BEFORE this interaction), which is deterministic for a student's
// own stream regardless of shard layout. The referenced strings/vectors are
// only valid for the duration of the sink call.
struct UpdateEvent {
  std::string_view student;
  int64_t index = 0;
  int64_t question = -1;
  int response = 0;
  const std::vector<int64_t>* concepts = nullptr;
};

struct EngineOptions {
  // Budget for cached neural state across all sessions (see SessionStore).
  size_t session_budget_bytes = 64ull << 20;
  // Input validation bounds; 0 disables the check (ids the embedder has
  // never seen would abort the process inside EmbeddingLookup otherwise).
  int64_t num_questions = 0;
  int64_t num_concepts = 0;
  // Cold session tier directory (serve/coldtier.h); empty disables it.
  // With a cold dir, eviction snapshots neural state to disk instead of
  // discarding it, the next touch reloads the snapshot (bit-identical to
  // the replay rebuild it replaces), and a restarted server resumes
  // snapshotted sessions — history included — without replay.
  std::string cold_dir;
  // Fingerprint of the serving weights at startup (see
  // nn::FingerprintModule); reported by `stats` and stamped into cold-tier
  // snapshot headers so stale-model snapshots read as misses.
  uint64_t model_fingerprint = 0;
  // Continual-learning event tap: invoked synchronously on the engine's
  // thread for every COMMITTED update (after the session stepped), with
  // this engine's shard index. Must be cheap and must not call back into
  // the engine.
  std::function<void(int shard, const UpdateEvent&)> update_sink;
  // Which shard this engine serves (set by ShardSet; 0 for a lone engine).
  int shard_index = 0;
};

// NOT thread-safe: one engine is driven by one thread (in the server, its
// shard's worker; serve/shard.h). Concurrency comes from kt::parallel inside
// the stacked compute, not from concurrent Execute calls.
class InferenceEngine {
 public:
  InferenceEngine(rckt::RCKT& model, EngineOptions options);

  // Seeds the question->concepts fallback map (first occurrence wins).
  void LoadConceptMap(const data::Dataset& dataset);

  ServeResponse Execute(const ServeRequest& request);

  // Executes `requests` with results equal to sequential Execute calls in
  // order, but coalesces adjacent runs of predicts (stacked MLP head) and
  // of updates on distinct students (stacked encoder step) — the dynamic
  // micro-batching payoff. A lone predict or update is a run of one, so
  // stacked and sequential paths share their code and are bit-identical
  // (every GEMM row is an independent accumulator chain).
  std::vector<ServeResponse> ExecuteBatch(
      const std::vector<ServeRequest>& requests);

  const SessionStore& sessions() const { return store_; }

  // Cold-tier plumbing. FlushColdSnapshots persists every resident
  // session (graceful shutdown), so a warm restart resumes them all; the
  // counters let tests and operators distinguish "resumed from cold
  // snapshot" from "rebuilt by replay".
  void FlushColdSnapshots();
  int64_t cold_loads() const { return cold_loads_; }
  int64_t replays() const { return replays_; }

  // Weight-swap notification (must run on the engine's own thread, with no
  // request in flight — ShardSet::SwapWeights quiesces the workers first).
  // Every session's cached forward stream and last_f are dropped — the
  // histories are kept, so the next touch rebuilds by replay against the
  // NEW weights, bit-identical to a fresh replay — and the cold tier's
  // snapshot fingerprint moves to the new model so pre-swap snapshots load
  // as misses.
  void OnModelSwapped(uint64_t fingerprint);
  uint64_t model_fingerprint() const { return options_.model_fingerprint; }

 private:
  // Concept bag for a request (explicit > map > empty).
  const std::vector<int64_t>& ConceptsFor(const ServeRequest& request) const;
  // Validates ids; fills *response and returns false on a bad request.
  bool Validate(const ServeRequest& request, ServeResponse* response) const;
  // Makes sure `session.stream` exists, replaying the history if it was
  // evicted. Counts serve.cache_hit / serve.cache_miss.
  void EnsureStream(Session& session);
  // Bookkeeping after the stream advanced (neural state size + LRU budget).
  void AccountState(Session& session);
  // Concept bag for an arbitrary question id (map lookup, else empty).
  const std::vector<int64_t>& BagFor(int64_t question) const;

  ServeResponse ExecuteExplain(const ServeRequest& request);
  ServeResponse ExecuteRecourse(const ServeRequest& request);
  ServeResponse ExecuteStats(const ServeRequest& request);

  // Runs of `count` same-op requests, responses written to out[0, count).
  // Execute calls them with a run of one; callers count serve.requests.
  void PredictRun(const ServeRequest* requests, size_t count,
                  ServeResponse* out);
  void UpdateRun(const ServeRequest* requests, size_t count,
                 ServeResponse* out);

  rckt::RCKT& model_;
  EngineOptions options_;
  SessionStore store_;
  std::unique_ptr<ColdTier> cold_;  // null when options_.cold_dir is empty
  int64_t cold_loads_ = 0;
  int64_t replays_ = 0;
  std::unordered_map<int64_t, std::vector<int64_t>> concept_map_;
  const std::vector<int64_t> empty_bag_;
};

const char* OpName(Op op);

}  // namespace serve
}  // namespace kt

#endif  // KT_SERVE_ENGINE_H_
