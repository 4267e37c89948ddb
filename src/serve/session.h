// Per-student session cache for online serving.
//
// A session holds a student's interaction history plus the incremental
// neural state of the model's forward stream: recurrent hidden/cell rows
// for DKT/GRU, append-only attention KV caches for SAKT/AKT (see
// rckt::ForwardStreamState). Sessions are kept in an LRU list under a
// configurable memory budget counting neural state AND history bytes —
// when the budget is exceeded the least-recently-used sessions' neural
// state is dropped while their histories are kept, so a returning student
// is rebuilt by one StepForwardRun over its history, not forgotten.
// Histories still count against the budget (they are real resident
// memory): a store full of long histories evicts neural state earlier,
// and `stats` reports history_bytes so operators can size budgets.
#ifndef KT_SERVE_SESSION_H_
#define KT_SERVE_SESSION_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "rckt/encoders.h"
#include "tensor/tensor.h"

namespace kt {
namespace serve {

struct Session {
  std::string id;
  // Everything the student has answered, in order (questions, responses,
  // concept bags). Never evicted — it is the ground truth the neural state
  // can always be rebuilt from.
  std::vector<data::Interaction> history;
  // Incremental forward-stream state; nullptr after eviction (or before
  // first use) — the engine replays the history to rebuild it.
  std::unique_ptr<rckt::ForwardStreamState> stream;
  // Forward-stream output at the last history position, [1, dim]
  // (numel 0 while the history is empty). This is the h-half of the next
  // predict's MLP input.
  Tensor last_f;
  // Accounted bytes of `stream` (+ last_f), kept in sync by the store.
  size_t state_bytes = 0;
  // Accounted bytes of `history` (interactions + concept bags), kept in
  // sync by the store. Charged against the budget but never evicted —
  // eviction only ever reclaims state_bytes.
  size_t history_bytes = 0;
};

class SessionStore {
 public:
  // `budget_bytes` bounds the summed state_bytes of all sessions; 0 means
  // unlimited.
  explicit SessionStore(size_t budget_bytes);

  // Returns the session for `id`, creating it if needed, and marks it
  // most-recently-used. Pointers remain valid until Erase — the store is
  // node-based.
  Session& GetOrCreate(const std::string& id);

  // Lookup without creating (does not touch LRU order).
  Session* Find(const std::string& id);

  // Records that `session`'s neural state now occupies `bytes`, then
  // evicts least-recently-used neural state (never `session`'s own, never
  // a pinned session's, and never any history) until the budget holds
  // again.
  void SetStateBytes(Session& session, size_t bytes);

  // Records that `session`'s history now occupies `bytes`. History counts
  // against the budget (so growing histories squeeze out cold neural
  // state) but is itself never evicted; a store whose histories alone
  // exceed the budget simply holds no neural state.
  void SetHistoryBytes(Session& session, size_t bytes);

  // Pins sessions against eviction for the duration of a coalesced run:
  // the engine collects raw stream pointers for several sessions before
  // stepping them together, so accounting for a later session must not
  // free an earlier session's stream. On destruction the pins are released
  // and the budget is re-enforced in one pass.
  class PinScope {
   public:
    explicit PinScope(SessionStore& store) : store_(store) {}
    ~PinScope();
    PinScope(const PinScope&) = delete;
    PinScope& operator=(const PinScope&) = delete;

    void Pin(Session& session);

   private:
    SessionStore& store_;
    std::vector<const Session*> pinned_;
  };

  // Drops the whole session (reset op).
  void Erase(const std::string& id);

  // Called with each eviction victim right BEFORE its neural state is
  // dropped — the cold tier's snapshot hook. The hook must not touch the
  // store (it runs mid-eviction).
  void SetEvictionHook(std::function<void(Session&)> hook) {
    eviction_hook_ = std::move(hook);
  }

  // Visits every live session (graceful-shutdown cold flush).
  void ForEach(const std::function<void(Session&)>& fn);

  size_t size() const { return sessions_.size(); }
  size_t total_state_bytes() const { return total_state_bytes_; }
  size_t total_history_bytes() const { return total_history_bytes_; }
  uint64_t evictions() const { return evictions_; }
  size_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Entry {
    Session session;
    std::list<std::string>::iterator lru_it;
  };

  void Touch(Entry& entry);
  void EvictUntilWithinBudget(const Session* keep);

  size_t budget_bytes_;
  size_t total_state_bytes_ = 0;
  size_t total_history_bytes_ = 0;
  uint64_t evictions_ = 0;
  std::function<void(Session&)> eviction_hook_;
  // Sessions currently protected by a live PinScope.
  std::unordered_set<const Session*> pinned_;
  // Front = most recently used.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Entry> sessions_;
};

}  // namespace serve
}  // namespace kt

#endif  // KT_SERVE_SESSION_H_
