#include "continual/reservoir.h"

#include <algorithm>
#include <utility>

#include "core/binio.h"
#include "core/hash.h"

namespace kt {
namespace continual {
namespace {

uint64_t Splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t MixInteraction(uint64_t h, const data::Interaction& it) {
  h = FnvMixU64(h, static_cast<uint64_t>(it.question));
  h = FnvMixU64(h, static_cast<uint64_t>(it.response));
  h = FnvMixU64(h, it.concepts.size());
  for (const int64_t c : it.concepts) {
    h = FnvMixU64(h, static_cast<uint64_t>(c));
  }
  return h;
}

void AppendInteraction(std::string* out, const data::Interaction& it) {
  AppendPod<int64_t>(out, it.question);
  AppendPod<int32_t>(out, static_cast<int32_t>(it.response));
  AppendPod<uint32_t>(out, static_cast<uint32_t>(it.concepts.size()));
  for (const int64_t c : it.concepts) AppendPod<int64_t>(out, c);
}

bool ReadInteraction(BinCursor* cursor, data::Interaction* it) {
  int32_t response = 0;
  uint32_t bag = 0;
  if (!cursor->Read(&it->question) || !cursor->Read(&response) ||
      !cursor->Read(&bag)) {
    return false;
  }
  it->response = response;
  it->concepts.resize(bag);
  for (uint32_t c = 0; c < bag; ++c) {
    if (!cursor->Read(&it->concepts[c])) return false;
  }
  return true;
}

bool ReadSample(BinCursor* cursor, TrainSample* sample) {
  uint32_t context = 0;
  if (!cursor->Read(&sample->student_fnv) || !cursor->Read(&sample->index) ||
      !ReadInteraction(cursor, &sample->target) || !cursor->Read(&context)) {
    return false;
  }
  sample->context.resize(context);
  for (uint32_t c = 0; c < context; ++c) {
    if (!ReadInteraction(cursor, &sample->context[c])) return false;
  }
  return true;
}

// Content hash of a sample (target + context, NOT the identity key). The
// final KeyLess tie-break: two distinct samples can share (student, index)
// when a session resets and the event index restarts, and without a
// content-aware tie-break their eviction and canonical order would depend
// on the reservoir's internal heap arrangement (i.e. on history).
uint64_t ContentFnv(const TrainSample& sample) {
  uint64_t h = MixInteraction(kFnvOffset, sample.target);
  h = FnvMixU64(h, sample.context.size());
  for (const data::Interaction& it : sample.context) h = MixInteraction(h, it);
  return h;
}

void AppendSample(std::string* out, const TrainSample& sample) {
  AppendPod<uint64_t>(out, sample.student_fnv);
  AppendPod<int64_t>(out, sample.index);
  AppendInteraction(out, sample.target);
  AppendPod<uint32_t>(out, static_cast<uint32_t>(sample.context.size()));
  for (const data::Interaction& it : sample.context) {
    AppendInteraction(out, it);
  }
}

}  // namespace

void AppendSamples(const std::vector<TrainSample>& samples,
                   std::string* out) {
  AppendPod<uint64_t>(out, samples.size());
  for (const TrainSample& sample : samples) AppendSample(out, sample);
}

bool ParseSamples(const char* data, size_t size,
                  std::vector<TrainSample>* out) {
  out->clear();
  BinCursor cursor(data, size);
  uint64_t count = 0;
  if (!cursor.Read(&count)) return false;
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TrainSample sample;
    if (!ReadSample(&cursor, &sample)) {
      out->clear();
      return false;
    }
    out->push_back(std::move(sample));
  }
  if (!cursor.done()) {
    out->clear();
    return false;
  }
  return true;
}

uint64_t HashStudent(std::string_view student) { return Fnv1a(student); }

uint64_t SamplePriority(uint64_t seed, uint64_t student_fnv, int64_t index) {
  return Splitmix64(seed ^ Splitmix64(student_fnv ^
                                      Splitmix64(static_cast<uint64_t>(index))));
}

Reservoir::Reservoir(int64_t capacity, uint64_t seed)
    : capacity_(std::max<int64_t>(1, capacity)), seed_(seed) {
  entries_.reserve(static_cast<size_t>(capacity_) + 1);
}

bool Reservoir::KeyLess(const Entry& a, const Entry& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.sample.student_fnv != b.sample.student_fnv) {
    return a.sample.student_fnv < b.sample.student_fnv;
  }
  if (a.sample.index != b.sample.index) return a.sample.index < b.sample.index;
  return a.content_fnv < b.content_fnv;
}

void Reservoir::OfferEntry(Entry entry) {
  if (static_cast<int64_t>(entries_.size()) < capacity_) {
    entries_.push_back(std::move(entry));
    std::push_heap(entries_.begin(), entries_.end(), KeyLess);
    return;
  }
  // Full: the new entry displaces the current maximum iff it sorts below.
  if (!KeyLess(entry, entries_.front())) return;
  std::pop_heap(entries_.begin(), entries_.end(), KeyLess);
  entries_.back() = std::move(entry);
  std::push_heap(entries_.begin(), entries_.end(), KeyLess);
}

void Reservoir::Offer(TrainSample sample) {
  Entry entry;
  entry.priority = SamplePriority(seed_, sample.student_fnv, sample.index);
  entry.content_fnv = ContentFnv(sample);
  entry.sample = std::move(sample);
  OfferEntry(std::move(entry));
}

void Reservoir::MergeFrom(Reservoir* other) {
  for (Entry& entry : other->entries_) {
    // Priorities are a pure function of (seed, student, index); recompute
    // under OUR seed in case the partials were built with another one.
    entry.priority =
        SamplePriority(seed_, entry.sample.student_fnv, entry.sample.index);
    OfferEntry(std::move(entry));
  }
  other->entries_.clear();
}

std::vector<const TrainSample*> Reservoir::Ordered() const {
  std::vector<const Entry*> order;
  order.reserve(entries_.size());
  for (const Entry& entry : entries_) order.push_back(&entry);
  std::sort(order.begin(), order.end(),
            [](const Entry* a, const Entry* b) { return KeyLess(*a, *b); });
  std::vector<const TrainSample*> out;
  out.reserve(order.size());
  for (const Entry* entry : order) out.push_back(&entry->sample);
  return out;
}

uint64_t Reservoir::Digest() const {
  uint64_t h = kFnvOffset;
  for (const TrainSample* sample : Ordered()) {
    h = FnvMixU64(h, sample->student_fnv);
    h = FnvMixU64(h, static_cast<uint64_t>(sample->index));
    h = MixInteraction(h, sample->target);
    h = FnvMixU64(h, sample->context.size());
    for (const data::Interaction& it : sample->context) {
      h = MixInteraction(h, it);
    }
  }
  return h;
}

void Reservoir::Serialize(std::string* out) const {
  AppendPod<int64_t>(out, capacity_);
  AppendPod<uint64_t>(out, seed_);
  const auto ordered = Ordered();
  AppendPod<uint64_t>(out, ordered.size());
  for (const TrainSample* sample : ordered) AppendSample(out, *sample);
}

bool Reservoir::Deserialize(const char* data, size_t size) {
  entries_.clear();
  BinCursor cursor(data, size);
  int64_t capacity = 0;
  uint64_t seed = 0;
  uint64_t count = 0;
  if (!cursor.Read(&capacity) || capacity < 1 || !cursor.Read(&seed) ||
      !cursor.Read(&count) || count > static_cast<uint64_t>(capacity)) {
    return false;
  }
  capacity_ = capacity;
  seed_ = seed;
  for (uint64_t i = 0; i < count; ++i) {
    TrainSample sample;
    if (!ReadSample(&cursor, &sample)) {
      entries_.clear();
      return false;
    }
    Offer(std::move(sample));
  }
  if (!cursor.done()) {
    entries_.clear();
    return false;
  }
  return true;
}

}  // namespace continual
}  // namespace kt
