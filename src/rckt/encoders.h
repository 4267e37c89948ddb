// Bidirectional knowledge-state encoders (paper Eq. 25).
//
// h_i = FwdEnc(a_{0..i-1}) + BwdEnc(a_{i+1..T-1}):
// a forward stream summarizing everything strictly before i plus a backward
// stream summarizing everything strictly after i. The two streams never mix
// until the final shift-and-add, which guarantees the encoder output at
// position i carries NO information about a_i itself — essential, because
// a_i contains the response label the probability generator predicts, and
// any multi-layer bidirectional mixing (a BERT-style no-self mask) would
// leak it through two hops.
//
// Two flavors adapt the sequential encoders of DKT, SAKT and AKT
// (paper Sec. V-A4):
//   * a recurrent encoder   — stacked LSTMs (RCKT-DKT) or GRUs (RCKT-GRU)
//     per direction (nn::Recurrent) behind MakeBiEncoder,
//   * BiAttentionEncoder    — stacked transformer blocks with causal /
//     anticausal inclusive masks; standard dot-product attention (RCKT-SAKT)
//     or monotonic distance-decay attention (RCKT-AKT).
#ifndef KT_RCKT_ENCODERS_H_
#define KT_RCKT_ENCODERS_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/module.h"

namespace kt {
namespace rckt {

// kGRU is an extension beyond the paper's three variants, demonstrating
// the encoder adaptivity claim with a fourth sequential core.
enum class EncoderKind { kDKT, kSAKT, kAKT, kGRU };
const char* EncoderKindName(EncoderKind kind);

// Opaque incremental state of one student's FORWARD stream (kt::serve).
// Concrete encoders define what lives inside: recurrent cells keep O(1)
// hidden/cell rows, attention keeps append-only KV caches that grow with
// the history. Destroying the state frees everything.
struct ForwardStreamState {
  virtual ~ForwardStreamState() = default;
};

class BiEncoder : public nn::Module {
 public:
  ~BiEncoder() override = default;

  // `a` is [B, T, d]; the result [B, T, d] at position i depends only on
  // positions j != i (j < i through the forward stream, j > i backward).
  virtual ag::Variable Encode(const ag::Variable& a,
                              const nn::Context& ctx) = 0;

  // --- Incremental forward-stream API (online serving) ---------------------
  //
  // An online predict request targets the LAST position of a session, and
  // ShiftAndAdd gives h_target = fwd_{T-2} + 0: the backward stream's
  // contribution at the final position is the zero boundary row. Serving
  // therefore only ever advances the forward stream, and StepForwardRun is
  // bit-identical (at any thread count) to the corresponding rows of an
  // inference-mode Encode over the full sequence. All methods run grad-free
  // internally.

  // Fresh zero-history stream.
  virtual std::unique_ptr<ForwardStreamState> NewForwardStream() const = 0;

  // Advances k distinct, independent streams by S interactions each: `a`
  // is [k, S, d], row i holding the embedded interactions (a_t) that
  // continue `*states[i]`. Returns the forward-stream outputs [k, S, d]:
  // row i, position s is bitwise row len_i + s (pre-call length) of the
  // forward stream inside Encode over stream i's whole history, however
  // that history was split into runs and however streams were grouped.
  // One row per stream is an update; a whole history from a fresh stream
  // is a replay (used when a session's neural state was evicted but its
  // history kept); a short suffix from a rewound stream is the serve
  // recourse replay (DESIGN.md §15). Recurrent encoders stack the streams'
  // states into one seeded layer pass, the path training runs; attention
  // encoders decode each stream's run against its own KV caches on the
  // thread pool.
  virtual Tensor StepForwardRun(const std::vector<ForwardStreamState*>& states,
                                const Tensor& a) const = 0;

  // Clone the stream as it stood after its first `prefix_len` steps, in
  // O(bytes), never touching the source. Attention KV caches are
  // append-only, so their first `prefix_len` rows ARE that state. Recurrent
  // encoders fold history into O(1) rows: they clone only at full length
  // and return nullptr for a shorter prefix, which callers then replay.
  virtual std::unique_ptr<ForwardStreamState> CloneStreamPrefix(
      const ForwardStreamState& state, int64_t prefix_len) const;

  // Bytes of neural state one stream holds after `history_len` steps (for
  // the session store's memory budget). O(1) for recurrent encoders,
  // O(history_len) for attention KV caches.
  virtual size_t StateBytes(int64_t history_len) const = 0;

  // --- Cold-tier stream (de)serialization (kt::serve) ----------------------
  //
  // Appends the stream state to `out` as raw little-endian float bytes, so
  // a deserialized stream is BIT-IDENTICAL to the serialized one — the
  // property the serve cold tier's "reload equals replay rebuild" contract
  // rests on. `len` is the stream's step count (its history length), which
  // recurrent bytes do not record. DeserializeStream returns nullptr on
  // truncated, shape-incompatible (e.g. another layer count) or
  // length-mismatched payloads; callers then fall back to a replay rebuild.
  virtual void SerializeStream(const ForwardStreamState& state,
                               std::string* out) const = 0;
  virtual std::unique_ptr<ForwardStreamState> DeserializeStream(
      const char* data, size_t size, int64_t len) const = 0;
};

class BiAttentionEncoder : public BiEncoder {
 public:
  BiAttentionEncoder(int64_t dim, int64_t num_layers, int64_t num_heads,
                     float dropout_p, bool monotonic, Rng& rng);
  ag::Variable Encode(const ag::Variable& a, const nn::Context& ctx) override;

  std::unique_ptr<ForwardStreamState> NewForwardStream() const override;
  Tensor StepForwardRun(const std::vector<ForwardStreamState*>& states,
                        const Tensor& a) const override;
  std::unique_ptr<ForwardStreamState> CloneStreamPrefix(
      const ForwardStreamState& state, int64_t prefix_len) const override;
  size_t StateBytes(int64_t history_len) const override;
  void SerializeStream(const ForwardStreamState& state,
                       std::string* out) const override;
  std::unique_ptr<ForwardStreamState> DeserializeStream(
      const char* data, size_t size, int64_t len) const override;

 private:
  int64_t dim_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> forward_blocks_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> backward_blocks_;
};

// Factory over the three paper variants and RCKT-GRU.
std::unique_ptr<BiEncoder> MakeBiEncoder(EncoderKind kind, int64_t dim,
                                         int64_t num_layers,
                                         int64_t num_heads, float dropout_p,
                                         Rng& rng);

// Combines per-direction streams: out_i = fwd_{i-1} + bwd_{i+1} with zero
// boundaries, as one tape node that keeps nothing for backward. Values and
// gradients equal the composed Slice/Concat/Add chain
// (ComposedShiftAndAdd in tests/composed_reference.h) bit for bit.
ag::Variable ShiftAndAdd(const ag::Variable& forward_stream,
                         const ag::Variable& backward_stream);

}  // namespace rckt
}  // namespace kt

#endif  // KT_RCKT_ENCODERS_H_
