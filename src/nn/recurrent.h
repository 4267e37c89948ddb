// Gated recurrent layers: LSTM and GRU (Cho et al., 2014), optionally
// reversed.
//
// DKT's sequential encoder and RCKT's bidirectional encoder are built from
// LSTMs. The GRU exists to demonstrate the "adaptive" claim of RCKT's
// knowledge-state encoder (Sec. IV-D1: the encoder "can be adapted to
// multiple KT sequence encoders") with a fourth sequential core (RCKT-GRU,
// see rckt/encoders.h); no paper baseline uses it. A layer call is one
// ag::RecurrentLayer node, which runs the whole recurrence and its
// backpropagation through time.
#ifndef KT_NN_RECURRENT_H_
#define KT_NN_RECURRENT_H_

#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"

namespace kt {
namespace nn {

class Recurrent : public Module {
 public:
  // The state rows, [B, hidden] each: {h, c} for an LSTM, {h} for a GRU.
  using State = std::vector<ag::Variable>;

  // Parameters "cell.w_x" [input, G*hidden], "cell.w_h" [hidden, G*hidden]
  // and "cell.bias" [G*hidden], gate blocks as ag::RecurrentLayer orders
  // them. An LSTM's forget-gate bias starts at 1 to ease gradient flow
  // early in training.
  Recurrent(ag::RecurrentCell cell, int64_t input_size, int64_t hidden_size,
            Rng& rng);

  // x is [B, T, input]; returns all hidden states [B, T, hidden].
  // When `reverse` is true the sequence is processed from t = T-1 to 0 and
  // the output at position t is the state after consuming x_t from the
  // right (as needed by bidirectional encoders).
  //
  // `initial` seeds the recurrence at the first consumed step (t = 0, or
  // t = T-1 under `reverse`); nullptr means the zero state. `final_state`,
  // when non-null, receives the state after the last consumed step as
  // constants, and may only be asked for under ag::NoGradGuard. A sequence
  // can be processed in chunks: Forward on x[:, :k] capturing the final
  // state, then Forward on x[:, k:] seeded with it, is bit-identical to one
  // Forward over the whole sequence (incremental decode relies on this;
  // see kt::serve). Every batch row is an independent recurrence.
  ag::Variable Forward(const ag::Variable& x, bool reverse = false,
                       const State* initial = nullptr,
                       State* final_state = nullptr) const;

  // Zero-filled initial state for batch size `batch`.
  State InitialState(int64_t batch) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  ag::RecurrentCell cell_;
  int64_t hidden_size_;
  ag::Variable w_x_;
  ag::Variable w_h_;
  ag::Variable bias_;
};

class LSTM : public Recurrent {
 public:
  LSTM(int64_t input_size, int64_t hidden_size, Rng& rng)
      : Recurrent(ag::RecurrentCell::kLstm, input_size, hidden_size, rng) {}
};

class GRU : public Recurrent {
 public:
  GRU(int64_t input_size, int64_t hidden_size, Rng& rng)
      : Recurrent(ag::RecurrentCell::kGru, input_size, hidden_size, rng) {}
};

}  // namespace nn
}  // namespace kt

#endif  // KT_NN_RECURRENT_H_
