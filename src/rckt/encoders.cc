#include "rckt/encoders.h"

#include <cstdint>
#include <cstring>
#include <utility>

#include "autograd/ops.h"
#include "core/binio.h"
#include "core/parallel.h"
#include "nn/recurrent.h"

namespace kt {
namespace rckt {

namespace {

struct AttentionStreamState : ForwardStreamState {
  std::vector<nn::AttentionKVCache> caches;  // one per forward block
};

// Stream serialization helpers: a [1, n] row is `u32 n` + n raw floats.
void AppendRow(std::string* out, const Tensor& row) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(row.numel()));
  AppendBytes(out, row.data(),
              static_cast<size_t>(row.numel()) * sizeof(float));
}

bool ReadRow(BinCursor* cursor, int64_t expect_numel, Tensor* out) {
  uint32_t numel = 0;
  if (!cursor->Read(&numel) ||
      static_cast<int64_t>(numel) != expect_numel) {
    return false;
  }
  Tensor row(Shape{1, expect_numel});
  if (!cursor->ReadBytes(row.data(),
                         static_cast<size_t>(expect_numel) * sizeof(float))) {
    return false;
  }
  *out = std::move(row);
  return true;
}

// Stacked LSTMs (RCKT-DKT) or GRUs (RCKT-GRU) per direction. A forward
// stream holds each layer's state rows, [1, hidden] each.
class BiRecurrentEncoder : public BiEncoder {
 public:
  using State = nn::Recurrent::State;

  BiRecurrentEncoder(ag::RecurrentCell cell, int64_t dim, int64_t num_layers,
                     float dropout_p, Rng& rng)
      : dropout_p_(dropout_p) {
    KT_CHECK_GT(num_layers, 0);
    for (int64_t l = 0; l < num_layers; ++l) {
      forward_layers_.push_back(
          std::make_unique<nn::Recurrent>(cell, dim, dim, rng));
      RegisterChild("fwd" + std::to_string(l), forward_layers_.back().get());
      backward_layers_.push_back(
          std::make_unique<nn::Recurrent>(cell, dim, dim, rng));
      RegisterChild("bwd" + std::to_string(l), backward_layers_.back().get());
    }
    state_rows_ = forward_layers_[0]->InitialState(1).size();
  }

  ag::Variable Encode(const ag::Variable& a, const nn::Context& ctx) override {
    ag::Variable f = a;
    for (const auto& layer : forward_layers_) {
      f = layer->Forward(f, /*reverse=*/false);
      f = ag::Dropout(f, dropout_p_, ctx.rng, ctx.rng_count, ctx.train);
    }
    ag::Variable b = a;
    for (const auto& layer : backward_layers_) {
      b = layer->Forward(b, /*reverse=*/true);
      b = ag::Dropout(b, dropout_p_, ctx.rng, ctx.rng_count, ctx.train);
    }
    return ShiftAndAdd(f, b);
  }

  std::unique_ptr<ForwardStreamState> NewForwardStream() const override {
    auto stream = std::make_unique<Stream>();
    for (const auto& layer : forward_layers_) {
      stream->layers.push_back(layer->InitialState(1));
    }
    return stream;
  }

  Tensor StepForwardRun(const std::vector<ForwardStreamState*>& states,
                        const Tensor& a) const override {
    ag::NoGradGuard no_grad;
    const int64_t k = static_cast<int64_t>(states.size());
    KT_CHECK_EQ(a.size(0), k);
    for (ForwardStreamState* state : states) {
      KT_CHECK_EQ(Layers(state).size(), forward_layers_.size());
    }
    // The k streams are the batch rows of the layer pass training runs,
    // seeded with their stacked states. Every GEMM row is its own
    // ascending-k accumulator chain and the layer's chunking contract makes
    // a seeded pass equal the steps it continues, so row i is bitwise
    // stream i run alone, step by step.
    ag::Variable f = ag::Constant(a);
    for (size_t l = 0; l < forward_layers_.size(); ++l) {
      State stacked;
      for (size_t r = 0; r < state_rows_; ++r) {
        std::vector<Tensor> parts;
        for (ForwardStreamState* state : states) {
          parts.push_back(Layers(state)[l][r].value());
        }
        stacked.push_back(ag::Constant(Tensor::Concat(parts, 0)));
      }
      State final_state;
      f = forward_layers_[l]->Forward(f, /*reverse=*/false, &stacked,
                                      &final_state);
      for (int64_t i = 0; i < k; ++i) {
        State& rows = Layers(states[static_cast<size_t>(i)])[l];
        for (size_t r = 0; r < state_rows_; ++r) {
          rows[r] = ag::Constant(final_state[r].value().Slice(0, i, i + 1));
        }
      }
    }
    for (ForwardStreamState* state : states) {
      static_cast<Stream*>(state)->len += a.size(1);
    }
    return f.value();
  }

  // The folded rows hold no earlier state, so only the full-length stream
  // clones. A step replaces the state rows and never writes them, so the
  // clone shares them.
  std::unique_ptr<ForwardStreamState> CloneStreamPrefix(
      const ForwardStreamState& state, int64_t prefix_len) const override {
    const auto& stream = static_cast<const Stream&>(state);
    if (prefix_len != stream.len) return nullptr;
    return std::make_unique<Stream>(stream);
  }

  size_t StateBytes(int64_t /*history_len*/) const override {
    return forward_layers_.size() * state_rows_ *
           static_cast<size_t>(forward_layers_[0]->hidden_size()) *
           sizeof(float);
  }

  // `u32 layers`, then each layer's state rows in order.
  void SerializeStream(const ForwardStreamState& state,
                       std::string* out) const override {
    const auto& stream = static_cast<const Stream&>(state);
    AppendPod<uint32_t>(out, static_cast<uint32_t>(stream.layers.size()));
    for (const State& layer : stream.layers) {
      for (const ag::Variable& row : layer) AppendRow(out, row.value());
    }
  }

  std::unique_ptr<ForwardStreamState> DeserializeStream(
      const char* data, size_t size, int64_t len) const override {
    BinCursor cursor(data, size);
    uint32_t layers = 0;
    if (len < 0 || !cursor.Read(&layers) || layers != forward_layers_.size()) {
      return nullptr;
    }
    const int64_t hidden = forward_layers_[0]->hidden_size();
    auto stream = std::make_unique<Stream>();
    stream->len = len;
    stream->layers.resize(layers);
    for (State& layer : stream->layers) {
      for (size_t r = 0; r < state_rows_; ++r) {
        Tensor values;
        if (!ReadRow(&cursor, hidden, &values)) return nullptr;
        layer.push_back(ag::Constant(values));
      }
    }
    if (!cursor.done()) return nullptr;
    return stream;
  }

 private:
  struct Stream : ForwardStreamState {
    std::vector<State> layers;
    int64_t len = 0;  // steps taken
  };
  static std::vector<State>& Layers(ForwardStreamState* state) {
    return static_cast<Stream*>(state)->layers;
  }

  float dropout_p_;
  size_t state_rows_ = 0;
  std::vector<std::unique_ptr<nn::Recurrent>> forward_layers_;
  std::vector<std::unique_ptr<nn::Recurrent>> backward_layers_;
};

}  // namespace

const char* EncoderKindName(EncoderKind kind) {
  switch (kind) {
    case EncoderKind::kDKT:
      return "DKT";
    case EncoderKind::kSAKT:
      return "SAKT";
    case EncoderKind::kAKT:
      return "AKT";
    case EncoderKind::kGRU:
      return "GRU";
  }
  return "?";
}

ag::Variable ShiftAndAdd(const ag::Variable& forward_stream,
                         const ag::Variable& backward_stream) {
  const Tensor& fv = forward_stream.value();
  const Tensor& bv = backward_stream.value();
  KT_CHECK_EQ(fv.dim(), 3);
  KT_CHECK(fv.SameShape(bv));
  const int64_t b = fv.size(0);
  const int64_t t = fv.size(1);
  const int64_t d = fv.size(2);
  // out_i = fwd_{i-1} + bwd_{i+1}. The boundary terms are real adds of +0
  // (0 + bwd_1, fwd_{T-2} + 0), which turn -0 into +0.
  Tensor out = Tensor::Uninitialized(fv.shape());
  for (int64_t row = 0; row < b; ++row) {
    const float* f = fv.data() + row * t * d;
    const float* bw = bv.data() + row * t * d;
    float* o = out.data() + row * t * d;
    for (int64_t i = 0; i < t; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        const float left = i > 0 ? f[(i - 1) * d + j] : 0.0f;
        const float right = i + 1 < t ? bw[(i + 1) * d + j] : 0.0f;
        o[i * d + j] = left + right;
      }
    }
  }
  return ag::MakeOpNode(
      std::move(out), {forward_stream, backward_stream},
      [b, t, d](ag::internal::Node& self) {
        // Each stream gets the gradient shifted back, + 0, and +0 at the
        // position nothing read: the backward stream's first, then the
        // forward stream's, as the composed Slice scatters landed them.
        const float* g = self.grad.data();
        for (int stream = 1; stream >= 0; --stream) {
          ag::internal::Node* n = self.inputs[static_cast<size_t>(stream)].get();
          if (!n->requires_grad) continue;
          const int64_t shift = stream == 0 ? 1 : -1;  // grad_i = G_{i+shift}
          Tensor grad = Tensor::Uninitialized(n->value.shape());
          for (int64_t row = 0; row < b; ++row) {
            const float* gr = g + row * t * d;
            float* out_row = grad.data() + row * t * d;
            for (int64_t i = 0; i < t; ++i) {
              const int64_t from = i + shift;
              for (int64_t j = 0; j < d; ++j) {
                out_row[i * d + j] =
                    from >= 0 && from < t ? gr[from * d + j] + 0.0f : 0.0f;
              }
            }
          }
          n->AccumulateGrad(std::move(grad));
        }
      });
}

BiAttentionEncoder::BiAttentionEncoder(int64_t dim, int64_t num_layers,
                                       int64_t num_heads, float dropout_p,
                                       bool monotonic, Rng& rng)
    : dim_(dim) {
  KT_CHECK_GT(num_layers, 0);
  for (int64_t l = 0; l < num_layers; ++l) {
    forward_blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        dim, num_heads, dropout_p, monotonic, rng));
    RegisterChild("fwd" + std::to_string(l), forward_blocks_.back().get());
    backward_blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        dim, num_heads, dropout_p, monotonic, rng));
    RegisterChild("bwd" + std::to_string(l), backward_blocks_.back().get());
  }
}

ag::Variable BiAttentionEncoder::Encode(const ag::Variable& a,
                                        const nn::Context& ctx) {
  const int64_t t = a.size(1);
  const Tensor causal =
      nn::MakeAttentionMask(t, nn::AttentionMaskKind::kCausalInclusive);
  const Tensor anticausal =
      nn::MakeAttentionMask(t, nn::AttentionMaskKind::kAntiCausalInclusive);

  ag::Variable f = a;
  for (const auto& block : forward_blocks_) {
    f = block->Forward(f, causal, ctx);
  }
  ag::Variable b = a;
  for (const auto& block : backward_blocks_) {
    b = block->Forward(b, anticausal, ctx);
  }
  return ShiftAndAdd(f, b);
}

std::unique_ptr<ForwardStreamState> BiEncoder::CloneStreamPrefix(
    const ForwardStreamState& /*state*/, int64_t /*prefix_len*/) const {
  return nullptr;
}

std::unique_ptr<ForwardStreamState> BiAttentionEncoder::NewForwardStream()
    const {
  auto state = std::make_unique<AttentionStreamState>();
  state->caches.resize(forward_blocks_.size());
  return state;
}

Tensor BiAttentionEncoder::StepForwardRun(
    const std::vector<ForwardStreamState*>& states, const Tensor& a) const {
  const int64_t k = static_cast<int64_t>(states.size());
  KT_CHECK_EQ(a.size(0), k);
  Tensor out = Tensor::Uninitialized(a.shape());
  // Each stream decodes its run against its own KV caches, so the streams
  // run independently on the pool with disjoint writes.
  ParallelFor(0, k, /*grain=*/1, [&](int64_t i) {
    ag::NoGradGuard no_grad;
    auto& stream =
        static_cast<AttentionStreamState&>(*states[static_cast<size_t>(i)]);
    KT_CHECK_EQ(stream.caches.size(), forward_blocks_.size());
    ag::Variable x = ag::Constant(a.Slice(0, i, i + 1));  // [1, S, d]
    for (size_t l = 0; l < forward_blocks_.size(); ++l) {
      x = forward_blocks_[l]->StepCausalRun(x, stream.caches[l]);
    }
    const Tensor& rows = x.value();
    std::memcpy(out.data() + i * rows.numel(), rows.data(),
                static_cast<size_t>(rows.numel()) * sizeof(float));
  });
  return out;
}

std::unique_ptr<ForwardStreamState> BiAttentionEncoder::CloneStreamPrefix(
    const ForwardStreamState& state, int64_t prefix_len) const {
  const auto& s = static_cast<const AttentionStreamState&>(state);
  KT_CHECK_GE(prefix_len, 0);
  auto out = std::make_unique<AttentionStreamState>();
  out->caches.resize(s.caches.size());
  const size_t floats =
      static_cast<size_t>(prefix_len) * static_cast<size_t>(dim_);
  for (size_t l = 0; l < s.caches.size(); ++l) {
    const nn::AttentionKVCache& cache = s.caches[l];
    // A causal step never touches earlier cache rows, so the first
    // prefix_len rows ARE the state the prefix-only stream would hold.
    KT_CHECK_GE(cache.len, prefix_len);
    out->caches[l].len = prefix_len;
    out->caches[l].k.assign(cache.k.begin(),
                            cache.k.begin() + static_cast<int64_t>(floats));
    out->caches[l].v.assign(cache.v.begin(),
                            cache.v.begin() + static_cast<int64_t>(floats));
  }
  return out;
}

size_t BiAttentionEncoder::StateBytes(int64_t history_len) const {
  return forward_blocks_.size() * 2 * static_cast<size_t>(history_len) *
         static_cast<size_t>(dim_) * sizeof(float);
}

void BiAttentionEncoder::SerializeStream(const ForwardStreamState& state,
                                         std::string* out) const {
  const auto& s = static_cast<const AttentionStreamState&>(state);
  AppendPod<uint32_t>(out, static_cast<uint32_t>(s.caches.size()));
  for (const auto& cache : s.caches) {
    AppendPod<int64_t>(out, cache.len);
    AppendBytes(out, cache.k.data(), cache.k.size() * sizeof(float));
    AppendBytes(out, cache.v.data(), cache.v.size() * sizeof(float));
  }
}

std::unique_ptr<ForwardStreamState> BiAttentionEncoder::DeserializeStream(
    const char* data, size_t size, int64_t len) const {
  BinCursor cursor(data, size);
  uint32_t blocks = 0;
  if (!cursor.Read(&blocks) || blocks != forward_blocks_.size())
    return nullptr;
  auto state = std::make_unique<AttentionStreamState>();
  state->caches.resize(blocks);
  for (uint32_t l = 0; l < blocks; ++l) {
    nn::AttentionKVCache& cache = state->caches[l];
    if (!cursor.Read(&cache.len) || cache.len != len) return nullptr;
    const size_t floats =
        static_cast<size_t>(cache.len) * static_cast<size_t>(dim_);
    if (cursor.remaining() < 2 * floats * sizeof(float)) return nullptr;
    cache.k.resize(floats);
    cache.v.resize(floats);
    if (!cursor.ReadBytes(cache.k.data(), floats * sizeof(float)) ||
        !cursor.ReadBytes(cache.v.data(), floats * sizeof(float))) {
      return nullptr;
    }
  }
  if (!cursor.done()) return nullptr;
  return state;
}

std::unique_ptr<BiEncoder> MakeBiEncoder(EncoderKind kind, int64_t dim,
                                         int64_t num_layers,
                                         int64_t num_heads, float dropout_p,
                                         Rng& rng) {
  switch (kind) {
    case EncoderKind::kDKT:
      return std::make_unique<BiRecurrentEncoder>(
          ag::RecurrentCell::kLstm, dim, num_layers, dropout_p, rng);
    case EncoderKind::kSAKT:
      return std::make_unique<BiAttentionEncoder>(
          dim, num_layers, num_heads, dropout_p, /*monotonic=*/false, rng);
    case EncoderKind::kAKT:
      return std::make_unique<BiAttentionEncoder>(
          dim, num_layers, num_heads, dropout_p, /*monotonic=*/true, rng);
    case EncoderKind::kGRU:
      return std::make_unique<BiRecurrentEncoder>(
          ag::RecurrentCell::kGru, dim, num_layers, dropout_p, rng);
  }
  KT_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace rckt
}  // namespace kt
