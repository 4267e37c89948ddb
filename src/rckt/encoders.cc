#include "rckt/encoders.h"

#include <cstdint>
#include <cstring>
#include <utility>

#include "autograd/ops.h"
#include "core/binio.h"
#include "core/parallel.h"

namespace kt {
namespace rckt {

namespace {

// Concrete forward-stream states. Recurrent streams hold one [1, hidden]
// state per layer; the attention stream holds one KV cache per block.
struct LstmStreamState : ForwardStreamState {
  std::vector<nn::LSTMCell::State> layers;
};

struct GruStreamState : ForwardStreamState {
  std::vector<ag::Variable> layers;  // hidden rows, each [1, hidden]
};

struct AttentionStreamState : ForwardStreamState {
  std::vector<nn::AttentionKVCache> caches;
};

// Copies row `row` of a [k, d] tensor into a fresh [1, d] tensor.
Tensor CopyRow(const Tensor& t, int64_t row) {
  const int64_t d = t.size(1);
  Tensor out(Shape{1, d});
  std::memcpy(out.data(), t.data() + row * d,
              static_cast<size_t>(d) * sizeof(float));
  return out;
}

// Stacks k [1, d] rows into one [k, d] tensor.
Tensor StackRows(const std::vector<Tensor>& rows) {
  const int64_t k = static_cast<int64_t>(rows.size());
  const int64_t d = rows[0].size(1);
  Tensor out(Shape{k, d});
  for (int64_t i = 0; i < k; ++i) {
    KT_CHECK_EQ(rows[static_cast<size_t>(i)].numel(), d);
    std::memcpy(out.data() + i * d, rows[static_cast<size_t>(i)].data(),
                static_cast<size_t>(d) * sizeof(float));
  }
  return out;
}

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
  const int64_t b = forward_stream.size(0);
  const int64_t t = forward_stream.size(1);
  const int64_t d = forward_stream.size(2);
  ag::Variable zeros = ag::Constant(Tensor::Zeros(Shape{b, 1, d}));
  // fwd_{i-1}: shift right; bwd_{i+1}: shift left.
  ag::Variable f_shift =
      ag::Concat({zeros, ag::Slice(forward_stream, 1, 0, t - 1)}, 1);
  ag::Variable b_shift =
      ag::Concat({ag::Slice(backward_stream, 1, 1, t), zeros}, 1);
  return ag::Add(f_shift, b_shift);
}

BiLstmEncoder::BiLstmEncoder(int64_t dim, int64_t num_layers, float dropout_p,
                             Rng& rng)
    : dropout_p_(dropout_p) {
  KT_CHECK_GT(num_layers, 0);
  for (int64_t l = 0; l < num_layers; ++l) {
    forward_layers_.push_back(std::make_unique<nn::LSTM>(dim, dim, rng));
    RegisterChild("fwd" + std::to_string(l), forward_layers_.back().get());
    backward_layers_.push_back(std::make_unique<nn::LSTM>(dim, dim, rng));
    RegisterChild("bwd" + std::to_string(l), backward_layers_.back().get());
  }
}

ag::Variable BiLstmEncoder::Encode(const ag::Variable& a,
                                   const nn::Context& ctx) {
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

BiGruEncoder::BiGruEncoder(int64_t dim, int64_t num_layers, float dropout_p,
                           Rng& rng)
    : dropout_p_(dropout_p) {
  KT_CHECK_GT(num_layers, 0);
  for (int64_t l = 0; l < num_layers; ++l) {
    forward_layers_.push_back(std::make_unique<nn::GRU>(dim, dim, rng));
    RegisterChild("fwd" + std::to_string(l), forward_layers_.back().get());
    backward_layers_.push_back(std::make_unique<nn::GRU>(dim, dim, rng));
    RegisterChild("bwd" + std::to_string(l), backward_layers_.back().get());
  }
}

ag::Variable BiGruEncoder::Encode(const ag::Variable& a,
                                  const nn::Context& ctx) {
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

Tensor BiEncoder::StepForwardRun(ForwardStreamState& state,
                                 const Tensor& a_run) const {
  const int64_t s = a_run.size(1);
  const int64_t d = a_run.size(2);
  Tensor out(Shape{1, s, d});
  for (int64_t t = 0; t < s; ++t) {
    Tensor row(Shape{1, d});
    std::memcpy(row.data(), a_run.data() + t * d,
                static_cast<size_t>(d) * sizeof(float));
    const Tensor f = StepForward(state, row);
    KT_CHECK_EQ(f.numel(), d);
    std::memcpy(out.data() + t * d, f.data(),
                static_cast<size_t>(d) * sizeof(float));
  }
  return out;
}

std::unique_ptr<ForwardStreamState> BiEncoder::CloneStreamPrefix(
    const ForwardStreamState& /*state*/, int64_t /*prefix_len*/) const {
  return nullptr;
}

std::vector<Tensor> BiEncoder::StepForwardMany(
    const std::vector<ForwardStreamState*>& states,
    const std::vector<Tensor>& a_rows) const {
  KT_CHECK_EQ(states.size(), a_rows.size());
  std::vector<Tensor> out(states.size());
  // Streams are independent, so per-row steps can run on the pool; each
  // StepForward is internally grad-free and bit-deterministic.
  ParallelFor(0, static_cast<int64_t>(states.size()), /*grain=*/1,
              [&](int64_t i) {
                const size_t s = static_cast<size_t>(i);
                out[s] = StepForward(*states[s], a_rows[s]);
              });
  return out;
}

std::unique_ptr<ForwardStreamState> BiLstmEncoder::NewForwardStream() const {
  auto state = std::make_unique<LstmStreamState>();
  state->layers.reserve(forward_layers_.size());
  for (const auto& layer : forward_layers_) {
    state->layers.push_back(layer->cell().InitialState(1));
  }
  return state;
}

Tensor BiLstmEncoder::StepForward(ForwardStreamState& state,
                                  const Tensor& a_row) const {
  ag::NoGradGuard no_grad;
  auto& s = static_cast<LstmStreamState&>(state);
  KT_CHECK_EQ(s.layers.size(), forward_layers_.size());
  ag::Variable x = ag::Constant(a_row);  // [1, d]
  for (size_t l = 0; l < forward_layers_.size(); ++l) {
    s.layers[l] = forward_layers_[l]->cell().Forward(x, s.layers[l]);
    x = s.layers[l].h;
  }
  return x.value();
}

std::vector<Tensor> BiLstmEncoder::StepForwardMany(
    const std::vector<ForwardStreamState*>& states,
    const std::vector<Tensor>& a_rows) const {
  KT_CHECK_EQ(states.size(), a_rows.size());
  const int64_t k = static_cast<int64_t>(states.size());
  if (k == 1) return {StepForward(*states[0], a_rows[0])};
  ag::NoGradGuard no_grad;
  // Stack the k independent streams into one [k, d] cell step per layer;
  // every GEMM row is its own accumulator chain, so row i of the stacked
  // step is bitwise the single-stream step.
  ag::Variable x = ag::Constant(StackRows(a_rows));
  for (size_t l = 0; l < forward_layers_.size(); ++l) {
    std::vector<Tensor> hs(static_cast<size_t>(k)), cs(static_cast<size_t>(k));
    for (int64_t i = 0; i < k; ++i) {
      auto& s = static_cast<LstmStreamState&>(*states[static_cast<size_t>(i)]);
      KT_CHECK_EQ(s.layers.size(), forward_layers_.size());
      hs[static_cast<size_t>(i)] = s.layers[l].h.value();
      cs[static_cast<size_t>(i)] = s.layers[l].c.value();
    }
    nn::LSTMCell::State stacked{ag::Constant(StackRows(hs)),
                                ag::Constant(StackRows(cs))};
    stacked = forward_layers_[l]->cell().Forward(x, stacked);
    for (int64_t i = 0; i < k; ++i) {
      auto& s = static_cast<LstmStreamState&>(*states[static_cast<size_t>(i)]);
      s.layers[l].h = ag::Constant(CopyRow(stacked.h.value(), i));
      s.layers[l].c = ag::Constant(CopyRow(stacked.c.value(), i));
    }
    x = stacked.h;
  }
  std::vector<Tensor> out(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    out[static_cast<size_t>(i)] = CopyRow(x.value(), i);
  }
  return out;
}

Tensor BiLstmEncoder::ReplayForward(ForwardStreamState& state,
                                    const Tensor& a_seq) const {
  ag::NoGradGuard no_grad;
  auto& s = static_cast<LstmStreamState&>(state);
  s.layers.clear();
  ag::Variable f = ag::Constant(a_seq);  // [1, T, d]
  for (const auto& layer : forward_layers_) {
    nn::LSTMCell::State final_state;
    f = layer->Forward(f, /*reverse=*/false, nullptr, &final_state);
    s.layers.push_back(final_state);
  }
  return f.value();
}

Tensor BiLstmEncoder::StepForwardRun(ForwardStreamState& state,
                                     const Tensor& a_run) const {
  ag::NoGradGuard no_grad;
  auto& s = static_cast<LstmStreamState&>(state);
  KT_CHECK_EQ(s.layers.size(), forward_layers_.size());
  // Chunked layer pass seeded with the stream state: bit-identical to S
  // single StepForward calls by the LSTM::Forward chunking contract.
  ag::Variable f = ag::Constant(a_run);  // [1, S, d]
  for (size_t l = 0; l < forward_layers_.size(); ++l) {
    nn::LSTMCell::State final_state;
    f = forward_layers_[l]->Forward(f, /*reverse=*/false, &s.layers[l],
                                    &final_state);
    s.layers[l] = final_state;
  }
  return f.value();
}

size_t BiLstmEncoder::StateBytes(int64_t /*history_len*/) const {
  return forward_layers_.size() * 2 *
         static_cast<size_t>(forward_layers_[0]->hidden_size()) *
         sizeof(float);
}

void BiLstmEncoder::SerializeStream(const ForwardStreamState& state,
                                    std::string* out) const {
  const auto& s = static_cast<const LstmStreamState&>(state);
  AppendPod<uint32_t>(out, static_cast<uint32_t>(s.layers.size()));
  for (const auto& layer : s.layers) {
    AppendRow(out, layer.h.value());
    AppendRow(out, layer.c.value());
  }
}

std::unique_ptr<ForwardStreamState> BiLstmEncoder::DeserializeStream(
    const char* data, size_t size) const {
  BinCursor cursor(data, size);
  uint32_t layers = 0;
  if (!cursor.Read(&layers) || layers != forward_layers_.size())
    return nullptr;
  const int64_t hidden = forward_layers_[0]->hidden_size();
  auto state = std::make_unique<LstmStreamState>();
  state->layers.reserve(layers);
  for (uint32_t l = 0; l < layers; ++l) {
    Tensor h, c;
    if (!ReadRow(&cursor, hidden, &h) || !ReadRow(&cursor, hidden, &c))
      return nullptr;
    state->layers.push_back(
        nn::LSTMCell::State{ag::Constant(h), ag::Constant(c)});
  }
  if (!cursor.done()) return nullptr;
  return state;
}

std::unique_ptr<ForwardStreamState> BiGruEncoder::NewForwardStream() const {
  auto state = std::make_unique<GruStreamState>();
  state->layers.reserve(forward_layers_.size());
  for (const auto& layer : forward_layers_) {
    state->layers.push_back(layer->cell().InitialState(1));
  }
  return state;
}

Tensor BiGruEncoder::StepForward(ForwardStreamState& state,
                                 const Tensor& a_row) const {
  ag::NoGradGuard no_grad;
  auto& s = static_cast<GruStreamState&>(state);
  KT_CHECK_EQ(s.layers.size(), forward_layers_.size());
  ag::Variable x = ag::Constant(a_row);
  for (size_t l = 0; l < forward_layers_.size(); ++l) {
    s.layers[l] = forward_layers_[l]->cell().Forward(x, s.layers[l]);
    x = s.layers[l];
  }
  return x.value();
}

std::vector<Tensor> BiGruEncoder::StepForwardMany(
    const std::vector<ForwardStreamState*>& states,
    const std::vector<Tensor>& a_rows) const {
  KT_CHECK_EQ(states.size(), a_rows.size());
  const int64_t k = static_cast<int64_t>(states.size());
  if (k == 1) return {StepForward(*states[0], a_rows[0])};
  ag::NoGradGuard no_grad;
  ag::Variable x = ag::Constant(StackRows(a_rows));
  for (size_t l = 0; l < forward_layers_.size(); ++l) {
    std::vector<Tensor> hs(static_cast<size_t>(k));
    for (int64_t i = 0; i < k; ++i) {
      auto& s = static_cast<GruStreamState&>(*states[static_cast<size_t>(i)]);
      KT_CHECK_EQ(s.layers.size(), forward_layers_.size());
      hs[static_cast<size_t>(i)] = s.layers[l].value();
    }
    ag::Variable stacked = forward_layers_[l]->cell().Forward(
        x, ag::Constant(StackRows(hs)));
    for (int64_t i = 0; i < k; ++i) {
      auto& s = static_cast<GruStreamState&>(*states[static_cast<size_t>(i)]);
      s.layers[l] = ag::Constant(CopyRow(stacked.value(), i));
    }
    x = stacked;
  }
  std::vector<Tensor> out(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    out[static_cast<size_t>(i)] = CopyRow(x.value(), i);
  }
  return out;
}

Tensor BiGruEncoder::ReplayForward(ForwardStreamState& state,
                                   const Tensor& a_seq) const {
  ag::NoGradGuard no_grad;
  auto& s = static_cast<GruStreamState&>(state);
  s.layers.clear();
  ag::Variable f = ag::Constant(a_seq);
  for (const auto& layer : forward_layers_) {
    ag::Variable final_state;
    f = layer->Forward(f, /*reverse=*/false, nullptr, &final_state);
    s.layers.push_back(final_state);
  }
  return f.value();
}

Tensor BiGruEncoder::StepForwardRun(ForwardStreamState& state,
                                    const Tensor& a_run) const {
  ag::NoGradGuard no_grad;
  auto& s = static_cast<GruStreamState&>(state);
  KT_CHECK_EQ(s.layers.size(), forward_layers_.size());
  ag::Variable f = ag::Constant(a_run);  // [1, S, d]
  for (size_t l = 0; l < forward_layers_.size(); ++l) {
    ag::Variable final_state;
    f = forward_layers_[l]->Forward(f, /*reverse=*/false, &s.layers[l],
                                    &final_state);
    s.layers[l] = final_state;
  }
  return f.value();
}

void BiGruEncoder::SerializeStream(const ForwardStreamState& state,
                                   std::string* out) const {
  const auto& s = static_cast<const GruStreamState&>(state);
  AppendPod<uint32_t>(out, static_cast<uint32_t>(s.layers.size()));
  for (const auto& layer : s.layers) AppendRow(out, layer.value());
}

std::unique_ptr<ForwardStreamState> BiGruEncoder::DeserializeStream(
    const char* data, size_t size) const {
  BinCursor cursor(data, size);
  uint32_t layers = 0;
  if (!cursor.Read(&layers) || layers != forward_layers_.size())
    return nullptr;
  const int64_t hidden = forward_layers_[0]->hidden_size();
  auto state = std::make_unique<GruStreamState>();
  state->layers.reserve(layers);
  for (uint32_t l = 0; l < layers; ++l) {
    Tensor h;
    if (!ReadRow(&cursor, hidden, &h)) return nullptr;
    state->layers.push_back(ag::Constant(h));
  }
  if (!cursor.done()) return nullptr;
  return state;
}

size_t BiGruEncoder::StateBytes(int64_t /*history_len*/) const {
  return forward_layers_.size() *
         static_cast<size_t>(forward_layers_[0]->hidden_size()) *
         sizeof(float);
}

std::unique_ptr<ForwardStreamState> BiAttentionEncoder::NewForwardStream()
    const {
  auto state = std::make_unique<AttentionStreamState>();
  state->caches.resize(forward_blocks_.size());
  return state;
}

Tensor BiAttentionEncoder::StepForward(ForwardStreamState& state,
                                       const Tensor& a_row) const {
  ag::NoGradGuard no_grad;
  auto& s = static_cast<AttentionStreamState&>(state);
  KT_CHECK_EQ(s.caches.size(), forward_blocks_.size());
  ag::Variable x =
      ag::Constant(a_row.Reshape(Shape{1, 1, a_row.size(1)}));
  for (size_t l = 0; l < forward_blocks_.size(); ++l) {
    x = forward_blocks_[l]->StepCausal(x, s.caches[l]);
  }
  return x.value().Reshape(Shape{1, dim_});
}

Tensor BiAttentionEncoder::ReplayForward(ForwardStreamState& state,
                                         const Tensor& a_seq) const {
  ag::NoGradGuard no_grad;
  auto& s = static_cast<AttentionStreamState&>(state);
  s.caches.assign(forward_blocks_.size(), nn::AttentionKVCache{});
  const int64_t t = a_seq.size(1);
  const Tensor causal =
      nn::MakeAttentionMask(t, nn::AttentionMaskKind::kCausalInclusive);
  const nn::Context inference;
  ag::Variable f = ag::Constant(a_seq);
  for (size_t l = 0; l < forward_blocks_.size(); ++l) {
    f = forward_blocks_[l]->Forward(f, causal, inference, nullptr,
                                    &s.caches[l]);
  }
  return f.value();
}

Tensor BiAttentionEncoder::StepForwardRun(ForwardStreamState& state,
                                          const Tensor& a_run) const {
  ag::NoGradGuard no_grad;
  auto& s = static_cast<AttentionStreamState&>(state);
  KT_CHECK_EQ(s.caches.size(), forward_blocks_.size());
  ag::Variable x = ag::Constant(a_run);  // [1, S, d]
  for (size_t l = 0; l < forward_blocks_.size(); ++l) {
    x = forward_blocks_[l]->StepCausalRun(x, s.caches[l]);
  }
  return x.value();
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
    const char* data, size_t size) const {
  BinCursor cursor(data, size);
  uint32_t blocks = 0;
  if (!cursor.Read(&blocks) || blocks != forward_blocks_.size())
    return nullptr;
  auto state = std::make_unique<AttentionStreamState>();
  state->caches.resize(blocks);
  for (uint32_t l = 0; l < blocks; ++l) {
    nn::AttentionKVCache& cache = state->caches[l];
    if (!cursor.Read(&cache.len) || cache.len < 0) return nullptr;
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
      return std::make_unique<BiLstmEncoder>(dim, num_layers, dropout_p, rng);
    case EncoderKind::kSAKT:
      return std::make_unique<BiAttentionEncoder>(
          dim, num_layers, num_heads, dropout_p, /*monotonic=*/false, rng);
    case EncoderKind::kAKT:
      return std::make_unique<BiAttentionEncoder>(
          dim, num_layers, num_heads, dropout_p, /*monotonic=*/true, rng);
    case EncoderKind::kGRU:
      return std::make_unique<BiGruEncoder>(dim, num_layers, dropout_p, rng);
  }
  KT_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace rckt
}  // namespace kt
