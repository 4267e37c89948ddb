#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "composed_reference.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "nn/adam.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/module.h"
#include "nn/recurrent.h"
#include "rckt/encoders.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace kt {
namespace nn {
namespace {

TEST(LinearTest, ShapePreservesLeadingDims) {
  Rng rng(1);
  Linear linear(4, 3, rng);
  ag::Variable x = ag::Constant(Tensor::Uniform({2, 5, 4}, -1, 1, rng));
  ag::Variable y = linear.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 3}));
}

TEST(LinearTest, MatchesManualComputation) {
  Rng rng(2);
  Linear linear(2, 1, rng);
  auto params = linear.Parameters();
  ASSERT_EQ(params.size(), 2u);  // weight, bias
  Tensor w = params[0].value();
  Tensor b = params[1].value();
  ag::Variable x = ag::Constant(Tensor({1, 2}, {3.0f, -1.0f}));
  float expected = 3.0f * w.at({0, 0}) - 1.0f * w.at({1, 0}) + b.flat(0);
  EXPECT_NEAR(linear.Forward(x).value().item(), expected, 1e-5f);
}

TEST(LinearTest, GradCheck) {
  Rng rng(3);
  Linear linear(3, 2, rng);
  Tensor x = Tensor::Uniform({4, 3}, -1, 1, rng);
  std::vector<ag::Variable> params = linear.Parameters();
  ag::GradCheckResult result = ag::CheckGradients(
      [&](const std::vector<ag::Variable>&) {
        return ag::SumAll(linear.Forward(ag::Constant(x)));
      },
      params);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST(ModuleTest, ParameterCollectionAndNames) {
  Rng rng(4);
  Linear linear(3, 2, rng);
  EXPECT_EQ(linear.NumParameters(), 3 * 2 + 2);
  auto names = linear.ParameterNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "weight");
  EXPECT_EQ(names[1], "bias");
}

TEST(ModuleTest, StateCloneRoundTrip) {
  Rng rng(5);
  Linear linear(2, 2, rng);
  std::vector<Tensor> saved = linear.StateClone();
  linear.Parameters()[0].mutable_value().Fill(99.0f);
  linear.SetState(saved);
  EXPECT_TRUE(linear.Parameters()[0].value().AllClose(saved[0]));
}

TEST(EmbeddingTest, LookupAndShape) {
  Rng rng(6);
  Embedding emb(10, 4, rng);
  ag::Variable out = emb.Forward({3, 3, 7});
  EXPECT_EQ(out.shape(), (Shape{3, 4}));
  // Identical indices give identical rows.
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(out.value().at({0, c}), out.value().at({1, c}));
  }
}

TEST(LayerNormTest, NormalizesLastDim) {
  Rng rng(7);
  LayerNorm norm(6);
  ag::Variable x = ag::Constant(Tensor::Uniform({3, 6}, -4, 4, rng));
  Tensor y = norm.Forward(x).value();
  for (int64_t r = 0; r < 3; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int64_t c = 0; c < 6; ++c) mean += y.at({r, c});
    mean /= 6.0f;
    for (int64_t c = 0; c < 6; ++c)
      var += (y.at({r, c}) - mean) * (y.at({r, c}) - mean);
    var /= 6.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);  // gamma=1, beta=0 initially
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(LayerNormTest, GradCheck) {
  Rng rng(8);
  LayerNorm norm(4);
  Tensor x = Tensor::Uniform({2, 4}, -2, 2, rng);
  Tensor w = Tensor::Uniform({2, 4}, -1, 1, rng);
  std::vector<ag::Variable> params = norm.Parameters();
  ag::GradCheckResult result = ag::CheckGradients(
      [&](const std::vector<ag::Variable>&) {
        return ag::SumAll(
            ag::Mul(norm.Forward(ag::Constant(x)), ag::Constant(w)));
      },
      params);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST(LstmTest, OutputShapeAndCausality) {
  Rng rng(9);
  LSTM lstm(3, 5, rng);
  Tensor x = Tensor::Uniform({2, 4, 3}, -1, 1, rng);
  nn::Context ctx;
  ag::Variable out = lstm.Forward(ag::Constant(x));
  EXPECT_EQ(out.shape(), (Shape{2, 4, 5}));

  // Causality: changing x at t=3 must not affect outputs at t<3.
  Tensor x2 = x.Clone();
  x2.at({0, 3, 0}) += 10.0f;
  ag::Variable out2 = lstm.Forward(ag::Constant(x2));
  EXPECT_TRUE(out2.value()
                  .Slice(1, 0, 3)
                  .AllClose(out.value().Slice(1, 0, 3)));
  // ...but does affect t=3.
  EXPECT_FALSE(out2.value()
                   .Slice(1, 3, 4)
                   .AllClose(out.value().Slice(1, 3, 4)));
  (void)ctx;
}

TEST(LstmTest, ReverseProcessesRightToLeft) {
  Rng rng(10);
  LSTM lstm(2, 3, rng);
  Tensor x = Tensor::Uniform({1, 5, 2}, -1, 1, rng);
  ag::Variable out = lstm.Forward(ag::Constant(x), /*reverse=*/true);
  // Anticausality: changing x at t=0 must not affect outputs at t>0.
  Tensor x2 = x.Clone();
  x2.at({0, 0, 1}) += 5.0f;
  ag::Variable out2 = lstm.Forward(ag::Constant(x2), /*reverse=*/true);
  EXPECT_TRUE(out2.value()
                  .Slice(1, 1, 5)
                  .AllClose(out.value().Slice(1, 1, 5)));
  EXPECT_FALSE(out2.value()
                   .Slice(1, 0, 1)
                   .AllClose(out.value().Slice(1, 0, 1)));
}

TEST(LstmTest, GradFlowsThroughTime) {
  Rng rng(11);
  LSTM lstm(2, 3, rng);
  Tensor x = Tensor::Uniform({1, 6, 2}, -1, 1, rng);
  lstm.ZeroGrad();
  ag::SumAll(lstm.Forward(ag::Constant(x))).Backward();
  // Every parameter receives some gradient.
  for (const auto& p : lstm.Parameters()) {
    float norm = 0.0f;
    Tensor g = p.grad();
    for (int64_t i = 0; i < g.numel(); ++i) norm += std::fabs(g.flat(i));
    EXPECT_GT(norm, 0.0f);
  }

  // The fused cell's backward against finite differences: x, an explicit
  // initial state and every parameter, in both directions.
  const Tensor weights = Tensor::Uniform({1, 6, 3}, -1, 1, rng);
  for (bool reverse : {false, true}) {
    SCOPED_TRACE(reverse ? "reverse" : "forward");
    std::vector<ag::Variable> leaves = {
        ag::Variable::Leaf(x, true),
        ag::Variable::Leaf(Tensor::Uniform({1, 3}, -1, 1, rng), true),
        ag::Variable::Leaf(Tensor::Uniform({1, 3}, -1, 1, rng), true)};
    for (const ag::Variable& p : lstm.Parameters()) leaves.push_back(p);
    ag::GradCheckResult result = ag::CheckGradients(
        [&](const std::vector<ag::Variable>& v) {
          const LSTM::State initial{v[1], v[2]};
          return ag::SumAll(ag::Mul(lstm.Forward(v[0], reverse, &initial),
                                    ag::Constant(weights)));
        },
        leaves);
    EXPECT_TRUE(result.ok) << result.max_abs_error;
  }
}

// ---- Recurrent layer gradient goldens ----
//
// Digests of every gradient one LSTM/GRU layer call produces, forward and
// reverse, recorded from a known-good build. Finite differences cannot see
// a changed rounding order in the backward; these pin its bits.

// FNV-1a over the bytes of `tensors`, in order.
uint64_t DigestTensors(const std::vector<Tensor>& tensors) {
  uint64_t h = kFnvOffset;
  for (const Tensor& t : tensors) {
    h = Fnv1a(std::string_view(reinterpret_cast<const char*>(t.data()),
                               sizeof(float) * static_cast<size_t>(t.numel())),
              h);
  }
  return h;
}

// Weights the goldens reduce a layer's output with. Planted -0 and +0
// entries give the output gradient the signed zeros a dropout mask does.
Tensor GoldenOutputWeights(const Shape& shape, Rng& rng) {
  Tensor w = Tensor::Uniform(shape, -1, 1, rng);
  for (int64_t i = 0; i < w.numel(); i += 5) w.flat(i) = -0.0f;
  for (int64_t i = 3; i < w.numel(); i += 7) w.flat(i) = 0.0f;
  return w;
}

// Gradients of x, of a seeded initial state and of every parameter after
// SumAll(layer(x) * weights).Backward(), forward then reverse.
std::vector<Tensor> LayerGradients(Recurrent& layer, const Tensor& x,
                                   const Tensor& weights, Rng& rng) {
  std::vector<Tensor> grads;
  const int64_t batch = x.size(0), hidden = weights.size(2);
  for (bool reverse : {false, true}) {
    layer.ZeroGrad();
    const ag::Variable in = ag::Variable::Leaf(x, true);
    Recurrent::State initial;
    for (size_t r = 0; r < layer.InitialState(1).size(); ++r) {
      initial.push_back(ag::Variable::Leaf(
          Tensor::Uniform({batch, hidden}, -1, 1, rng), true));
    }
    ag::SumAll(ag::Mul(layer.Forward(in, reverse, &initial),
                       ag::Constant(weights)))
        .Backward();
    grads.push_back(in.grad().Clone());
    for (const ag::Variable& v : initial) grads.push_back(v.grad().Clone());
    for (const ag::Variable& p : layer.Parameters()) {
      grads.push_back(p.grad().Clone());
    }
  }
  return grads;
}

TEST(LstmTest, GradientGolden) {
  Rng rng(41);
  LSTM lstm(6, 8, rng);
  const Tensor x = Tensor::Uniform({3, 7, 6}, -1, 1, rng);
  const Tensor weights = GoldenOutputWeights({3, 7, 8}, rng);
  EXPECT_EQ(DigestTensors(LayerGradients(lstm, x, weights, rng)),
            0xf8013d0612896feeULL);
}

TEST(GruTest, GradientGolden) {
  Rng rng(42);
  GRU gru(6, 8, rng);
  const Tensor x = Tensor::Uniform({3, 7, 6}, -1, 1, rng);
  const Tensor weights = GoldenOutputWeights({3, 7, 8}, rng);
  EXPECT_EQ(DigestTensors(LayerGradients(gru, x, weights, rng)),
            0x8f50acbe0fb4334aULL);
}

// A layer call is one tape node, whose inputs are x, the parameters and
// the seeded state rows.
void ExpectOneTapeNode(const Recurrent& layer) {
  Rng rng(43);
  const ag::Variable x =
      ag::Variable::Leaf(Tensor::Uniform({2, 5, 4}, -1, 1, rng), true);
  const Recurrent::State initial = layer.InitialState(2);
  const ag::Variable out = layer.Forward(x, /*reverse=*/true, &initial);
  std::vector<ag::Variable> expected = {x};
  for (const ag::Variable& p : layer.Parameters()) expected.push_back(p);
  for (const ag::Variable& row : initial) expected.push_back(row);
  ASSERT_EQ(out.node()->inputs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out.node()->inputs[i], expected[i].node()) << "input " << i;
  }
}

TEST(LstmTest, OneTapeNodePerCall) {
  Rng rng(44);
  ExpectOneTapeNode(LSTM(4, 3, rng));
}

TEST(GruTest, OneTapeNodePerCall) {
  Rng rng(45);
  ExpectOneTapeNode(GRU(4, 3, rng));
}

TEST(AttentionDeathTest, NonPositiveHeadsFailCheckBeforeDividing) {
  Rng rng(12);
  EXPECT_DEATH({ MultiHeadAttention mha(32, 0, false, rng); },
               "at least one head");
  EXPECT_DEATH({ MultiHeadAttention mha(32, -2, false, rng); },
               "at least one head");
  EXPECT_DEATH({ MultiHeadAttention mha(32, 3, false, rng); },
               "not divisible by heads 3");
}

TEST(AttentionMaskTest, Kinds) {
  Tensor causal = MakeAttentionMask(3, AttentionMaskKind::kCausalStrict);
  EXPECT_FLOAT_EQ(causal.at({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(causal.at({2, 1}), 1.0f);
  EXPECT_FLOAT_EQ(causal.at({1, 2}), 0.0f);

  Tensor inclusive = MakeAttentionMask(3, AttentionMaskKind::kCausalInclusive);
  EXPECT_FLOAT_EQ(inclusive.at({1, 1}), 1.0f);
  EXPECT_FLOAT_EQ(inclusive.at({1, 2}), 0.0f);

  Tensor anti = MakeAttentionMask(3, AttentionMaskKind::kAntiCausalInclusive);
  EXPECT_FLOAT_EQ(anti.at({1, 0}), 0.0f);
  EXPECT_FLOAT_EQ(anti.at({1, 2}), 1.0f);

  Tensor no_self = MakeAttentionMask(3, AttentionMaskKind::kBidirectionalNoSelf);
  EXPECT_FLOAT_EQ(no_self.at({1, 1}), 0.0f);
  EXPECT_FLOAT_EQ(no_self.at({1, 0}), 1.0f);
}

// Attention core options for `heads` heads, dropout `p` and ctx's streams.
ag::AttentionCoreOptions CoreOptions(int64_t heads, float p = 0.0f,
                                     const Context& ctx = Context()) {
  ag::AttentionCoreOptions options;
  options.num_heads = heads;
  options.dropout_p = p;
  options.rng = ctx.rng;
  options.rng_count = ctx.rng_count;
  options.train = ctx.train;
  return options;
}

TEST(AttentionTest, OutputShapeAndMaskRespected) {
  Rng rng(12);
  Tensor x = Tensor::Uniform({2, 4, 8}, -1, 1, rng);
  Tensor mask = MakeAttentionMask(4, AttentionMaskKind::kCausalStrict);
  std::vector<Tensor> attention;
  ag::Variable q = ag::Constant(x);
  ag::Variable out = ag::MultiHeadAttentionCore(
      q, q, q, mask, ag::Variable(), CoreOptions(2), &attention);
  EXPECT_EQ(out.shape(), (Shape{2, 4, 8}));
  ASSERT_EQ(attention.size(), 2u);  // one map per head
  // Blocked entries have zero probability; row 0 attends to nothing.
  for (const Tensor& a : attention) {
    for (int64_t b = 0; b < 2; ++b) {
      for (int64_t i = 0; i < 4; ++i) {
        for (int64_t j = 0; j < 4; ++j) {
          if (j >= i) {
            EXPECT_FLOAT_EQ(a.at({b, i, j}), 0.0f);
          }
        }
      }
    }
  }
}

TEST(AttentionTest, ProbabilitiesSumToOneOnAllowedRows) {
  Rng rng(13);
  Tensor x = Tensor::Uniform({1, 5, 8}, -1, 1, rng);
  Tensor mask = MakeAttentionMask(5, AttentionMaskKind::kBidirectionalNoSelf);
  std::vector<Tensor> attention;
  ag::Variable q = ag::Constant(x);
  ag::MultiHeadAttentionCore(q, q, q, mask, ag::Variable(), CoreOptions(2),
                             &attention);
  for (int64_t i = 0; i < 5; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < 5; ++j) total += attention[0].at({0, i, j});
    EXPECT_NEAR(total, 1.0f, 1e-4f);
    EXPECT_FLOAT_EQ(attention[0].at({0, i, i}), 0.0f);
  }
}

TEST(AttentionTest, MonotonicDecayLowersDistantScores) {
  // A large decay parameter and identical keys at all positions: attention
  // differences come only from the distance penalty, so nearer positions
  // get more weight.
  const ag::Variable decay = ag::Constant(Tensor::Full({1}, 5.0f));
  const ag::Variable x = ag::Constant(Tensor::Ones({1, 6, 4}));
  Tensor mask = MakeAttentionMask(6, AttentionMaskKind::kCausalStrict);
  std::vector<Tensor> attention;
  ag::MultiHeadAttentionCore(x, x, x, mask, decay, CoreOptions(1),
                             &attention);
  // Row 5: weight at j=4 (distance 1) > weight at j=0 (distance 5).
  EXPECT_GT(attention[0].at({0, 5, 4}), attention[0].at({0, 5, 0}));
}

TEST(TransformerBlockTest, ShapeAndGradient) {
  Rng rng(15);
  TransformerBlock block(8, 2, 0.0f, /*monotonic=*/false, rng);
  Tensor x = Tensor::Uniform({2, 3, 8}, -1, 1, rng);
  Context ctx;
  Tensor mask = MakeAttentionMask(3, AttentionMaskKind::kFull);
  block.ZeroGrad();
  ag::Variable out = block.Forward(ag::Constant(x), mask, ctx);
  EXPECT_EQ(out.shape(), (Shape{2, 3, 8}));
  ag::SumAll(out).Backward();
  float total = 0.0f;
  for (const auto& p : block.Parameters()) {
    Tensor g = p.grad();
    for (int64_t i = 0; i < g.numel(); ++i) total += std::fabs(g.flat(i));
  }
  EXPECT_GT(total, 0.0f);
}

// A self-attention call is one tape node over x and every parameter of the
// block. A cross-attention call adds one: the query norm, whose output the
// block node reads between x and the keys.
TEST(TransformerBlockTest, OneTapeNodePerCall) {
  for (bool monotonic : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "monotonic=" << monotonic);
    Rng rng(46);
    TransformerBlock block(8, 2, 0.1f, monotonic, rng);
    auto param = [&](const std::string& name) {
      return reference::Param(block, name).node();
    };
    std::vector<std::shared_ptr<ag::internal::Node>> params;
    for (const char* name :
         {"attention.q_proj.weight", "attention.k_proj.weight",
          "attention.v_proj.weight", "attention.out_proj.weight",
          "attention.out_proj.bias", "norm2.gamma", "norm2.beta",
          "ff1.weight", "ff1.bias", "ff2.weight", "ff2.bias"}) {
      params.push_back(param(name));
    }
    if (monotonic) params.push_back(param("attention.decay"));
    const ag::Variable x =
        ag::Variable::Leaf(Tensor::Uniform({2, 5, 8}, -1, 1, rng), true);
    const ag::Variable kv =
        ag::Variable::Leaf(Tensor::Uniform({2, 7, 8}, -1, 1, rng), true);

    const ag::Variable self_out = block.Forward(
        x, MakeAttentionMask(5, AttentionMaskKind::kCausalInclusive),
        Context());
    std::vector<std::shared_ptr<ag::internal::Node>> expected = {
        x.node(), param("norm1.gamma"), param("norm1.beta")};
    expected.insert(expected.end(), params.begin(), params.end());
    EXPECT_EQ(self_out.node()->inputs, expected);

    const ag::Variable cross_out =
        block.ForwardCross(x, kv, Tensor::Ones({5, 7}), Context());
    const auto& inputs = cross_out.node()->inputs;
    ASSERT_EQ(inputs.size(), 3 + params.size());
    EXPECT_EQ(inputs[0], x.node());
    EXPECT_EQ(inputs[2], kv.node());
    EXPECT_EQ(std::vector<std::shared_ptr<ag::internal::Node>>(
                  inputs.begin() + 3, inputs.end()),
              params);
    const std::vector<std::shared_ptr<ag::internal::Node>> norm_inputs = {
        x.node(), param("norm1.gamma"), param("norm1.beta")};
    EXPECT_EQ(inputs[1]->inputs, norm_inputs);
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize ||x - target||^2.
  Rng rng(16);
  ag::Variable x = ag::Variable::Leaf(Tensor::Uniform({4}, -2, 2, rng), true);
  Tensor target({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  AdamOptions options;
  options.lr = 0.1f;
  options.clip_norm = 0.0f;
  Adam adam({x}, options);
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGrad();
    ag::Variable diff = ag::Sub(x, ag::Constant(target));
    ag::SumAll(ag::Mul(diff, diff)).Backward();
    adam.Step();
  }
  EXPECT_TRUE(x.value().AllClose(target, 1e-2f, 1e-2f));
}

TEST(AdamTest, WeightDecayShrinksParameters) {
  ag::Variable x = ag::Variable::Leaf(Tensor::Full({2}, 5.0f), true);
  AdamOptions options;
  options.lr = 0.05f;
  options.weight_decay = 1.0f;
  Adam adam({x}, options);
  for (int step = 0; step < 250; ++step) {
    adam.ZeroGrad();
    // Zero data loss: only decay acts.
    ag::MulScalar(ag::SumAll(x), 0.0f).Backward();
    adam.Step();
  }
  EXPECT_LT(std::fabs(x.value().flat(0)), 1.0f);
}

TEST(AdamTest, GradNormAndClipping) {
  ag::Variable x = ag::Variable::Leaf(Tensor::Full({4}, 1.0f), true);
  AdamOptions options;
  options.lr = 1.0f;
  options.clip_norm = 0.1f;
  Adam adam({x}, options);
  adam.ZeroGrad();
  ag::MulScalar(ag::SumAll(x), 100.0f).Backward();
  EXPECT_NEAR(adam.GradNorm(), 200.0f, 1e-2f);  // sqrt(4 * 100^2)
  Tensor before = x.value().Clone();
  adam.Step();
  // First Adam step magnitude is ~lr regardless of clip, but clipping must
  // not blow up; just check the update is finite and moved opposite grad.
  EXPECT_LT(x.value().flat(0), before.flat(0));
}

TEST(LossTest, BceWithLogitsMatchesManual) {
  // Single element: x = 0.3, y = 1 -> loss = log(1 + e^{-0.3}).
  ag::Variable logits = ag::Variable::Leaf(Tensor({1}, {0.3f}), true);
  Tensor y({1}, {1.0f});
  Tensor mask = Tensor::Ones({1});
  ag::Variable loss = BinaryCrossEntropyWithLogits(logits, y, mask);
  EXPECT_NEAR(loss.value().item(), std::log(1.0f + std::exp(-0.3f)), 1e-5f);
}

TEST(LossTest, BceMaskExcludesPositions) {
  ag::Variable logits =
      ag::Variable::Leaf(Tensor({3}, {10.0f, -10.0f, 0.0f}), true);
  Tensor targets({3}, {0.0f, 1.0f, 1.0f});  // first two are maximally wrong
  Tensor mask({3}, {0.0f, 0.0f, 1.0f});
  ag::Variable loss = BinaryCrossEntropyWithLogits(logits, targets, mask);
  // Only the third element contributes: log(2).
  EXPECT_NEAR(loss.value().item(), std::log(2.0f), 1e-4f);
}

TEST(LossTest, BceWithLogitsStableAtExtremes) {
  ag::Variable logits =
      ag::Variable::Leaf(Tensor({2}, {80.0f, -80.0f}), true);
  Tensor targets({2}, {1.0f, 0.0f});
  Tensor mask = Tensor::Ones({2});
  ag::Variable loss = BinaryCrossEntropyWithLogits(logits, targets, mask);
  EXPECT_TRUE(std::isfinite(loss.value().item()));
  EXPECT_NEAR(loss.value().item(), 0.0f, 1e-4f);
  loss.Backward();
  EXPECT_TRUE(std::isfinite(logits.grad().flat(0)));
}

TEST(LossTest, BceFromProbsAgreesWithLogitsForm) {
  Rng rng(17);
  Tensor raw = Tensor::Uniform({6}, -2, 2, rng);
  Tensor targets({6}, {1, 0, 1, 1, 0, 0});
  Tensor mask = Tensor::Ones({6});
  ag::Variable logits = ag::Variable::Leaf(raw, true);
  ag::Variable from_logits =
      BinaryCrossEntropyWithLogits(logits, targets, mask);
  ag::Variable probs = ag::Sigmoid(ag::Variable::Leaf(raw, true));
  ag::Variable from_probs = BinaryCrossEntropyFromProbs(probs, targets, mask);
  EXPECT_NEAR(from_logits.value().item(), from_probs.value().item(), 1e-4f);
}

TEST(LossTest, GradCheckBothForms) {
  Rng rng(18);
  Tensor targets({4}, {1, 0, 0, 1});
  Tensor mask({4}, {1, 1, 0, 1});
  std::vector<ag::Variable> params{
      ag::Variable::Leaf(Tensor::Uniform({4}, -1.5f, 1.5f, rng), true)};
  ag::GradCheckResult r1 = ag::CheckGradients(
      [&](const std::vector<ag::Variable>& p) {
        return BinaryCrossEntropyWithLogits(p[0], targets, mask);
      },
      params);
  EXPECT_TRUE(r1.ok) << r1.max_abs_error;

  std::vector<ag::Variable> params2{
      ag::Variable::Leaf(Tensor::Uniform({4}, 0.2f, 0.8f, rng), true)};
  ag::GradCheckResult r2 = ag::CheckGradients(
      [&](const std::vector<ag::Variable>& p) {
        return BinaryCrossEntropyFromProbs(p[0], targets, mask);
      },
      params2);
  EXPECT_TRUE(r2.ok) << r2.max_abs_error;
}

// ---- Fused module paths vs the composed references (DESIGN.md §9) ----
//
// Each module's one forward path runs the fused ops; it must match the
// op-per-node chains of composed_reference.h bit for bit. For the linear
// and recurrent layers the tests assert values, the contract the golden
// influence tests rely on. The recurrent layers' backward keeps the bits
// of the per-step graph they replaced instead, pinned by
// LstmTest/GruTest.GradientGolden and held to finite differences by
// LstmTest.GradFlowsThroughTime and GruTest.GradientsFlow.

using reference::ComposedHeads;
using reference::Param;

class ComposedParityTest : public ::testing::Test {
 protected:
  void TearDown() override { SetGemmKernel(GemmKernel::kAuto); }

  static bool BitEqual(const Tensor& a, const Tensor& b) {
    return a.SameShape(b) &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.numel())) == 0;
  }
};

// The graph-free ag::LinearBiasActForward (the serve predict head's path)
// is a third input to the same contract.
TEST_F(ComposedParityTest, LinearForwardMatchesComposed) {
  Rng rng(31);
  Linear linear(6, 4, rng);
  ag::Variable x = ag::Constant(Tensor::Uniform({3, 5, 6}, -1, 1, rng));
  for (ag::Act act : {ag::Act::kIdentity, ag::Act::kRelu, ag::Act::kSigmoid,
                      ag::Act::kTanh}) {
    ag::Variable fused = linear.Forward(x, act);
    ag::Variable composed = reference::ComposedLinearAct(
        x, Param(linear, "weight"), Param(linear, "bias"), act);
    EXPECT_TRUE(BitEqual(fused.value(), composed.value()))
        << "act=" << static_cast<int>(act);
    const Tensor graph_free =
        ag::LinearBiasActForward(x.value().Reshape({15, 6}),
                                 linear.weight().value(),
                                 &linear.bias().value(), act)
            .Reshape({3, 5, 4});
    EXPECT_TRUE(BitEqual(graph_free, fused.value()))
        << "act=" << static_cast<int>(act);
    EXPECT_TRUE(BitEqual(graph_free, composed.value()))
        << "act=" << static_cast<int>(act);
  }
}

// Step t of x ([B, T, in]) as [B, in].
ag::Variable TimeStep(const ag::Variable& x, int64_t t) {
  return ag::Reshape(ag::Slice(x, 1, t, t + 1), Shape{x.size(0), x.size(2)});
}

// The composed chain over x ([B, T, in]): `step(x_t, state)` per step from
// `state`, in the order Forward(x, reverse) consumes x; returns [B, T, H].
template <typename Step>
Tensor ComposedLayer(const Tensor& x, bool reverse, Recurrent::State state,
                     const Step& step) {
  const ag::Variable in = ag::Constant(x);
  const int64_t steps = x.size(1);
  std::vector<ag::Variable> outputs(static_cast<size_t>(steps));
  for (int64_t s = 0; s < steps; ++s) {
    const int64_t t = reverse ? steps - 1 - s : s;
    state = step(TimeStep(in, t), state);
    outputs[static_cast<size_t>(t)] =
        ag::Reshape(state[0], Shape{x.size(0), 1, -1});
  }
  return ag::Concat(outputs, 1).value();
}

// Forward over x in two chunks split at position k: the chunk consumed
// first runs from `initial` and its final state seeds the other.
Tensor ChunkedForward(const Recurrent& layer, const Tensor& x, int64_t k,
                      bool reverse, const Recurrent::State& initial) {
  ag::NoGradGuard no_grad;
  const Tensor left = x.Slice(1, 0, k);
  const Tensor right = x.Slice(1, k, x.size(1));
  Recurrent::State mid;
  const Tensor first =
      layer.Forward(ag::Constant(reverse ? right : left), reverse, &initial,
                    &mid)
          .value();
  const Tensor second =
      layer.Forward(ag::Constant(reverse ? left : right), reverse, &mid)
          .value();
  return reverse ? Tensor::Concat({second, first}, 1)
                 : Tensor::Concat({first, second}, 1);
}

// Each layer against its composed step chain, bit for bit: both
// directions, the zero and a seeded initial state, one pass and two chunks,
// at 1, 2 and 8 threads. B*T*in*G*H puts the whole-sequence x W_x GEMM
// above the parallel threshold.
TEST_F(ComposedParityTest, LstmForwardMatchesComposed) {
  Rng rng(32);
  LSTM lstm(24, 24, rng);
  const Tensor x = Tensor::Uniform({16, 20, 24}, -1, 1, rng);
  const LSTM::State seeded{
      ag::Constant(Tensor::Uniform({16, 24}, -1, 1, rng)),
      ag::Constant(Tensor::Uniform({16, 24}, -1, 1, rng))};
  const auto step = [&](const ag::Variable& x_t, const LSTM::State& state) {
    return reference::ComposedLstmCell(x_t, state, Param(lstm, "cell.w_x"),
                                       Param(lstm, "cell.w_h"),
                                       Param(lstm, "cell.bias"));
  };
  const int saved_threads = GetNumThreads();
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    for (bool reverse : {false, true}) {
      for (bool seed : {false, true}) {
        SCOPED_TRACE(::testing::Message() << threads << " threads, reverse "
                                          << reverse << ", seeded " << seed);
        const LSTM::State initial = seed ? seeded : lstm.InitialState(16);
        const Tensor composed = ComposedLayer(x, reverse, initial, step);
        EXPECT_TRUE(BitEqual(
            lstm.Forward(ag::Constant(x), reverse, &initial).value(),
            composed));
        EXPECT_TRUE(
            BitEqual(ChunkedForward(lstm, x, 7, reverse, initial), composed));
      }
    }
  }
  SetNumThreads(saved_threads);
}

TEST_F(ComposedParityTest, GruForwardMatchesComposed) {
  Rng rng(33);
  GRU gru(24, 24, rng);
  const Tensor x = Tensor::Uniform({16, 20, 24}, -1, 1, rng);
  const GRU::State seeded{
      ag::Constant(Tensor::Uniform({16, 24}, -1, 1, rng))};
  const auto step = [&](const ag::Variable& x_t, const GRU::State& h) {
    return GRU::State{reference::ComposedGruCell(x_t, h[0],
                                                 Param(gru, "cell.w_x"),
                                                 Param(gru, "cell.w_h"),
                                                 Param(gru, "cell.bias"))};
  };
  const int saved_threads = GetNumThreads();
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    for (bool reverse : {false, true}) {
      for (bool seed : {false, true}) {
        SCOPED_TRACE(::testing::Message() << threads << " threads, reverse "
                                          << reverse << ", seeded " << seed);
        const GRU::State initial = seed ? seeded : gru.InitialState(16);
        const Tensor composed = ComposedLayer(x, reverse, initial, step);
        EXPECT_TRUE(BitEqual(
            gru.Forward(ag::Constant(x), reverse, &initial).value(),
            composed));
        EXPECT_TRUE(
            BitEqual(ChunkedForward(gru, x, 7, reverse, initial), composed));
      }
    }
  }
  SetNumThreads(saved_threads);
}

// ---- Fused attention core and block vs the composed references ----
//
// Unlike the cell ops above, the attention core and the transformer block
// are held bitwise in both directions: the output, the captured maps, and
// the gradients of every input and parameter (decay included). The core
// runs over the parameters of a MultiHeadAttention module, whose decay it
// reads; the block tests run whole TransformerBlock calls.

struct AttentionRun {
  Tensor out;
  std::vector<Tensor> attention;
  std::vector<Tensor> grads;  // inputs in order, then every parameter
};

using AttentionForward = std::function<ag::Variable(
    const std::vector<ag::Variable>&, const Context&, std::vector<Tensor>*)>;

// One forward and backward through `forward`, the module's own path or its
// composed reference over the same parameters. The loss weights the output
// by fixed noise so every element carries its own gradient; dropout
// streams are re-seeded per run.
AttentionRun RunAttention(Module& module, const std::vector<Tensor>& inputs,
                          const AttentionForward& forward, bool train,
                          int64_t rng_count) {
  module.ZeroGrad();
  std::vector<ag::Variable> leaves;
  for (const Tensor& t : inputs) leaves.push_back(ag::Variable::Leaf(t, true));
  std::vector<Rng> streams;
  for (int64_t j = 0; j < rng_count; ++j) streams.emplace_back(100 + j);
  Context ctx;
  ctx.train = train;
  ctx.rng = streams.data();
  ctx.rng_count = rng_count;
  AttentionRun run;
  ag::Variable out = forward(leaves, ctx, &run.attention);
  Rng noise(7);
  ag::SumAll(ag::Mul(out, ag::Constant(Tensor::Uniform(out.shape(), -1, 1,
                                                       noise))))
      .Backward();
  run.out = out.value();
  for (const ag::Variable& leaf : leaves) run.grads.push_back(leaf.grad());
  for (const ag::Variable& param : module.Parameters())
    run.grads.push_back(param.grad());
  return run;
}

void ExpectRunsBitEqual(const AttentionRun& fused,
                        const AttentionRun& composed) {
  auto bit_equal = [](const Tensor& a, const Tensor& b) {
    return a.SameShape(b) &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.numel())) == 0;
  };
  EXPECT_TRUE(bit_equal(fused.out, composed.out)) << "output";
  ASSERT_EQ(fused.attention.size(), composed.attention.size());
  for (size_t h = 0; h < fused.attention.size(); ++h)
    EXPECT_TRUE(bit_equal(fused.attention[h], composed.attention[h]))
        << "attention map of head " << h;
  ASSERT_EQ(fused.grads.size(), composed.grads.size());
  for (size_t i = 0; i < fused.grads.size(); ++i)
    EXPECT_TRUE(bit_equal(fused.grads[i], composed.grads[i]))
        << "gradient " << i;
}

// Distinct per-head decay values, so a head mix-up cannot cancel out.
void SetDistinctDecay(Module& module) {
  const std::vector<std::string> names = module.ParameterNames();
  std::vector<ag::Variable> params = module.Parameters();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i].find("decay") == std::string::npos) continue;
    Tensor& decay = params[i].mutable_value();
    for (int64_t h = 0; h < decay.numel(); ++h)
      decay.flat(h) = 0.35f * static_cast<float>(h) - 0.4f;
  }
}

TEST_F(ComposedParityTest, AttentionMatchesComposedBitwise) {
  struct DropoutCase {
    float p;
    int64_t streams;
  };
  const AttentionMaskKind kinds[] = {
      AttentionMaskKind::kCausalInclusive,
      AttentionMaskKind::kAntiCausalInclusive,
      AttentionMaskKind::kCausalStrict,  // row 0 attends nowhere
      AttentionMaskKind::kFull};
  const int64_t b = 4, t = 6, dim = 8;
  Rng data_rng(41);
  const std::vector<Tensor> inputs = {
      Tensor::Uniform({b, t, dim}, -1, 1, data_rng),
      Tensor::Uniform({b, t, dim}, -1, 1, data_rng),
      Tensor::Uniform({b, t, dim}, -1, 1, data_rng)};
  for (bool monotonic : {false, true}) {
    for (int64_t heads : {1, 2, 4}) {
      for (DropoutCase drop : {DropoutCase{0.0f, 1}, DropoutCase{0.2f, 1},
                               DropoutCase{0.2f, 2}}) {
        Rng init(50 + heads);
        MultiHeadAttention mha(dim, heads, monotonic, init);
        SetDistinctDecay(mha);
        const ag::Variable decay = reference::FindParam(mha, "decay");
        for (AttentionMaskKind kind : kinds) {
          SCOPED_TRACE(::testing::Message()
                       << "monotonic=" << monotonic << " heads=" << heads
                       << " p=" << drop.p << " streams=" << drop.streams
                       << " mask=" << static_cast<int>(kind));
          // The mask is a temporary that is gone before backward runs, as
          // in the encoders: backward must not read it.
          const AttentionForward forward =
              [&](const std::vector<ag::Variable>& x, const Context& ctx,
                  std::vector<Tensor>* maps) {
                return ag::MultiHeadAttentionCore(
                    x[0], x[1], x[2], MakeAttentionMask(t, kind), decay,
                    CoreOptions(heads, drop.p, ctx), maps);
              };
          const AttentionForward composed =
              [&](const std::vector<ag::Variable>& x, const Context& ctx,
                  std::vector<Tensor>* maps) {
                return ComposedHeads(x[0], x[1], x[2],
                                     MakeAttentionMask(t, kind), decay, heads,
                                     /*query_offset=*/0, drop.p, ctx, maps);
              };
          ExpectRunsBitEqual(
              RunAttention(mha, inputs, forward, true, drop.streams),
              RunAttention(mha, inputs, composed, true, drop.streams));
        }
      }
    }
  }
}

// A self-attention block call against the composed block chain: values,
// maps and every gradient, over the encoders' mask shapes, window lengths
// inside and across 8-row bands, both score variants, dropout off and on
// (one stream and five, whose row blocks split the batch), both kernel
// families and 1, 2 and 8 threads (at T = 50 the attention splits the
// batch over the pool).
TEST_F(ComposedParityTest, TransformerBlockForwardMatchesComposed) {
  struct DropoutCase {
    float p;
    int64_t streams;
  };
  const AttentionMaskKind kinds[] = {AttentionMaskKind::kCausalInclusive,
                                     AttentionMaskKind::kAntiCausalInclusive,
                                     AttentionMaskKind::kFull};
  const int64_t b = 5, dim = 32, heads = 2;
  const int saved_threads = GetNumThreads();
  for (int64_t t : {1, 7, 9, 17, 50}) {
    Rng data_rng(48);
    const std::vector<Tensor> inputs = {
        Tensor::Uniform({b, t, dim}, -1, 1, data_rng)};
    for (bool monotonic : {false, true}) {
      for (DropoutCase drop : {DropoutCase{0.0f, 1}, DropoutCase{0.2f, 1},
                               DropoutCase{0.2f, 5}}) {
        Rng init(97);
        TransformerBlock block(dim, heads, drop.p, monotonic, init);
        SetDistinctDecay(block);
        for (AttentionMaskKind kind : kinds) {
          const AttentionForward forward =
              [&](const std::vector<ag::Variable>& x, const Context& ctx,
                  std::vector<Tensor>* maps) {
                return block.Forward(x[0], MakeAttentionMask(t, kind), ctx,
                                     maps);
              };
          const AttentionForward composed =
              [&](const std::vector<ag::Variable>& x, const Context& ctx,
                  std::vector<Tensor>* maps) {
                return reference::ComposedTransformerBlock(
                    block, "", x[0], nullptr, MakeAttentionMask(t, kind),
                    heads, drop.p, ctx, maps);
              };
          for (GemmKernel kernel :
               {GemmKernel::kReference, GemmKernel::kTiled}) {
            for (int threads : {1, 2, 8}) {
              SCOPED_TRACE(::testing::Message()
                           << "t=" << t << " monotonic=" << monotonic
                           << " p=" << drop.p << " streams=" << drop.streams
                           << " mask=" << static_cast<int>(kind)
                           << " kernel=" << GemmKernelName(kernel)
                           << " threads=" << threads);
              SetGemmKernel(kernel);
              SetNumThreads(threads);
              ExpectRunsBitEqual(
                  RunAttention(block, inputs, forward, true, drop.streams),
                  RunAttention(block, inputs, composed, true, drop.streams));
            }
          }
        }
      }
    }
  }
  SetNumThreads(saved_threads);
}

TEST_F(ComposedParityTest, CrossAttentionBlockMatchesComposedBitwise) {
  // Tq != Tk, and a mask whose first row attends nowhere; the larger shape
  // spans several 8-row bands and takes the tiled GEMMs.
  struct CrossCase {
    int64_t tq, tk, dim;
  };
  const int64_t b = 4;
  for (CrossCase shape : {CrossCase{3, 5, 8}, CrossCase{9, 17, 32}}) {
    const int64_t tq = shape.tq, tk = shape.tk, dim = shape.dim;
    Tensor mask(Shape{tq, tk});
    for (int64_t i = 1; i < tq; ++i)
      for (int64_t j = 0; j < tk; ++j)
        mask.at({i, j}) = (i + j) % 3 ? 1.0f : 0.0f;
    Rng data_rng(42);
    const std::vector<Tensor> inputs = {
        Tensor::Uniform({b, tq, dim}, -1, 1, data_rng),
        Tensor::Uniform({b, tk, dim}, -1, 1, data_rng)};
    for (bool monotonic : {false, true}) {
      Rng init(60);
      TransformerBlock block(dim, 2, 0.2f, monotonic, init);
      SetDistinctDecay(block);
      const AttentionForward forward = [&](const std::vector<ag::Variable>& x,
                                           const Context& ctx,
                                           std::vector<Tensor>* maps) {
        return block.ForwardCross(x[0], x[1], mask, ctx, maps);
      };
      const AttentionForward composed = [&](const std::vector<ag::Variable>& x,
                                            const Context& ctx,
                                            std::vector<Tensor>* maps) {
        return reference::ComposedTransformerBlock(block, "", x[0], &x[1],
                                                   mask, 2, 0.2f, ctx, maps);
      };
      for (GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
        SCOPED_TRACE(::testing::Message()
                     << "tq=" << tq << " tk=" << tk << " monotonic="
                     << monotonic << " kernel=" << GemmKernelName(kernel));
        SetGemmKernel(kernel);
        ExpectRunsBitEqual(
            RunAttention(block, inputs, forward, true, 2),
            RunAttention(block, inputs, composed, true, 2));
      }
    }
  }
}

// The banded core at sizes that cross 8-row bands and take the tiled GEMMs
// (dim 32, two heads): every mask kind, both kernel families, and the
// captured maps exactly +0 wherever the mask blocks.
TEST_F(ComposedParityTest, BandedAttentionMatchesComposedBitwise) {
  const AttentionMaskKind kinds[] = {
      AttentionMaskKind::kCausalStrict, AttentionMaskKind::kCausalInclusive,
      AttentionMaskKind::kAntiCausalInclusive,
      AttentionMaskKind::kBidirectionalNoSelf, AttentionMaskKind::kFull};
  const int64_t b = 4, dim = 32;
  for (int64_t t : {1, 7, 9, 17, 50}) {
    Rng data_rng(45);
    const std::vector<Tensor> inputs = {
        Tensor::Uniform({b, t, dim}, -1, 1, data_rng),
        Tensor::Uniform({b, t, dim}, -1, 1, data_rng),
        Tensor::Uniform({b, t, dim}, -1, 1, data_rng)};
    for (bool monotonic : {false, true}) {
      Rng init(90);
      MultiHeadAttention mha(dim, 2, monotonic, init);
      SetDistinctDecay(mha);
      const ag::Variable decay = reference::FindParam(mha, "decay");
      for (AttentionMaskKind kind : kinds) {
        const Tensor mask = MakeAttentionMask(t, kind);
        const AttentionForward forward =
            [&](const std::vector<ag::Variable>& x, const Context& ctx,
                std::vector<Tensor>* maps) {
              return ag::MultiHeadAttentionCore(x[0], x[1], x[2], mask,
                                                decay,
                                                CoreOptions(2, 0.2f, ctx),
                                                maps);
            };
        const AttentionForward composed =
            [&](const std::vector<ag::Variable>& x, const Context& ctx,
                std::vector<Tensor>* maps) {
              return ComposedHeads(x[0], x[1], x[2], mask, decay, 2,
                                   /*query_offset=*/0, 0.2f, ctx, maps);
            };
        for (GemmKernel kernel :
             {GemmKernel::kReference, GemmKernel::kTiled}) {
          SCOPED_TRACE(::testing::Message()
                       << "t=" << t << " monotonic=" << monotonic
                       << " mask=" << static_cast<int>(kind)
                       << " kernel=" << GemmKernelName(kernel));
          SetGemmKernel(kernel);
          const AttentionRun fused =
              RunAttention(mha, inputs, forward, true, 2);
          ExpectRunsBitEqual(fused,
                             RunAttention(mha, inputs, composed, true, 2));
          for (const Tensor& map : fused.attention) {
            int64_t nonzero_blocked = 0;
            for (int64_t c = 0; c < map.numel(); ++c) {
              const float p = map.flat(c);
              if (mask.flat(c % (t * t)) == 0.0f &&
                  (p != 0.0f || std::signbit(p)))
                ++nonzero_blocked;
            }
            EXPECT_EQ(nonzero_blocked, 0);
          }
        }
      }
    }
  }
}

// A batch large enough for the core to split it across the pool: fused
// equals composed at 1 and 4 threads (and so across thread counts).
TEST_F(ComposedParityTest, AttentionBatchSplitMatchesComposedAcrossThreads) {
  const int64_t b = 16, t = 32, dim = 16;
  Rng data_rng(44);
  const std::vector<Tensor> inputs = {
      Tensor::Uniform({b, t, dim}, -1, 1, data_rng),
      Tensor::Uniform({b, t, dim}, -1, 1, data_rng),
      Tensor::Uniform({b, t, dim}, -1, 1, data_rng)};
  const int saved_threads = GetNumThreads();
  for (bool monotonic : {false, true}) {
    Rng init(80);
    MultiHeadAttention mha(dim, 2, monotonic, init);
    SetDistinctDecay(mha);
    const ag::Variable decay = reference::FindParam(mha, "decay");
    const AttentionForward forward = [&](const std::vector<ag::Variable>& x,
                                         const Context& ctx,
                                         std::vector<Tensor>* maps) {
      return ag::MultiHeadAttentionCore(
          x[0], x[1], x[2],
          MakeAttentionMask(t, AttentionMaskKind::kCausalInclusive), decay,
          CoreOptions(2, 0.2f, ctx), maps);
    };
    const AttentionForward composed = [&](const std::vector<ag::Variable>& x,
                                          const Context& ctx,
                                          std::vector<Tensor>* maps) {
      return ComposedHeads(
          x[0], x[1], x[2],
          MakeAttentionMask(t, AttentionMaskKind::kCausalInclusive), decay, 2,
          /*query_offset=*/0, 0.2f, ctx, maps);
    };
    for (int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "monotonic=" << monotonic << " threads=" << threads);
      SetNumThreads(threads);
      ExpectRunsBitEqual(RunAttention(mha, inputs, forward, true, 2),
                         RunAttention(mha, inputs, composed, true, 2));
    }
  }
  SetNumThreads(saved_threads);
}

// Incremental decode through the fused core reproduces the fused full pass
// row for row, one position at a time and in runs; the longer sequence
// puts runs at query offsets inside and past the first 8-row band.
TEST_F(ComposedParityTest, StepCausalMatchesFusedFullPass) {
  struct StepCase {
    int64_t t, dim;
    std::vector<int64_t> runs;  // run lengths, summing to t
  };
  const std::vector<StepCase> cases = {{7, 8, {2, 4, 1}},
                                       {20, 32, {3, 9, 1, 7}}};
  for (const StepCase& step_case : cases) {
    const int64_t t = step_case.t, dim = step_case.dim;
    Rng data_rng(43);
    const Tensor x = Tensor::Uniform({1, t, dim}, -1, 1, data_rng);
    const Tensor mask =
        MakeAttentionMask(t, AttentionMaskKind::kCausalInclusive);
    auto row = [&](const Tensor& full, int64_t i) {
      return std::vector<float>(full.data() + i * dim,
                                full.data() + (i + 1) * dim);
    };
    for (bool monotonic : {false, true}) {
      Rng init(70);
      TransformerBlock block(dim, 2, 0.1f, monotonic, init);
      SetDistinctDecay(block);
      ag::NoGradGuard no_grad;
      for (GemmKernel kernel :
           {GemmKernel::kReference, GemmKernel::kTiled}) {
        SCOPED_TRACE(::testing::Message()
                     << "t=" << t << " monotonic=" << monotonic
                     << " kernel=" << GemmKernelName(kernel));
        SetGemmKernel(kernel);
        const Tensor full =
            block.Forward(ag::Constant(x), mask, Context()).value();

        AttentionKVCache step_cache;
        for (int64_t i = 0; i < t; ++i) {
          Tensor xi(Shape{1, 1, dim}, row(x, i));
          const Tensor yi =
              block.StepCausalRun(ag::Constant(xi), step_cache).value();
          EXPECT_EQ(row(yi, 0), row(full, i)) << "step " << i;
        }

        AttentionKVCache run_cache;
        int64_t pos = 0;
        for (int64_t len : step_case.runs) {
          std::vector<float> chunk(x.data() + pos * dim,
                                   x.data() + (pos + len) * dim);
          const Tensor ys = block
                                .StepCausalRun(ag::Constant(Tensor(
                                                   Shape{1, len, dim}, chunk)),
                                               run_cache)
                                .value();
          for (int64_t i = 0; i < len; ++i)
            EXPECT_EQ(row(ys, i), row(full, pos + i))
                << "run row " << pos + i;
          pos += len;
        }
        EXPECT_EQ(pos, t);
      }
    }
  }
}

// ---- Fused LayerNorm vs the composed reference ----
//
// ag::LayerNormCore is held bitwise like the attention core: the value and
// the gradients of x, gamma and beta, with and without a residual consumer
// that hands x a gradient before the norm's backward runs.
TEST_F(ComposedParityTest, LayerNormMatchesComposedBitwise) {
  const int64_t d = 12;
  const std::vector<Shape> shapes = {{4, 6, d}, {9, d}, {1, 1, d}};
  Rng init(95);
  LayerNorm norm(d);
  for (ag::Variable& param : norm.Parameters()) {
    Tensor& value = param.mutable_value();
    value = Tensor::Uniform(value.shape(), -2, 2, init);
  }
  for (const Shape& shape : shapes) {
    Rng data_rng(46);
    const std::vector<Tensor> inputs = {Tensor::Uniform(shape, -3, 3, data_rng)};
    for (bool residual : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "shape=" << ShapeToString(shape)
                                        << " residual=" << residual);
      const AttentionForward forward = [&](const std::vector<ag::Variable>& x,
                                           const Context&,
                                           std::vector<Tensor>*) {
        ag::Variable y = norm.Forward(x[0]);
        return residual ? ag::Add(x[0], y) : y;
      };
      const AttentionForward composed = [&](const std::vector<ag::Variable>& x,
                                            const Context&,
                                            std::vector<Tensor>*) {
        ag::Variable y = reference::ComposedLayerNorm(
            x[0], Param(norm, "gamma"), Param(norm, "beta"), 1e-5f);
        return residual ? ag::Add(x[0], y) : y;
      };
      ExpectRunsBitEqual(RunAttention(norm, inputs, forward, false, 1),
                         RunAttention(norm, inputs, composed, false, 1));
    }
  }
}

// Both streams of the bidirectional SAKT/AKT encoder start from the same
// input, so its gradient collects the contributions of two residual Adds
// and two norms: the order the fused nodes must land them in.
TEST_F(ComposedParityTest, BiAttentionEncoderMatchesComposedBitwise) {
  const int64_t b = 4, t = 11, dim = 16;
  Rng data_rng(47);
  const std::vector<Tensor> inputs = {
      Tensor::Uniform({b, t, dim}, -1, 1, data_rng)};
  for (bool monotonic : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "monotonic=" << monotonic);
    Rng init(96);
    rckt::BiAttentionEncoder encoder(dim, 2, 2, 0.2f, monotonic, init);
    SetDistinctDecay(encoder);
    const AttentionForward forward = [&](const std::vector<ag::Variable>& x,
                                         const Context& ctx,
                                         std::vector<Tensor>*) {
      return encoder.Encode(x[0], ctx);
    };
    const AttentionForward composed = [&](const std::vector<ag::Variable>& x,
                                          const Context& ctx,
                                          std::vector<Tensor>*) {
      return reference::ComposedBiAttentionEncode(encoder, x[0], 2, 2, 0.2f,
                                                  ctx);
    };
    ExpectRunsBitEqual(RunAttention(encoder, inputs, forward, true, 2),
                       RunAttention(encoder, inputs, composed, true, 2));
  }
}

// The recurrent encoders share ShiftAndAdd with the attention ones; with
// dropout after every layer, both streams again feed one input.
TEST_F(ComposedParityTest, BiRecurrentEncoderMatchesComposedBitwise) {
  const int64_t b = 4, t = 9, dim = 8;
  Rng data_rng(49);
  const std::vector<Tensor> inputs = {
      Tensor::Uniform({b, t, dim}, -1, 1, data_rng)};
  for (rckt::EncoderKind kind :
       {rckt::EncoderKind::kDKT, rckt::EncoderKind::kGRU}) {
    SCOPED_TRACE(rckt::EncoderKindName(kind));
    Rng init(98);
    std::unique_ptr<rckt::BiEncoder> encoder =
        rckt::MakeBiEncoder(kind, dim, 2, 2, 0.2f, init);
    const ag::RecurrentCell cell = kind == rckt::EncoderKind::kDKT
                                       ? ag::RecurrentCell::kLstm
                                       : ag::RecurrentCell::kGru;
    const AttentionForward forward = [&](const std::vector<ag::Variable>& x,
                                         const Context& ctx,
                                         std::vector<Tensor>*) {
      return encoder->Encode(x[0], ctx);
    };
    const AttentionForward composed = [&](const std::vector<ag::Variable>& x,
                                          const Context& ctx,
                                          std::vector<Tensor>*) {
      return reference::ComposedBiRecurrentEncode(*encoder, cell, x[0], 2,
                                                  0.2f, ctx);
    };
    ExpectRunsBitEqual(RunAttention(*encoder, inputs, forward, true, 2),
                       RunAttention(*encoder, inputs, composed, true, 2));
  }
}

}  // namespace
}  // namespace nn
}  // namespace kt
