#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/rng.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace kt {
namespace {

TEST(TensorTest, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.dim(), 0);
  EXPECT_EQ(t.numel(), 1);
  EXPECT_FLOAT_EQ(t.item(), 0.0f);
}

TEST(TensorTest, ZerosOnesFull) {
  Tensor z = Tensor::Zeros({2, 3});
  Tensor o = Tensor::Ones({2, 3});
  Tensor f = Tensor::Full({2, 3}, 2.5f);
  EXPECT_EQ(z.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(z.flat(i), 0.0f);
    EXPECT_FLOAT_EQ(o.flat(i), 1.0f);
    EXPECT_FLOAT_EQ(f.flat(i), 2.5f);
  }
}

TEST(TensorTest, AtIndexing) {
  Tensor t({2, 3});
  t.at({1, 2}) = 7.0f;
  EXPECT_FLOAT_EQ(t.at({1, 2}), 7.0f);
  EXPECT_FLOAT_EQ(t.flat(5), 7.0f);
}

TEST(TensorTest, FromValuesChecksCount) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_DEATH(Tensor({2, 2}, {1, 2, 3}), "KT_CHECK");
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor t({2, 3});
  Tensor r = t.Reshape({3, 2});
  r.flat(0) = 9.0f;
  EXPECT_FLOAT_EQ(t.flat(0), 9.0f);
}

TEST(TensorTest, ReshapeInfersDimension) {
  Tensor t({2, 6});
  Tensor r = t.Reshape({4, -1});
  EXPECT_EQ(r.size(1), 3);
  EXPECT_DEATH(t.Reshape({5, -1}), "KT_CHECK");
}

TEST(TensorTest, CloneIsDeep) {
  Tensor t({3});
  Tensor c = t.Clone();
  c.flat(0) = 5.0f;
  EXPECT_FLOAT_EQ(t.flat(0), 0.0f);
}

TEST(TensorTest, TransposeLast2) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.TransposeLast2();
  EXPECT_EQ(tt.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(tt.at({0, 1}), 4.0f);
  EXPECT_FLOAT_EQ(tt.at({2, 0}), 3.0f);
}

TEST(TensorTest, TransposeLast2Batched) {
  Tensor t({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor tt = t.TransposeLast2();
  EXPECT_FLOAT_EQ(tt.at({0, 0, 1}), 3.0f);
  EXPECT_FLOAT_EQ(tt.at({1, 1, 0}), 6.0f);
}

TEST(TensorTest, SliceMiddleDim) {
  Tensor t({2, 4, 2});
  for (int64_t i = 0; i < t.numel(); ++i) t.flat(i) = static_cast<float>(i);
  Tensor s = t.Slice(1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 2}));
  EXPECT_FLOAT_EQ(s.at({0, 0, 0}), t.at({0, 1, 0}));
  EXPECT_FLOAT_EQ(s.at({1, 1, 1}), t.at({1, 2, 1}));
}

TEST(TensorTest, SliceNegativeDim) {
  Tensor t({2, 4});
  Tensor s = t.Slice(-1, 0, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
}

TEST(TensorTest, ConcatDim0AndDim1) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({1, 2}, {3, 4});
  Tensor c0 = Tensor::Concat({a, b}, 0);
  EXPECT_EQ(c0.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c0.at({1, 1}), 4.0f);
  Tensor c1 = Tensor::Concat({a, b}, 1);
  EXPECT_EQ(c1.shape(), (Shape{1, 4}));
  EXPECT_FLOAT_EQ(c1.at({0, 2}), 3.0f);
}

TEST(TensorTest, ConcatRoundTripsWithSlice) {
  Rng rng(3);
  Tensor a = Tensor::Uniform({2, 3, 4}, -1, 1, rng);
  Tensor b = Tensor::Uniform({2, 2, 4}, -1, 1, rng);
  Tensor c = Tensor::Concat({a, b}, 1);
  EXPECT_TRUE(c.Slice(1, 0, 3).AllClose(a));
  EXPECT_TRUE(c.Slice(1, 3, 5).AllClose(b));
}

TEST(TensorTest, IndexSelectRows) {
  Tensor table({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor rows = Tensor::IndexSelectRows(table, {2, 0, 2});
  EXPECT_EQ(rows.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(rows.at({0, 0}), 5.0f);
  EXPECT_FLOAT_EQ(rows.at({1, 1}), 2.0f);
  EXPECT_FLOAT_EQ(rows.at({2, 1}), 6.0f);
}

TEST(TensorTest, AllCloseDetectsNanAndDiff) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f, 2.0f + 1e-3f});
  EXPECT_FALSE(a.AllClose(b));
  EXPECT_TRUE(a.AllClose(b, /*rtol=*/1e-2f));
  Tensor n({2}, {1.0f, NAN});
  EXPECT_FALSE(n.AllClose(n));
}

// ---- Broadcasting ----

TEST(BroadcastTest, ShapeRules) {
  EXPECT_EQ(BroadcastShape({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShape({2, 1}, {1, 4}), (Shape{2, 4}));
  EXPECT_EQ(BroadcastShape({}, {5}), (Shape{5}));
  EXPECT_DEATH(BroadcastShape({2, 3}, {4}), "KT_CHECK");
}

TEST(BroadcastTest, BroadcastsTo) {
  EXPECT_TRUE(BroadcastsTo({3}, {2, 3}));
  EXPECT_TRUE(BroadcastsTo({1, 3}, {2, 3}));
  EXPECT_FALSE(BroadcastsTo({2}, {2, 3}));
  EXPECT_FALSE(BroadcastsTo({2, 3}, {3}));
}

TEST(BroadcastTest, AddBiasPattern) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias({3}, {10, 20, 30});
  Tensor y = Add(x, bias);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 11.0f);
  EXPECT_FLOAT_EQ(y.at({1, 2}), 36.0f);
}

TEST(BroadcastTest, MulColumnBroadcast) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col({2, 1}, {2, 10});
  Tensor y = Mul(x, col);
  EXPECT_FLOAT_EQ(y.at({0, 2}), 6.0f);
  EXPECT_FLOAT_EQ(y.at({1, 0}), 40.0f);
}

TEST(BroadcastTest, ReduceToShapeIsAdjoint) {
  Rng rng(5);
  Tensor g = Tensor::Uniform({2, 3, 4}, -1, 1, rng);
  Tensor reduced = ReduceToShape(g, {3, 1});
  EXPECT_EQ(reduced.shape(), (Shape{3, 1}));
  // Entry (j, 0) must equal the sum over dims 0 and 2.
  float expected = 0.0f;
  for (int64_t i = 0; i < 2; ++i)
    for (int64_t k = 0; k < 4; ++k) expected += g.at({i, 1, k});
  EXPECT_NEAR(reduced.at({1, 0}), expected, 1e-5f);
}

// ---- Elementwise ops ----

TEST(OpsTest, UnaryFunctions) {
  Tensor x({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(Relu(x).flat(0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).flat(2), 2.0f);
  EXPECT_NEAR(Sigmoid(x).flat(1), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(x).flat(2), std::tanh(2.0f), 1e-6f);
  EXPECT_NEAR(Exp(x).flat(0), std::exp(-1.0f), 1e-6f);
  EXPECT_FLOAT_EQ(Abs(x).flat(0), 1.0f);
  EXPECT_FLOAT_EQ(Neg(x).flat(2), -2.0f);
}

TEST(OpsTest, GreaterEqualMask) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {2, 2, 2});
  Tensor m = GreaterEqualMask(a, b);
  EXPECT_FLOAT_EQ(m.flat(0), 0.0f);
  EXPECT_FLOAT_EQ(m.flat(1), 1.0f);
  EXPECT_FLOAT_EQ(m.flat(2), 1.0f);
}

// ---- Matrix products ----

TEST(MatMulTest, Known2x2) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 19.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 22.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 43.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 50.0f);
}

TEST(MatMulTest, MatchesNaiveReference) {
  Rng rng(7);
  const int64_t m = 9, k = 13, n = 7;
  Tensor a = Tensor::Uniform({m, k}, -1, 1, rng);
  Tensor b = Tensor::Uniform({k, n}, -1, 1, rng);
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float expected = 0.0f;
      for (int64_t p = 0; p < k; ++p) expected += a.at({i, p}) * b.at({p, j});
      EXPECT_NEAR(c.at({i, j}), expected, 1e-4f);
    }
  }
}

TEST(MatMulTest, BatchMatMul) {
  Rng rng(9);
  Tensor a = Tensor::Uniform({3, 2, 4}, -1, 1, rng);
  Tensor b = Tensor::Uniform({3, 4, 5}, -1, 1, rng);
  Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 5}));
  // Batch 1 must equal the standalone 2-D product.
  Tensor a1 = a.Slice(0, 1, 2).Reshape({2, 4});
  Tensor b1 = b.Slice(0, 1, 2).Reshape({4, 5});
  Tensor c1 = c.Slice(0, 1, 2).Reshape({2, 5});
  EXPECT_TRUE(c1.AllClose(MatMul(a1, b1), 1e-4f));
}

TEST(GemmTest, TransposedVariantsAgree) {
  Rng rng(11);
  const int64_t m = 5, k = 6, n = 4;
  Tensor a = Tensor::Uniform({m, k}, -1, 1, rng);
  Tensor b = Tensor::Uniform({k, n}, -1, 1, rng);
  Tensor expected = MatMul(a, b);

  // GemmTransA: pass a^T stored as [k, m].
  Tensor at = a.TransposeLast2();
  Tensor c1 = Tensor::Zeros({m, n});
  GemmTransAAccumulate(at.data(), b.data(), c1.data(), m, k, n);
  EXPECT_TRUE(c1.AllClose(expected, 1e-4f));

  // GemmTransB: pass b^T stored as [n, k].
  Tensor bt = b.TransposeLast2();
  Tensor c2 = Tensor::Zeros({m, n});
  GemmTransBAccumulate(a.data(), bt.data(), c2.data(), m, k, n);
  EXPECT_TRUE(c2.AllClose(expected, 1e-4f));
}

// ---- Reductions & softmax ----

TEST(ReduceTest, SumMeanAll) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(SumAll(t).item(), 10.0f);
  EXPECT_FLOAT_EQ(MeanAll(t).item(), 2.5f);
}

TEST(ReduceTest, SumAlongDims) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = Sum(t, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.flat(0), 5.0f);
  Tensor s1 = Sum(t, 1, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.flat(1), 15.0f);
  Tensor m1 = Mean(t, -1);
  EXPECT_FLOAT_EQ(m1.flat(0), 2.0f);
}

TEST(ReduceTest, MaxLastDimWithArgmax) {
  Tensor t({2, 3}, {1, 9, 3, 4, 2, 8});
  std::vector<int64_t> argmax;
  Tensor m = MaxLastDim(t, &argmax);
  EXPECT_FLOAT_EQ(m.flat(0), 9.0f);
  EXPECT_FLOAT_EQ(m.flat(1), 8.0f);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_EQ(argmax[1], 2);
}

TEST(SoftmaxTest, RowsSumToOneAndOrderPreserved) {
  Rng rng(13);
  Tensor t = Tensor::Uniform({4, 6}, -5, 5, rng);
  Tensor s = SoftmaxLastDim(t);
  for (int64_t r = 0; r < 4; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < 6; ++c) total += s.at({r, c});
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  // Softmax is monotone: argmax is preserved.
  std::vector<int64_t> before, after;
  MaxLastDim(t, &before);
  MaxLastDim(s, &after);
  EXPECT_EQ(before, after);
}

TEST(SoftmaxTest, StableForLargeInputs) {
  Tensor t({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = SoftmaxLastDim(t);
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(s.flat(i), 1.0f / 3.0f, 1e-5f);
}

// ---- Property-style parameterized sweep over broadcast shapes ----

struct BroadcastCase {
  Shape a, b, expected;
};

// Names each case after its operand shapes ("2x1x4+3x1", "scalar+2x2").
// Without it gtest prints the raw bytes of the three vectors, heap pointers
// included, so the discovered test names changed with every build.
void PrintTo(const BroadcastCase& c, std::ostream* os) {
  auto print_shape = [os](const Shape& s) {
    if (s.empty()) {
      *os << "scalar";
      return;
    }
    for (size_t i = 0; i < s.size(); ++i) *os << (i ? "x" : "") << s[i];
  };
  print_shape(c.a);
  *os << "+";
  print_shape(c.b);
}

class BroadcastShapeSweep : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastShapeSweep, AddProducesExpectedShapeAndValues) {
  const BroadcastCase& c = GetParam();
  Rng rng(17);
  Tensor a = Tensor::Uniform(c.a, -2, 2, rng);
  Tensor b = Tensor::Uniform(c.b, -2, 2, rng);
  Tensor sum = Add(a, b);
  EXPECT_EQ(sum.shape(), c.expected);
  // Commutativity under broadcasting.
  EXPECT_TRUE(sum.AllClose(Add(b, a)));
  // Sub(a+b, b) recovers a broadcast to the output shape.
  Tensor recovered = Sub(sum, b);
  Tensor a_broadcast = Add(a, Tensor::Zeros(c.expected));
  EXPECT_TRUE(recovered.AllClose(a_broadcast, 1e-4f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastShapeSweep,
    ::testing::Values(BroadcastCase{{2, 3}, {2, 3}, {2, 3}},
                      BroadcastCase{{2, 3}, {3}, {2, 3}},
                      BroadcastCase{{2, 1, 4}, {3, 1}, {2, 3, 4}},
                      BroadcastCase{{1}, {5, 5}, {5, 5}},
                      BroadcastCase{{4, 1}, {1, 6}, {4, 6}},
                      BroadcastCase{{}, {2, 2}, {2, 2}}));

// ---- Parallel-vs-serial GEMM equivalence ----
//
// The row-blocked parallel GEMM kernels promise *bit-identical* output for
// every thread count (each output row keeps the serial kernel's per-element
// FP update order). The sweep straddles the m*k*n parallel threshold so both
// the serial fallback and the pool path are exercised.

struct GemmCase {
  int64_t m, k, n;
};

void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << c.m << "x" << c.k << "x" << c.n;
}

class GemmParallelEquivalence : public ::testing::TestWithParam<GemmCase> {
 protected:
  void SetUp() override { previous_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(previous_threads_); }

  static bool BitEqual(const Tensor& a, const Tensor& b) {
    return std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.numel())) == 0;
  }

  int previous_threads_ = 1;
};

TEST_P(GemmParallelEquivalence, AllKernelsBitIdenticalToSerial) {
  const GemmCase& c = GetParam();
  Rng rng(41);
  // Operands for every layout: plain (m,k)x(k,n), TransA (k,m)x(k,n),
  // TransB (m,k)x(n,k); a shared non-zero accumulator seed.
  Tensor a = Tensor::Uniform({c.m, c.k}, -1, 1, rng);
  Tensor b = Tensor::Uniform({c.k, c.n}, -1, 1, rng);
  Tensor at = Tensor::Uniform({c.k, c.m}, -1, 1, rng);
  Tensor bt = Tensor::Uniform({c.n, c.k}, -1, 1, rng);
  Tensor seed = Tensor::Uniform({c.m, c.n}, -1, 1, rng);

  struct Kernel {
    const char* name;
    std::function<void(Tensor&)> run;
  };
  const std::vector<Kernel> kernels = {
      {"Gemm",
       [&](Tensor& out) { Gemm(a.data(), b.data(), out.data(), c.m, c.k, c.n); }},
      {"GemmAccumulate",
       [&](Tensor& out) {
         out = seed.Clone();
         GemmAccumulate(a.data(), b.data(), out.data(), c.m, c.k, c.n);
       }},
      {"GemmTransAAccumulate",
       [&](Tensor& out) {
         out = seed.Clone();
         GemmTransAAccumulate(at.data(), b.data(), out.data(), c.m, c.k, c.n);
       }},
      {"GemmTransBAccumulate",
       [&](Tensor& out) {
         out = seed.Clone();
         GemmTransBAccumulate(a.data(), bt.data(), out.data(), c.m, c.k, c.n);
       }},
  };

  for (const Kernel& kernel : kernels) {
    Tensor reference({c.m, c.n});
    SetNumThreads(1);
    kernel.run(reference);
    for (int threads : {2, 4, 8}) {
      SetNumThreads(threads);
      Tensor out({c.m, c.n});
      kernel.run(out);
      EXPECT_TRUE(BitEqual(out, reference))
          << kernel.name << " diverges from serial at threads=" << threads;
    }
  }
}

// Shapes straddling the parallel threshold (m*k*n >= 1<<18 = 262144 flops):
// the first four stay on the serial path, the rest engage the pool, with
// 64x64x64 and 256x8x128 sitting exactly on the boundary.
INSTANTIATE_TEST_SUITE_P(Shapes, GemmParallelEquivalence,
                         ::testing::Values(GemmCase{9, 13, 7},      //
                                           GemmCase{2, 64, 64},     //
                                           GemmCase{64, 64, 63},    //
                                           GemmCase{1, 512, 513},   // m < 2
                                           GemmCase{64, 64, 64},    //
                                           GemmCase{256, 8, 128},   //
                                           GemmCase{96, 50, 70},    //
                                           GemmCase{33, 17, 471},   //
                                           GemmCase{128, 128, 128}));

// ---- Tiled-vs-reference kernel equivalence ----
//
// The tiled/packed kernels promise the same bits as the serial reference
// loops for every shape: each C element is a single ascending-k accumulator
// chain in both families. The sweep crosses awkward extents around the
// register-tile sizes (kMR=4 rows, kNR=8 panel columns), plus empty dims,
// and checks reference/tiled/auto at several thread counts against the
// serial reference result.
TEST(GemmKernelEquivalence, TiledAndAutoMatchReferenceBitForBit) {
  const GemmKernel previous_kernel = GetGemmKernel();
  const int previous_threads = GetNumThreads();
  // Dims from {1, 2, 3, 7, 17, 64, 65} plus tile+-1 (3..5 around kMR, 7..9
  // around kNR) and 0 for the empty cases.
  const std::vector<int64_t> ms = {0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 64, 65};
  const std::vector<int64_t> ks = {0, 1, 3, 8, 17, 64};
  const std::vector<int64_t> ns = {0, 1, 4, 7, 8, 9, 17, 65};
  Rng rng(97);
  auto fill = [&rng](std::vector<float>& v) {
    for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  };
  auto bits_equal = [](const std::vector<float>& x,
                       const std::vector<float>& y) {
    // Empty guard: data() of an empty vector may be null, and memcmp with a
    // null pointer is UB even for length 0.
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), sizeof(float) * x.size()) == 0);
  };
  for (int64_t m : ms) {
    for (int64_t k : ks) {
      for (int64_t n : ns) {
        std::vector<float> a(static_cast<size_t>(m * k));
        std::vector<float> b(static_cast<size_t>(k * n));
        std::vector<float> at(static_cast<size_t>(k * m));
        std::vector<float> bt(static_cast<size_t>(n * k));
        std::vector<float> seed(static_cast<size_t>(m * n));
        fill(a), fill(b), fill(at), fill(bt), fill(seed);

        struct Form {
          const char* name;
          std::function<void(std::vector<float>&)> run;
        };
        const std::vector<Form> forms = {
            {"Gemm",
             [&](std::vector<float>& out) {
               Gemm(a.data(), b.data(), out.data(), m, k, n);
             }},
            {"GemmAccumulate",
             [&](std::vector<float>& out) {
               out = seed;
               GemmAccumulate(a.data(), b.data(), out.data(), m, k, n);
             }},
            {"GemmTransAAccumulate",
             [&](std::vector<float>& out) {
               out = seed;
               GemmTransAAccumulate(at.data(), b.data(), out.data(), m, k, n);
             }},
            {"GemmTransBAccumulate",
             [&](std::vector<float>& out) {
               out = seed;
               GemmTransBAccumulate(a.data(), bt.data(), out.data(), m, k, n);
             }},
        };
        for (const Form& form : forms) {
          std::vector<float> reference(static_cast<size_t>(m * n));
          SetGemmKernel(GemmKernel::kReference);
          SetNumThreads(1);
          form.run(reference);
          for (GemmKernel kernel : {GemmKernel::kTiled, GemmKernel::kAuto}) {
            SetGemmKernel(kernel);
            for (int threads : {1, 2, 8}) {
              SetNumThreads(threads);
              std::vector<float> out(static_cast<size_t>(m * n));
              form.run(out);
              EXPECT_TRUE(bits_equal(out, reference))
                  << form.name << " " << m << "x" << k << "x" << n
                  << " diverges from serial reference (kernel="
                  << (kernel == GemmKernel::kTiled ? "tiled" : "auto")
                  << ", threads=" << threads << ")";
            }
          }
        }
      }
    }
  }
  SetGemmKernel(previous_kernel);
  SetNumThreads(previous_threads);
}

}  // namespace
}  // namespace kt
