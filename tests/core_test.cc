#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#ifdef __GLIBC__
#include <sys/resource.h>
#endif

#include "core/check.h"
#include "core/cpu.h"
#include "core/hash.h"
#include "core/memory_policy.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "core/timer.h"

namespace kt {
namespace {

TEST(CheckTest, PassesAndFails) {
  KT_CHECK(true) << "never printed";
  KT_CHECK_EQ(2 + 2, 4);
  EXPECT_DEATH(KT_CHECK_LT(3, 2) << "context", "KT_CHECK");
  EXPECT_DEATH(KT_CHECK_EQ(1, 2), "1 vs 2");
}

TEST(StatusTest, OkAndErrors) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "Ok");
  Status err = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad dim");
}

TEST(ResultTest, HoldsValueOrStatus) {
  {
    Result<int> good(42);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
  }

  Result<int> bad(Status::NotFound("missing"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_DEATH(bad.value(), "NotFound");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(RngTest, UniformIntBoundsAndCoverage) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(5);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 5);
    counts[static_cast<size_t>(v)]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
  EXPECT_DEATH(rng.UniformInt(0), "KT_CHECK");
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// FillKeepMask is the dropout mask drawn inline: the same bytes and the
// same generator state afterwards as a loop of Bernoulli calls.
TEST(RngTest, FillKeepMaskMatchesBernoulliLoop) {
  const double ps[] = {0.1, 0.2, 0.3, 1.0 / 3.0, 0.5,
                       static_cast<float>(1.0 / 3.0), 0.0, 1.0};
  for (double p : ps) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    Rng loop_rng(29), fill_rng(29);
    const int64_t n = 10007;
    std::vector<uint8_t> expected(static_cast<size_t>(n));
    for (uint8_t& keep : expected) keep = loop_rng.Bernoulli(p) ? 0 : 1;
    std::vector<uint8_t> keep(static_cast<size_t>(n), 7);
    fill_rng.FillKeepMask(p, keep.data(), n);
    EXPECT_EQ(keep, expected);
    const Rng::State a = loop_rng.GetState(), b = fill_rng.GetState();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]) << "word " << i;
    EXPECT_EQ(loop_rng.NextU64(), fill_rng.NextU64());
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(23);
  Rng child = a.Fork();
  // Forked stream differs from the parent's continuation.
  EXPECT_NE(child.NextU64(), a.NextU64());
}

TEST(FnvTest, KnownAnswerVectors) {
  constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  EXPECT_EQ(Fnv1a("", kOffsetBasis), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a("a", kOffsetBasis), 0xaf63dc4c8601ec8cull);
  // The project seed, which shard routing and cold-tier file names store.
  EXPECT_EQ(Fnv1a("a"), 0x44bd8ad473cd9906ull);
  // Integers fold least significant byte first on every host.
  EXPECT_EQ(FnvMixU64(kFnvOffset, 0x61),
            Fnv1a(std::string("a\0\0\0\0\0\0\0", 8)));
}

TEST(StringUtilTest, StrPrintf) {
  EXPECT_EQ(StrPrintf("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrPrintf("%s", ""), "");
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, FormatFloat) {
  EXPECT_EQ(FormatFloat(0.79468, 4), "0.7947");
  EXPECT_EQ(FormatFloat(1.0, 2), "1.00");
}

TEST(CpuProbeTest, MatchesBuiltinAndIsStable) {
  const cpu::Features& f1 = cpu::Get();
  const cpu::Features& f2 = cpu::Get();
  EXPECT_EQ(&f1, &f2);  // one cached probe, not one per call
#if defined(__x86_64__)
  EXPECT_EQ(f1.avx2, static_cast<bool>(__builtin_cpu_supports("avx2")));
  EXPECT_EQ(f1.fma, static_cast<bool>(__builtin_cpu_supports("fma")));
  EXPECT_EQ(f1.avx512f,
            static_cast<bool>(__builtin_cpu_supports("avx512f")));
#else
  EXPECT_FALSE(f1.avx2);
  EXPECT_FALSE(f1.fma);
  EXPECT_FALSE(f1.avx512f);
#endif
}

TEST(CpuProbeTest, IdStringReflectsFeatures) {
  cpu::Features none;
  cpu::SetForTest(&none);
  EXPECT_EQ(cpu::IdString(), "scalar");
  cpu::Features both;
  both.avx2 = true;
  both.fma = true;
  cpu::SetForTest(&both);
  EXPECT_EQ(cpu::IdString(), "avx2+fma");
  cpu::Features wide = both;
  wide.avx512f = true;
  cpu::SetForTest(&wide);
  EXPECT_EQ(cpu::IdString(), "avx2+fma+avx512f");
  cpu::SetForTest(nullptr);
  EXPECT_FALSE(cpu::IdString().empty());
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"Model", "AUC"});
  table.AddRow({"DKT", "0.7706"});
  table.AddSeparator();
  table.AddRow({"RCKT-AKT", "0.7947"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| Model"), std::string::npos);
  EXPECT_NE(out.find("| RCKT-AKT | 0.7947 |"), std::string::npos);
  EXPECT_DEATH(table.AddRow({"only one"}), "KT_CHECK");
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  EXPECT_GE(timer.ElapsedMs(), 0.0);
  EXPECT_LT(timer.ElapsedSeconds(), 10.0);
}

#ifdef __GLIBC__
int64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// Allocates, touches and frees 64 x 1 MiB buffers; returns the minor page
// faults taken. Under glibc's defaults each buffer is its own mmap, so every
// round faults all 64 MiB in again.
int64_t FaultsOfOneAllocationRound() {
  constexpr size_t kBuffers = 64;
  constexpr size_t kBytes = size_t{1} << 20;
  const int64_t before = MinorFaults();
  std::vector<void*> buffers(kBuffers);
  for (void*& buffer : buffers) {
    buffer = std::malloc(kBytes);
    std::memset(buffer, 1, kBytes);
    // Keeps the compiler from eliding the malloc/memset/free triple.
    asm volatile("" : : "r"(buffer) : "memory");
  }
  for (void* buffer : buffers) std::free(buffer);
  return MinorFaults() - before;
}

TEST(MemoryPolicyTest, RetainedMemoryIsReusedWithoutFaults) {
  if (!RetainFreedMemory()) {
    GTEST_SKIP() << "allocator ignores mallopt (sanitizer malloc)";
  }
  const int64_t first = FaultsOfOneAllocationRound();
  const int64_t second = FaultsOfOneAllocationRound();
  EXPECT_LT(second * 10, first) << "first round " << first
                                << " faults, second round " << second;
}
#endif

}  // namespace
}  // namespace kt
