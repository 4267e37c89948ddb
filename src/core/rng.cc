#include "core/rng.h"

#include <cmath>

#include "core/check.h"

namespace kt {
namespace {

// SplitMix64: used only to expand the user seed into xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// One xoshiro256** step on the state words `s`.
inline uint64_t Xoshiro256StarStar(uint64_t* s) {
  const uint64_t result = Rotl(s[1] * 5, 7) * 9;
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = Rotl(s[3], 45);
  return result;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextU64() { return Xoshiro256StarStar(state_); }

double Rng::Uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t n) {
  KT_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t x;
  do {
    x = NextU64();
  } while (x >= limit);
  return static_cast<int64_t>(x % un);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 is kept away from zero so log() is finite.
  double u1;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

void Rng::FillKeepMask(double p, uint8_t* keep, int64_t n) {
  // Uniform() < p  <=>  (x >> 11) * 2^-53 < p  <=>  (x >> 11) < ceil(p * 2^53):
  // the scaling by 2^53 is exact and x >> 11 is an integer. p <= 0 (or NaN)
  // never drops and p >= 1 always does, as Bernoulli does.
  const uint64_t threshold =
      !(p > 0.0) ? 0
      : p >= 1.0 ? (uint64_t{1} << 53)
                 : static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
  uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
  for (int64_t i = 0; i < n; ++i)
    keep[i] = (Xoshiro256StarStar(s) >> 11) < threshold ? 0 : 1;
  for (int i = 0; i < 4; ++i) state_[i] = s[i];
}

Rng Rng::Fork() { return Rng(NextU64()); }

Rng::State Rng::GetState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.has_cached_gaussian = has_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::SetState(const State& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  has_cached_gaussian_ = state.has_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

}  // namespace kt
