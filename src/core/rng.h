// Deterministic random number generation.
//
// All randomness in the library (simulator, parameter init, dropout, data
// shuffling) flows through Rng so that every experiment is reproducible from
// a single seed. The generator is xoshiro256** seeded via SplitMix64 — fast,
// high-quality, and identical across platforms (unlike std::mt19937
// distributions, whose outputs vary by standard library).
#ifndef KT_CORE_RNG_H_
#define KT_CORE_RNG_H_

#include <cstdint>
#include <vector>

namespace kt {

class Rng {
 public:
  explicit Rng(uint64_t seed = 42);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform in [0, 1).
  double Uniform();
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);
  // Standard normal via Box-Muller (cached second value).
  double Gaussian();
  double Gaussian(double mean, double stddev);
  // Bernoulli draw with probability `p` of true.
  bool Bernoulli(double p);
  // Dropout keep mask: keep[i] = Bernoulli(p) ? 0 : 1 for i in [0, n), one
  // draw per element in order. The masks and the generator state after the
  // call are exactly those of n Bernoulli(p) calls; the draws run inline.
  void FillKeepMask(double p, uint8_t* keep, int64_t n);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (int64_t i = static_cast<int64_t>(v.size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap(v[i], v[j]);
    }
  }

  // Derives an independent child generator; used to give each component its
  // own stream so adding randomness in one place never perturbs another.
  Rng Fork();

  // Full generator state (xoshiro words + Box-Muller cache) so a checkpoint
  // can freeze a stream mid-run and a resumed run replays the exact same
  // draw sequence.
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached_gaussian = false;
    double cached_gaussian = 0.0;
  };
  State GetState() const;
  void SetState(const State& state);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace kt

#endif  // KT_CORE_RNG_H_
