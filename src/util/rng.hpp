// Deterministic pseudo-random number generation for WaveTune.
//
// All stochastic behaviour in the library (training-set sampling, synthetic
// workload jitter, cross-validation splits) flows through `Rng` so that every
// experiment is reproducible from a single seed. The generator is PCG32
// (O'Neill, 2014): small state, excellent statistical quality, and cheap to
// fork into independent streams.
#pragma once

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace wavetune::util {

/// splitmix64 step; used to expand a single user seed into PCG state/stream
/// and as the stateless payoff/source hash of the nash and synthetic
/// kernels. Inline: those kernels call it once per hashed entry.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// PCG32 generator. Satisfies UniformRandomBitGenerator so it can be used
/// with <random> distributions, though the member helpers below are the
/// preferred interface.
class Rng {
public:
  using result_type = std::uint32_t;

  /// Seeds state and stream from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  /// Constructs from explicit PCG state and stream-id (advanced use).
  Rng(std::uint64_t state, std::uint64_t stream);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  /// Next raw 32 bits.
  result_type operator()();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo = 0.0, double hi = 1.0);

  /// Standard normal via Box-Muller (cached spare value).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p);

  /// Forks an independent stream; the child never correlates with parent.
  Rng fork();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

private:
  std::uint64_t state_;
  std::uint64_t inc_;
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace wavetune::util
