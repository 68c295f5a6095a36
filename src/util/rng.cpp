#include "util/rng.hpp"

#include <cmath>

namespace wavetune::util {

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  const std::uint64_t initstate = splitmix64(sm);
  const std::uint64_t initseq = splitmix64(sm);
  inc_ = (initseq << 1u) | 1u;
  state_ = 0u;
  (*this)();
  state_ += initstate;
  (*this)();
}

Rng::Rng(std::uint64_t state, std::uint64_t stream) {
  inc_ = (stream << 1u) | 1u;
  state_ = 0u;
  (*this)();
  state_ += state;
  (*this)();
}

Rng::result_type Rng::operator()() {
  const std::uint64_t oldstate = state_;
  state_ = oldstate * 6364136223846793005ULL + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((oldstate >> 18u) ^ oldstate) >> 27u);
  const auto rot = static_cast<std::uint32_t>(oldstate >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1u;
  if (range == 0) {  // full 64-bit range
    const std::uint64_t v = (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
    return static_cast<std::int64_t>(v);
  }
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0u - range) % range;
  for (;;) {
    const std::uint64_t v = (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
    if (v >= threshold) return lo + static_cast<std::int64_t>(v % range);
  }
}

double Rng::uniform_real(double lo, double hi) {
  const std::uint64_t v = (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  const double unit = static_cast<double>(v >> 11) * 0x1.0p-53;
  return lo + unit * (hi - lo);
}

double Rng::normal(double mean, double stddev) {
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform_real(-1.0, 1.0);
    v = uniform_real(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return mean + stddev * u * factor;
}

bool Rng::bernoulli(double p) { return uniform_real() < p; }

Rng Rng::fork() {
  const std::uint64_t child_state = (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  const std::uint64_t child_stream = (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  return Rng(child_state, child_stream);
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  if (k > n) throw std::invalid_argument("Rng::sample_indices: k > n");
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  shuffle(all);
  all.resize(k);
  return all;
}

}  // namespace wavetune::util
