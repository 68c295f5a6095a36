// Order statistics and the derived ratios the benchmark reports.
//
// Every ratio is a named function so its base is stated once and checked
// by the benchmark's own tests (perfbench/tests/test_perfbench.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (q = 0 is the minimum, q = 1 the maximum, q = 0.5 the usual median).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile: no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile: q outside [0, 1]");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Samples strictly greater than `value`.
inline std::size_t count_beyond(const std::vector<double>& v, double value) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [value](double x) { return x > value; }));
}

/// A tail percentile is reported only when it is resolved: at least
/// `min_beyond` samples must lie strictly above it. Otherwise nullopt —
/// the caller must size the workload up, not print an unsupported tail.
inline std::optional<double> tail_quantile(const std::vector<double>& v, double q,
                                           std::size_t min_beyond = 10) {
  if (v.empty()) return std::nullopt;
  const double value = quantile(v, q);
  if (count_beyond(v, value) < min_beyond) return std::nullopt;
  return value;
}

// ---------------------------------------------------------------- ratios

/// part / whole, 0 when the whole is 0 (a layer the jobs never entered).
inline double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// Mean jobs per dispatched same-plan group, from a delta of
/// EngineStats::batch_occupancy (bucket i counts groups of i + 1 jobs; the
/// last bucket is open-ended and counted at its lower edge). Base: groups.
template <std::size_t N>
double mean_group_size(const std::array<std::uint64_t, N>& groups_by_size) {
  double jobs = 0.0;
  double groups = 0.0;
  for (std::size_t i = 0; i < N; ++i) {
    jobs += static_cast<double>(groups_by_size[i]) * static_cast<double>(i + 1);
    groups += static_cast<double>(groups_by_size[i]);
  }
  return share(jobs, groups);
}

/// Parallel efficiency of a CPU phase: the single-thread kernel cost per
/// cell over the measured parallel cost per cell times the threads that
/// ran it. Base: kernel_ns_per_cell x threads.
inline double parallel_efficiency(double kernel_ns_per_cell, double cpu_ns_per_cell,
                                  std::size_t threads) {
  return share(kernel_ns_per_cell, cpu_ns_per_cell * static_cast<double>(threads));
}

/// Simulated speed-up of a plan. Base: the plan's simulated ns.
inline double speedup(double serial_ns, double plan_ns) { return share(serial_ns, plan_ns); }

/// How close the tuner's prediction comes to the exhaustive-search best, in
/// percent. Base: the predicted configuration's simulated ns.
inline double pct_of_best(double best_ns, double predicted_ns) {
  return 100.0 * share(best_ns, predicted_ns);
}

/// Simulated time the strip pipeline hid. Base: the serialized-strip ns.
inline double overlap_fraction(double overlapped_ns, double serialized_ns) {
  return serialized_ns > 0.0 ? 1.0 - overlapped_ns / serialized_ns : 0.0;
}

}  // namespace perfbench
