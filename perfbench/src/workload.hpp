// The benchmark's workloads as self-describing parameter tuples.
//
// Each workload is plain data: the apps and sizes its jobs solve, the
// fixed explicit recipes it times and the job order, plus why it was
// chosen; the thread counts are the same for every workload. isValid() checks the tuple
// and operator<< prints all of it, so every run states exactly what it ran
// and can be replayed from its output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/params.hpp"

namespace perfbench {

enum class App { kEditDist, kSeqCmp, kNash, kSynthetic };
const char* app_name(App app);

/// Threads a workload may use in total: clients + queue workers + pool
/// workers (the benchmark host has 4 vCPUs).
inline constexpr std::size_t kThreadBudget = 4;

/// Every workload runs one closed-loop client submitting lone jobs to an
/// engine with one queue worker and a one-worker pool, so CPU phases run
/// on the executing thread. With two pool workers every tile-diagonal
/// waits for the slowest thread, which multiplies the host's CPU steal
/// into the timings (see perfbench/README.md).
inline constexpr std::size_t kClients = 1;
inline constexpr std::size_t kQueueWorkers = 1;
inline constexpr std::size_t kPoolWorkers = 1;
static_assert(kClients + kQueueWorkers + kPoolWorkers <= kThreadBudget);

/// One fixed, explicit recipe: which instance a job solves and exactly how.
/// Recipes that share (app, dim, payload) solve the same instance.
struct RecipeParams {
  App app = App::kSynthetic;
  std::size_t dim = 0;
  std::size_t payload = 0;  ///< which seeded payload of (app, dim)
  /// nash: fictitious-play rounds; synthetic: tsize. Unused otherwise.
  double grain = 0.0;
  std::string backend;
  wavetune::core::TunableParams params;
  /// > 0: compile under a residency cap of (whole-grid bytes / divisor),
  /// so the planner picks a strip size and the band streams.
  std::size_t cap_divisor = 0;
};

struct WorkloadParams {
  std::string name;
  std::vector<RecipeParams> recipes;
  /// Recipe index of job k is pattern[k % size].
  std::vector<std::size_t> pattern;
  std::size_t warmup_steps = 0;  ///< closed-loop jobs run inside set-up
  std::string why;

  bool isValid() const;
  friend std::ostream& operator<<(std::ostream& os, const WorkloadParams& p);
};

/// All workloads, in BENCHMARK.json order.
const std::vector<WorkloadParams>& all_workloads();

/// nullptr for an unknown name.
const WorkloadParams* find_workload(const std::string& name);

}  // namespace perfbench
