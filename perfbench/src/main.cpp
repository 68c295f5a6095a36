// perfbench: end-to-end and per-layer benchmark of the wavetune engine.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Drives the public api::Engine from one process with one closed-loop
// client submitting lone jobs through Engine::run (workloads:
// perfbench/src/workload.cpp). Every completed grid is compared with the
// digest of a HybridExecutor::run_serial reference of its instance, outside
// the timed interval; any wrong grid makes the exit code non-zero. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md for every definition).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "api/backend.hpp"
#include "api/engine.hpp"
#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "autotune/param_space.hpp"
#include "autotune/search.hpp"
#include "autotune/tuner.hpp"
#include "core/diag.hpp"
#include "core/executor.hpp"
#include "core/spec.hpp"
#include "core/streaming.hpp"
#include "cpu/thread_pool.hpp"
#include "ocl/buffer.hpp"
#include "sim/system_profile.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace {

using namespace wavetune;
using perfbench::App;
using perfbench::RecipeParams;
using perfbench::SpanLog;
using perfbench::WorkloadParams;
using Clock = std::chrono::steady_clock;
using util::Json;
using util::JsonObject;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : perfbench::median(v);
}

// ------------------------------------------------------------ host state

/// Host speed: iterations per second of a fixed single-thread xorshift loop
/// run for `seconds`, in millions. Timed before and after each run, so
/// spread that tracks it is host spread, not program spread.
double calibrate(double seconds = 0.25) {
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t blocks = 0;
  const auto t0 = Clock::now();
  auto t = t0;
  do {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ++blocks;
    t = Clock::now();
  } while (ns_between(t0, t) < seconds * 1e9);
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(blocks) * 4096.0 / (ns_between(t0, t) / 1e9) / 1e6;
}

struct ProcUsage {
  double user_ns = 0.0;
  double sys_ns = 0.0;
  double minor_faults = 0.0;
};

ProcUsage proc_usage() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto ns = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e9 + static_cast<double>(tv.tv_usec) * 1e3;
  };
  return {ns(u.ru_utime), ns(u.ru_stime), static_cast<double>(u.ru_minflt)};
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------- inputs

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Builds one instance's spec from generated payload only: strings for the
/// alignment apps, payoff/source seeds for nash and synthetic.
core::WavefrontSpec make_spec(App app, std::size_t dim, double grain, std::mt19937_64& rng) {
  switch (app) {
    case App::kEditDist: {
      apps::EditDistParams p;
      p.str_a = apps::random_dna(dim, rng());
      p.str_b = apps::random_dna(dim, rng());
      return apps::make_editdist_spec(p);
    }
    case App::kSeqCmp: {
      apps::SeqCmpParams p;
      p.seq_a = apps::random_dna(dim, rng());
      p.seq_b = apps::random_dna(dim, rng());
      return apps::make_seqcmp_spec(p);
    }
    case App::kNash: {
      apps::NashParams p;
      p.dim = dim;
      p.strategies = 4;
      p.fp_iterations = static_cast<std::size_t>(grain);
      p.seed = rng();
      return apps::make_nash_spec(p);
    }
    case App::kSynthetic: {
      apps::SyntheticParams p;
      p.dim = dim;
      p.tsize = grain;
      p.dsize = 1;
      p.seed = rng();
      return apps::make_synthetic_spec(p);
    }
  }
  throw std::logic_error("make_spec: unknown app");
}

/// The fixed training space of the in-process tuner (the paper's
/// "factory" step): the reduced space widened to four dims and three
/// dsizes, so training is a seconds-scale share of set-up.
autotune::ParamSpace training_space() {
  autotune::ParamSpace s = autotune::ParamSpace::reduced();
  s.dims = {240, 480, 1000, 1500};
  s.dsizes = {1, 3, 5};
  return s;
}

/// A reference grid reduced to its size and a digest of its bytes, so the
/// references do not stay resident and peak_rss_mb measures the engine and
/// the caller's output grid rather than the benchmark's own copies.
struct GridDigest {
  std::size_t bytes = 0;
  std::uint64_t hash = 0;
};

/// FNV-1a over 64-bit words (each step is a bijection of the running
/// hash, so a single differing word always changes the digest), with a
/// byte tail and the splitmix64 finalizer.
GridDigest digest(const core::Grid& g) {
  const std::size_t n = g.size_bytes();
  const std::byte* p = g.data();
  std::uint64_t h = 1469598103934665603ull ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  const std::string_view tail(reinterpret_cast<const char*>(p + i), n - i);
  return {n, mix(h ^ core::fnv1a(tail))};
}

struct Instance {
  core::WavefrontSpec spec;
  GridDigest reference;
};

/// Comparison with the run_serial reference's digest.
bool grid_matches(const core::Grid& got, const GridDigest& want) {
  if (got.size_bytes() != want.bytes) return false;
  return digest(got).hash == want.hash;
}

// ------------------------------------------------------------ job records

/// What one completed job reported, reduced to the figures the metrics use.
struct JobRecord {
  std::size_t recipe = 0;  ///< index into the workload's recipes
  bool traced = false;
  double latency_ns = 0.0;  ///< the Engine::run call
  double wall_ns = 0.0;     ///< RunResult::wall_ns
  double rtime_ns = 0.0;    ///< simulated ns of the executed program
  double cpu_wall_ns = 0.0;
  double cpu_cells = 0.0;
  double gpu_wall_ns = 0.0;
  double gpu_cells = 0.0;
  double strips = 0.0;
  double transfer_ns = 0.0;
  double streamed_ns = 0.0;    ///< simulated ns of streamed GPU phases
  double serialized_ns = 0.0;  ///< their 1-buffer serialized baseline
  double device_bytes = 0.0;   ///< peak simulated-device bytes of the job
  bool entered_gpu() const { return gpu_cells > 0.0; }
};

/// Pool size of the per-layer probes of the parallel CPU path.
constexpr std::size_t kParallelProbeWorkers = 2;

JobRecord summarize(const core::RunResult& r, std::size_t dim) {
  JobRecord j;
  j.wall_ns = r.wall_ns;
  j.rtime_ns = r.rtime_ns;
  for (const core::PhaseTiming& ph : r.breakdown.phases) {
    const auto cells = static_cast<double>(core::cells_in_diag_range(dim, ph.d_begin, ph.d_end));
    if (ph.device == core::PhaseDevice::kCpu) {
      j.cpu_wall_ns += ph.wall_ns;
      j.cpu_cells += cells;
    } else {
      j.gpu_wall_ns += ph.wall_ns;
      j.gpu_cells += cells;
      j.transfer_ns += ph.transfer_in_ns + ph.transfer_out_ns;
      if (ph.strips > 0) {
        j.streamed_ns += ph.ns;
        j.serialized_ns += ph.serialized_ns;
      }
    }
    j.strips += static_cast<double>(ph.strips);
  }
  return j;
}

/// Counters sampled around traced jobs and the batch probe; their deltas
/// give the api, profile and process ratios.
struct Counters {
  api::EngineStats stats;
  api::ShardedQueueStats queue;
  ProcUsage usage;
};

struct CounterTotals {
  double jobs = 0.0;  ///< jobs that reached a terminal state
  double batched = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double pop_blocks = 0.0;
  double profile_samples = 0.0;
  std::array<std::uint64_t, api::EngineStats::kBatchOccupancyBuckets> groups{};
  ProcUsage usage;

  void add(const Counters& a, const Counters& b) {
    const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
    jobs += d(a.stats.jobs_completed + a.stats.jobs_failed, b.stats.jobs_completed + b.stats.jobs_failed);
    batched += d(a.stats.jobs_batched, b.stats.jobs_batched);
    hits += d(a.stats.plan_cache_hits, b.stats.plan_cache_hits);
    misses += d(a.stats.plans_compiled, b.stats.plans_compiled);
    pop_blocks += d(a.queue.pop_blocks, b.queue.pop_blocks);
    profile_samples += d(a.stats.profile_samples_recorded, b.stats.profile_samples_recorded);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      groups[i] += b.stats.batch_occupancy[i] - a.stats.batch_occupancy[i];
    }
    usage.user_ns += b.usage.user_ns - a.usage.user_ns;
    usage.sys_ns += b.usage.sys_ns - a.usage.sys_ns;
    usage.minor_faults += b.usage.minor_faults - a.usage.minor_faults;
  }
};

// ------------------------------------------------------------------ bench

class Bench {
public:
  Bench(const WorkloadParams& wp, std::uint64_t seed)
      : wp_(wp), seed_(seed), profile_(sim::make_i7_2600k()), rng_(mix(seed ^ 0x5eedull)) {}

  /// Generates the instances from the seed and solves each reference with
  /// run_serial. Not part of set-up.
  void prepare();
  /// One full set-up, timed into setup_s_. Leaves a warm engine behind.
  void setup(bool traced);
  /// The closed loop, for `seconds`. In trace mode it alternates 1-second
  /// untraced and traced slices, so host drift hits both halves alike.
  void measure(double seconds, bool trace_mode);
  /// Per-layer probes that time layer calls directly (trace mode only).
  void probe_layers();

  JsonObject end_to_end(bool traced_set) const;
  JsonObject per_layer(const JsonObject& untraced, const JsonObject& traced) const;

  std::size_t attempted(bool traced_set) const { return attempted_[traced_set]; }
  std::size_t errors(bool traced_set) const { return errors_[traced_set]; }
  std::size_t wrong_grids() const { return wrong_grids_; }
  /// Set-up repetitions, then per-recipe job counts and latency quartiles
  /// of the untraced jobs, as `#` lines.
  void print_summary(std::ostream& os) const;
  double setup_median(bool traced_set) const;
  const SpanLog& log() const { return log_; }
  double sim_speedup_vs_serial() const;
  double sim_pct_of_best();

private:
  api::EngineOptions engine_options() const;
  /// One closed-loop job; returns its timed nanoseconds (verification
  /// excluded). Records the job only when `record`.
  double step(std::size_t k, bool traced, bool record);
  /// Checks a completed grid and accounts for it.
  void check(const core::Grid& got, const GridDigest& want, bool traced, bool record);
  void count_error(bool traced, bool record);
  Counters counters() const { return {engine_->stats(), engine_->queue_stats(), proc_usage()}; }
  std::vector<const JobRecord*> records(bool traced_set) const;
  std::vector<const JobRecord*> gpu_records() const;
  /// Runs the GPU probe job (for workloads whose jobs never enter the GPU
  /// layers) and records it into gpu_probe_.
  void run_gpu_probe();
  /// Submits fixed small batches through the queue, the batch former and
  /// the futures, which the lone timed jobs never enter.
  void run_batch_probe();

  const WorkloadParams& wp_;
  const std::uint64_t seed_;
  const sim::SystemProfile profile_;
  std::mt19937_64 rng_;
  SpanLog log_;

  std::vector<Instance> instances_;
  std::vector<std::size_t> recipe_instance_;  ///< recipe -> instance index
  std::vector<api::CompileOptions> options_;  ///< recipe -> compile options

  std::unique_ptr<api::Engine> engine_;
  /// Output grid per recipe, shared by recipes of the same shape.
  std::vector<std::shared_ptr<core::Grid>> grids_;

  std::vector<JobRecord> jobs_;
  std::vector<JobRecord> gpu_probe_;
  std::size_t attempted_[2] = {0, 0};
  std::size_t errors_[2] = {0, 0};
  std::size_t wrong_grids_ = 0;
  double timed_ns_[2] = {0.0, 0.0};
  std::uint64_t next_job_ = 0;

  std::vector<double> setup_s_[2];
  std::vector<double> sweep_ns_, train_ns_;
  std::vector<double> submit_ns_per_job_, compile_hit_ns_, compile_miss_ns_, flush_ns_;
  std::vector<double> pool_wake_ns_, estimate_ns_, predict_ns_, serial_ns_per_cell_;
  std::vector<double> parallel_ns_per_cell_;
  CounterTotals traced_totals_;
  CounterTotals batch_totals_;
};

api::EngineOptions Bench::engine_options() const {
  api::EngineOptions o;
  o.pool_workers = perfbench::kPoolWorkers;
  o.queue_workers = perfbench::kQueueWorkers;
  return o;
}

void Bench::prepare() {
  core::HybridExecutor ref_exec(profile_, 1);
  for (const RecipeParams& r : wp_.recipes) {
    std::size_t index = instances_.size();
    for (std::size_t i = 0; i < recipe_instance_.size(); ++i) {
      const RecipeParams& o = wp_.recipes[i];
      if (o.app == r.app && o.dim == r.dim && o.payload == r.payload && o.grain == r.grain) {
        index = recipe_instance_[i];
      }
    }
    if (index == instances_.size()) {
      std::mt19937_64 payload_rng(mix(seed_ ^ mix(static_cast<std::uint64_t>(r.app) * 1000003u +
                                                  r.dim * 7919u + r.payload)));
      core::WavefrontSpec spec = make_spec(r.app, r.dim, r.grain, payload_rng);
      // One reference grid at a time; only its digest is kept.
      core::Grid ref(r.dim, spec.elem_bytes);
      ref_exec.run_serial(spec, ref);
      instances_.push_back({std::move(spec), digest(ref)});
    }
    recipe_instance_.push_back(index);

    api::CompileOptions co;
    co.backend = r.backend;
    co.params = r.params;
    if (r.cap_divisor > 0) {
      co.max_resident_bytes =
          core::whole_grid_resident_bytes(r.dim, instances_[index].spec.elem_bytes) / r.cap_divisor;
    }
    options_.push_back(std::move(co));
  }
}

void Bench::setup(bool traced) {
  // Tear-down of the previous set-up is not part of this one.
  engine_.reset();
  grids_.clear();
  log_.set_enabled(traced);

  const auto t0 = Clock::now();
  Clock::time_point warm_start;
  double warm_timed_ns = 0.0;
  {
    auto span = log_.open("setup", "bench");
    std::vector<autotune::InstanceResult> sweep;
    {
      auto s = log_.open("autotune.sweep", "autotune");
      const auto a = Clock::now();
      sweep = autotune::ExhaustiveSearch(profile_, training_space()).sweep();
      sweep_ns_.push_back(ns_between(a, Clock::now()));
    }
    std::optional<autotune::Autotuner> tuner;
    {
      auto s = log_.open("autotune.train", "autotune");
      const auto a = Clock::now();
      tuner = autotune::Autotuner::train(sweep, profile_);
      train_ns_.push_back(ns_between(a, Clock::now()));
    }
    {
      auto s = log_.open("api.engine", "api");
      engine_ = std::make_unique<api::Engine>(profile_, std::move(*tuner), engine_options());
    }
    {
      auto s = log_.open("api.compile_recipes", "api");
      for (std::size_t r = 0; r < wp_.recipes.size(); ++r) {
        engine_->compile(instances_[recipe_instance_[r]].spec, options_[r]);
      }
    }
    {
      auto s = log_.open("grid.alloc", "core");
      for (std::size_t r = 0; r < wp_.recipes.size(); ++r) {
        // One job runs at a time, so recipes of one shape share a grid.
        const core::WavefrontSpec& spec = instances_[recipe_instance_[r]].spec;
        std::shared_ptr<core::Grid> grid;
        for (const std::shared_ptr<core::Grid>& g : grids_) {
          if (g->dim() == spec.dim && g->elem_bytes() == spec.elem_bytes) grid = g;
        }
        if (!grid) {
          grid = std::make_shared<core::Grid>(spec.dim, spec.elem_bytes);
          grid->fill_poison();
        }
        grids_.push_back(std::move(grid));
      }
    }
    warm_start = Clock::now();
    auto s = log_.open("warmup", "bench");
    for (std::size_t k = 0; k < wp_.warmup_steps; ++k) warm_timed_ns += step(k, traced, false);
  }
  setup_s_[traced].push_back((ns_between(t0, warm_start) + warm_timed_ns) / 1e9);
  log_.set_enabled(false);
}

double Bench::setup_median(bool traced_set) const {
  return perfbench::median(setup_s_[traced_set]);
}

void Bench::count_error(bool traced, bool record) {
  if (record) ++errors_[traced];
}

void Bench::check(const core::Grid& got, const GridDigest& want, bool traced, bool record) {
  if (grid_matches(got, want)) return;
  ++wrong_grids_;
  count_error(traced, record);
}

double Bench::step(std::size_t k, bool traced, bool record) {
  const std::size_t r = wp_.pattern[k % wp_.pattern.size()];
  const Instance& inst = instances_[recipe_instance_[r]];
  core::Grid& grid = *grids_[r];
  grid.fill_poison();
  const std::uint64_t job = ++next_job_;
  if (record) ++attempted_[traced];

  std::optional<Counters> before;
  if (traced && record) before = counters();
  ocl::Buffer::reset_peak();
  bool ok = true;
  core::RunResult result;
  Clock::time_point run_start, ready;
  const auto t0 = Clock::now();
  {
    auto span = log_.open("job", "client", job);
    try {
      api::Plan plan;
      {
        auto s = log_.open("api.compile", "api", job);
        plan = engine_->compile(inst.spec, options_[r]);
      }
      // The synchronous path: the same backend, interpreter and kernels as
      // a submitted job, without the two thread hand-offs that dominate a
      // lone job's tail on a busy host (perfbench/README.md).
      run_start = Clock::now();
      auto s = log_.open("api.run", "api", job);
      result = engine_->run(plan, grid);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: job " << job << " failed: " << e.what() << "\n";
      ok = false;
    }
    ready = Clock::now();
  }
  const auto t1 = Clock::now();
  const double device_bytes = static_cast<double>(ocl::Buffer::peak_bytes());

  if (!ok) {
    count_error(traced, record);
    return ns_between(t0, t1);
  }
  check(grid, inst.reference, traced, record);
  if (record) {
    JobRecord rec = summarize(result, inst.spec.dim);
    rec.recipe = r;
    rec.traced = traced;
    rec.latency_ns = ns_between(run_start, ready);
    rec.device_bytes = device_bytes;
    jobs_.push_back(rec);
    if (traced) {
      traced_totals_.add(*before, counters());
      compile_hit_ns_.push_back(ns_between(t0, run_start));
    }
  }
  return ns_between(t0, t1);
}

void Bench::measure(double seconds, bool trace_mode) {
  const double total_ns = seconds * 1e9;
  const auto start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const double elapsed = ns_between(start, Clock::now());
    if (elapsed >= total_ns) break;
    const bool traced = trace_mode && static_cast<std::size_t>(elapsed / 1e9) % 2 == 1;
    log_.set_enabled(traced);
    timed_ns_[traced] += step(k, traced, true);
  }
  log_.set_enabled(false);
}

std::vector<const JobRecord*> Bench::records(bool traced_set) const {
  std::vector<const JobRecord*> out;
  for (const JobRecord& j : jobs_) {
    if (j.traced == traced_set) out.push_back(&j);
  }
  return out;
}

std::vector<const JobRecord*> Bench::gpu_records() const {
  std::vector<const JobRecord*> out;
  for (const JobRecord* j : records(true)) {
    if (j->entered_gpu()) out.push_back(j);
  }
  if (out.empty()) {
    for (const JobRecord& j : gpu_probe_) out.push_back(&j);
  }
  return out;
}

void Bench::run_gpu_probe() {
  // Fixed streamed single-GPU band on synthetic-256: enters core GPU
  // phases, ocl buffers, strips and the simulated transfers.
  std::mt19937_64 probe_rng(mix(seed_ ^ 0x9b0bull));
  const std::size_t dim = 256;
  core::WavefrontSpec spec = make_spec(App::kSynthetic, dim, 500.0, probe_rng);
  core::Grid grid(dim, spec.elem_bytes);
  engine_->executor().run_serial(spec, grid);
  const Instance inst{std::move(spec), digest(grid)};
  api::CompileOptions co;
  core::TunableParams p;
  p.cpu_tile = 16;
  p.band = 64;
  co.params = p;
  co.max_resident_bytes = core::whole_grid_resident_bytes(dim, inst.spec.elem_bytes) / 6;
  const api::Plan plan = engine_->compile(inst.spec, co);
  for (int i = 0; i < 9; ++i) {
    grid.fill_poison();
    ocl::Buffer::reset_peak();
    const core::RunResult r = engine_->run(plan, grid);
    const double bytes = static_cast<double>(ocl::Buffer::peak_bytes());
    if (!grid_matches(grid, inst.reference)) ++wrong_grids_;
    if (i == 0) continue;  // first run warms the plan's buffers
    JobRecord rec = summarize(r, dim);
    rec.device_bytes = bytes;
    rec.traced = true;
    gpu_probe_.push_back(rec);
  }
}

void Bench::run_batch_probe() {
  // Fixed small editdist-96 instance on cpu-tiled (a fusable backend):
  // 8 batches of 16 jobs through submit_batch. The engine's one queue
  // worker drains each batch in groups of up to batch_limit same-plan jobs,
  // each fused into one multi-grid sweep. The worker buffers each job's
  // profile sample, so the flush timed after each batch has real work.
  constexpr std::size_t kJobs = 16;
  std::mt19937_64 probe_rng(mix(seed_ ^ 0xba7c4ull));
  const std::size_t dim = 96;
  core::WavefrontSpec spec = make_spec(App::kEditDist, dim, 0.0, probe_rng);
  core::Grid ref(dim, spec.elem_bytes);
  engine_->executor().run_serial(spec, ref);
  const GridDigest want = digest(ref);
  api::CompileOptions co;
  co.backend = api::kCpuTiledBackend;
  core::TunableParams p;
  p.cpu_tile = 16;
  p.band = -1;
  co.params = p;
  const api::Plan plan = engine_->compile(spec, co);
  std::vector<core::Grid> grids(kJobs, core::Grid(dim, spec.elem_bytes));
  std::vector<core::Grid*> ptrs;
  for (core::Grid& g : grids) ptrs.push_back(&g);
  for (int b = 0; b < 9; ++b) {
    for (core::Grid& g : grids) g.fill_poison();
    const bool record = b > 0;  // the first batch warms the queue worker
    const Counters before = counters();
    const auto a = Clock::now();
    std::vector<std::future<core::RunResult>> futs;
    {
      auto s = log_.open("api.submit_batch", "api");
      futs = engine_->submit_batch(plan, ptrs);
    }
    const double per_job = ns_between(a, Clock::now()) / static_cast<double>(kJobs);
    for (std::future<core::RunResult>& f : futs) f.get();
    const Counters after = counters();
    for (const core::Grid& g : grids) {
      if (!grid_matches(g, want)) ++wrong_grids_;
    }
    auto s = log_.open("profile.flush", "profile");
    const auto f0 = Clock::now();
    engine_->flush_profiles();
    if (!record) continue;
    flush_ns_.push_back(ns_between(f0, Clock::now()));
    submit_ns_per_job_.push_back(per_job);
    batch_totals_.add(before, after);
  }
}

void Bench::probe_layers() {
  log_.set_enabled(true);
  auto span = log_.open("probes", "bench");
  {
    // Pool wake-up: an empty parallel_for over one index per worker, on a
    // 2-worker pool (the timed engine's 1-worker pool runs loops inline).
    auto s = log_.open("cpu.pool_wake", "cpu");
    cpu::ThreadPool pool(kParallelProbeWorkers);
    const auto empty = [](std::size_t) {};
    for (int i = 0; i < 300; ++i) {
      const auto a = Clock::now();
      pool.parallel_for(0, kParallelProbeWorkers, empty, 1);
      if (i >= 20) pool_wake_ns_.push_back(ns_between(a, Clock::now()));
    }
  }
  {
    // The timed jobs run CPU phases on one thread; the parallel path is
    // measured here, on the largest recipe through a second engine whose
    // pool has kParallelProbeWorkers workers.
    auto s = log_.open("cpu.parallel_probe", "cpu");
    api::EngineOptions o = engine_options();
    o.pool_workers = kParallelProbeWorkers;
    api::Engine probe(profile_, o);
    std::size_t r = 0;
    for (std::size_t i = 1; i < wp_.recipes.size(); ++i) {
      if (wp_.recipes[i].dim > wp_.recipes[r].dim) r = i;
    }
    const Instance& inst = instances_[recipe_instance_[r]];
    const api::Plan plan = probe.compile(inst.spec, options_[r]);
    core::Grid grid(inst.spec.dim, inst.spec.elem_bytes);
    for (int i = 0; i < 9; ++i) {
      grid.fill_poison();
      const core::RunResult res = probe.submit(plan, grid).get();
      if (!grid_matches(grid, inst.reference)) ++wrong_grids_;
      const JobRecord rec = summarize(res, inst.spec.dim);
      if (i > 0 && rec.cpu_cells > 0.0) {
        parallel_ns_per_cell_.push_back(rec.cpu_wall_ns / rec.cpu_cells);
      }
    }
  }
  {
    auto s = log_.open("apps.run_serial", "apps");
    for (const Instance& inst : instances_) {
      core::Grid g(inst.spec.dim, inst.spec.elem_bytes);
      for (int i = 0; i < 3; ++i) {
        const auto a = Clock::now();
        engine_->executor().run_serial(inst.spec, g);
        serial_ns_per_cell_.push_back(ns_between(a, Clock::now()) /
                                      static_cast<double>(inst.spec.dim * inst.spec.dim));
      }
    }
  }
  {
    auto s = log_.open("sim.estimate", "sim");
    for (std::size_t r = 0; r < wp_.recipes.size(); ++r) {
      const api::Plan plan = engine_->compile(instances_[recipe_instance_[r]].spec, options_[r]);
      for (int i = 0; i < 20; ++i) {
        const auto a = Clock::now();
        engine_->estimate(plan);
        estimate_ns_.push_back(ns_between(a, Clock::now()));
      }
    }
  }
  {
    auto s = log_.open("autotune.predict", "autotune");
    for (const Instance& inst : instances_) {
      const core::InputParams in = inst.spec.inputs();
      for (int i = 0; i < 50; ++i) {
        const auto a = Clock::now();
        engine_->tuner()->predict(in);
        predict_ns_.push_back(ns_between(a, Clock::now()));
      }
    }
  }
  {
    auto s = log_.open("api.batch_probe", "api");
    run_batch_probe();
  }
  {
    // Compile fresh payloads of the first recipe's app (new content keys,
    // so every one misses).
    auto s = log_.open("api.compile_miss", "api");
    const RecipeParams& r = wp_.recipes.front();
    std::mt19937_64 probe_rng(mix(seed_ ^ 0xc0ffeeull));
    for (int i = 0; i < 8; ++i) {
      const core::WavefrontSpec spec = make_spec(r.app, r.dim, r.grain, probe_rng);
      const auto a = Clock::now();
      engine_->compile(spec);
      compile_miss_ns_.push_back(ns_between(a, Clock::now()));
    }
  }
  bool any_gpu = false;
  for (const JobRecord* j : records(true)) any_gpu = any_gpu || j->entered_gpu();
  if (!any_gpu) {
    auto s = log_.open("gpu_probe", "core");
    run_gpu_probe();
  }
  log_.set_enabled(false);
}

double Bench::sim_speedup_vs_serial() const {
  // Mean over the fixed recipes of simulated serial ns / simulated ns of
  // the executed program (every job of a recipe simulates identically).
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < wp_.recipes.size(); ++r) {
    for (const JobRecord& j : jobs_) {
      if (j.recipe != r) continue;
      const core::InputParams in = instances_[recipe_instance_[r]].spec.inputs();
      sum += perfbench::speedup(engine_->estimate_serial(in), j.rtime_ns);
      ++n;
      break;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double Bench::sim_pct_of_best() {
  // Mean over the workload's distinct instance signatures of
  // 100 x (best simulated ns of an exhaustive search over the paper's
  // space) / (simulated ns of the engine tuner's prediction).
  std::vector<core::InputParams> seen;
  double sum = 0.0;
  const autotune::ExhaustiveSearch search(profile_, autotune::ParamSpace::paper_default());
  for (const Instance& inst : instances_) {
    const core::InputParams in = inst.spec.inputs();
    if (std::find(seen.begin(), seen.end(), in) != seen.end()) continue;
    seen.push_back(in);
    const std::optional<autotune::SearchRecord> best = search.search_instance(in).best();
    const double predicted = engine_->estimate(engine_->compile(in)).rtime_ns;
    sum += perfbench::pct_of_best(best ? best->rtime_ns : 0.0, predicted);
  }
  return seen.empty() ? 0.0 : sum / static_cast<double>(seen.size());
}

void Bench::print_summary(std::ostream& os) const {
  os << "# setup_s per repetition:";
  for (bool traced : {false, true}) {
    for (double v : setup_s_[traced]) os << " " << v << (traced ? "(traced)" : "");
  }
  os << "; autotune.sweep_s median " << median_or_zero(sweep_ns_) / 1e9 << "\n";
  for (std::size_t r = 0; r < wp_.recipes.size(); ++r) {
    std::vector<double> lat;
    for (const JobRecord& j : jobs_) {
      if (!j.traced && j.recipe == r) lat.push_back(j.latency_ns / 1e6);
    }
    if (lat.empty()) continue;
    os << "# recipe " << r << ": " << lat.size() << " jobs, latency ms q1/p50/q3 " << perfbench::quantile(lat, 0.25) << "/"
       << perfbench::median(lat) << "/" << perfbench::quantile(lat, 0.75) << "\n";
  }
}

// --------------------------------------------------------------- metrics

Json metric(double value, const char* unit) {
  JsonObject m;
  m["value"] = Json(value);
  m["unit"] = Json(unit);
  return Json(std::move(m));
}

template <typename F>
std::vector<double> collect(const std::vector<const JobRecord*>& jobs, F f) {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const JobRecord* j : jobs) out.push_back(f(*j));
  return out;
}

JsonObject Bench::end_to_end(bool traced_set) const {
  const std::vector<const JobRecord*> jobs = records(traced_set);
  const std::vector<double> lat_ms =
      collect(jobs, [](const JobRecord& j) { return j.latency_ns / 1e6; });
  if (lat_ms.empty()) throw std::runtime_error("no completed jobs to measure");
  const std::optional<double> p95 = perfbench::tail_quantile(lat_ms, 0.95, 10);
  if (!p95) {
    throw std::runtime_error("latency_p95_ms unresolved: " + std::to_string(lat_ms.size()) +
                             " samples leave fewer than 10 beyond the 95th percentile");
  }
  const double ok_jobs = static_cast<double>(attempted_[traced_set] - errors_[traced_set]);
  JsonObject m;
  m["jobs_per_s"] = metric(ok_jobs / (timed_ns_[traced_set] / 1e9), "1/s");
  m["latency_p50_ms"] = metric(perfbench::median(lat_ms), "ms");
  m["latency_p95_ms"] = metric(*p95, "ms");
  m["setup_s"] = metric(setup_median(traced_set), "s");
  m["peak_rss_mb"] = metric(peak_rss_mib(), "MiB");
  m["ok_frac"] =
      metric(perfbench::share(ok_jobs, static_cast<double>(attempted_[traced_set])), "fraction");
  return m;
}

JsonObject Bench::per_layer(const JsonObject& untraced, const JsonObject& traced) const {
  using perfbench::share;
  const std::vector<const JobRecord*> jobs = records(true);
  const std::vector<const JobRecord*> gpu = gpu_records();
  const auto us = [](const std::vector<double>& ns) { return median_or_zero(ns) / 1e3; };
  const double kernel_ns_per_cell = median_or_zero(serial_ns_per_cell_);
  std::vector<const JobRecord*> cpu_jobs;
  for (const JobRecord* j : jobs) {
    if (j->cpu_cells > 0.0) cpu_jobs.push_back(j);
  }
  const double cpu_ns_per_cell = median_or_zero(
      collect(cpu_jobs, [](const JobRecord& j) { return j.cpu_wall_ns / j.cpu_cells; }));
  const CounterTotals& t = traced_totals_;
  const CounterTotals& batch = batch_totals_;
  const double cpu_ns = t.usage.user_ns + t.usage.sys_ns;

  JsonObject m;
  m["api.overhead_ms"] = metric(
      median_or_zero(collect(jobs, [](const JobRecord& j) { return (j.latency_ns - j.wall_ns) / 1e6; })),
      "ms");
  m["api.submit_us"] = metric(us(submit_ns_per_job_), "us");
  m["api.compile_hit_us"] = metric(us(compile_hit_ns_), "us");
  m["api.compile_miss_ms"] = metric(median_or_zero(compile_miss_ns_) / 1e6, "ms");
  m["api.batch_occupancy"] = metric(perfbench::mean_group_size(batch.groups), "jobs");
  m["api.fused_frac"] = metric(share(batch.batched, batch.jobs), "fraction");
  m["api.plan_cache_hit_frac"] = metric(share(t.hits, t.hits + t.misses), "fraction");
  m["api.queue_pop_blocks_per_job"] = metric(share(batch.pop_blocks, batch.jobs), "count");
  m["core.cpu_phase_ms"] = metric(
      median_or_zero(collect(cpu_jobs, [](const JobRecord& j) { return j.cpu_wall_ns / 1e6; })),
      "ms");
  m["core.gpu_phase_ms"] = metric(
      median_or_zero(collect(gpu, [](const JobRecord& j) { return j.gpu_wall_ns / 1e6; })), "ms");
  m["core.strips_per_job"] =
      metric(median_or_zero(collect(gpu, [](const JobRecord& j) { return j.strips; })), "count");
  m["cpu.ns_per_cell"] = metric(cpu_ns_per_cell, "ns");
  m["cpu.parallel_eff"] = metric(
      perfbench::parallel_efficiency(kernel_ns_per_cell, median_or_zero(parallel_ns_per_cell_),
                                     kParallelProbeWorkers),
      "fraction");
  m["cpu.pool_wake_us"] = metric(us(pool_wake_ns_), "us");
  m["apps.kernel_ns_per_cell"] = metric(kernel_ns_per_cell, "ns");
  m["ocl.device_mb_per_job"] = metric(
      median_or_zero(collect(gpu, [](const JobRecord& j) { return j.device_bytes / 1048576.0; })),
      "MiB");
  m["ocl.gpu_ns_per_cell"] = metric(
      median_or_zero(collect(gpu, [](const JobRecord& j) { return j.gpu_wall_ns / j.gpu_cells; })),
      "ns");
  m["proc.minor_faults_per_job"] = metric(share(t.usage.minor_faults, t.jobs), "count");
  m["sim.estimate_us"] = metric(us(estimate_ns_), "us");
  m["sim.transfer_frac"] = metric(
      median_or_zero(collect(gpu, [](const JobRecord& j) { return share(j.transfer_ns, j.rtime_ns); })),
      "fraction");
  std::vector<const JobRecord*> streamed;
  for (const JobRecord* j : gpu) {
    if (j->serialized_ns > 0.0) streamed.push_back(j);
  }
  m["sim.overlap_frac"] = metric(median_or_zero(collect(streamed, [](const JobRecord& j) {
                                   return perfbench::overlap_fraction(j.streamed_ns, j.serialized_ns);
                                 })),
                                 "fraction");
  m["autotune.sweep_s"] = metric(median_or_zero(sweep_ns_) / 1e9, "s");
  m["autotune.train_ms"] = metric(median_or_zero(train_ns_) / 1e6, "ms");
  m["autotune.predict_us"] = metric(us(predict_ns_), "us");
  m["profile.flush_us"] = metric(us(flush_ns_), "us");
  m["profile.samples_per_job"] = metric(share(t.profile_samples, t.jobs), "count");
  m["proc.cpu_ms_per_job"] = metric(share(cpu_ns, t.jobs) / 1e6, "ms");
  m["proc.sys_frac"] = metric(share(t.usage.sys_ns, cpu_ns), "fraction");
  m["trace.spans"] = metric(static_cast<double>(log_.spans().size()), "count");
  // Tracing overhead: traced minus untraced slices of the same run, per
  // end-to-end metric; for peak_rss_mb, the memory the span log holds.
  for (const auto& [name, value] : untraced) {
    const double u = value.as_object().at("value").as_number();
    double d = traced.at(name).as_object().at("value").as_number() - u;
    if (name == "peak_rss_mb") d = static_cast<double>(log_.bytes()) / 1048576.0;
    m["trace.overhead." + name] = metric(d, value.as_object().at("unit").as_string().c_str());
  }
  return m;
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\nworkloads:";
  for (const WorkloadParams& w : perfbench::all_workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadParams* wp = perfbench::find_workload(args.workload);
  if (wp == nullptr) usage("unknown workload " + args.workload);
  std::cout << "# " << *wp << "\n# why: " << wp->why << "\n";
  if (!wp->isValid()) {
    std::cerr << "perfbench: invalid workload tuple\n";
    return 2;
  }
  std::cout << "# seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << std::endl;

  Bench bench(*wp, args.seed);
  const double calib_before = calibrate();
  bench.prepare();
  // Set-up repeats; trace mode alternates untraced and traced set-ups.
  const std::size_t reps = args.trace ? 6 : 5;
  for (std::size_t i = 0; i < reps; ++i) bench.setup(args.trace && i % 2 == 1);
  bench.measure(args.seconds, args.trace);
  if (args.trace) bench.probe_layers();
  const double calib_after = calibrate();
  const double calib = (calib_before + calib_after) / 2.0;

  JsonObject metrics;
  bool resolved = true;
  try {
    JsonObject untraced = bench.end_to_end(false);
    untraced["sim_speedup_vs_serial"] = metric(bench.sim_speedup_vs_serial(), "x");
    untraced["sim_pct_of_best"] = metric(bench.sim_pct_of_best(), "%");
    if (args.trace) {
      JsonObject traced = bench.end_to_end(true);
      traced["sim_speedup_vs_serial"] = untraced["sim_speedup_vs_serial"];
      traced["sim_pct_of_best"] = untraced["sim_pct_of_best"];
      metrics = bench.per_layer(untraced, traced);
      metrics["host.calib_rate"] = metric(calib, "Mit/s");
    } else {
      metrics = std::move(untraced);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    resolved = false;
  }

  if (args.trace) {
    if (!perfbench::spans_nest(bench.log().spans())) {
      std::cerr << "perfbench: traced spans do not nest within their parents\n";
      resolved = false;
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << bench.log().chrome_trace().dump() << "\n";
      std::cout << "# trace: " << bench.log().spans().size() << " spans -> " << args.trace_out
                << "\n";
    }
  }

  const std::size_t attempted = bench.attempted(false) + (args.trace ? bench.attempted(true) : 0);
  const std::size_t failed = bench.errors(false) + (args.trace ? bench.errors(true) : 0);
  const bool correct = bench.wrong_grids() == 0;
  bench.print_summary(std::cout);
  std::cout << "# host.calib_rate=" << calib << " Mit/s (before " << calib_before << ", after "
            << calib_after << ")\n";
  std::cout << "# wrong_grids=" << bench.wrong_grids() << " attempted=" << attempted
            << " failed=" << failed << "\n";
  if (!resolved) return 1;

  JsonObject out;
  out["correct"] = Json(correct);
  out["attempted"] = Json(attempted);
  out["failed"] = Json(failed);
  out["metrics"] = Json(std::move(metrics));
  std::cout << Json(std::move(out)).dump() << std::endl;
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
