// wavetune::api::Engine — the compile/submit session facade.
//
// The paper's pipeline is "describe a wavefront, train once in the
// factory, deploy tuned runs". Engine is the object that owns the
// expensive deployed state across requests: the executor (and its thread
// pool), the trained Autotuner, a thread-safe cache of compiled Plans,
// and a bounded async job queue with worker threads. One Engine serves
// many concurrent requests:
//
//   api::Engine engine(sim::make_i7_2600k(), std::move(trained_tuner));
//   api::Plan plan = engine.compile(problem.spec());       // autotuned
//   core::Grid grid(plan.spec().dim, plan.spec().elem_bytes);
//   std::future<core::RunResult> f = engine.submit(plan, grid);
//   const core::RunResult r = f.get();
//
// compile() validates, normalizes, and (absent explicit params) autotunes
// once, then memoizes the Plan keyed by
// (dim, tsize, dsize, params-or-auto, backend) so repeated requests skip
// prediction and validation. submit() enqueues onto the bounded job queue
// and returns a std::future; try_submit() is the load-shedding variant,
// run() the synchronous convenience and submit_batch() the fan-out form.
// Every one of them reaches the backend through ONE dispatch path: a
// same-plan group of jobs handed to Backend::run in one call, where a
// lone job — including every synchronous run() — is a group of one.
// Backends are resolved by name through BackendRegistry ("serial",
// "cpu-tiled", "hybrid", plus user-registered ones).
//
// The serving hot path is lock-free end to end:
//   * submit() lands on a sharded lock-free MPMC ring queue
//     (sharded_queue.hpp) — producers CAS into per-thread-hashed shards,
//     workers drain their own shard first and steal from the rest;
//   * a plan-cache HIT is one atomic snapshot load plus a map lookup —
//     no mutex. The cache is published as an immutable copy-on-write
//     snapshot behind std::atomic<std::shared_ptr>; misses and evictions
//     rebuild the snapshot under cache_mutex_ and re-publish it.
//     shared_ptr refcounts give QSBR-style safe reclamation for free: a
//     reader still holding the previous snapshot (or a Plan) keeps an
//     evicted PlanState alive until it drops the reference;
//   * the batch former: a worker that pops a job keeps popping without
//     blocking, up to batch_limit jobs in all — its own shard first, then
//     the others — and hands each same-plan group to the backend as ONE fused
//     multi-grid sweep (one plan resolution, one interpretation of the
//     program); a lone job is never delayed.
//
// The raw core::HybridExecutor stays available as the low-level escape
// hatch — via executor() for cost-model utilities (autotune::
// compute_baselines, refine_online) or constructed directly by code that
// needs traces.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/backend.hpp"
#include "api/errors.hpp"
#include "api/plan.hpp"
#include "api/sharded_queue.hpp"
#include "autotune/tuner.hpp"
#include "core/executor.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/spec.hpp"
#include "profile/attribution.hpp"
#include "profile/profile_store.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::api {

struct EngineOptions {
  /// Workers of the executor's CPU-phase thread pool; 0 sizes it from
  /// hardware_concurrency.
  std::size_t pool_workers = 0;
  /// Consumer threads draining the async job queue. The executor is safe
  /// for concurrent runs, so > 1 overlaps whole jobs.
  std::size_t queue_workers = 2;
  /// Bound of the job queue; submit() blocks once this many jobs are
  /// waiting (backpressure instead of unbounded growth). The sharded
  /// queue rounds this up per shard (Engine::queue_capacity() reports the
  /// effective bound).
  std::size_t queue_capacity = 64;
  /// Ring shards of the lock-free job queue (rounded up to a power of
  /// two). 0 picks one shard per queue worker, at least 4, so producers
  /// hash across at least as many cache lines as there are consumers.
  std::size_t queue_shards = 0;
  /// Upper bound of one gather of the batch former: a worker that popped
  /// a job keeps popping, never blocking, up to this many jobs total — its
  /// own shard first, then the other shards. Each same-plan group of the
  /// gather is ONE Backend::run call: a multi-grid interpretation of the
  /// shared program — one scheduling structure, one pool wake cycle, one
  /// set of simulated GPU transfers per phase, amortized across the batch
  /// (HybridExecutor::run_batch). Each member keeps its own grid,
  /// bit-identical results, and its own promise. 1 disables grouping:
  /// every job is a batch of one.
  std::size_t batch_limit = 8;
  /// Bounded admission window of the batch former. 0 (the default) makes
  /// fusion purely opportunistic: only jobs ALREADY queued when the
  /// worker sweeps join a batch. > 0 lets a worker that holds at least
  /// TWO same-plan jobs — the window never arms for a lone job, so a lone
  /// job is never delayed — keep gathering same-plan arrivals for up to
  /// this long before executing. The wait is clipped to every held job's
  /// deadline (a job whose deadline cannot survive the window is never
  /// held past it) and skipped entirely during a shutdown drain.
  std::chrono::nanoseconds batch_window{0};
  /// Memoize compiled plans. Executable specs that declare no identity
  /// (empty WavefrontSpec::content_key and no CompileOptions::cache_tag)
  /// are never cached regardless, so an undeclared kernel can't alias.
  bool plan_cache = true;
  /// Entry bound of the plan cache: at capacity, eviction is CLOCK
  /// second-chance — a victim whose referenced bit was set by a cache hit
  /// since the last sweep gets one more lap instead — so hot plans
  /// survive one-shot compile sweeps, while the cache can neither grow
  /// without bound nor permanently pin stale recipes.
  std::size_t plan_cache_capacity = 4096;
  /// Record measured per-phase wall timings of every submit()/run() into
  /// the engine's profile::ProfileStore (keyed by Plan::profile_key).
  /// Workers append to per-worker buffers (own uncontended mutex each)
  /// and flush in batches, so the store's lock stays off the serving hot
  /// path; false skips recording entirely.
  bool profiling = true;
  /// Wall samples retained per (signature, phase) — ProfileStoreOptions::
  /// ring_capacity of the engine's store.
  std::size_t profile_ring_capacity = 64;
  /// When non-empty: load the profile store from this file at
  /// construction (starting fresh — with a warning, never a crash — when
  /// the file is missing, truncated, corrupt, or version-mismatched) and
  /// save it back at destruction (best effort, log-and-continue) — so a
  /// restarted engine replans from yesterday's measurements instead of
  /// re-learning.
  std::string profile_path;
  /// Base delay of the capped exponential backoff between retry attempts
  /// of a transiently-failed job (SubmitOptions::max_retries). Attempt k
  /// sleeps base * 2^(k-1), capped at retry_backoff_max, scaled by a
  /// DETERMINISTIC jitter factor in [0.5, 1.0) derived from (job id,
  /// attempt) — no global RNG, so chaos runs replay. <= 0 disables the
  /// sleep (retries spin back-to-back).
  std::chrono::nanoseconds retry_backoff_base{std::chrono::microseconds(100)};
  std::chrono::nanoseconds retry_backoff_max{std::chrono::milliseconds(10)};
  /// Engine-wide simulated-device residency cap, in bytes (0 = unlimited).
  /// A compile whose whole-grid GPU footprint exceeds the cap streams the
  /// plan as row strips over a fixed buffer pool (core/streaming.hpp)
  /// instead of one dim x dim device buffer. Overridable per compile via
  /// CompileOptions::max_resident_bytes.
  std::size_t max_resident_bytes = 0;
  /// Strip pool size used when a residency cap forces streaming: 1 =
  /// serialized strips (the no-overlap baseline), 2-3 = double/triple
  /// buffering with transfer/compute overlap. Must be in [1, 3];
  /// validated at construction (EngineConfigError).
  std::size_t strip_buffers = 2;
};

struct CompileOptions {
  /// BackendRegistry name to execute through.
  std::string backend = kHybridBackend;
  /// Explicit tuning; absent means autotune (engine's Autotuner when
  /// loaded, normalized defaults otherwise).
  std::optional<core::TunableParams> params;
  /// Explicit phase program (core/phase_program.hpp); absent means the
  /// backend compiles one from the prepared tuning (the paper's
  /// three-phase shape for "hybrid"). A custom program must validate and
  /// match the instance's dim; the engine checks its GPU demands against
  /// the profile at compile time, exactly like backend-planned programs.
  /// This is the door to non-paper schedules — N-phase CPU pipelines,
  /// split GPU bands, alternating CPU/GPU — through the same session API.
  std::optional<core::PhaseProgram> program;
  /// Extra plan-cache key salt, on top of the spec's own
  /// WavefrontSpec::content_key (the primary identity for kernels that
  /// capture per-request payload — all bundled apps set it). Use this for
  /// ad-hoc kernels sharing a signature AND content key; the alternative
  /// is disabling EngineOptions::plan_cache.
  std::string cache_tag;
  /// Per-compile residency cap override (bytes; 0 = explicitly unlimited).
  /// Absent means the engine-wide EngineOptions::max_resident_bytes
  /// applies. The cap only reshapes backend-planned programs; an explicit
  /// CompileOptions::program is adopted verbatim (set its strip axis via
  /// core::apply_strips yourself). The effective cap salts the plan-cache
  /// key, so capped and uncapped compiles of one instance never alias.
  std::optional<std::size_t> max_resident_bytes;
  /// Per-compile strip-pool override; absent means
  /// EngineOptions::strip_buffers. Must be in [1, 3].
  std::optional<std::size_t> strip_buffers;
};

/// Strip-boundary checkpointing policy of Engine::run_checkpointed: after
/// every `every_strips`-th completed strip of a streamed phase, a
/// consistent core::RunCheckpoint snapshot is written atomically
/// (tmp + rename) to `path`. Programs without a strip axis complete
/// normally but write no checkpoints.
struct CheckpointPolicy {
  std::string path;
  std::size_t every_strips = 1;
};

/// Per-job failure policy of the options-taking submit overloads. The
/// default value is "no deadline, no retries, no fallback" — exactly the
/// legacy submit contract.
struct SubmitOptions {
  /// Relative deadline, measured from the submit() call. 0 = none. An
  /// expired job is shed at dequeue or interrupted at the next phase
  /// boundary (latency bound: ONE phase, not one grid) and its future
  /// resolves with api::JobTimedOut.
  std::chrono::nanoseconds deadline{0};
  /// Transient failures (fault::InjectedError with Severity::kTransient)
  /// re-execute on the same backend up to this many extra attempts, with
  /// capped exponential backoff (EngineOptions::retry_backoff_*). A re-run
  /// rewrites every cell of the grid, so a partially-executed attempt
  /// leaves nothing stale behind.
  std::size_t max_retries = 0;
  /// Permanent failures (and transient ones past max_retries) walk the
  /// degradation chain — the plan's own backend, then "cpu-dataflow",
  /// then "serial" — recompiling through the plan cache. Every built-in
  /// backend is bit-identical, so a degraded result is still correct;
  /// stats().jobs_degraded counts the jobs served this way.
  bool allow_fallback = false;
};

/// What actually happened to one options-submitted job on its way to a
/// result: how many execution attempts it took, which backends were
/// walked (in order, first = the plan's own), whether it rode a fused
/// batch, and whether it was served by a fallback backend. Snapshot via
/// Submission::history() — complete once the job's future resolved,
/// best-effort (mid-flight) before.
struct JobHistory {
  std::size_t attempts = 0;           ///< execution attempts started (>= 1 once run)
  std::vector<std::string> backends;  ///< backends walked, deduplicated consecutively
  bool rode_batch = false;            ///< at least one attempt ran inside a fused batch
  bool degraded = false;              ///< served (or last attempted) by a fallback backend
};

namespace detail {

/// Shared cancellation/deadline state of one options-submitted job: the
/// api-side implementation of core::RunControl the interpreter polls at
/// phase boundaries. Composes three stop sources — the caller's explicit
/// cancel, the job's own deadline, and the engine-wide drain deadline of
/// Engine::shutdown — without core/ ever depending on api/. Also carries
/// the job's retry/degrade/batch history (JobHistory): workers note
/// events as they happen, Submission::history() snapshots them.
class JobControl final : public core::RunControl {
public:
  JobControl(bool has_deadline, std::chrono::steady_clock::time_point deadline,
             const std::atomic<std::int64_t>* drain_deadline_ns)
      : has_deadline_(has_deadline), deadline_(deadline), drain_deadline_ns_(drain_deadline_ns) {}

  void cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancel_requested() const { return cancelled_.load(std::memory_order_acquire); }

  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// History notes, called by the executing worker. note_attempt is once
  /// per execution attempt (retries and fallback rungs included);
  /// note_batched/note_degraded are sticky flags.
  void note_attempt(const std::string& backend) {
    attempts_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(history_mutex_);
    if (backends_.empty() || backends_.back() != backend) backends_.push_back(backend);
  }
  void note_batched() { batched_.store(true, std::memory_order_relaxed); }
  void note_degraded() { degraded_.store(true, std::memory_order_relaxed); }

  JobHistory history() const {
    JobHistory h;
    h.attempts = attempts_.load(std::memory_order_relaxed);
    h.rode_batch = batched_.load(std::memory_order_relaxed);
    h.degraded = degraded_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(history_mutex_);
    h.backends = backends_;
    return h;
  }

  Stop should_stop() const override {
    if (cancelled_.load(std::memory_order_acquire)) return Stop::kCancelled;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) return Stop::kDeadline;
    if (drain_deadline_ns_ != nullptr) {
      // Engine-wide drain deadline (0 = unset). Only workers call
      // should_stop, and they are joined before the engine's members die,
      // so the pointer cannot dangle while it is dereferenced.
      const std::int64_t drain = drain_deadline_ns_->load(std::memory_order_acquire);
      if (drain != 0 && std::chrono::steady_clock::now().time_since_epoch() >=
                            std::chrono::nanoseconds(drain)) {
        return Stop::kCancelled;
      }
    }
    return Stop::kNone;
  }

private:
  std::atomic<bool> cancelled_{false};
  const bool has_deadline_;
  const std::chrono::steady_clock::time_point deadline_;
  const std::atomic<std::int64_t>* const drain_deadline_ns_;

  std::atomic<std::size_t> attempts_{0};
  std::atomic<bool> batched_{false};
  std::atomic<bool> degraded_{false};
  mutable std::mutex history_mutex_;
  std::vector<std::string> backends_;
};

}  // namespace detail

/// Handle returned by the options-taking submit overloads: the result
/// future plus the job's control token. Pass it to Engine::cancel to
/// request cancellation; the future then resolves with api::JobCancelled
/// within one phase boundary (or immediately, if the job was still
/// queued). Keeping the Submission alive is not required for the job to
/// run.
struct Submission {
  std::future<core::RunResult> future;
  std::shared_ptr<detail::JobControl> control;

  /// The job's retry/degrade/batch history so far: attempt count,
  /// backends walked, whether it rode a fused batch. Complete once
  /// `future` resolved; a best-effort mid-flight snapshot before. Empty
  /// (all defaults) for handles without a control token.
  JobHistory history() const { return control ? control->history() : JobHistory{}; }
};

/// Cheap to read at any time from any thread. Every counter is maintained
/// with RELAXED atomics: each field is individually monotonic (except the
/// queue_depth gauge) and individually exact once the engine is
/// quiescent, but a stats() snapshot is NOT an atomic cut across fields —
/// two counters read together may disagree by in-flight requests. The
/// orderings that ARE guaranteed, because the increments are sequenced on
/// one thread: a job counts as submitted before it can count in ANY
/// terminal bucket (completed, failed, timed_out, cancelled — so the
/// terminal sum never over-reports submitted), and the terminal counter
/// is bumped (release) before the job's promise resolves (so a caller
/// returning from future.get() never observes a lagging count).
/// Conservation: once the engine is quiescent (all futures joined),
///   jobs_submitted == jobs_completed + jobs_failed
///                     + jobs_timed_out + jobs_cancelled
/// exactly — every accepted job lands in exactly one terminal bucket,
/// whatever faults were injected along the way. jobs_retried and
/// jobs_degraded count recovery WORK (also bumped before the affected
/// job's promise resolves) and overlap the terminal buckets rather than
/// extending them.
struct EngineStats {
  std::uint64_t plans_compiled = 0;       ///< plan-cache misses (full compiles)
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_evictions = 0; ///< entries dropped by the clock sweep
  std::uint64_t jobs_submitted = 0;       ///< accepted by submit()/try_submit()/run()
  std::uint64_t jobs_completed = 0;       ///< finished successfully (failures excluded)
  std::uint64_t jobs_failed = 0;          ///< finished by throwing (promise holds the exception)
  std::uint64_t jobs_batched = 0;         ///< live members handed to one Backend::run call
                                          ///< in a group of two or more (bumped before
                                          ///< any member's promise resolves)
  std::uint64_t batches_formed = 0;       ///< Backend::run calls with >= 2 live members
  std::uint64_t jobs_retried = 0;         ///< transient-failure re-executions (extra
                                          ///< attempts beyond each job's first; includes
                                          ///< re-pushes after an injected submit fault)
  std::uint64_t jobs_degraded = 0;        ///< jobs served by a fallback backend after
                                          ///< their plan's backend failed permanently
                                          ///< (once per job, however far it fell)
  std::uint64_t jobs_timed_out = 0;       ///< terminal: deadline expired (JobTimedOut)
  std::uint64_t jobs_cancelled = 0;       ///< terminal: cancelled — explicitly or by a
                                          ///< shutdown drain deadline (JobCancelled)
  /// Measured executions captured for the profile store (buffered samples
  /// included). Bumped with release order BEFORE the job's promise
  /// resolves — same audit as jobs_completed, so a caller returning from
  /// future.get() never observes a lagging count. 0 when profiling is off.
  std::uint64_t profile_samples_recorded = 0;
  /// Batches pushed into the profile store (one store lock each): worker
  /// buffers reaching the flush threshold, flush_profiles() sweeps, and
  /// synchronous run() recordings.
  std::uint64_t profile_flushes = 0;
  std::uint64_t checkpoints_written = 0;  ///< RunCheckpoint files persisted by
                                          ///< run_checkpointed (one per write)
  std::uint64_t jobs_resumed = 0;         ///< runs that restarted from a checkpoint
                                          ///< (resume_from_file / resume)
  std::uint64_t queue_depth = 0;          ///< LIVE gauge: jobs queued right now

  /// Batch-occupancy histogram over every same-plan group a queue worker
  /// dispatched, counted before the shed pass: bucket i counts groups of
  /// size i+1 (lone jobs land in bucket 0; synchronous run() calls are
  /// not counted), the last bucket counts groups of kBatchOccupancyBuckets
  /// or more. The evidence record that fusion engaged — and at what
  /// occupancy — independent of whether the ops/s win shows on a given
  /// core count.
  static constexpr std::size_t kBatchOccupancyBuckets = 8;
  std::array<std::uint64_t, kBatchOccupancyBuckets> batch_occupancy{};
};

class Engine {
public:
  explicit Engine(sim::SystemProfile profile, EngineOptions options = {});
  /// With a trained Autotuner: param-less compiles predict the tuning.
  Engine(sim::SystemProfile profile, autotune::Autotuner tuner, EngineOptions options = {});

  /// Closes the queue, finishes in-flight and already-queued jobs, joins
  /// the workers. Futures of queued jobs all resolve.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- compile --------------------------------------------------------

  /// Executable plan for `spec`: validated, normalized, autotuned when
  /// `options.params` is absent, memoized in the plan cache. A cache HIT
  /// takes no lock (one atomic snapshot load + lookup).
  Plan compile(const core::WavefrontSpec& spec, const CompileOptions& options = {});
  /// Shorthand for an explicit tuning.
  Plan compile(const core::WavefrontSpec& spec, const core::TunableParams& params,
               const std::string& backend = kHybridBackend);

  /// Estimate-only plan from bare input parameters (no kernel): usable
  /// with estimate() but not submit()/run(). Shares the same cache, so
  /// sweeps re-estimating one instance skip prediction and validation.
  Plan compile(const core::InputParams& in, const CompileOptions& options = {});
  Plan compile(const core::InputParams& in, const core::TunableParams& params,
               const std::string& backend = kHybridBackend);

  // --- execute --------------------------------------------------------

  /// Enqueues one run of `plan` into caller-owned `grid` and returns the
  /// result future. Blocks while the job queue is full. Throws
  /// std::invalid_argument on plan/grid mismatch or estimate-only plans,
  /// std::runtime_error after shutdown began. `grid` must stay alive and
  /// untouched until the future resolves (ownership rules: api/plan.hpp).
  std::future<core::RunResult> submit(const Plan& plan, core::Grid& grid);

  /// Non-blocking submit for load-shedding callers: nullopt when the
  /// queue is full (every shard), so the caller can degrade gracefully —
  /// reject the request, fall back to run(), retry later — instead of
  /// blocking. Same validation and shutdown behavior as submit().
  std::optional<std::future<core::RunResult>> try_submit(const Plan& plan, core::Grid& grid);

  /// Fan-out convenience: one job per grid, in order.
  std::vector<std::future<core::RunResult>> submit_batch(const Plan& plan,
                                                         const std::vector<core::Grid*>& grids);

  // --- execute with a failure policy ----------------------------------

  /// submit() with a per-job failure policy (deadline, retries, fallback
  /// — see SubmitOptions). Returns the future plus the job's control
  /// token for Engine::cancel. The legacy overloads above carry no
  /// control token and pay none of this machinery's cost.
  Submission submit(const Plan& plan, core::Grid& grid, const SubmitOptions& options);
  /// Load-shedding variant: nullopt when every shard is full.
  std::optional<Submission> try_submit(const Plan& plan, core::Grid& grid,
                                       const SubmitOptions& options);
  /// Fan-out variant: one job per grid, all under the same policy.
  std::vector<Submission> submit_batch(const Plan& plan, const std::vector<core::Grid*>& grids,
                                       const SubmitOptions& options);

  /// Requests cancellation of an options-submitted job. Idempotent,
  /// callable from any thread, never blocks. The job's future resolves
  /// with api::JobCancelled — immediately when it is shed at dequeue,
  /// within one phase boundary when it is already executing. A job that
  /// completed before the request wins the race and keeps its result.
  void cancel(const Submission& submission);

  /// Stops accepting jobs and waits for the workers. `drain_budget > 0`
  /// bounds the drain: when it expires, still-queued jobs are shed with
  /// api::JobCancelled as workers dequeue them, and running jobs that
  /// carry a control token stop at their next phase boundary — so every
  /// outstanding future still resolves, just not all with results.
  /// `drain_budget == 0` (and the destructor) drains fully. Idempotent
  /// and safe to race with itself and with submits (late submits throw
  /// the usual "shutting down").
  void shutdown(std::chrono::nanoseconds drain_budget = std::chrono::nanoseconds{0});

  /// Synchronous convenience: executes on the calling thread as a batch
  /// of one through the same dispatch path as queued jobs, but never
  /// enters the queue (still safe alongside concurrent submits). A
  /// shutdown drain deadline does not shed it, backend exceptions are
  /// rethrown, and its profile sample lands in profile_store() directly
  /// (no flush_profiles() needed).
  core::RunResult run(const Plan& plan, core::Grid& grid);

  // --- out-of-core streaming & checkpointing ---------------------------

  /// run() with strip-boundary checkpointing: every completed strip of a
  /// streamed phase (at the policy's cadence) atomically persists a
  /// core::RunCheckpoint to policy.path, so a killed process can restart
  /// from the last strip instead of row zero. Executes through the
  /// generic program interpreter on the calling thread. Throws
  /// std::invalid_argument when policy.path is empty;
  /// core::CheckpointError when a checkpoint write fails.
  core::RunResult run_checkpointed(const Plan& plan, core::Grid& grid,
                                   const CheckpointPolicy& policy);

  /// Restarts a run from a checkpoint previously written by
  /// run_checkpointed: validates the snapshot against the plan's program
  /// digest and grid geometry (core::CheckpointError on mismatch),
  /// restores the grid, skips the functional work already covered, and
  /// charges the FULL simulated schedule — so the result's simulated
  /// fields are bit-identical to an uninterrupted run. A non-empty
  /// policy.path keeps checkpointing the remainder.
  core::RunResult resume(const Plan& plan, core::Grid& grid, const core::RunCheckpoint& from,
                         const CheckpointPolicy& policy = {});
  /// resume() from a checkpoint file on disk (core::CheckpointError when
  /// missing, truncated, or corrupt).
  core::RunResult resume_from_file(const Plan& plan, core::Grid& grid, const std::string& path,
                                   const CheckpointPolicy& policy = {});

  /// Simulated timing of `plan` without functional execution.
  core::RunResult estimate(const Plan& plan) const;

  /// Simulated time of the sequential baseline for `in`.
  double estimate_serial(const core::InputParams& in) const;

  // --- introspection --------------------------------------------------

  const sim::SystemProfile& profile() const { return executor_.profile(); }
  bool has_tuner() const { return tuner_.has_value(); }
  /// nullptr when the engine was built without a trained tuner.
  const autotune::Autotuner* tuner() const { return tuner_ ? &*tuner_ : nullptr; }

  /// Low-level escape hatch for cost-model utilities that predate the
  /// session API (compute_baselines, refine_online). Thread-safe for
  /// concurrent run/estimate calls.
  core::HybridExecutor& executor() { return executor_; }
  const core::HybridExecutor& executor() const { return executor_; }

  EngineStats stats() const;
  /// Contention counters of the sharded job queue.
  ShardedQueueStats queue_stats() const;
  /// Effective job-queue bound (the sharded queue rounds the requested
  /// capacity up per shard).
  std::size_t queue_capacity() const;
  /// Lock-free (snapshot-read) entry count.
  std::size_t plan_cache_size() const;
  void clear_plan_cache();

  // --- feedback-driven planning (src/profile/) ------------------------

  /// The engine's measured-timing store. Reading it mid-flight may miss
  /// samples still sitting in worker buffers — call flush_profiles()
  /// first for an up-to-date view.
  const profile::ProfileStore& profile_store() const { return profile_store_; }

  /// Drains every worker's buffered samples into the store. Callable from
  /// any thread at any time (buffers are swapped out under their own
  /// per-worker mutex, then recorded outside it).
  void flush_profiles();

  /// Flushes and persists the store to `path`, or to
  /// EngineOptions::profile_path when `path` is empty. Throws
  /// std::invalid_argument when both are empty.
  void save_profile(const std::string& path = "");

  /// Flushes, then attributes every profiled signature: measured p50/p95
  /// against the simulated charge, per-phase shares, imbalance and
  /// hotspot flags. Key-ordered.
  std::vector<profile::PlanAttribution> profile_report();

  /// The "replan" leg: re-optimizes `plan`'s phase program under
  /// profile-derived per-device cost scales (the plan's own measured
  /// residuals when its signature was profiled, the store-wide medians
  /// otherwise) and compiles the refined program through the normal
  /// compile path — so the result lands in the plan cache and is served
  /// from there on. Returns `plan` itself when the search keeps the seed
  /// program. Throws std::invalid_argument on invalid or estimate-only
  /// plans.
  Plan refine_plan(const Plan& plan, std::size_t max_evaluations = 96);

private:
  struct Job {
    std::shared_ptr<const detail::PlanState> plan;
    core::Grid* grid = nullptr;
    std::promise<core::RunResult> result;
    /// Null for the option-less submits and run(): no deadline, no cancel.
    std::shared_ptr<detail::JobControl> control;
    SubmitOptions opts;
    /// Monotonic id; seeds the deterministic retry-backoff jitter.
    std::uint64_t id = 0;
  };

  /// Plan-cache key: the input signature plus tuning, backend, the
  /// combined spec-content/caller tag, and whether the entry is
  /// executable or estimate-only. Autotuned compiles key on
  /// `autotuned = true` with zeroed params so the prediction itself is
  /// what the cache skips.
  struct CacheKey {
    std::string backend;
    std::string content;  ///< WavefrontSpec::content_key (own field: never
                          ///< concatenated with tag, so no separator games
                          ///< can alias two keys)
    std::string tag;      ///< CompileOptions::cache_tag
    std::string program;  ///< describe() of a custom CompileOptions::program
                          ///< (empty for backend-planned programs), so two
                          ///< compiles differing only in schedule shape
                          ///< never alias
    bool executable = false;
    bool autotuned = false;
    std::size_t dim = 0;
    double tsize = 0.0;
    int dsize = 0;
    std::size_t elem_bytes = 0;
    /// Effective residency constraint of the compile (0 = uncapped). Part
    /// of the key because the cap reshapes backend-planned programs (strip
    /// axis), so capped and uncapped compiles must never alias.
    std::size_t resident_cap = 0;
    std::size_t strip_buffers = 0;
    core::TunableParams params;

    auto tie() const {
      return std::tie(backend, content, tag, program, executable, autotuned, dim, tsize, dsize,
                      elem_bytes, resident_cap, strip_buffers, params.cpu_tile, params.band,
                      params.halo, params.gpu_tile, params.gpus);
    }
    bool operator<(const CacheKey& other) const { return tie() < other.tie(); }
  };

  /// One cached plan plus its clock bit. Entries are shared (by pointer)
  /// across snapshot generations, so a hit marking `referenced` on an old
  /// snapshot is still seen by the next eviction sweep.
  struct CacheEntry {
    std::shared_ptr<const detail::PlanState> state;
    /// Second-chance bit: set by readers on every hit (relaxed — it only
    /// steers the eviction heuristic), cleared by the clock sweep under
    /// cache_mutex_.
    std::atomic<bool> referenced{false};
  };

  /// The published cache generation: an IMMUTABLE map (only the entries'
  /// referenced bits ever change after publication). Readers load it with
  /// one atomic op and search without any lock; writers copy, mutate, and
  /// re-publish under cache_mutex_. Old generations (and the PlanStates
  /// only they reference) are reclaimed by shared_ptr refcounts when the
  /// last concurrent reader drops them — RCU semantics without an epoch
  /// machine.
  using CacheMap = std::map<CacheKey, std::shared_ptr<CacheEntry>>;

  Plan compile_impl(const core::WavefrontSpec* spec, const core::InputParams& in,
                    const CompileOptions& options);
  /// Cache insertion + clock eviction + snapshot publication (the miss
  /// slow path). Returns the plan to hand out — `state`, or the entry a
  /// concurrent compile of the same key published first.
  Plan publish_plan(CacheKey key, std::shared_ptr<detail::PlanState> state);
  /// Shared submit/run precondition: valid, executable, grid matches.
  static void check_executable(const Plan& plan, const core::Grid& grid, const char* where);
  /// Shared submit_batch precondition: every grid valid, no duplicates.
  static void check_batch(const Plan& plan, const std::vector<core::Grid*>& grids);
  void worker_loop(std::size_t worker);
  /// Splits a worker's gather into same-plan groups (stably, first job of
  /// each plan leads), records each group's occupancy, and runs each
  /// through run_group.
  void dispatch(std::vector<Job>& jobs, std::size_t worker);
  /// THE dispatch path — every job reaches its backend here, a lone job
  /// as a group of one: the shed pass (cancelled, expired, or past a
  /// drain deadline), batching counters, ONE Backend::run call for the
  /// live members, per-member promise resolution. If the call throws,
  /// each member of a larger group re-enters as a group of one; a group
  /// of one runs the retry/fallback attempt loop. Never throws; every
  /// member's promise resolves. `worker` selects the profile sample
  /// buffer; kCallerThread marks the synchronous run().
  void run_group(const detail::PlanState& plan, std::vector<Job*> group, std::size_t worker);
  /// Resolves `job` with the typed verdict of a control stop
  /// (JobTimedOut / JobCancelled), bumping its terminal counter first.
  void resolve_stopped(Job& job, core::RunControl::Stop stop);
  /// `worker` value of the synchronous run(): never shed by a drain
  /// deadline, and its profile sample goes straight into the store.
  static constexpr std::size_t kCallerThread = static_cast<std::size_t>(-1);
  /// Shared body of all submit variants. `with_control` attaches a
  /// JobControl (the options overloads); without one the job is the
  /// legacy zero-overhead shape. May resolve the returned future
  /// exceptionally right away (injected push fault past its retry
  /// budget); throws only for shutdown/validation, with nothing enqueued.
  Submission submit_impl(const Plan& plan, core::Grid& grid, const SubmitOptions& options,
                         bool with_control, bool blocking, bool* shed, const char* where);
  /// Shared body of run_checkpointed/resume: synchronous streamed run
  /// through the generic interpreter with a StreamControl attached.
  core::RunResult run_streamed(const Plan& plan, core::Grid& grid,
                               const core::RunCheckpoint* from, const CheckpointPolicy& policy,
                               const char* where);
  /// Deterministic capped-exponential backoff sleep before retry
  /// `attempt` (1-based) of job `job_id`.
  void retry_backoff(std::uint64_t job_id, std::size_t attempt) const;

  core::HybridExecutor executor_;
  std::optional<autotune::Autotuner> tuner_;
  const EngineOptions options_;

  /// Thread-local reader cache of the current snapshot generation: one
  /// entry per thread, validated against snapshot_version_ on each read.
  /// A reader whose cached version still matches touches NO shared
  /// reference count — the steady-state hit path is a single acquire
  /// load of the version word plus a map lookup. Only after a
  /// publication (or when the thread switches engines) does it fall back
  /// to the refcounted snapshot load. The cached shared_ptr pins at most
  /// one retired generation per thread, which is the QSBR grace period
  /// in miniature. `engine` is only ever compared, never dereferenced,
  /// so a dangling value after ~Engine is harmless; version numbers come
  /// from a process-global counter, so an engine reusing a dead engine's
  /// address can never revalidate its stale cache entry.
  struct SnapshotRef {
    const Engine* engine = nullptr;
    std::uint64_t version = 0;
    std::shared_ptr<const CacheMap> map;
  };
  static SnapshotRef& tl_snapshot();

  /// Hot-path read: returns the current generation, refreshing the
  /// calling thread's SnapshotRef if it is stale. The reference stays
  /// valid until this thread's next Engine call (single-threaded use of
  /// the thread-local slot).
  const CacheMap& reader_snapshot() const;
  /// Refcounted snapshot load — the slow path under reader_snapshot and
  /// the copy source for writers. Under TSan the lock-free
  /// std::atomic<shared_ptr> is swapped for a mutex-guarded plain
  /// shared_ptr: libstdc++'s _Sp_atomic synchronizes with
  /// __atomic_thread_fence, which TSan does not model, so the lock-free
  /// form reports a false-positive race on load vs store.
  std::shared_ptr<const CacheMap> load_snapshot() const;
  /// Publishes `next` and bumps snapshot_version_ (release), invalidating
  /// every thread's cached SnapshotRef. Callers hold cache_mutex_ (or are
  /// the constructor, which runs before any worker exists).
  void store_snapshot(std::shared_ptr<const CacheMap> next);

  /// Writers only (miss/evict/clear): guards the copy-on-write rebuild,
  /// clock_order_, and the publication below. Readers never take it.
  mutable std::mutex cache_mutex_;
#if defined(__SANITIZE_THREAD__)
  mutable std::mutex snapshot_tsan_mutex_;
  std::shared_ptr<const CacheMap> cache_snapshot_;
#else
  std::atomic<std::shared_ptr<const CacheMap>> cache_snapshot_;
#endif
  /// Generation stamp of cache_snapshot_, drawn from a process-global
  /// monotonic counter (never reused across Engine instances). Written
  /// by store_snapshot after the snapshot itself (release), so a reader
  /// that observes version V also observes snapshot ≥ V.
  std::atomic<std::uint64_t> snapshot_version_{0};
  std::deque<CacheKey> clock_order_;  ///< clock hand order (under cache_mutex_)
  std::atomic<std::uint64_t> next_plan_id_{1};

  std::atomic<std::uint64_t> plans_compiled_{0};
  std::atomic<std::uint64_t> plan_cache_hits_{0};
  std::atomic<std::uint64_t> plan_cache_evictions_{0};
  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> jobs_batched_{0};
  std::atomic<std::uint64_t> batches_formed_{0};
  std::array<std::atomic<std::uint64_t>, EngineStats::kBatchOccupancyBuckets> batch_occupancy_{};
  std::atomic<std::uint64_t> jobs_retried_{0};
  std::atomic<std::uint64_t> jobs_degraded_{0};
  std::atomic<std::uint64_t> jobs_timed_out_{0};
  std::atomic<std::uint64_t> jobs_cancelled_{0};
  std::atomic<std::uint64_t> profile_samples_recorded_{0};
  std::atomic<std::uint64_t> profile_flushes_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};
  std::atomic<std::uint64_t> jobs_resumed_{0};

  /// Engine-wide drain deadline (steady_clock epoch ns; 0 = none), set by
  /// shutdown(drain_budget). Checked by run_group's shed pass for every
  /// queued job and by JobControl::should_stop at phase boundaries for
  /// options-submitted jobs.
  std::atomic<std::int64_t> drain_deadline_ns_{0};
  std::atomic<std::uint64_t> next_job_id_{1};
  /// Serializes shutdown callers (concurrent join of one thread is UB).
  std::mutex shutdown_mutex_;

  /// One worker's buffered profile samples awaiting a batched flush. The
  /// mutex is per-slot: the owning worker's append is uncontended in the
  /// steady state; flush_profiles() (any thread) swaps the vector out
  /// under it and records OUTSIDE it, so a worker never blocks on the
  /// store's lock through its slot. unique_ptr keeps slots address-stable
  /// (std::mutex is immovable).
  struct ProfileSlot {
    std::mutex mutex;
    std::vector<profile::RunSample> buffer;
  };
  /// Appends one run's measured phases to `worker`'s slot and flushes the
  /// slot into the store once it holds kProfileFlushBatch samples
  /// (kCallerThread has no slot: its sample is flushed at once). Bumps
  /// profile_samples_recorded_/profile_flushes_ with release order — the
  /// caller resolves the job's promise only afterwards.
  void record_profile(const detail::PlanState& plan, const core::RunResult& result,
                      std::size_t worker);
  static constexpr std::size_t kProfileFlushBatch = 32;

  profile::ProfileStore profile_store_;
  std::vector<std::unique_ptr<ProfileSlot>> profile_slots_;

  ShardedQueue<Job> queue_;
  std::vector<std::thread> workers_;
};

}  // namespace wavetune::api
