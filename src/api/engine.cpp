#include "api/engine.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "autotune/online.hpp"
#include "core/checkpoint.hpp"
#include "core/streaming.hpp"
#include "fault/injector.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace wavetune::api {

namespace {
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

namespace {
/// Shard count of the job queue: EngineOptions::queue_shards, or one per
/// queue worker (at least 4) when 0.
std::size_t shard_count(const EngineOptions& options) {
  if (options.queue_shards != 0) return options.queue_shards;
  return std::max<std::size_t>(std::max<std::size_t>(options.queue_workers, 1), 4);
}

/// Constructor-time options audit. Every rejected value used to be
/// accepted silently and misbehave later — a zero queue capacity wedges
/// the first submit forever, a zero batch_limit makes the batch former
/// gather empty groups. Failing here, with a typed error, turns both into
/// a startup-time diagnosis.
EngineOptions validated(EngineOptions options) {
  if (options.queue_capacity == 0) {
    throw EngineConfigError(
        "EngineOptions::queue_capacity must be >= 1 (a zero-capacity job queue can never "
        "accept a submit)");
  }
  if (options.batch_limit == 0) {
    throw EngineConfigError(
        "EngineOptions::batch_limit must be >= 1 (use 1 to disable fusion, not 0)");
  }
  return options;
}
}  // namespace

Engine::Engine(sim::SystemProfile profile, EngineOptions options)
    : executor_(std::move(profile), options.pool_workers),
      options_(validated(options)),
      profile_store_(profile::ProfileStoreOptions{options.profile_ring_capacity}),
      queue_(options_.queue_capacity, shard_count(options_)) {
  store_snapshot(std::make_shared<const CacheMap>());
  const std::size_t workers = options_.queue_workers == 0 ? 1 : options_.queue_workers;
  profile_slots_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    profile_slots_.push_back(std::make_unique<ProfileSlot>());
  }
  // Warm start: a persisted store makes a rebooted engine replan from
  // yesterday's measurements. A missing file is a fresh deployment; a
  // truncated, corrupt, or version-mismatched one must not take the
  // engine down over yesterday's telemetry — warn and start fresh (the
  // load is all-or-nothing, so the store is untouched on failure).
  if (!options_.profile_path.empty()) {
    try {
      profile_store_.load_file_if_exists(options_.profile_path);
    } catch (const std::exception& e) {
      util::log_warn("Engine: ignoring unusable profile store '", options_.profile_path,
                     "': ", e.what(), " (starting fresh)");
    }
  }
  workers_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // Thread spawn failed mid-constructor: ~Engine will not run, so shut
    // down the already-spawned workers here or their joinable threads
    // would std::terminate the process.
    queue_.close();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    throw;
  }
}

Engine::Engine(sim::SystemProfile profile, autotune::Autotuner tuner, EngineOptions options)
    : Engine(std::move(profile), options) {
  tuner_ = std::move(tuner);
}

Engine::~Engine() {
  shutdown();
  // Workers are joined: every buffered sample is final. Persisting is
  // best effort — a destructor must not throw over a full disk, an
  // unwritable path, or a removed directory; warn and carry on.
  try {
    flush_profiles();
  } catch (const std::exception& e) {
    util::log_warn("Engine: dropping buffered profile samples at shutdown: ", e.what());
  }
  if (!options_.profile_path.empty()) {
    try {
      profile_store_.save_file(options_.profile_path);
    } catch (const std::exception& e) {
      util::log_warn("Engine: failed to persist profile store to '", options_.profile_path,
                     "': ", e.what());
    } catch (...) {
      util::log_warn("Engine: failed to persist profile store to '", options_.profile_path, "'");
    }
  }
}

void Engine::shutdown(std::chrono::nanoseconds drain_budget) {
  if (drain_budget.count() > 0) {
    // Publish the drain deadline BEFORE closing the queue: a worker that
    // observes the close also observes the deadline, so no queued job can
    // slip past the shed check into an unbounded run.
    drain_deadline_ns_.store(steady_now_ns() + drain_budget.count(), std::memory_order_release);
  }
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

namespace {
/// Process-global source of snapshot version numbers: strictly increasing
/// across ALL Engine instances, so a thread-local SnapshotRef stamped by a
/// destroyed engine can never validate against a new engine that happens
/// to reuse the same address.
std::atomic<std::uint64_t> g_snapshot_version{0};
}  // namespace

Engine::SnapshotRef& Engine::tl_snapshot() {
  thread_local SnapshotRef tl;
  return tl;
}

const Engine::CacheMap& Engine::reader_snapshot() const {
  SnapshotRef& tl = tl_snapshot();
  const std::uint64_t v = snapshot_version_.load(std::memory_order_acquire);
  if (tl.engine != this || tl.version != v || !tl.map) {
    // Stale (or another engine's) cache: take the refcounted load. The
    // loaded map is at least generation `v`; stamping it `v` is therefore
    // conservative — worst case one redundant refresh, never staleness.
    tl.map = load_snapshot();
    tl.engine = this;
    tl.version = v;
  }
  return *tl.map;
}

std::shared_ptr<const Engine::CacheMap> Engine::load_snapshot() const {
#if defined(__SANITIZE_THREAD__)
  std::lock_guard<std::mutex> lock(snapshot_tsan_mutex_);
  return cache_snapshot_;
#else
  return cache_snapshot_.load(std::memory_order_acquire);
#endif
}

void Engine::store_snapshot(std::shared_ptr<const CacheMap> next) {
#if defined(__SANITIZE_THREAD__)
  {
    std::lock_guard<std::mutex> lock(snapshot_tsan_mutex_);
    cache_snapshot_ = std::move(next);
  }
#else
  cache_snapshot_.store(std::move(next), std::memory_order_release);
#endif
  // Version AFTER snapshot (release): a reader that sees the new version
  // is guaranteed to load at least this generation.
  snapshot_version_.store(g_snapshot_version.fetch_add(1, std::memory_order_relaxed) + 1,
                          std::memory_order_release);
}

void Engine::worker_loop(std::size_t worker) {
  const std::size_t cap = options_.batch_limit;
  std::vector<Job> batch;
  // Non-blocking gather up to the cap: the worker's own shard first, then
  // the other shards (so fusion works ACROSS submitters, not just queue
  // neighbors). The rings have no peek, so a gather necessarily pops
  // non-matching jobs too — they simply run as their own groups, same
  // cycle. Returns false when the queue had nothing to give.
  const auto gather_one = [&]() {
    std::optional<Job> extra;
    try {
      extra = queue_.try_pop(worker);
    } catch (const fault::InjectedError&) {
      return false;  // settle for the batch in hand
    }
    if (!extra) return false;
    batch.push_back(std::move(*extra));
    return true;
  };
  for (;;) {
    std::optional<Job> job;
    try {
      job = queue_.pop(worker);
    } catch (const fault::InjectedError&) {
      continue;  // nothing was popped; the worker itself must survive
    }
    if (!job) return;  // closed and drained
    batch.clear();
    batch.push_back(std::move(*job));
    while (batch.size() < cap && gather_one()) {
    }
    dispatch(batch, worker);
  }
}

void Engine::dispatch(std::vector<Job>& jobs, std::size_t worker) {
  // Stable same-plan grouping: the first job of each distinct PlanState
  // leads its group, and the group resolves the plan exactly once
  // (backend, spec, compiled program, lowered kernel — one shared_ptr
  // dereference chain).
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].plan) continue;  // already ran as a group member
    const std::shared_ptr<const detail::PlanState> plan = std::move(jobs[i].plan);
    std::vector<Job*> group{&jobs[i]};
    for (std::size_t j = i + 1; j < jobs.size(); ++j) {
      if (jobs[j].plan.get() == plan.get()) {
        jobs[j].plan.reset();
        group.push_back(&jobs[j]);
      }
    }
    // Occupancy histogram: EVERY dispatched group counts, lone jobs
    // included — the denominator that makes occupancy interpretable.
    const std::size_t bucket =
        std::min(group.size(), EngineStats::kBatchOccupancyBuckets) - 1;
    batch_occupancy_[bucket].fetch_add(1, std::memory_order_relaxed);
    run_group(*plan, std::move(group), worker);
  }
}

void Engine::resolve_stopped(Job& job, core::RunControl::Stop stop) {
  if (stop == core::RunControl::Stop::kDeadline) {
    jobs_timed_out_.fetch_add(1, std::memory_order_release);
    job.result.set_exception(std::make_exception_ptr(JobTimedOut()));
  } else {
    jobs_cancelled_.fetch_add(1, std::memory_order_release);
    job.result.set_exception(std::make_exception_ptr(JobCancelled()));
  }
}

void Engine::run_group(const detail::PlanState& plan, std::vector<Job*> group,
                       std::size_t worker) {
  // Every terminal counter bumps BEFORE the promise resolves (and with
  // release order, pairing with stats()'s acquire loads), so a caller
  // returning from future.get()/wait() never observes a lagging count.
  // The profile sample is captured before set_value for the same reason:
  // profile_samples_recorded is part of the stats audit.

  // Shed at dequeue: a job that is already cancelled or expired — or that
  // outlived a shutdown drain deadline — resolves typed, without touching
  // its grid, and the survivors run without it. This is what bounds
  // shutdown(drain): workers still POP every queued job, they just stop
  // EXECUTING them. The synchronous run() never entered the queue and is
  // never drain-shed.
  const std::int64_t drain =
      worker == kCallerThread ? 0 : drain_deadline_ns_.load(std::memory_order_acquire);
  std::erase_if(group, [&](Job* job) {
    core::RunControl::Stop stop = core::RunControl::Stop::kNone;
    if (drain != 0 && steady_now_ns() >= drain) {
      stop = core::RunControl::Stop::kCancelled;
    } else if (job->control) {
      stop = job->control->should_stop();
    }
    if (stop == core::RunControl::Stop::kNone) return false;
    resolve_stopped(*job, stop);
    return true;
  });
  if (group.empty()) return;

  std::vector<core::BatchMember> members;
  members.reserve(group.size());
  for (Job* job : group) members.push_back({job->grid, job->control.get()});
  if (group.size() >= 2) {
    // Batching counters BEFORE any member's promise resolves — the same
    // audit as every other stats field a future-joining client can see.
    jobs_batched_.fetch_add(group.size(), std::memory_order_release);
    batches_formed_.fetch_add(1, std::memory_order_release);
    for (Job* job : group) {
      if (job->control) job->control->note_batched();
    }
  }

  // The attempt loop. A group of two or more gets ONE attempt: any
  // failure of the shared call (an injected fault, a throwing kernel)
  // re-runs each member as a group of one, with its own shed check,
  // retry budget, and fallback chain — a fault inside a batch costs the
  // batch its amortization, never a member its result. A group of one
  // retries transient faults on the SAME backend (bounded, backed off);
  // permanent ones — and transients past the budget — walk the
  // degradation chain. Every built-in backend computes bit-identical
  // results and every attempt rewrites every cell, so retrying into a
  // dirty grid is safe and a degraded result is still correct.
  const detail::PlanState* active = &plan;
  std::shared_ptr<const detail::PlanState> fallback_state;  // keeps a degraded plan alive
  std::size_t chain_next = 0;
  std::size_t attempt = 0;
  bool degraded = false;
  for (;;) {
    for (Job* job : group) {
      if (job->control) job->control->note_attempt(active->backend->name());
    }
    std::vector<core::BatchOutcome> outcomes;
    std::exception_ptr failure;
    bool transient = false;
    try {
      outcomes = active->backend->run(executor_, active->spec, active->program, active->lowered,
                                      members);
      if (outcomes.size() != members.size()) {
        throw std::logic_error("backend '" + active->backend->name() + "' returned " +
                               std::to_string(outcomes.size()) + " outcome(s) for " +
                               std::to_string(members.size()) + " job(s)");
      }
    } catch (const core::ExecutionInterrupted& e) {
      // A backend that throws its lone member's stop instead of recording
      // it: cancellation/deadline is a verdict, not a failure — no retry.
      if (group.size() == 1) {
        resolve_stopped(*group[0], e.reason());
        return;
      }
      failure = std::current_exception();
    } catch (const fault::InjectedError& e) {
      failure = std::current_exception();
      transient = e.transient();
    } catch (...) {
      // A real backend exception is permanent by definition: retrying a
      // deterministic failure just repeats it.
      failure = std::current_exception();
    }

    if (!failure) {
      for (std::size_t k = 0; k < group.size(); ++k) {
        Job& job = *group[k];
        core::BatchOutcome& o = outcomes[k];
        if (o.stop != core::RunControl::Stop::kNone) {
          resolve_stopped(job, o.stop);
          continue;
        }
        if (options_.profiling && !active->profile_key.empty()) {
          record_profile(*active, o.result, worker);
        }
        jobs_completed_.fetch_add(1, std::memory_order_release);
        job.result.set_value(std::move(o.result));
      }
      return;
    }
    if (group.size() >= 2) {
      for (Job* job : group) run_group(plan, {job}, worker);
      return;
    }

    Job& job = *group[0];
    if (transient && attempt < job.opts.max_retries) {
      ++attempt;
      jobs_retried_.fetch_add(1, std::memory_order_release);
      retry_backoff(job.id, attempt);
      continue;
    }
    // Degrade: compile the next rung of the chain — the plan's own
    // backend, then "cpu-dataflow", then "serial" — through the normal
    // path (so it lands in — and is later served from — the plan cache).
    // A rung whose compile itself fails is skipped, not fatal.
    static constexpr const char* kFallbackChain[] = {kCpuDataflowBackend, kSerialBackend};
    bool advanced = false;
    while (job.opts.allow_fallback && !advanced && chain_next < std::size(kFallbackChain)) {
      const char* fb = kFallbackChain[chain_next++];
      if (plan.backend->name() == fb) continue;
      try {
        CompileOptions copts;
        copts.backend = fb;
        copts.params = plan.params;
        fallback_state = compile(plan.spec, copts).state_;
        active = fallback_state.get();
        advanced = true;
      } catch (...) {
        failure = std::current_exception();
      }
    }
    if (advanced) {
      attempt = 0;
      if (!degraded) {
        degraded = true;
        jobs_degraded_.fetch_add(1, std::memory_order_release);
        if (job.control) job.control->note_degraded();
      }
      continue;
    }
    jobs_failed_.fetch_add(1, std::memory_order_release);
    job.result.set_exception(failure);
    return;
  }
}

namespace {

profile::RunSample make_profile_sample(const detail::PlanState& plan,
                                       const core::RunResult& result) {
  profile::RunSample sample;
  sample.key = plan.profile_key;
  sample.phases.reserve(result.breakdown.phases.size());
  for (const core::PhaseTiming& t : result.breakdown.phases) {
    sample.phases.push_back({t.device, t.wall_ns, t.ns});
  }
  return sample;
}

}  // namespace

void Engine::record_profile(const detail::PlanState& plan, const core::RunResult& result,
                            std::size_t worker) {
  // Steady state this costs one uncontended per-worker lock and a vector
  // push; the store's shared lock is only taken when a full batch flushes.
  // The synchronous run() has no worker slot: a one-sample flush straight
  // into the store keeps its result immediately visible.
  std::vector<profile::RunSample> batch;
  if (worker == kCallerThread) {
    batch.push_back(make_profile_sample(plan, result));
  } else {
    ProfileSlot& slot = *profile_slots_[worker];
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.buffer.push_back(make_profile_sample(plan, result));
    if (slot.buffer.size() >= kProfileFlushBatch) batch.swap(slot.buffer);
  }
  if (!batch.empty()) {
    // Telemetry must never fail the job it measures: an injected flush
    // fault drops this batch (warned) and the run still completes.
    try {
      profile_store_.record_batch(batch);
      profile_flushes_.fetch_add(1, std::memory_order_release);
    } catch (const fault::InjectedError& e) {
      util::log_warn("Engine: dropping ", batch.size(), " profile sample(s): ", e.what());
    }
  }
  profile_samples_recorded_.fetch_add(1, std::memory_order_release);
}

void Engine::flush_profiles() {
  for (auto& slot : profile_slots_) {
    std::vector<profile::RunSample> batch;
    {
      std::lock_guard<std::mutex> lock(slot->mutex);
      batch.swap(slot->buffer);
    }
    if (batch.empty()) continue;
    try {
      profile_store_.record_batch(batch);
      profile_flushes_.fetch_add(1, std::memory_order_release);
    } catch (const fault::InjectedError& e) {
      util::log_warn("Engine: dropping ", batch.size(), " profile sample(s): ", e.what());
    }
  }
}

void Engine::retry_backoff(std::uint64_t job_id, std::size_t attempt) const {
  std::int64_t ns = options_.retry_backoff_base.count();
  if (ns <= 0) return;
  for (std::size_t i = 1; i < attempt && ns < options_.retry_backoff_max.count(); ++i) ns *= 2;
  ns = std::min<std::int64_t>(ns, std::max<std::int64_t>(options_.retry_backoff_max.count(), 1));
  // Deterministic jitter in [0.5, 1.0): a pure function of (job, attempt),
  // so a replayed chaos schedule sleeps the same nanoseconds.
  std::uint64_t s = job_id * 0x9E3779B97F4A7C15ULL + attempt;
  const std::uint64_t r = util::splitmix64(s);
  const double f = 0.5 + 0.5 * static_cast<double>(r >> 11) * 0x1.0p-53;
  std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(ns) * f)));
}

Plan Engine::compile(const core::WavefrontSpec& spec, const CompileOptions& options) {
  spec.validate();
  return compile_impl(&spec, spec.inputs(), options);
}

Plan Engine::compile(const core::WavefrontSpec& spec, const core::TunableParams& params,
                     const std::string& backend) {
  CompileOptions options;
  options.backend = backend;
  options.params = params;
  return compile(spec, options);
}

Plan Engine::compile(const core::InputParams& in, const CompileOptions& options) {
  in.validate();
  return compile_impl(nullptr, in, options);
}

Plan Engine::compile(const core::InputParams& in, const core::TunableParams& params,
                     const std::string& backend) {
  CompileOptions options;
  options.backend = backend;
  options.params = params;
  return compile(in, options);
}

Plan Engine::compile_impl(const core::WavefrontSpec* spec, const core::InputParams& in,
                          const CompileOptions& options) {
  const bool autotuned = !options.params.has_value();
  // Effective residency cap: per-compile override, else the engine-wide
  // default.
  const std::size_t resident_cap =
      options.max_resident_bytes.value_or(options_.max_resident_bytes);
  // Executable specs with no declared identity (no content_key, no tag)
  // are never cached: the key cannot tell their kernels apart, and a
  // wrong-kernel cache hit is silent wrong results. Estimate-only plans
  // are pure functions of the signature and always cache.
  const bool cacheable =
      options_.plan_cache &&
      (!spec || !spec->content_key.empty() || !options.cache_tag.empty());

  CacheKey key;
  key.backend = options.backend;
  // The spec's content identity and the caller's tag jointly salt the
  // key: kernels capturing per-request payload declare it via
  // WavefrontSpec::content_key, so same-signature requests don't alias.
  if (spec) key.content = spec->content_key;
  key.tag = options.cache_tag;
  // Custom programs key on their exact shape; backend-planned programs
  // are a pure function of (backend, params) and need no extra salt.
  if (options.program) key.program = options.program->describe();
  key.executable = spec != nullptr;
  key.autotuned = autotuned;
  key.dim = in.dim;
  key.tsize = in.tsize;
  key.dsize = in.dsize;
  key.elem_bytes = spec ? spec->elem_bytes : 0;
  // The cap reshapes backend-planned programs (strip axis), so it must
  // salt the key.
  key.resident_cap = resident_cap;
  if (!autotuned) key.params = *options.params;

  if (cacheable) {
    // The serving hot path: a steady-state HIT is one acquire load of the
    // snapshot version plus a map lookup — no lock, no shared refcount
    // traffic (the thread-local SnapshotRef pins the generation).
    const CacheMap& snap = reader_snapshot();
    const auto it = snap.find(key);
    if (it != snap.end()) {
      it->second->referenced.store(true, std::memory_order_relaxed);
      plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return Plan(it->second->state);
    }
  }

  // Miss: resolve the backend, predict (or take) the tuning, and let the
  // backend validate + canonicalise it once. Done outside the cache lock —
  // prediction and validation are the expensive part being memoized.
  auto backend = BackendRegistry::instance().require(options.backend);
  core::TunableParams params;
  if (autotuned) {
    params = tuner_ ? tuner_->predict(in).params : core::TunableParams{}.normalized(in.dim);
  } else {
    params = *options.params;
  }

  auto state = std::make_shared<detail::PlanState>();
  state->executable = spec != nullptr;
  state->autotuned = autotuned;
  if (spec) {
    state->spec = *spec;
    // Plan-time kernel lowering: resolve the widest ABI rung once, here,
    // so every submit/run of this plan dispatches through the cached
    // LoweredKernel without constructing anything.
    state->lowered = state->spec.lower();
  }
  state->inputs = in;
  state->params = backend->prepare(in, params, executor_.profile());
  // Plan-time schedule compilation: the backend lowers the prepared
  // tuning to a phase program (or a caller-supplied program is adopted
  // after the same validation), and BOTH run and estimate interpret it.
  if (options.program) {
    state->program = *options.program;
    state->program.validate_for(in.dim, executor_.profile());
  } else {
    state->program = backend->plan(in, state->params, executor_.profile());
    // Residency-capped streaming: when the backend's single-GPU device
    // footprint exceeds the cap, reshape the program onto the strip
    // height and pool size the executor prices cheapest
    // (core/streaming.hpp). Only backend-planned programs are reshaped —
    // an explicit CompileOptions::program is the caller's exact schedule.
    state->program =
        core::apply_residency_cap(std::move(state->program), in, resident_cap, executor_);
  }
  // Profile signature: everything that determines the plan's timing
  // behavior (backend, exact program shape, instance inputs) and nothing
  // that doesn't (content identity — so measurements pool across payloads
  // that execute the same schedule).
  {
    std::ostringstream sig;
    sig << options.backend << '|' << state->program.describe() << "|t" << in.tsize << "|d"
        << in.dsize;
    state->profile_key = sig.str();
  }
  state->backend = std::move(backend);

  if (cacheable) {
    try {
      return publish_plan(std::move(key), state);
    } catch (const fault::InjectedError& e) {
      // Cache publication failed, but the plan in hand is fully compiled
      // and correct — degrade to serving it uncached (a later compile of
      // the same key will try to publish again) instead of failing the
      // request over a cache-bookkeeping fault. publish_plan mutates no
      // engine state before its no-throw commit zone, so the cache,
      // clock hand, and counters are exactly as before the attempt.
      util::log_warn("Engine: plan-cache publication failed (", e.what(),
                     "); serving the plan uncached");
    }
  }

  state->id = next_plan_id_.fetch_add(1, std::memory_order_relaxed);
  plans_compiled_.fetch_add(1, std::memory_order_relaxed);
  return Plan(std::move(state));
}

Plan Engine::publish_plan(CacheKey key, std::shared_ptr<detail::PlanState> state) {
  // Fault sites fire before any engine state mutates: kPlanCachePublish
  // up front, kPlanCacheEvict per hand step — and the hand itself works
  // on a LOCAL copy of clock_order_ that is committed (no-throw moves)
  // only together with the new snapshot. An injected throw therefore
  // leaves cache, hand, and counters exactly as it found them, and
  // compile_impl can fall back to serving the plan uncached.
  fault::check(fault::Site::kPlanCachePublish);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const std::shared_ptr<const CacheMap> snap = load_snapshot();
  const auto it = snap->find(key);
  if (it != snap->end()) {
    // A concurrent compile of the same key published first: adopt it.
    plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    it->second->referenced.store(true, std::memory_order_relaxed);
    return Plan(it->second->state);
  }

  // Copy-on-write: the published map itself is never mutated, so readers
  // mid-lookup keep their (possibly previous) generation alive via the
  // snapshot shared_ptr — that refcount IS the reclamation barrier for
  // evicted PlanStates. Entry objects are shared across generations, so
  // referenced bits set against an old snapshot still count.
  auto next = std::make_shared<CacheMap>(*snap);

  // Bounded cache with CLOCK second-chance eviction: the hand walks
  // insertion order; an entry hit since the last sweep spends its
  // referenced bit for another lap, an untouched one is evicted. Hot
  // plans therefore survive one-shot compile sweeps that would flush a
  // plain FIFO. Terminates: each pass either evicts or clears a bit, and
  // cleared entries cannot be re-marked while we hold cache_mutex_...
  // (readers CAN re-mark concurrently — that only grants another lap
  // later; the hand still evicts the first entry whose exchange returns
  // false, and with a finite queue some exchange eventually does).
  std::deque<CacheKey> hand = clock_order_;
  std::uint64_t evicted = 0;
  while (next->size() >= options_.plan_cache_capacity && !hand.empty()) {
    fault::check(fault::Site::kPlanCacheEvict);
    CacheKey victim = std::move(hand.front());
    hand.pop_front();
    const auto vit = next->find(victim);
    if (vit == next->end()) continue;  // stale hand entry (clear_plan_cache ran)
    if (vit->second->referenced.exchange(false, std::memory_order_relaxed)) {
      hand.push_back(std::move(victim));  // second chance
      continue;
    }
    next->erase(vit);
    ++evicted;
  }
  if (options_.plan_cache_capacity > 0) {
    auto entry = std::make_shared<CacheEntry>();
    entry->state = state;
    next->emplace(key, std::move(entry));
    hand.push_back(std::move(key));
  }

  // Commit zone: fix the identity, then publish — counter bumps, the
  // container moves, and store_snapshot are all no-throw.
  state->id = next_plan_id_.fetch_add(1, std::memory_order_relaxed);
  plans_compiled_.fetch_add(1, std::memory_order_relaxed);
  if (evicted > 0) plan_cache_evictions_.fetch_add(evicted, std::memory_order_relaxed);
  clock_order_ = std::move(hand);
  store_snapshot(std::move(next));
  return Plan(std::move(state));
}

void Engine::check_executable(const Plan& plan, const core::Grid& grid, const char* where) {
  if (!plan.valid()) throw std::invalid_argument(std::string(where) + ": invalid plan");
  if (!plan.executable()) {
    throw std::invalid_argument(std::string(where) +
                                ": estimate-only plan (compiled from InputParams) cannot execute");
  }
  const core::WavefrontSpec& spec = plan.spec();
  if (grid.dim() != spec.dim || grid.elem_bytes() != spec.elem_bytes) {
    throw std::invalid_argument(std::string(where) + ": grid does not match the plan's spec");
  }
}

Submission Engine::submit_impl(const Plan& plan, core::Grid& grid, const SubmitOptions& options,
                               bool with_control, bool blocking, bool* shed, const char* where) {
  check_executable(plan, grid, where);
  if (shed) *shed = false;

  Job job;
  job.plan = plan.state_;
  job.grid = &grid;
  job.opts = options;
  job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  if (with_control) {
    const bool has_deadline = options.deadline.count() > 0;
    job.control = std::make_shared<detail::JobControl>(
        has_deadline, std::chrono::steady_clock::now() + options.deadline, &drain_deadline_ns_);
  }
  Submission out;
  out.control = job.control;
  out.future = job.result.get_future();

  // Counted before the push so a fast worker completing the job can never
  // make a concurrent stats() reader see completed > submitted.
  jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
  std::size_t attempt = 0;
  for (;;) {
    try {
      // The queue's fault sites fire before `job` is consumed, so an
      // InjectedError propagating from here leaves the job (promise
      // included) intact in this frame's hands.
      const bool accepted = blocking ? queue_.push(std::move(job)) : queue_.try_push(job);
      if (accepted) return out;
      if (!blocking) {
        if (!queue_.closed()) {
          // Every shard full: shed instead of blocking. Nothing was
          // enqueued, so the submission never happened.
          jobs_submitted_.fetch_sub(1, std::memory_order_relaxed);
          *shed = true;
          return out;
        }
      }
      jobs_submitted_.fetch_sub(1, std::memory_order_relaxed);
      throw std::runtime_error(std::string(where) + ": engine is shutting down");
    } catch (const fault::InjectedError& e) {
      // The queue's fault sites fire before the job is accepted, so `job`
      // (promise included) is still whole: transient faults within the
      // retry budget re-push; otherwise the future resolves with the
      // fault — a chaos-era submit never breaks a promise and never
      // leaks a submitted count.
      if (e.transient() && attempt < options.max_retries) {
        ++attempt;
        jobs_retried_.fetch_add(1, std::memory_order_release);
        continue;
      }
      jobs_failed_.fetch_add(1, std::memory_order_release);
      job.result.set_exception(std::current_exception());
      return out;
    }
  }
}

std::future<core::RunResult> Engine::submit(const Plan& plan, core::Grid& grid) {
  return submit_impl(plan, grid, SubmitOptions{}, /*with_control=*/false, /*blocking=*/true,
                     nullptr, "Engine::submit")
      .future;
}

Submission Engine::submit(const Plan& plan, core::Grid& grid, const SubmitOptions& options) {
  return submit_impl(plan, grid, options, /*with_control=*/true, /*blocking=*/true, nullptr,
                     "Engine::submit");
}

std::optional<std::future<core::RunResult>> Engine::try_submit(const Plan& plan,
                                                               core::Grid& grid) {
  bool shed = false;
  Submission out = submit_impl(plan, grid, SubmitOptions{}, /*with_control=*/false,
                               /*blocking=*/false, &shed, "Engine::try_submit");
  if (shed) return std::nullopt;
  return std::move(out.future);
}

std::optional<Submission> Engine::try_submit(const Plan& plan, core::Grid& grid,
                                             const SubmitOptions& options) {
  bool shed = false;
  Submission out = submit_impl(plan, grid, options, /*with_control=*/true, /*blocking=*/false,
                               &shed, "Engine::try_submit");
  if (shed) return std::nullopt;
  return out;
}

void Engine::cancel(const Submission& submission) {
  if (submission.control) submission.control->cancel();
}

void Engine::check_batch(const Plan& plan, const std::vector<core::Grid*>& grids) {
  // All-or-nothing validation before anything is enqueued: a bad grid in
  // the middle must not leave earlier jobs running with their futures
  // discarded by the unwinding caller.
  for (core::Grid* grid : grids) {
    if (!grid) throw std::invalid_argument("Engine::submit_batch: null grid");
    check_executable(plan, *grid, "Engine::submit_batch");
  }
  // A repeated grid would be written by two workers concurrently.
  std::vector<const core::Grid*> unique(grids.begin(), grids.end());
  std::sort(unique.begin(), unique.end());
  if (std::adjacent_find(unique.begin(), unique.end()) != unique.end()) {
    throw std::invalid_argument("Engine::submit_batch: duplicate grid in batch");
  }
}

std::vector<std::future<core::RunResult>> Engine::submit_batch(
    const Plan& plan, const std::vector<core::Grid*>& grids) {
  check_batch(plan, grids);
  std::vector<std::future<core::RunResult>> futures;
  futures.reserve(grids.size());
  for (core::Grid* grid : grids) futures.push_back(submit(plan, *grid));
  return futures;
}

std::vector<Submission> Engine::submit_batch(const Plan& plan,
                                             const std::vector<core::Grid*>& grids,
                                             const SubmitOptions& options) {
  check_batch(plan, grids);
  std::vector<Submission> out;
  out.reserve(grids.size());
  for (core::Grid* grid : grids) out.push_back(submit(plan, *grid, options));
  return out;
}

core::RunResult Engine::run(const Plan& plan, core::Grid& grid) {
  check_executable(plan, grid, "Engine::run");
  // A batch of one on the calling thread: counted like the async path —
  // submitted up front, then exactly one terminal bucket — and resolved
  // through the same promise, whose get() rethrows a backend exception.
  Job job;
  job.grid = &grid;
  job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  std::future<core::RunResult> result = job.result.get_future();
  jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
  run_group(*plan.state_, {&job}, kCallerThread);
  return result.get();
}

core::RunResult Engine::run_streamed(const Plan& plan, core::Grid& grid,
                                     const core::RunCheckpoint* from,
                                     const CheckpointPolicy& policy, const char* where) {
  check_executable(plan, grid, where);
  core::StreamControl stream;
  stream.resume = from;
  stream.checkpoint_every_strips = policy.every_strips;
  if (!policy.path.empty()) {
    stream.on_checkpoint = [this, &policy](const core::RunCheckpoint& cp) {
      cp.save_file(policy.path);
      checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
    };
  }
  // Counted like run(): submitted up front, then exactly one terminal
  // bucket. Executes through the generic interpreter directly — the
  // StreamControl hook is an interpreter feature, not a Backend virtual —
  // which is bit-identical to the backend's own run for every
  // program-interpreting backend.
  jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (from) jobs_resumed_.fetch_add(1, std::memory_order_relaxed);
  try {
    const core::RunResult r =
        executor_.run(plan.spec(), plan.state_->program, grid, nullptr, &plan.state_->lowered,
                      nullptr, &stream);
    jobs_completed_.fetch_add(1, std::memory_order_release);
    return r;
  } catch (...) {
    jobs_failed_.fetch_add(1, std::memory_order_release);
    throw;
  }
}

core::RunResult Engine::run_checkpointed(const Plan& plan, core::Grid& grid,
                                         const CheckpointPolicy& policy) {
  if (policy.path.empty()) {
    throw std::invalid_argument("Engine::run_checkpointed: CheckpointPolicy::path is empty");
  }
  return run_streamed(plan, grid, nullptr, policy, "Engine::run_checkpointed");
}

core::RunResult Engine::resume(const Plan& plan, core::Grid& grid,
                               const core::RunCheckpoint& from, const CheckpointPolicy& policy) {
  return run_streamed(plan, grid, &from, policy, "Engine::resume");
}

core::RunResult Engine::resume_from_file(const Plan& plan, core::Grid& grid,
                                         const std::string& path,
                                         const CheckpointPolicy& policy) {
  const core::RunCheckpoint cp = core::RunCheckpoint::load_file(path);
  return run_streamed(plan, grid, &cp, policy, "Engine::resume_from_file");
}

core::RunResult Engine::estimate(const Plan& plan) const {
  if (!plan.valid()) throw std::invalid_argument("Engine::estimate: invalid plan");
  return plan.backend().estimate(executor_, plan.inputs(), plan.program());
}

double Engine::estimate_serial(const core::InputParams& in) const {
  return executor_.estimate_serial(in);
}

EngineStats Engine::stats() const {
  EngineStats s;
  // Terminal buckets are read (acquire) BEFORE submitted: the release
  // increments in run_group/submit_impl plus the submit-before-push
  // ordering keep completed + failed + timed_out + cancelled <= submitted
  // from this reader's point of view.
  s.jobs_completed = jobs_completed_.load(std::memory_order_acquire);
  s.jobs_failed = jobs_failed_.load(std::memory_order_acquire);
  s.jobs_timed_out = jobs_timed_out_.load(std::memory_order_acquire);
  s.jobs_cancelled = jobs_cancelled_.load(std::memory_order_acquire);
  // Same audit: bumped (release) before the affected job's promise
  // resolves, so these can't lag behind a join the reader has observed.
  s.jobs_retried = jobs_retried_.load(std::memory_order_acquire);
  s.jobs_degraded = jobs_degraded_.load(std::memory_order_acquire);
  s.profile_samples_recorded = profile_samples_recorded_.load(std::memory_order_acquire);
  s.profile_flushes = profile_flushes_.load(std::memory_order_acquire);
  s.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);
  s.jobs_resumed = jobs_resumed_.load(std::memory_order_relaxed);
  // Same audit again: batching counters bump (release) before any fused
  // member's promise resolves.
  s.jobs_batched = jobs_batched_.load(std::memory_order_acquire);
  s.batches_formed = batches_formed_.load(std::memory_order_acquire);
  s.jobs_submitted = jobs_submitted_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < EngineStats::kBatchOccupancyBuckets; ++b) {
    s.batch_occupancy[b] = batch_occupancy_[b].load(std::memory_order_relaxed);
  }
  s.plans_compiled = plans_compiled_.load(std::memory_order_relaxed);
  s.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  s.plan_cache_evictions = plan_cache_evictions_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  return s;
}

ShardedQueueStats Engine::queue_stats() const {
  return queue_.stats();
}

std::size_t Engine::queue_capacity() const {
  return queue_.capacity();
}

std::size_t Engine::plan_cache_size() const {
  return reader_snapshot().size();
}

void Engine::save_profile(const std::string& path) {
  const std::string& target = path.empty() ? options_.profile_path : path;
  if (target.empty()) {
    throw std::invalid_argument(
        "Engine::save_profile: no path given and EngineOptions::profile_path is empty");
  }
  flush_profiles();
  profile_store_.save_file(target);
}

std::vector<profile::PlanAttribution> Engine::profile_report() {
  flush_profiles();
  std::vector<profile::PlanAttribution> report;
  for (const profile::PlanProfile& plan : profile_store_.all()) {
    report.push_back(profile::attribute(plan));
  }
  return report;
}

Plan Engine::refine_plan(const Plan& plan, std::size_t max_evaluations) {
  if (!plan.valid()) throw std::invalid_argument("Engine::refine_plan: invalid plan");
  if (!plan.executable()) {
    throw std::invalid_argument(
        "Engine::refine_plan: estimate-only plan (compiled from InputParams) cannot be refined");
  }
  flush_profiles();
  // Scales from the plan's own measured residuals when its signature was
  // profiled; otherwise the store-wide per-device medians (a fresh plan
  // still benefits from what the fleet learned); otherwise neutral (the
  // refiner then just re-optimizes under the a-priori model).
  autotune::PhaseCostScales scales;
  if (const auto own = profile_store_.find(plan.profile_key())) {
    scales = profile::device_scales(*own);
  } else {
    scales = profile::device_scales(profile_store_);
  }
  autotune::ProgramTuneOptions tune;
  tune.max_evaluations = max_evaluations;
  const autotune::ProgramTuneResult tuned =
      autotune::refine_program(executor_, plan.inputs(), plan.program(), scales, tune);
  if (tuned.program.describe() == plan.program().describe()) return plan;
  // Recompile through the normal path so the refined plan is cached and
  // served to subsequent compiles; the program salt in CacheKey keeps it
  // from aliasing the seed.
  CompileOptions options;
  options.backend = plan.backend_name();
  options.params = plan.params();
  options.program = tuned.program;
  options.cache_tag = "profile-refined";
  return compile(plan.spec(), options);
}

void Engine::clear_plan_cache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  store_snapshot(std::make_shared<const CacheMap>());
  clock_order_.clear();
  // Readers holding the old snapshot (or Plans from it) keep those
  // PlanStates alive until they drop them — clearing invalidates the
  // cache, not in-flight work.
}

}  // namespace wavetune::api
