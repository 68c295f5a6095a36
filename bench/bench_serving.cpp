// Serving-throughput harness: N closed-loop client threads hammer one
// api::Engine through its sharded lock-free submission path.
//
// Workloads (per client thread, closed loop):
//   submit   submit() + future.get() round-trips of one tiny plan — the
//            job-queue hot path and the batch former;
//   compile  plan-cache HIT compiles — the lock-free snapshot read;
//   mixed    alternating cache-hit compiles and submit round-trips.
//
// Emits an aligned table plus a JSON report (ops/sec, p50/p95/p99 client
// latency, engine + queue contention counters):
//
//   bench_serving [--quick] [--json=BENCH_serving.json]
//                 [--threads=1,2,4,8,16] [--ops=N] [--faults]
//                 [--batching] [--limit=N]
//
// --quick shrinks the sweep for CI smoke runs; --ops overrides the
// per-thread op count of every workload (0 keeps the defaults).
//
// --faults swaps the sweep for the degraded-mode one: the submit workload
// under a seeded fault::Injector firing transient faults at the queue and
// executor sites, absorbed by SubmitOptions{max_retries, allow_fallback}.
// Rate 0 is the armed-but-silent control, so the table reads as "what
// does each fault rate cost end to end".
//
// --batching swaps the sweep for the continuous-batching one: clients
// submit closed-loop BURSTS of same-plan jobs and the axis is
// (batch limit x client count), measured against the unbatched engine
// (batch_limit=1: every job a batch of one). Each cell runs for at least
// kCellSeconds (a tenth of it under --quick) and at least its burst
// count, so one cell is long enough to measure. Each cell reports the
// batch-occupancy histogram plus jobs_batched/batches_formed, so "did
// fusion engage" is visible even when the machine's core count caps the
// ops/s headroom. --limit pins the limit axis to a single value.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "apps/synthetic.hpp"
#include "fault/injector.hpp"
#include "sim/system_profile.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace wavetune;
using Clock = std::chrono::steady_clock;

struct Cell {
  std::string mode;      // "engine" | "faults" | "unbatched" | "batched"
  std::string workload;  // "submit" | "compile" | "mixed" | "burst"
  int threads = 0;
  int limit = 0;      // --batching: batch_limit of the cell
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  api::EngineStats stats;
  api::ShardedQueueStats queue;
};

core::WavefrontSpec tiny_spec() {
  apps::SyntheticParams p;
  p.dim = 16;
  p.tsize = 8.0;
  p.dsize = 1;
  p.functional_iters = 1;
  return apps::make_synthetic_spec(p);
}

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const double idx = q * static_cast<double>(sorted_us.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted_us.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted_us[lo] * (1.0 - frac) + sorted_us[hi] * frac;
}

/// The cache-hit recipes every workload rotates through (all compiled
/// during warmup, so steady state is 100% hits).
const std::vector<core::TunableParams>& hit_recipes() {
  static const std::vector<core::TunableParams> r = {
      {4, 8, 1, 1}, {4, 10, 1, 1}, {2, 8, 0, 1}, {4, 12, -1, 1}};
  return r;
}

Cell run_cell(const std::string& workload, int threads, std::uint64_t ops_per_thread) {
  api::EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 2;
  o.queue_capacity = 64;
  api::Engine eng(sim::make_i7_2600k(), o);
  const core::WavefrontSpec spec = tiny_spec();

  // Warm the plan cache so measured compiles are pure hits.
  std::vector<api::Plan> plans;
  for (const auto& p : hit_recipes()) plans.push_back(eng.compile(spec, p));
  const api::EngineStats warm = eng.stats();

  std::vector<std::vector<double>> lat_us(static_cast<std::size_t>(threads));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto& lat = lat_us[static_cast<std::size_t>(t)];
      lat.reserve(ops_per_thread);
      core::Grid grid(spec.dim, spec.elem_bytes);
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const auto& recipe =
            hit_recipes()[(static_cast<std::size_t>(t) + i) % hit_recipes().size()];
        const auto op0 = Clock::now();
        if (workload == "compile" || (workload == "mixed" && i % 2 == 0)) {
          (void)eng.compile(spec, recipe);
        } else {
          eng.submit(plans[0], grid).get();
        }
        lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() - op0).count());
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  Cell cell;
  cell.mode = "engine";
  cell.workload = workload;
  cell.threads = threads;
  cell.ops = ops_per_thread * static_cast<std::uint64_t>(threads);
  cell.wall_s = wall;
  cell.ops_per_s = wall > 0.0 ? static_cast<double>(cell.ops) / wall : 0.0;
  std::vector<double> merged;
  for (auto& v : lat_us) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());
  cell.p50_us = percentile(merged, 0.50);
  cell.p95_us = percentile(merged, 0.95);
  cell.p99_us = percentile(merged, 0.99);
  cell.stats = eng.stats();
  cell.stats.plans_compiled -= warm.plans_compiled;
  cell.stats.plan_cache_hits -= warm.plan_cache_hits;
  cell.queue = eng.queue_stats();
  return cell;
}

/// One --faults measurement: closed-loop submit round-trips with the
/// injector armed at `rate` on the queue + phase-boundary sites, every
/// job carrying the retry+fallback policy.
Cell run_fault_cell(double rate, int threads, std::uint64_t ops_per_thread) {
  fault::InjectionPlan inject;
  inject.seed = 0xBE7C5ULL ^ static_cast<std::uint64_t>(rate * 1e6) ^
                static_cast<std::uint64_t>(threads);
  for (const fault::Site s :
       {fault::Site::kQueuePush, fault::Site::kQueuePop, fault::Site::kPhaseBoundary}) {
    inject.at(s).probability = rate;
    inject.at(s).severity = fault::Severity::kTransient;
  }
  // Armed before the Engine exists, disarmed after it is gone: thread
  // creation/join orders the injector state for every worker.
  fault::ScopedInjection arm(inject);

  api::EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 2;
  o.queue_capacity = 64;
  o.retry_backoff_base = std::chrono::microseconds(10);
  o.retry_backoff_max = std::chrono::milliseconds(1);
  api::Engine eng(sim::make_i7_2600k(), o);
  const core::WavefrontSpec spec = tiny_spec();
  const api::Plan plan = eng.compile(spec, hit_recipes()[0]);

  api::SubmitOptions policy;
  policy.max_retries = 4;
  policy.allow_fallback = true;

  std::vector<std::vector<double>> lat_us(static_cast<std::size_t>(threads));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto& lat = lat_us[static_cast<std::size_t>(t)];
      lat.reserve(ops_per_thread);
      core::Grid grid(spec.dim, spec.elem_bytes);
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const auto op0 = Clock::now();
        try {
          eng.submit(plan, grid, policy).future.get();
        } catch (const fault::InjectedError&) {
          // Budget exhausted on this op — counted via jobs_failed below.
        }
        lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() - op0).count());
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  Cell cell;
  cell.mode = "faults";
  cell.workload = "submit";
  cell.threads = threads;
  cell.ops = ops_per_thread * static_cast<std::uint64_t>(threads);
  cell.wall_s = wall;
  cell.ops_per_s = wall > 0.0 ? static_cast<double>(cell.ops) / wall : 0.0;
  std::vector<double> merged;
  for (auto& v : lat_us) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());
  cell.p50_us = percentile(merged, 0.50);
  cell.p95_us = percentile(merged, 0.95);
  cell.p99_us = percentile(merged, 0.99);
  cell.stats = eng.stats();
  cell.queue = eng.queue_stats();
  return cell;
}

/// Jobs per closed-loop burst in the --batching sweep: every client
/// submits kBurst same-plan jobs back to back, then drains all futures,
/// so batch opportunity exists even with a single client.
constexpr std::size_t kBurst = 4;

/// Least wall time of one full --batching cell.
constexpr double kCellSeconds = 1.0;

/// One --batching measurement. mode selects the grouping policy:
///   "unbatched" batch_limit=1: every job runs as a batch of one;
///   "batched"   continuous batching with the given limit.
/// Every client runs at least `min_bursts` bursts and keeps going until
/// the cell has lasted `min_seconds`.
Cell run_batching_cell(const std::string& mode, int clients, int limit,
                       std::uint64_t min_bursts, double min_seconds) {
  api::EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 2;
  o.queue_capacity = 256;
  if (mode == "batched") {
    o.batch_limit = static_cast<std::size_t>(limit);
  } else {
    o.batch_limit = 1;
  }
  api::Engine eng(sim::make_i7_2600k(), o);

  apps::SyntheticParams p;
  p.dim = 64;
  p.tsize = 8.0;
  p.dsize = 1;
  p.functional_iters = 1;
  const core::WavefrontSpec spec = apps::make_synthetic_spec(p);
  // A small CPU-only plan: the per-job fixed cost (queue, dispatch, one
  // interpreter pass per phase) that the fused sweep amortizes is large
  // next to the job's compute — the serving-shaped worst case.
  const api::Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1}, "cpu-tiled");

  std::vector<std::vector<double>> lat_us(static_cast<std::size_t>(clients));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> bursts(static_cast<std::size_t>(clients), 0);
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(min_seconds));
  for (int t = 0; t < clients; ++t) {
    workers.emplace_back([&, t] {
      auto& lat = lat_us[static_cast<std::size_t>(t)];
      lat.reserve(min_bursts);
      std::vector<core::Grid> grids;
      grids.reserve(kBurst);
      for (std::size_t g = 0; g < kBurst; ++g) grids.emplace_back(spec.dim, spec.elem_bytes);
      std::vector<std::future<core::RunResult>> futs;
      futs.reserve(kBurst);
      std::uint64_t& b = bursts[static_cast<std::size_t>(t)];
      for (; b < min_bursts || Clock::now() < until; ++b) {
        const auto op0 = Clock::now();
        futs.clear();
        for (auto& grid : grids) futs.push_back(eng.submit(plan, grid));
        for (auto& f : futs) f.get();
        lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() - op0).count());
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  Cell cell;
  cell.mode = mode;
  cell.workload = "burst";
  cell.threads = clients;
  cell.limit = mode == "batched" ? limit : 1;
  for (const std::uint64_t b : bursts) cell.ops += b * kBurst;
  cell.wall_s = wall;
  cell.ops_per_s = wall > 0.0 ? static_cast<double>(cell.ops) / wall : 0.0;
  std::vector<double> merged;
  for (auto& v : lat_us) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());
  cell.p50_us = percentile(merged, 0.50);
  cell.p95_us = percentile(merged, 0.95);
  cell.p99_us = percentile(merged, 0.99);
  cell.stats = eng.stats();
  cell.queue = eng.queue_stats();
  return cell;
}

/// Share of dispatched same-plan groups (lone jobs, as groups of one,
/// included) whose occupancy was >= 4 jobs.
double occupancy_ge4_share(const api::EngineStats& s) {
  std::uint64_t total = 0;
  std::uint64_t ge4 = 0;
  for (std::size_t i = 0; i < api::EngineStats::kBatchOccupancyBuckets; ++i) {
    total += s.batch_occupancy[i];
    if (i >= 3) ge4 += s.batch_occupancy[i];
  }
  return total > 0 ? static_cast<double>(ge4) / static_cast<double>(total) : 0.0;
}

util::Json to_json(const Cell& c) {
  util::JsonObject o;
  o["mode"] = c.mode;
  o["workload"] = c.workload;
  o["threads"] = c.threads;
  if (c.workload == "burst") {
    o["limit"] = c.limit;
  }
  o["ops"] = c.ops;
  o["wall_s"] = c.wall_s;
  o["ops_per_sec"] = c.ops_per_s;
  o["p50_us"] = c.p50_us;
  o["p95_us"] = c.p95_us;
  o["p99_us"] = c.p99_us;
  util::JsonObject stats;
  stats["plans_compiled"] = c.stats.plans_compiled;
  stats["plan_cache_hits"] = c.stats.plan_cache_hits;
  stats["plan_cache_evictions"] = c.stats.plan_cache_evictions;
  stats["jobs_submitted"] = c.stats.jobs_submitted;
  stats["jobs_completed"] = c.stats.jobs_completed;
  stats["jobs_failed"] = c.stats.jobs_failed;
  stats["jobs_retried"] = c.stats.jobs_retried;
  stats["jobs_degraded"] = c.stats.jobs_degraded;
  stats["jobs_timed_out"] = c.stats.jobs_timed_out;
  stats["jobs_cancelled"] = c.stats.jobs_cancelled;
  stats["jobs_batched"] = c.stats.jobs_batched;
  stats["batches_formed"] = c.stats.batches_formed;
  util::JsonArray occ;
  for (const std::uint64_t n : c.stats.batch_occupancy) occ.push_back(util::Json(n));
  stats["batch_occupancy"] = util::Json(std::move(occ));
  o["engine"] = util::Json(std::move(stats));
  util::JsonObject q;
  q["pushes"] = c.queue.pushes;
  q["pops"] = c.queue.pops;
  q["push_fallovers"] = c.queue.push_fallovers;
  q["pop_steals"] = c.queue.pop_steals;
  q["push_blocks"] = c.queue.push_blocks;
  q["pop_blocks"] = c.queue.pop_blocks;
  o["queue"] = util::Json(std::move(q));
  return util::Json(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli = util::Cli::parse_or_exit(
      argc, argv, {"quick", "json", "threads", "ops", "faults", "batching", "limit"});
  const bool quick = cli.get_bool_or("quick", false);
  const bool faults = cli.get_bool_or("faults", false);
  const bool batching = cli.get_bool_or("batching", false);
  const std::string json_path =
      cli.get_or("json", faults      ? "BENCH_serving_faults.json"
                         : batching ? "BENCH_serving_batching.json"
                                    : "BENCH_serving.json");

  std::vector<int> threads;
  if (const auto csv = cli.get("threads")) {
    std::string tok;
    for (const char ch : *csv + ",") {
      if (ch == ',') {
        if (!tok.empty()) threads.push_back(std::stoi(tok));
        tok.clear();
      } else {
        tok.push_back(ch);
      }
    }
  } else {
    threads = quick ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};
  }

  const auto ops_override = static_cast<std::uint64_t>(cli.get_int_or("ops", 0));
  const auto ops_for = [&](const std::string& workload) -> std::uint64_t {
    if (ops_override > 0) return ops_override;
    if (workload == "compile") return quick ? 500 : 4000;
    if (workload == "submit") return quick ? 50 : 250;
    return quick ? 80 : 400;  // mixed
  };

  if (batching) {
    const std::uint64_t bursts = ops_override > 0 ? ops_override : (quick ? 40 : 200);
    const double seconds = quick ? kCellSeconds / 10 : kCellSeconds;
    std::vector<int> clients_axis = threads;
    if (!cli.get("threads")) clients_axis = quick ? std::vector<int>{4} : std::vector<int>{1, 4, 8};
    std::vector<int> limits = quick ? std::vector<int>{8} : std::vector<int>{4, 8};
    if (cli.get("limit")) limits = {static_cast<int>(cli.get_int_or("limit", 8))};

    std::vector<Cell> cells;
    util::Table table({"mode", "clients", "limit", "ops/s", "vs unbatched", "p50us",
                       "p99us", "batched", "batches", "occ>=4"});
    const auto pct = [](double v) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.0f%%", 100.0 * v);
      return std::string(buf);
    };
    util::JsonArray summary;
    for (const int c : clients_axis) {
      const Cell base = run_batching_cell("unbatched", c, 0, bursts, seconds);
      table.row()
          .add(base.mode)
          .add(c)
          .add(1)
          .add(base.ops_per_s, 0)
          .add("1.00x")
          .add(base.p50_us, 1)
          .add(base.p99_us, 1)
          .add(base.stats.jobs_batched)
          .add(base.stats.batches_formed)
          .add(pct(occupancy_ge4_share(base.stats)))
          .done();
      cells.push_back(base);
      for (const int l : limits) {
        const Cell b = run_batching_cell("batched", c, l, bursts, seconds);
        const double speedup = base.ops_per_s > 0.0 ? b.ops_per_s / base.ops_per_s : 0.0;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
        table.row()
            .add(b.mode)
            .add(c)
            .add(l)
            .add(b.ops_per_s, 0)
            .add(buf)
            .add(b.p50_us, 1)
            .add(b.p99_us, 1)
            .add(b.stats.jobs_batched)
            .add(b.stats.batches_formed)
            .add(pct(occupancy_ge4_share(b.stats)))
            .done();
        util::JsonObject s;
        s["clients"] = c;
        s["limit"] = l;
        s["unbatched_ops_per_sec"] = base.ops_per_s;
        s["batched_ops_per_sec"] = b.ops_per_s;
        s["speedup_vs_unbatched"] = speedup;
        s["occupancy_ge4_share"] = occupancy_ge4_share(b.stats);
        summary.emplace_back(std::move(s));
        cells.push_back(b);
      }
    }
    std::printf(
        "Continuous batching: fused same-plan sweeps vs batches of one "
        "(bursts of %zu same-plan jobs per client op)\n%s",
        kBurst, table.to_aligned().c_str());
    util::JsonObject root;
    root["bench"] = "bench_serving";
    root["batching"] = true;
    root["quick"] = quick;
    root["burst"] = kBurst;
    root["hardware_concurrency"] =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    util::JsonArray arr;
    for (const Cell& c : cells) arr.push_back(to_json(c));
    root["cells"] = util::Json(std::move(arr));
    root["summary"] = util::Json(std::move(summary));
    std::ofstream out(json_path);
    out << util::Json(std::move(root)).dump(2) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
  }

  if (faults) {
    const std::uint64_t ops = ops_override > 0 ? ops_override : (quick ? 50 : 250);
    const std::vector<double> rates = {0.0, 0.001, 0.01, 0.05};
    std::vector<Cell> cells;
    util::Table table({"fault rate", "threads", "ops/s", "p50us", "p99us", "retried",
                       "degraded", "failed"});
    util::JsonArray arr;
    for (const double rate : rates) {
      for (const int t : threads) {
        const Cell c = run_fault_cell(rate, t, ops);
        table.row()
            .add(rate, 3)
            .add(t)
            .add(c.ops_per_s, 0)
            .add(c.p50_us, 1)
            .add(c.p99_us, 1)
            .add(c.stats.jobs_retried)
            .add(c.stats.jobs_degraded)
            .add(c.stats.jobs_failed)
            .done();
        util::Json j = to_json(c);
        j["fault_rate"] = rate;
        arr.push_back(std::move(j));
        cells.push_back(c);
      }
    }
    std::printf(
        "Serving throughput under injected transient faults (retry+fallback policy)\n%s",
        table.to_aligned().c_str());
    util::JsonObject root;
    root["bench"] = "bench_serving";
    root["faults"] = true;
    root["quick"] = quick;
    root["cells"] = util::Json(std::move(arr));
    std::ofstream out(json_path);
    out << util::Json(std::move(root)).dump(2) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
  }

  std::vector<Cell> cells;
  util::Table table({"workload", "threads", "ops/s", "p50us", "p95us", "p99us"});
  for (const std::string workload : {"submit", "compile", "mixed"}) {
    for (const int t : threads) {
      const Cell& c = cells.emplace_back(run_cell(workload, t, ops_for(workload)));
      table.row()
          .add(workload)
          .add(t)
          .add(c.ops_per_s, 0)
          .add(c.p50_us, 1)
          .add(c.p95_us, 1)
          .add(c.p99_us, 1)
          .done();
    }
  }
  std::printf("Serving throughput: closed-loop clients on the sharded submission path\n%s",
              table.to_aligned().c_str());

  util::JsonObject root;
  root["bench"] = "bench_serving";
  root["quick"] = quick;
  root["hardware_concurrency"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  util::JsonArray arr;
  for (const Cell& c : cells) arr.push_back(to_json(c));
  root["cells"] = util::Json(std::move(arr));
  std::ofstream out(json_path);
  out << util::Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
