#include "workload.hpp"

#include <algorithm>

#include "api/backend.hpp"

namespace perfbench {

using wavetune::core::TunableParams;

const char* app_name(App app) {
  switch (app) {
    case App::kEditDist: return "editdist";
    case App::kSeqCmp: return "seqcmp";
    case App::kNash: return "nash";
    case App::kSynthetic: return "synthetic";
  }
  return "?";
}

namespace {

TunableParams cpu_only(int tile) {
  TunableParams p;
  p.cpu_tile = tile;
  p.band = -1;
  return p;
}

TunableParams gpu_band(int tile, long long band, long long halo, int gpus) {
  TunableParams p;
  p.cpu_tile = tile;
  p.band = band;
  p.halo = halo;
  p.gpus = gpus;
  return p;
}

std::vector<WorkloadParams> make_workloads() {
  using wavetune::api::kCpuTiledBackend;
  using wavetune::api::kHybridBackend;
  std::vector<WorkloadParams> out;

  // solve-cpu: large lone CPU-only solves through Engine::run. The grid
  // (1536^2 x 8 B = 18 MiB) is far larger than L2 and the 256-cell tiles
  // make kernel compute dominate dispatch, so nearly all the time is in the
  // single-thread cpu scheduler and the apps' tile kernels; the api layer
  // (compile hit plus Engine::run) is under 1% of a job, and there is no
  // GPU simulation and no fusion. A kernel or single-thread scheduling gain
  // shows here. With a one-worker pool no change to parallel scheduling can
  // move it, and a serving-path change should not.
  {
    WorkloadParams w;
    w.name = "solve-cpu";
    w.recipes = {
        {App::kEditDist, 1536, 0, 0.0, kCpuTiledBackend, cpu_only(256), 0},
        {App::kSeqCmp, 1536, 0, 0.0, kCpuTiledBackend, cpu_only(256), 0},
        {App::kEditDist, 1536, 1, 0.0, kCpuTiledBackend, cpu_only(256), 0},
        {App::kSeqCmp, 1536, 1, 0.0, kCpuTiledBackend, cpu_only(256), 0},
    };
    // Two editdist jobs per seqcmp one: on one thread their latencies form
    // separate modes (about 6 and 7 ms), and a 1:1 mix would put the
    // median in the gap between them (see offload-stream).
    w.pattern = {0, 2, 1, 0, 2, 3};
    w.warmup_steps = 6;
    w.why =
        "lone 1536^2 editdist/seqcmp CPU-only solves: time is in the single-thread cpu "
        "scheduler and apps tile kernels; no GPU simulation, no fusion, api under 1%";
    out.push_back(std::move(w));
  }

  // offload-stream: lone mid-size coarse-grained nash solves on hybrid
  // programs through Engine::run, mixing a quad-GPU halo-exchange band with
  // the same band under a residency cap (single GPU, streamed strips). Time
  // is in the core interpreter's simulated-GPU path, ocl buffers and
  // streaming strips; solve-cpu should not move for changes there.
  {
    WorkloadParams w;
    w.name = "offload-stream";
    w.recipes = {
        {App::kNash, 256, 0, 1.0, kHybridBackend, gpu_band(16, 64, 4, 4), 0},
        {App::kNash, 256, 0, 1.0, kHybridBackend, gpu_band(16, 64, -1, 0), 6},
        {App::kNash, 256, 1, 1.0, kHybridBackend, gpu_band(16, 64, 4, 4), 0},
        {App::kNash, 256, 1, 1.0, kHybridBackend, gpu_band(16, 64, -1, 0), 6},
    };
    // Two streamed jobs per quad-GPU one. The shapes' latencies form
    // separate modes, each with a long lower tail: a 1:1 mix would put the
    // median in the gap between them, and two quad-GPU jobs per streamed
    // one would put it in the quad-GPU mode's sparse lower tail. With this
    // mix the median is the streamed mode's upper quartile and the 95th
    // percentile the quad-GPU mode's 85th, both where samples are dense.
    w.pattern = {1, 3, 0, 1, 3, 2};
    w.warmup_steps = 6;
    w.why =
        "lone nash-256 hybrid solves, quad-GPU halo band vs the same band streamed under a "
        "residency cap: time is in the simulated-GPU path, ocl buffers and strips";
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

bool WorkloadParams::isValid() const {
  if (name.empty() || recipes.empty() || pattern.empty() || why.empty()) return false;
  for (std::size_t r : pattern) {
    if (r >= recipes.size()) return false;
  }
  for (const RecipeParams& r : recipes) {
    if (r.dim < 2 || r.backend.empty()) return false;
    if ((r.app == App::kNash || r.app == App::kSynthetic) && !(r.grain > 0.0)) return false;
    if (r.cap_divisor > 0 && r.params.gpu_count() != 1) return false;  // streaming is single-GPU
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const WorkloadParams& p) {
  os << "workload{name=" << p.name << ", jobs=lone, clients=" << kClients
     << ", queue_workers=" << kQueueWorkers << ", pool_workers=" << kPoolWorkers
     << ", warmup_steps=" << p.warmup_steps << ", pattern=[";
  for (std::size_t i = 0; i < p.pattern.size(); ++i) os << (i ? "," : "") << p.pattern[i];
  os << "], recipes=[";
  for (std::size_t i = 0; i < p.recipes.size(); ++i) {
    const RecipeParams& r = p.recipes[i];
    os << (i ? "; " : "") << i << ":" << app_name(r.app) << "-" << r.dim << "#" << r.payload;
    if (r.grain > 0.0) os << " grain=" << r.grain;
    os << " " << r.backend << " " << r.params.describe();
    if (r.cap_divisor > 0) os << " cap=whole/" << r.cap_divisor;
  }
  os << "], valid=" << (p.isValid() ? "yes" : "no") << "}";
  return os;
}

const std::vector<WorkloadParams>& all_workloads() {
  static const std::vector<WorkloadParams> workloads = make_workloads();
  return workloads;
}

const WorkloadParams* find_workload(const std::string& name) {
  for (const WorkloadParams& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
