#include "api/backend.hpp"

#include <stdexcept>
#include <utility>

#include "api/plan.hpp"
#include "util/strings.hpp"

namespace wavetune::api {

// Default execution path: every backend that compiles a real program runs
// and estimates through the ONE interpreter — structural parity, nothing
// to keep in sync per backend.

core::PhaseProgram Backend::plan(const core::InputParams& in,
                                 const core::TunableParams& prepared,
                                 const sim::SystemProfile&) const {
  return core::plan_phases(in, prepared, cpu::Scheduler::kBarrier);
}

std::vector<core::BatchOutcome> Backend::run(core::HybridExecutor& executor,
                                             const core::WavefrontSpec& spec,
                                             const core::PhaseProgram& program,
                                             const core::LoweredKernel& lowered,
                                             const std::vector<core::BatchMember>& members) const {
  return executor.run_batch(spec, program, members, nullptr, &lowered);
}

core::RunResult Backend::estimate(const core::HybridExecutor& executor,
                                  const core::InputParams& in,
                                  const core::PhaseProgram& program) const {
  return executor.estimate(in, program);
}

namespace {

/// "serial": the optimized sequential baseline. The incoming tuning is
/// irrelevant by definition — the prepared params are always the
/// canonical sequential configuration. (Note the plan cache keys on the
/// params as *given*, so differently-tuned serial compiles are distinct
/// cache entries carrying identical recipes.) Its program (one whole-grid
/// CPU phase) is informational: run/estimate use the dedicated serial
/// path, whose cost model has no scheduling overhead at all.
class SerialBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = kSerialBackend;
    return n;
  }

  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams&,
                              const sim::SystemProfile&) const override {
    in.validate();
    return core::TunableParams{1, -1, -1, 1};
  }

  std::vector<core::BatchOutcome> run(
      core::HybridExecutor& executor, const core::WavefrontSpec& spec, const core::PhaseProgram&,
      const core::LoweredKernel& lowered,
      const std::vector<core::BatchMember>& members) const override {
    // One whole-grid sweep per member, back to back. A sweep has no phase
    // boundaries to poll at, so each member's control is honored once, up
    // front: a cancelled or expired member is shed before its work.
    std::vector<core::BatchOutcome> out(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (members[m].control) out[m].stop = members[m].control->should_stop();
      if (out[m].stop == core::RunControl::Stop::kNone) {
        out[m].result = executor.run_serial(spec, *members[m].grid, &lowered);
      }
    }
    return out;
  }

  core::RunResult estimate(const core::HybridExecutor& executor, const core::InputParams& in,
                           const core::PhaseProgram& program) const override {
    core::RunResult r;
    r.params = core::TunableParams{1, -1, -1, 1};
    core::PhaseTiming t;
    t.device = core::PhaseDevice::kCpu;
    t.d_begin = 0;
    t.d_end = program.phases.empty() ? core::num_diagonals(in.dim) : program.phases.back().d_end;
    t.ns = executor.estimate_serial(in);
    r.breakdown.phases.push_back(t);
    r.rtime_ns = r.breakdown.total_ns();
    return r;
  }
};

/// The four built-in backends that compile a real program: each is a
/// name, a prepare function and a plan function, and runs and estimates
/// through Backend's interpreter defaults.
class ProgramBackend final : public Backend {
public:
  using PrepareFn = core::TunableParams (*)(const core::InputParams&, const core::TunableParams&,
                                            const sim::SystemProfile&);
  using PlanFn = core::PhaseProgram (*)(const core::InputParams&, const core::TunableParams&,
                                        const sim::SystemProfile&);

  ProgramBackend(std::string name, PrepareFn prepare, PlanFn plan)
      : name_(std::move(name)), prepare_(prepare), plan_(plan) {}

  const std::string& name() const override { return name_; }

  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams& params,
                              const sim::SystemProfile& profile) const override {
    return prepare_(in, params, profile);
  }

  core::PhaseProgram plan(const core::InputParams& in, const core::TunableParams& prepared,
                          const sim::SystemProfile& profile) const override {
    return plan_(in, prepared, profile);
  }

private:
  std::string name_;
  PrepareFn prepare_;
  PlanFn plan_;
};

/// Prepare of the pure-CPU backends: the cpu_tile of the incoming tuning
/// is kept; any offload request (band, halo, gpus, gpu_tile) is stripped.
core::TunableParams prepare_cpu_only(const core::InputParams& in,
                                     const core::TunableParams& params,
                                     const sim::SystemProfile&) {
  in.validate();
  core::TunableParams p;
  p.cpu_tile = params.cpu_tile;
  return p.normalized(in.dim);
}

/// Prepare of "hybrid": the whole tuning, checked against the profile's
/// GPU count.
core::TunableParams prepare_hybrid(const core::InputParams& in, const core::TunableParams& params,
                                   const sim::SystemProfile& profile) {
  in.validate();
  const core::TunableParams p = params.normalized(in.dim);
  if (p.gpu_count() > profile.gpu_count()) {
    throw std::invalid_argument("backend 'hybrid': tuning requests " +
                                std::to_string(p.gpu_count()) + " GPU(s) but system '" +
                                profile.name + "' has " + std::to_string(profile.gpu_count()));
  }
  return p;
}

/// The paper's program with barriered CPU phases ("cpu-tiled", "hybrid").
core::PhaseProgram plan_barrier(const core::InputParams& in, const core::TunableParams& prepared,
                                const sim::SystemProfile&) {
  return core::plan_phases(in, prepared, cpu::Scheduler::kBarrier);
}

/// The same program priced by the dataflow model ("cpu-dataflow"): the
/// same walk and grids, a different simulated charge.
core::PhaseProgram plan_dataflow(const core::InputParams& in, const core::TunableParams& prepared,
                                 const sim::SystemProfile&) {
  return core::plan_phases(in, prepared, cpu::Scheduler::kDataflow);
}

}  // namespace

BackendRegistry::BackendRegistry() {
  backends_[kSerialBackend] = std::make_shared<SerialBackend>();
  backends_[kCpuTiledBackend] =
      std::make_shared<ProgramBackend>(kCpuTiledBackend, prepare_cpu_only, plan_barrier);
  backends_[kCpuDataflowBackend] =
      std::make_shared<ProgramBackend>(kCpuDataflowBackend, prepare_cpu_only, plan_dataflow);
  backends_[kHybridBackend] =
      std::make_shared<ProgramBackend>(kHybridBackend, prepare_hybrid, plan_barrier);
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::add(std::shared_ptr<const Backend> backend) {
  if (!backend) throw std::invalid_argument("BackendRegistry::add: null backend");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = backends_.emplace(backend->name(), std::move(backend));
  if (!inserted) {
    throw std::invalid_argument("BackendRegistry::add: backend '" + it->first +
                                "' is already registered");
  }
}

std::shared_ptr<const Backend> BackendRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = backends_.find(name);
  return it == backends_.end() ? nullptr : it->second;
}

std::shared_ptr<const Backend> BackendRegistry::require(const std::string& name) const {
  auto backend = find(name);
  if (!backend) {
    throw std::invalid_argument("unknown backend '" + name + "' (registered: " +
                                util::join(names(), ", ") + ")");
  }
  return backend;
}

std::vector<std::string> BackendRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& [name, backend] : backends_) out.push_back(name);
  return out;
}

// --- Plan accessors that need the full Backend type ----------------------

const detail::PlanState& Plan::checked() const {
  if (!state_) throw std::logic_error("Plan: default-constructed (invalid) plan");
  return *state_;
}

const core::WavefrontSpec& Plan::spec() const {
  const detail::PlanState& s = checked();
  if (!s.executable) {
    throw std::logic_error("Plan::spec: estimate-only plan has no kernel (compiled from "
                           "InputParams; use Engine::estimate)");
  }
  return s.spec;
}

const Backend& Plan::backend() const { return *checked().backend; }

const std::string& Plan::backend_name() const { return checked().backend->name(); }

}  // namespace wavetune::api
