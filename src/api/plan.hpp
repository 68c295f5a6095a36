// api::Plan — a validated, normalized, tuned execution recipe produced by
// Engine::compile and consumed by Engine::submit/run/estimate.
//
// A Plan is an immutable value handle over shared state: copying is cheap,
// and two Plans returned from the same Engine's plan cache share one state
// object (compare with Plan::id() or Plan::shares_state_with).
//
// Ownership rules (see also core/grid.hpp):
//   * A Plan owns its WavefrontSpec (kernel included) and its tuning. It
//     never owns a Grid.
//   * Grids are caller-owned output buffers handed to Engine::submit/run
//     per request; the caller must keep the Grid alive until the returned
//     future resolves. One Plan may execute into many Grids, concurrently.
//   * Estimate-only Plans (compiled from bare InputParams) carry no kernel
//     and cannot be submitted — Engine::estimate is their only consumer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/params.hpp"
#include "core/phase_program.hpp"
#include "core/spec.hpp"

namespace wavetune::api {

class Backend;
class Engine;

namespace detail {

/// The shared, immutable payload behind a Plan handle. Built only by
/// Engine::compile; cached Plans alias the same state.
struct PlanState {
  std::uint64_t id = 0;            ///< unique per compiled (non-aliased) plan
  bool executable = false;         ///< has a kernel-bearing spec
  bool autotuned = false;          ///< params came from the engine's Autotuner
  core::WavefrontSpec spec;        ///< kernel is null when !executable
  /// Plan-time kernel lowering (core/lowered.hpp): the spec resolved onto
  /// the tile-granular dispatch ABI ONCE at compile time, so every
  /// submit/run of this plan skips lowering entirely. Null (fn == nullptr)
  /// for estimate-only plans.
  core::LoweredKernel lowered;
  core::InputParams inputs;        ///< (dim, tsize, dsize) of the instance
  core::TunableParams params;      ///< normalized + backend-validated tuning
  /// The compiled phase program (core/phase_program.hpp): the schedule as
  /// data, built ONCE at compile time — by the backend's planner (the
  /// paper's three-phase shape for "hybrid", CPU-only programs for the
  /// CPU backends) or taken verbatim from
  /// CompileOptions::program. Both run and estimate interpret exactly
  /// this object, so a plan cannot estimate one schedule and run another.
  core::PhaseProgram program;
  /// Profile signature: backend + program shape + instance timing inputs
  /// (content_key deliberately excluded, so measurements pool across
  /// payloads that execute identically). Key of profile::ProfileStore.
  std::string profile_key;
  std::shared_ptr<const Backend> backend;
};

}  // namespace detail

class Plan {
public:
  /// Default-constructed Plans are invalid; every Engine accessor on them
  /// throws. Obtain real Plans from Engine::compile.
  Plan() = default;

  bool valid() const { return state_ != nullptr; }

  /// Stable identifier of the underlying compiled recipe. Two compiles
  /// that hit the same plan-cache entry report the same id.
  std::uint64_t id() const { return checked().id; }

  /// True when the plan carries a kernel and may be submitted; false for
  /// estimate-only plans compiled from bare InputParams.
  bool executable() const { return checked().executable; }

  /// True when the tuning was produced by the engine's Autotuner rather
  /// than passed in explicitly.
  bool autotuned() const { return checked().autotuned; }

  const core::InputParams& inputs() const { return checked().inputs; }
  const core::TunableParams& params() const { return checked().params; }

  /// The compiled phase program this plan interprets on run AND estimate.
  const core::PhaseProgram& program() const { return checked().program; }

  /// The signature this plan's measured timings are recorded under in the
  /// engine's profile::ProfileStore (backend + program shape + timing
  /// inputs; payload identity excluded so profiles pool across payloads).
  const std::string& profile_key() const { return checked().profile_key; }

  /// The spec this plan executes. Throws std::logic_error on estimate-only
  /// plans (they have no kernel to run).
  const core::WavefrontSpec& spec() const;

  const Backend& backend() const;
  const std::string& backend_name() const;

  /// True when both handles alias one cached state object — the strongest
  /// form of "the second compile returned the cached plan".
  bool shares_state_with(const Plan& other) const { return state_ == other.state_; }

private:
  friend class Engine;
  explicit Plan(std::shared_ptr<const detail::PlanState> state) : state_(std::move(state)) {}

  const detail::PlanState& checked() const;

  std::shared_ptr<const detail::PlanState> state_;
};

}  // namespace wavetune::api
