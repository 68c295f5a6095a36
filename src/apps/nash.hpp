// Nash-equilibrium wavefront application (paper §3.2.1):
// "A game-theoretic problem in economics, characterized by small instances
// but a very computationally demanding kernel. The internal granularity
// parameter controls the iteration count of a nested loop."
//
// Each cell (i, j) solves a small two-player bimatrix game whose payoffs
// are perturbed by the equilibrium values of the west/north/north-west
// subgames (a backward-induction sweep over a grid of coupled games). The
// kernel runs `fp_iterations` rounds of fictitious play over the k x k
// strategy space — the nested loop whose count the paper's internal
// granularity parameter controls.
//
// On the paper's synthetic scale, one Nash iteration corresponds to
// tsize = 750 with dsize = 4.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/spec.hpp"

namespace wavetune::apps {

/// Largest supported `fp_iterations`: the native tile kernel keeps three
/// per-spec tables of fp_iterations + 1 doubles (24 B per round, so at
/// most 1.5 MiB), and make_nash_spec rejects anything above this bound.
inline constexpr std::size_t kNashMaxFpIterations = std::size_t{1} << 16;

struct NashParams {
  std::size_t dim = 64;           ///< grid of coupled subgames
  std::size_t strategies = 8;     ///< k: strategies per player
  std::size_t fp_iterations = 32; ///< fictitious-play rounds (granularity knob)
  std::uint64_t seed = 7;         ///< payoff matrix seed
};

/// Cell payload: equilibrium values and mixed-strategy entropy for both
/// players — four doubles, i.e. dsize = 4 on the synthetic scale.
struct NashCell {
  double value_row;      ///< row player's equilibrium payoff
  double value_col;      ///< column player's equilibrium payoff
  double entropy_row;    ///< mixing entropy of the row player's strategy
  double entropy_col;    ///< mixing entropy of the column player's strategy
};

/// Paper mapping: tsize = 750 per Nash iteration, dsize = 4.
core::InputParams nash_model_inputs(const NashParams& params);

/// Throws std::invalid_argument for dim == 0, fewer than 2 strategies, a
/// strategies count whose k*k payoff matrix size overflows size_t, zero
/// fp_iterations, or fp_iterations above kNashMaxFpIterations.
core::WavefrontSpec make_nash_spec(const NashParams& params);

NashCell nash_cell(const core::Grid& grid, std::size_t i, std::size_t j);

}  // namespace wavetune::apps
