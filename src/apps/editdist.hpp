// Edit distance (Needleman-Wunsch global alignment with unit/linear
// costs) — a further dynamic-programming wavefront in the class the paper
// targets ("computations which evaluate a class of multidimensional
// recurrence relations"). Like Smith-Waterman it is fine-grained
// (tsize ~ 0.5, dsize = 0 on the synthetic scale).
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>

#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/spec.hpp"

namespace wavetune::apps {

struct EditDistParams {
  std::string str_a;  ///< rows (length == dim)
  std::string str_b;  ///< columns (length == dim)
  std::int32_t substitution = 1;
  std::int32_t insertion = 1;
  std::int32_t deletion = 1;
};

/// Cell payload: the distance plus the match-run length ending here (two
/// ints, dsize = 0 on the synthetic scale).
struct EditCell {
  std::int32_t dist;       ///< D(i+1, j+1) of the classic DP
  std::int32_t match_run;  ///< diagonal run of exact matches ending at (i,j)
};

core::InputParams editdist_model_inputs(std::size_t dim);

/// Builds the spec; both strings must have the same nonzero length, and
/// max(|substitution|, |insertion|, |deletion|) * (2 * length + 8) must
/// fit in int32 so no DP value can overflow. Throws
/// std::invalid_argument otherwise.
core::WavefrontSpec make_editdist_spec(const EditDistParams& params);

EditCell editdist_cell(const core::Grid& grid, std::size_t i, std::size_t j);

/// The edit distance between the two full strings: cell (n-1, n-1).
std::int32_t editdist_result(const core::Grid& grid);

/// Independent row-major reference DP (the test oracle).
std::int32_t edit_distance_reference(const EditDistParams& params);

}  // namespace wavetune::apps
