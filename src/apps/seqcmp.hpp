// Biological sequence comparison (paper §3.2.1): Smith-Waterman local
// alignment, "characterized by very large instances and very fine-grained
// kernels". On the paper's synthetic scale: tsize = 0.5, dsize = 0
// (element = just the two ints: the cell score and the running maximum).
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>

#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/spec.hpp"

namespace wavetune::apps {

struct SeqCmpParams {
  std::string seq_a;  ///< rows (length == dim)
  std::string seq_b;  ///< columns (length == dim)
  std::int32_t match = 3;
  std::int32_t mismatch = -1;
  std::int32_t gap = 2;  ///< linear gap penalty (subtracted)
};

/// Cell payload: exactly two ints, dsize = 0 on the synthetic scale.
struct SeqCell {
  std::int32_t score;     ///< Smith-Waterman H(i, j)
  std::int32_t best_seen; ///< max score over the dependency cone of (i, j)
};

/// Generates a deterministic pseudo-random DNA sequence of length n.
std::string random_dna(std::size_t n, std::uint64_t seed);

/// Paper mapping: tsize = 0.5, dsize = 0.
core::InputParams seqcmp_model_inputs(std::size_t dim);

/// Builds the spec; both sequences must have the same nonzero length
/// (square instance, as in the paper's setup), and
/// max(|match|, |mismatch|, |gap|) * (2 * length + 8) must fit in int32
/// so no DP value can overflow. Throws std::invalid_argument otherwise.
core::WavefrontSpec make_seqcmp_spec(const SeqCmpParams& params);

SeqCell seqcmp_cell(const core::Grid& grid, std::size_t i, std::size_t j);

/// Best local-alignment score of the whole matrix: best_seen of the last
/// cell (its dependency cone is the full grid).
std::int32_t seqcmp_best_score(const core::Grid& grid);

/// Independent O(n^2) reference implementation (plain row-major DP, no
/// wavefront machinery) for the test oracle.
std::int32_t smith_waterman_reference(const SeqCmpParams& params);

}  // namespace wavetune::apps
