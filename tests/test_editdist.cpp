#include "apps/editdist.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "apps/seqcmp.hpp"  // random_dna
#include "core/executor.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::apps {
namespace {

core::HybridExecutor executor() { return core::HybridExecutor(sim::make_i7_3820(), 2); }

std::int32_t run_serial_dist(const EditDistParams& p) {
  const auto spec = make_editdist_spec(p);
  core::Grid g(spec.dim, spec.elem_bytes);
  auto ex = executor();
  ex.run_serial(spec, g);
  return editdist_result(g);
}

TEST(EditDist, IdenticalStringsAreDistanceZero) {
  EditDistParams p;
  p.str_a = "ABCDEFGH";
  p.str_b = "ABCDEFGH";
  EXPECT_EQ(edit_distance_reference(p), 0);
  EXPECT_EQ(run_serial_dist(p), 0);
}

TEST(EditDist, KnownKittenSitting) {
  // The classic: kitten -> sitting needs 3 edits; padded to equal length
  // is not valid here, so use same-length variants with known distances.
  EditDistParams p;
  p.str_a = "kitten.";
  p.str_b = "sitting";
  EXPECT_EQ(edit_distance_reference(p), 3);
  EXPECT_EQ(run_serial_dist(p), 3);
}

TEST(EditDist, CompletelyDifferentStrings) {
  EditDistParams p;
  p.str_a = "AAAA";
  p.str_b = "TTTT";
  EXPECT_EQ(edit_distance_reference(p), 4);  // 4 substitutions
  EXPECT_EQ(run_serial_dist(p), 4);
}

TEST(EditDist, AsymmetricCosts) {
  EditDistParams p;
  p.str_a = "AB";
  p.str_b = "BA";
  p.substitution = 5;  // make swap-by-substitution expensive
  p.insertion = 1;
  p.deletion = 1;
  // Cheapest: delete 'A', append 'A' => 2 (vs 10 by substitutions).
  EXPECT_EQ(edit_distance_reference(p), 2);
  EXPECT_EQ(run_serial_dist(p), 2);
}

TEST(EditDist, WavefrontMatchesReferenceOnRandomStrings) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    EditDistParams p;
    p.str_a = random_dna(64, seed);
    p.str_b = random_dna(64, seed + 100);
    EXPECT_EQ(run_serial_dist(p), edit_distance_reference(p)) << "seed=" << seed;
  }
}

TEST(EditDist, HybridSchedulesMatchSerial) {
  EditDistParams p;
  p.str_a = random_dna(48, 7);
  p.str_b = random_dna(48, 8);
  const auto spec = make_editdist_spec(p);
  auto ex = executor();
  core::Grid ref(spec.dim, spec.elem_bytes);
  ex.run_serial(spec, ref);
  for (const auto& tuning :
       {core::TunableParams{4, -1, -1, 1}, core::TunableParams{4, 20, -1, 1},
        core::TunableParams{4, 30, 3, 1}, core::TunableParams{4, 47, 0, 1}}) {
    core::Grid g(spec.dim, spec.elem_bytes);
    g.fill_poison();
    ex.run(spec, tuning, g);
    EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0) << tuning.describe();
  }
}

TEST(EditDist, MatchRunTracksDiagonalMatches) {
  EditDistParams p;
  p.str_a = "XXABYY";
  p.str_b = "ZZABWW";
  const auto spec = make_editdist_spec(p);
  core::Grid g(spec.dim, spec.elem_bytes);
  auto ex = executor();
  ex.run_serial(spec, g);
  // On the main diagonal, positions 2..3 match ("AB").
  EXPECT_EQ(editdist_cell(g, 2, 2).match_run, 1);
  EXPECT_EQ(editdist_cell(g, 3, 3).match_run, 2);
  EXPECT_EQ(editdist_cell(g, 4, 4).match_run, 0);
}

TEST(EditDist, ModelInputsFineGrained) {
  const core::InputParams in = editdist_model_inputs(1000);
  EXPECT_DOUBLE_EQ(in.tsize, 0.5);
  EXPECT_EQ(in.elem_bytes(), 8u);
}

TEST(EditDist, RejectsBadStrings) {
  EditDistParams p;
  p.str_a = "AB";
  p.str_b = "ABC";
  EXPECT_THROW(make_editdist_spec(p), std::invalid_argument);
  p.str_a.clear();
  p.str_b.clear();
  EXPECT_THROW(make_editdist_spec(p), std::invalid_argument);
  EXPECT_THROW(edit_distance_reference(p), std::invalid_argument);
}

// max |cost| x (2 * dim + 8) must fit in int32: the largest magnitude
// any DP value (a path of up to 2 * dim steps) or vector-lane offset
// (up to 8 more steps) can reach. Each cost field, either sign.
TEST(EditDist, RejectsCostsThatCouldOverflow) {
  const std::size_t dim = 100;
  const std::int32_t inside =
      std::numeric_limits<std::int32_t>::max() / static_cast<std::int32_t>(2 * dim + 8);
  EditDistParams p;
  p.str_a = random_dna(dim, 5);
  p.str_b = random_dna(dim, 6);
  for (std::int32_t EditDistParams::*cost :
       {&EditDistParams::substitution, &EditDistParams::insertion, &EditDistParams::deletion}) {
    for (const std::int32_t sign : {1, -1}) {
      EditDistParams q = p;
      q.*cost = sign * inside;
      EXPECT_NO_THROW(make_editdist_spec(q));
      q.*cost = sign * (inside + 1);
      EXPECT_THROW(make_editdist_spec(q), std::invalid_argument);
    }
  }
  p.insertion = std::numeric_limits<std::int32_t>::min();
  EXPECT_THROW(make_editdist_spec(p), std::invalid_argument);
}

/// Just inside the bound, with every cost at the limit in the sign that
/// drives values furthest, the grid still matches the reference DP (and
/// the sanitizer builds see no signed overflow).
TEST(EditDist, ExtremeCostsInsideTheBoundStayExact) {
  const std::size_t dim = 100;
  const std::int32_t inside =
      std::numeric_limits<std::int32_t>::max() / static_cast<std::int32_t>(2 * dim + 8);
  EditDistParams p;
  p.str_a = random_dna(dim, 7);
  p.str_b = random_dna(dim, 8);
  for (const std::int32_t sign : {1, -1}) {
    p.substitution = p.insertion = p.deletion = sign * inside;
    EXPECT_EQ(run_serial_dist(p), edit_distance_reference(p)) << "sign " << sign;
  }
}

TEST(EditDist, TriangleInequalityHolds) {
  // d(a,c) <= d(a,b) + d(b,c) for unit costs.
  const std::string a = random_dna(40, 11);
  const std::string b = random_dna(40, 12);
  const std::string c = random_dna(40, 13);
  auto d = [](const std::string& x, const std::string& y) {
    EditDistParams p;
    p.str_a = x;
    p.str_b = y;
    return edit_distance_reference(p);
  };
  EXPECT_LE(d(a, c), d(a, b) + d(b, c));
  EXPECT_EQ(d(a, b), d(b, a));  // symmetric for unit costs
}

}  // namespace
}  // namespace wavetune::apps
