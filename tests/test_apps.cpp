#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "apps/nash.hpp"
#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "core/executor.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::apps {
namespace {

core::HybridExecutor executor() { return core::HybridExecutor(sim::make_i7_2600k(), 2); }

// ---------- synthetic ----------

TEST(Synthetic, ElementSizeFollowsPaperFormula) {
  SyntheticParams p;
  p.dsize = 5;
  EXPECT_EQ(make_synthetic_spec(p).elem_bytes, 48u);
  p.dsize = 0;
  EXPECT_EQ(make_synthetic_spec(p).elem_bytes, 8u);
}

TEST(Synthetic, PathsFieldMatchesBinomials) {
  SyntheticParams p;
  p.dim = 12;
  p.dsize = 1;
  const auto spec = make_synthetic_spec(p);
  core::Grid g(spec.dim, spec.elem_bytes);
  auto ex = executor();
  ex.run_serial(spec, g);
  for (std::size_t i = 0; i < p.dim; ++i) {
    for (std::size_t j = 0; j < p.dim; ++j) {
      EXPECT_EQ(synthetic_header(g, i, j).paths, synthetic_expected_paths(i, j))
          << i << "," << j;
      EXPECT_EQ(synthetic_header(g, i, j).steps, i + j + 1);
    }
  }
}

TEST(Synthetic, ExpectedPathsKnownValues) {
  EXPECT_EQ(synthetic_expected_paths(0, 0), 1u);
  EXPECT_EQ(synthetic_expected_paths(1, 1), 2u);
  EXPECT_EQ(synthetic_expected_paths(2, 2), 6u);
  EXPECT_EQ(synthetic_expected_paths(5, 5), 252u);
  EXPECT_EQ(synthetic_expected_paths(0, 9), 1u);
}

TEST(Synthetic, FloatsAreDeterministicPerSeed) {
  SyntheticParams p;
  p.dim = 8;
  p.dsize = 3;
  const auto spec = make_synthetic_spec(p);
  auto ex = executor();
  core::Grid a(spec.dim, spec.elem_bytes);
  core::Grid b(spec.dim, spec.elem_bytes);
  ex.run_serial(spec, a);
  ex.run_serial(spec, b);
  for (int k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(synthetic_float(a, 7, 7, k), synthetic_float(b, 7, 7, k));
  }
  // A different seed changes the values.
  SyntheticParams p2 = p;
  p2.seed = 999;
  const auto spec2 = make_synthetic_spec(p2);
  core::Grid c(spec2.dim, spec2.elem_bytes);
  ex.run_serial(spec2, c);
  EXPECT_NE(synthetic_float(a, 7, 7, 0), synthetic_float(c, 7, 7, 0));
}

TEST(Synthetic, SpecCarriesModelInputs) {
  SyntheticParams p;
  p.dim = 100;
  p.tsize = 750;
  p.dsize = 4;
  const auto spec = make_synthetic_spec(p);
  const core::InputParams in = spec.inputs();
  EXPECT_EQ(in.dim, 100u);
  EXPECT_DOUBLE_EQ(in.tsize, 750);
  EXPECT_EQ(in.dsize, 4);
}

TEST(Synthetic, InvalidParamsRejected) {
  SyntheticParams p;
  p.dim = 0;
  EXPECT_THROW(make_synthetic_spec(p), std::invalid_argument);
  p.dim = 4;
  p.dsize = -1;
  EXPECT_THROW(make_synthetic_spec(p), std::invalid_argument);
}

// ---------- Smith-Waterman ----------

TEST(SeqCmp, RandomDnaDeterministicAndValid) {
  const std::string a = random_dna(100, 1);
  const std::string b = random_dna(100, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, random_dna(100, 2));
  for (char c : a) {
    EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
  }
}

TEST(SeqCmp, KnownAlignmentScore) {
  // Identical sequences: best local alignment = whole sequence,
  // score = length * match.
  SeqCmpParams p;
  p.seq_a = "ACGTACGT";
  p.seq_b = "ACGTACGT";
  EXPECT_EQ(smith_waterman_reference(p), 8 * p.match);
}

TEST(SeqCmp, NoCommonSubsequenceScoresZeroOrSingleMatch) {
  SeqCmpParams p;
  p.seq_a = "AAAA";
  p.seq_b = "TTTT";
  EXPECT_EQ(smith_waterman_reference(p), 0);
}

TEST(SeqCmp, WavefrontMatchesReference) {
  SeqCmpParams p;
  p.seq_a = random_dna(60, 11);
  p.seq_b = random_dna(60, 12);
  const auto spec = make_seqcmp_spec(p);
  core::Grid g(spec.dim, spec.elem_bytes);
  auto ex = executor();
  ex.run_serial(spec, g);
  EXPECT_EQ(seqcmp_best_score(g), smith_waterman_reference(p));
}

TEST(SeqCmp, HybridExecutionMatchesReference) {
  SeqCmpParams p;
  p.seq_a = random_dna(48, 21);
  p.seq_b = random_dna(48, 22);
  const auto spec = make_seqcmp_spec(p);
  auto ex = executor();
  for (const auto& tuning :
       {core::TunableParams{4, -1, -1, 1}, core::TunableParams{4, 20, -1, 1},
        core::TunableParams{4, 20, 3, 1}}) {
    core::Grid g(spec.dim, spec.elem_bytes);
    g.fill_poison();
    ex.run(spec, tuning, g);
    EXPECT_EQ(seqcmp_best_score(g), smith_waterman_reference(p)) << tuning.describe();
  }
}

TEST(SeqCmp, ModelInputsArePaperScale) {
  // Paper: tsize = 0.5, dsize = 0 for sequence comparison.
  const core::InputParams in = seqcmp_model_inputs(3100);
  EXPECT_DOUBLE_EQ(in.tsize, 0.5);
  EXPECT_EQ(in.dsize, 0);
  EXPECT_EQ(in.elem_bytes(), 8u);  // just the two ints
}

TEST(SeqCmp, RejectsBadSequences) {
  SeqCmpParams p;
  p.seq_a = "ACGT";
  p.seq_b = "ACG";
  EXPECT_THROW(make_seqcmp_spec(p), std::invalid_argument);
  p.seq_a.clear();
  p.seq_b.clear();
  EXPECT_THROW(make_seqcmp_spec(p), std::invalid_argument);
}

// max |cost| x (2 * dim + 8) must fit in int32 (see the editdist
// counterpart in test_editdist.cpp). Each cost field, either sign.
TEST(SeqCmp, RejectsCostsThatCouldOverflow) {
  const std::size_t dim = 100;
  const std::int32_t inside =
      std::numeric_limits<std::int32_t>::max() / static_cast<std::int32_t>(2 * dim + 8);
  SeqCmpParams p;
  p.seq_a = random_dna(dim, 5);
  p.seq_b = random_dna(dim, 6);
  for (std::int32_t SeqCmpParams::*cost :
       {&SeqCmpParams::match, &SeqCmpParams::mismatch, &SeqCmpParams::gap}) {
    for (const std::int32_t sign : {1, -1}) {
      SeqCmpParams q = p;
      q.*cost = sign * inside;
      EXPECT_NO_THROW(make_seqcmp_spec(q));
      q.*cost = sign * (inside + 1);
      EXPECT_THROW(make_seqcmp_spec(q), std::invalid_argument);
    }
  }
  p.gap = std::numeric_limits<std::int32_t>::min();
  EXPECT_THROW(make_seqcmp_spec(p), std::invalid_argument);
}

/// Just inside the bound, a negative gap (a bonus: scores grow along
/// every step) and a positive one both still match the reference.
TEST(SeqCmp, ExtremeCostsInsideTheBoundStayExact) {
  const std::size_t dim = 100;
  const std::int32_t inside =
      std::numeric_limits<std::int32_t>::max() / static_cast<std::int32_t>(2 * dim + 8);
  SeqCmpParams p;
  p.seq_a = random_dna(dim, 7);
  p.seq_b = random_dna(dim, 8);
  for (const std::int32_t gap : {inside, -inside}) {
    p.match = inside;
    p.mismatch = -inside;
    p.gap = gap;
    const auto spec = make_seqcmp_spec(p);
    core::Grid g(spec.dim, spec.elem_bytes);
    executor().run_serial(spec, g);
    EXPECT_EQ(seqcmp_best_score(g), smith_waterman_reference(p)) << "gap " << gap;
  }
}

TEST(SeqCmp, BestSeenIsMonotoneAlongDependencies) {
  SeqCmpParams p;
  p.seq_a = random_dna(20, 31);
  p.seq_b = random_dna(20, 32);
  const auto spec = make_seqcmp_spec(p);
  core::Grid g(spec.dim, spec.elem_bytes);
  auto ex = executor();
  ex.run_serial(spec, g);
  for (std::size_t i = 1; i < 20; ++i) {
    for (std::size_t j = 1; j < 20; ++j) {
      EXPECT_GE(seqcmp_cell(g, i, j).best_seen, seqcmp_cell(g, i - 1, j - 1).best_seen);
      EXPECT_GE(seqcmp_cell(g, i, j).best_seen, seqcmp_cell(g, i, j).score);
    }
  }
}

// ---------- Nash ----------

TEST(Nash, ModelInputsArePaperScale) {
  NashParams p;
  p.dim = 100;
  p.fp_iterations = 1;
  const core::InputParams in = nash_model_inputs(p);
  EXPECT_DOUBLE_EQ(in.tsize, 750.0);  // "one iteration of Nash <=> tsize=750"
  EXPECT_EQ(in.dsize, 4);
  EXPECT_EQ(in.elem_bytes(), 40u);
  p.fp_iterations = 4;
  EXPECT_DOUBLE_EQ(nash_model_inputs(p).tsize, 3000.0);
}

TEST(Nash, CellPayloadIsFourDoubles) {
  EXPECT_EQ(sizeof(NashCell), 32u);
  NashParams p;
  p.dim = 8;
  EXPECT_EQ(make_nash_spec(p).elem_bytes, 32u);
}

TEST(Nash, ValuesWithinPayoffBounds) {
  NashParams p;
  p.dim = 10;
  p.strategies = 4;
  p.fp_iterations = 8;
  const auto spec = make_nash_spec(p);
  core::Grid g(spec.dim, spec.elem_bytes);
  auto ex = executor();
  ex.run_serial(spec, g);
  for (std::size_t i = 0; i < p.dim; ++i) {
    for (std::size_t j = 0; j < p.dim; ++j) {
      const NashCell c = nash_cell(g, i, j);
      // Payoffs are in [0,1) plus a bounded neighbour shift; values stay
      // small and finite, entropies within [0, log k].
      EXPECT_TRUE(std::isfinite(c.value_row));
      EXPECT_TRUE(std::isfinite(c.value_col));
      EXPECT_GE(c.entropy_row, 0.0);
      EXPECT_LE(c.entropy_row, std::log(4.0) + 1e-9);
      EXPECT_GE(c.entropy_col, 0.0);
      EXPECT_LE(c.entropy_col, std::log(4.0) + 1e-9);
      EXPECT_GT(c.value_row, -1.0);
      EXPECT_LT(c.value_row, 2.0);
    }
  }
}

TEST(Nash, HybridMatchesSerial) {
  NashParams p;
  p.dim = 24;
  p.strategies = 3;
  p.fp_iterations = 5;
  const auto spec = make_nash_spec(p);
  auto ex = executor();
  core::Grid ref(spec.dim, spec.elem_bytes);
  ex.run_serial(spec, ref);
  for (const auto& tuning :
       {core::TunableParams{4, 10, -1, 1}, core::TunableParams{4, 23, 2, 1}}) {
    core::Grid g(spec.dim, spec.elem_bytes);
    g.fill_poison();
    ex.run(spec, tuning, g);
    EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0) << tuning.describe();
  }
}

TEST(Nash, MoreIterationsSharpenStrategies) {
  // Fictitious play converges toward pure/mixed equilibria: with many more
  // rounds the empirical mixing entropy must not grow.
  NashParams few;
  few.dim = 6;
  few.strategies = 4;
  few.fp_iterations = 2;
  NashParams many = few;
  many.fp_iterations = 200;
  auto ex = executor();
  const auto spec_few = make_nash_spec(few);
  const auto spec_many = make_nash_spec(many);
  core::Grid gf(spec_few.dim, spec_few.elem_bytes);
  core::Grid gm(spec_many.dim, spec_many.elem_bytes);
  ex.run_serial(spec_few, gf);
  ex.run_serial(spec_many, gm);
  double ent_few = 0.0;
  double ent_many = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      ent_few += nash_cell(gf, i, j).entropy_row;
      ent_many += nash_cell(gm, i, j).entropy_row;
    }
  }
  EXPECT_LE(ent_many, ent_few + 1e-9);
}

TEST(Nash, ParameterValidation) {
  NashParams p;
  p.dim = 0;
  EXPECT_THROW(make_nash_spec(p), std::invalid_argument);
  p.dim = 4;
  p.strategies = 1;
  EXPECT_THROW(make_nash_spec(p), std::invalid_argument);
  p.strategies = 4;
  p.fp_iterations = 0;
  EXPECT_THROW(make_nash_spec(p), std::invalid_argument);
}

TEST(Nash, FpIterationsBoundedByTableLimit) {
  // The tile kernel's per-spec count tables hold fp_iterations + 1
  // entries; the bound keeps them small.
  NashParams p;
  p.dim = 4;
  p.fp_iterations = kNashMaxFpIterations;
  EXPECT_NO_THROW(make_nash_spec(p));
  p.fp_iterations = kNashMaxFpIterations + 1;
  EXPECT_THROW(make_nash_spec(p), std::invalid_argument);
}

TEST(Nash, StrategiesWhosePayoffMatrixSizeOverflowsAreRejected) {
  // Largest k with k*k representable in size_t, and the next one. Spec
  // construction allocates nothing k-sized, so the bound itself builds.
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  std::size_t k = static_cast<std::size_t>(std::sqrt(static_cast<double>(max)));
  while (k > max / k) --k;
  while (k + 1 <= max / (k + 1)) ++k;
  NashParams p;
  p.dim = 4;
  p.fp_iterations = 1;
  p.strategies = k;
  EXPECT_NO_THROW(make_nash_spec(p));
  p.strategies = k + 1;
  EXPECT_THROW(make_nash_spec(p), std::invalid_argument);
}

}  // namespace
}  // namespace wavetune::apps
