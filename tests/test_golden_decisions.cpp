// Golden residency decisions: pins, bit for bit, which program the
// planner picks under a residency cap and what the executor charges for
// it, so that a change to the planner's model cannot move a choice
// unnoticed.
//
// test_golden_schedule pins what the executor charges for a given
// program; this table pins which program apply_residency_cap makes of a
// given tuning. Rows cover nash, editdist and synthetic at dims 64 and
// 256, single-GPU bands of dim/8 and dim/2, caps of 1/3, 1/6 and 1/16 of
// the whole grid, and the three shipped profiles, plus one quad-GPU row.
// Each row records the capped program's describe() (or the typed error
// the planner raised) and the estimate's rtime_ns as an exact hexadecimal
// double. Everything is estimate-only, so the suite runs in well under a
// second.
//
// To print the table again after a deliberate change of the planner or
// the cost model, run test_golden_decisions with
// --gtest_also_run_disabled_tests and --gtest_filter='*DISABLED_PrintTable',
// and review every line that moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "apps/synthetic.hpp"
#include "core/executor.hpp"
#include "core/phase_program.hpp"
#include "core/streaming.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::core {
namespace {

struct Case {
  std::string name;
  std::size_t profile = 0;  ///< index into sim::paper_systems()
  InputParams in;
  TunableParams params;
  std::size_t cap = 0;  ///< max_resident_bytes
};

InputParams app_inputs(const std::string& app, std::size_t dim) {
  if (app == "nash") {
    apps::NashParams p;
    p.dim = dim;
    return apps::nash_model_inputs(p);
  }
  if (app == "editdist") return apps::editdist_model_inputs(dim);
  const apps::SyntheticParams p;
  return InputParams{dim, p.tsize, p.dsize};
}

std::vector<Case> cases() {
  const std::vector<sim::SystemProfile> profiles = sim::paper_systems();
  std::vector<Case> out;
  for (const char* app : {"nash", "editdist", "synthetic"}) {
    for (std::size_t dim : {64, 256}) {
      const InputParams in = app_inputs(app, dim);
      const std::size_t whole = whole_grid_resident_bytes(dim, in.elem_bytes());
      for (std::size_t band : {dim / 8, dim / 2}) {
        for (std::size_t divisor : {3, 6, 16}) {
          for (std::size_t p = 0; p < profiles.size(); ++p) {
            Case c;
            c.name = std::string(app) + "-" + std::to_string(dim) + "-band" +
                     std::to_string(band) + "-cap/" + std::to_string(divisor) + "-" +
                     profiles[p].name;
            c.profile = p;
            c.in = in;
            c.params = TunableParams{8, static_cast<long long>(band), -1, 1};
            c.cap = whole / divisor;
            out.push_back(std::move(c));
          }
        }
      }
    }
  }
  // Quad-GPU halo band on the four-GPU system under a half-grid cap.
  Case quad;
  quad.name = "nash-256-band64-h4-gpus4-cap/2-i7-2600K";
  quad.profile = 1;
  quad.in = app_inputs("nash", 256);
  quad.params = TunableParams{8, 64, 4, 1};
  quad.params.gpus = 4;
  quad.cap = whole_grid_resident_bytes(256, quad.in.elem_bytes()) / 2;
  out.push_back(std::move(quad));
  return out;
}

/// One row's decision: the capped program's describe() and the estimate's
/// rtime_ns, or the planner's typed error and 0.
struct Decision {
  std::string program;
  double rtime_ns = 0.0;
};

Decision decide(const Case& c, const HybridExecutor& exec) {
  try {
    const PhaseProgram p = apply_residency_cap(plan_phases(c.in, c.params), c.in, c.cap, exec);
    return {p.describe(), exec.estimate(c.in, p).rtime_ns};
  } catch (const StreamingPlanError&) {
    return {"StreamingPlanError", 0.0};
  }
}

// --- the golden table -----------------------------------------------------

struct Golden {
  const char* name;
  const char* program;
  double rtime_ns;
};

// clang-format off
const Golden kGolden[] = {
    {"nash-64-band8-cap/3-i3-540", "d127:[0,55)cpub8s20x1;[55,72)gpu1t1s20x1;[72,127)cpub8s20x1", 0x1.065e6cce54e54p+28},
    {"nash-64-band8-cap/3-i7-2600K", "d127:[0,55)cpub8s20x1;[55,72)gpu1t1s20x1;[72,127)cpub8s20x1", 0x1.e7580c22e8ba3p+27},
    {"nash-64-band8-cap/3-i7-3820", "d127:[0,55)cpub8s20x1;[55,72)gpu1t1s20x1;[72,127)cpub8s20x1", 0x1.3090a10888889p+27},
    {"nash-64-band8-cap/6-i3-540", "d127:[0,55)cpub8s9x1;[55,72)gpu1t1s9x1;[72,127)cpub8s9x1", 0x1.e1249724fa4fap+28},
    {"nash-64-band8-cap/6-i7-2600K", "d127:[0,55)cpub8s9x1;[55,72)gpu1t1s9x1;[72,127)cpub8s9x1", 0x1.d7927811745d1p+28},
    {"nash-64-band8-cap/6-i7-3820", "d127:[0,55)cpub8s9x1;[55,72)gpu1t1s9x1;[72,127)cpub8s9x1", 0x1.2af1193777777p+28},
    {"nash-64-band8-cap/16-i3-540", "d127:[0,55)cpub8s3x1;[55,72)gpu1t1s3x1;[72,127)cpub8s3x1", 0x1.3c272a2fa4fa5p+30},
    {"nash-64-band8-cap/16-i7-2600K", "d127:[0,55)cpub8s3x1;[55,72)gpu1t1s3x1;[72,127)cpub8s3x1", 0x1.38ca88045d174p+30},
    {"nash-64-band8-cap/16-i7-3820", "d127:[0,55)cpub8s3x1;[55,72)gpu1t1s3x1;[72,127)cpub8s3x1", 0x1.9031a48eeeeefp+29},
    {"nash-64-band32-cap/3-i3-540", "d127:[0,31)cpub8s20x1;[31,96)gpu1t1s20x1;[96,127)cpub8s20x1", 0x1.9924800d04d06p+28},
    {"nash-64-band32-cap/3-i7-2600K", "d127:[0,31)cpub8s20x1;[31,96)gpu1t1s20x1;[96,127)cpub8s20x1", 0x1.e585d0945d175p+28},
    {"nash-64-band32-cap/3-i7-3820", "d127:[0,31)cpub8s20x1;[31,96)gpu1t1s20x1;[96,127)cpub8s20x1", 0x1.6986b42aaaaaap+28},
    {"nash-64-band32-cap/6-i3-540", "d127:[0,31)cpub8s9x1;[31,96)gpu1t1s9x1;[96,127)cpub8s9x1", 0x1.7b292196c16c2p+29},
    {"nash-64-band32-cap/6-i7-2600K", "d127:[0,31)cpub8s9x1;[31,96)gpu1t1s9x1;[96,127)cpub8s9x1", 0x1.c9b2a7ba2e8bap+29},
    {"nash-64-band32-cap/6-i7-3820", "d127:[0,31)cpub8s9x1;[31,96)gpu1t1s9x1;[96,127)cpub8s9x1", 0x1.573aa76222223p+29},
    {"nash-64-band32-cap/16-i3-540", "d127:[0,31)cpub8s3x1;[31,96)gpu1t1s3x1;[96,127)cpub8s3x1", 0x1.f6424744fa4f4p+30},
    {"nash-64-band32-cap/16-i7-2600K", "d127:[0,31)cpub8s3x1;[31,96)gpu1t1s3x1;[96,127)cpub8s3x1", 0x1.30d3bd868ba3p+31},
    {"nash-64-band32-cap/16-i7-3820", "d127:[0,31)cpub8s3x1;[31,96)gpu1t1s3x1;[96,127)cpub8s3x1", 0x1.cae03e4777777p+30},
    {"nash-256-band32-cap/3-i3-540", "d511:[0,223)cpub8s84x1;[223,288)gpu1t1s84x1;[288,511)cpub8s84x1", 0x1.e4b74b81c71c8p+30},
    {"nash-256-band32-cap/3-i7-2600K", "d511:[0,223)cpub8s84x1;[223,288)gpu1t1s84x1;[288,511)cpub8s84x1", 0x1.1f29acf1b4cfap+30},
    {"nash-256-band32-cap/3-i7-3820", "d511:[0,223)cpub8s84x1;[223,288)gpu1t1s84x1;[288,511)cpub8s84x1", 0x1.4fdd396516517p+29},
    {"nash-256-band32-cap/6-i3-540", "d511:[0,223)cpub8s41x1;[223,288)gpu1t1s41x1;[288,511)cpub8s41x1", 0x1.2d3e9a3c36436p+31},
    {"nash-256-band32-cap/6-i7-2600K", "d511:[0,223)cpub8s41x1;[223,288)gpu1t1s41x1;[288,511)cpub8s41x1", 0x1.9d036f3203948p+30},
    {"nash-256-band32-cap/6-i7-3820", "d511:[0,223)cpub8s41x1;[223,288)gpu1t1s41x1;[288,511)cpub8s41x1", 0x1.02ea62a015015p+30},
    {"nash-256-band32-cap/16-i3-540", "d511:[0,223)cpub8s15x1;[223,288)gpu1t1s15x1;[288,511)cpub8s15x1", 0x1.01177913b4bb4p+32},
    {"nash-256-band32-cap/16-i7-2600K", "d511:[0,223)cpub8s15x1;[223,288)gpu1t1s15x1;[288,511)cpub8s15x1", 0x1.e6b7e1168ba3p+31},
    {"nash-256-band32-cap/16-i7-3820", "d511:[0,223)cpub8s15x1;[223,288)gpu1t1s15x1;[288,511)cpub8s15x1", 0x1.38120a8a22222p+31},
    {"nash-256-band128-cap/3-i3-540", "d511:[0,127)cpub8s84x1;[127,384)gpu1t1s84x1;[384,511)cpub8s84x1", 0x1.d90cba7e3fe4p+30},
    {"nash-256-band128-cap/3-i7-2600K", "d511:[0,127)cpub8s84x1;[127,384)gpu1t1s84x1;[384,511)cpub8s84x1", 0x1.eb9a6dabb13b2p+30},
    {"nash-256-band128-cap/3-i7-3820", "d511:[0,127)cpub8s84x1;[127,384)gpu1t1s84x1;[384,511)cpub8s84x1", 0x1.68e8b046ba6bap+30},
    {"nash-256-band128-cap/6-i3-540", "d511:[0,127)cpub8s41x1;[127,384)gpu1t1s41x1;[384,511)cpub8s41x1", 0x1.6b827b90f88f7p+31},
    {"nash-256-band128-cap/6-i7-2600K", "d511:[0,127)cpub8s41x1;[127,384)gpu1t1s41x1;[384,511)cpub8s41x1", 0x1.96dfca3e27626p+31},
    {"nash-256-band128-cap/6-i7-3820", "d511:[0,127)cpub8s41x1;[127,384)gpu1t1s41x1;[384,511)cpub8s41x1", 0x1.30efba15b3db3p+31},
    {"nash-256-band128-cap/16-i3-540", "d511:[0,127)cpub8s15x1;[127,384)gpu1t1s15x1;[384,511)cpub8s15x1", 0x1.9a21a18d8818cp+32},
    {"nash-256-band128-cap/16-i7-2600K", "d511:[0,127)cpub8s15x1;[127,384)gpu1t1s15x1;[384,511)cpub8s15x1", 0x1.ef3bcf02p+32},
    {"nash-256-band128-cap/16-i7-3820", "d511:[0,127)cpub8s15x1;[127,384)gpu1t1s15x1;[384,511)cpub8s15x1", 0x1.759153beaaaaap+32},
    {"editdist-64-band8-cap/3-i3-540", "d127:[0,55)cpub8s20x1;[55,72)gpu1t1s20x1;[72,127)cpub8s20x1", 0x1.bb05e1a2b3c57p+20},
    {"editdist-64-band8-cap/3-i7-2600K", "d127:[0,55)cpub8s20x1;[55,72)gpu1t1s20x1;[72,127)cpub8s20x1", 0x1.b75c66b0df6b9p+20},
    {"editdist-64-band8-cap/3-i7-3820", "d127:[0,55)cpub8s20x1;[55,72)gpu1t1s20x1;[72,127)cpub8s20x1", 0x1.7c35ea740da75p+20},
    {"editdist-64-band8-cap/6-i3-540", "d127:[0,55)cpub8s9x1;[55,72)gpu1t1s9x1;[72,127)cpub8s9x1", 0x1.ba7683b2a18fap+21},
    {"editdist-64-band8-cap/6-i7-2600K", "d127:[0,55)cpub8s9x1;[55,72)gpu1t1s9x1;[72,127)cpub8s9x1", 0x1.b7a934f2094e4p+21},
    {"editdist-64-band8-cap/6-i7-3820", "d127:[0,55)cpub8s9x1;[55,72)gpu1t1s9x1;[72,127)cpub8s9x1", 0x1.7e41b8bf258bfp+21},
    {"editdist-64-band8-cap/16-i3-540", "d127:[0,55)cpub8s3x1;[55,72)gpu1t1s3x1;[72,127)cpub8s3x1", 0x1.2babdf2a19079p+23},
    {"editdist-64-band8-cap/16-i7-2600K", "d127:[0,55)cpub8s3x1;[55,72)gpu1t1s3x1;[72,127)cpub8s3x1", 0x1.2a060c6fb5868p+23},
    {"editdist-64-band8-cap/16-i7-3820", "d127:[0,55)cpub8s3x1;[55,72)gpu1t1s3x1;[72,127)cpub8s3x1", 0x1.03dcee58bf259p+23},
    {"editdist-64-band32-cap/3-i3-540", "d127:[0,31)cpub8s20x1;[31,96)gpu1t1s20x1;[96,127)cpub8s20x1", 0x1.4f6d673c4d5cfp+22},
    {"editdist-64-band32-cap/3-i7-2600K", "d127:[0,31)cpub8s20x1;[31,96)gpu1t1s20x1;[96,127)cpub8s20x1", 0x1.4d8bc837dac2p+22},
    {"editdist-64-band32-cap/3-i7-3820", "d127:[0,31)cpub8s20x1;[31,96)gpu1t1s20x1;[96,127)cpub8s20x1", 0x1.229c4e2222223p+22},
    {"editdist-64-band32-cap/6-i3-540", "d127:[0,31)cpub8s9x1;[31,96)gpu1t1s9x1;[96,127)cpub8s9x1", 0x1.3e912d89abce5p+23},
    {"editdist-64-band32-cap/6-i7-2600K", "d127:[0,31)cpub8s9x1;[31,96)gpu1t1s9x1;[96,127)cpub8s9x1", 0x1.3d449ce8ba2efp+23},
    {"editdist-64-band32-cap/6-i7-3820", "d127:[0,31)cpub8s9x1;[31,96)gpu1t1s9x1;[96,127)cpub8s9x1", 0x1.1581b7b4e81b5p+23},
    {"editdist-64-band32-cap/16-i3-540", "d127:[0,31)cpub8s3x1;[31,96)gpu1t1s3x1;[96,127)cpub8s3x1", 0x1.a94b923fb737cp+24},
    {"editdist-64-band32-cap/16-i7-2600K", "d127:[0,31)cpub8s3x1;[31,96)gpu1t1s3x1;[96,127)cpub8s3x1", 0x1.a80471dac3865p+24},
    {"editdist-64-band32-cap/16-i7-3820", "d127:[0,31)cpub8s3x1;[31,96)gpu1t1s3x1;[96,127)cpub8s3x1", 0x1.73deff2c5f92dp+24},
    {"editdist-256-band32-cap/3-i3-540", "d511:[0,223)cpub8s84x1;[223,288)gpu1t1s84x1;[288,511)cpub8s84x1", 0x1.a340945b05ae8p+22},
    {"editdist-256-band32-cap/3-i7-2600K", "d511:[0,223)cpub8s84x1;[223,288)gpu1t1s84x1;[288,511)cpub8s84x1", 0x1.9abe327ebf2fep+22},
    {"editdist-256-band32-cap/3-i7-3820", "d511:[0,223)cpub8s84x1;[223,288)gpu1t1s84x1;[288,511)cpub8s84x1", 0x1.5b12d833766a9p+22},
    {"editdist-256-band32-cap/6-i3-540", "d511:[0,223)cpub8s41x1;[223,288)gpu1t1s41x1;[288,511)cpub8s41x1", 0x1.732e57db9754ap+23},
    {"editdist-256-band32-cap/6-i7-2600K", "d511:[0,223)cpub8s41x1;[223,288)gpu1t1s41x1;[288,511)cpub8s41x1", 0x1.6f2fb0d118b5fp+23},
    {"editdist-256-band32-cap/6-i7-3820", "d511:[0,223)cpub8s41x1;[223,288)gpu1t1s41x1;[288,511)cpub8s41x1", 0x1.3b4e4b93d2d6dp+23},
    {"editdist-256-band32-cap/16-i3-540", "d511:[0,223)cpub8s15x1;[223,288)gpu1t1s15x1;[288,511)cpub8s15x1", 0x1.c6d8fb0c84047p+24},
    {"editdist-256-band32-cap/16-i7-2600K", "d511:[0,223)cpub8s15x1;[223,288)gpu1t1s15x1;[288,511)cpub8s15x1", 0x1.c5e5eaa790538p+24},
    {"editdist-256-band32-cap/16-i7-3820", "d511:[0,223)cpub8s15x1;[223,288)gpu1t1s15x1;[288,511)cpub8s15x1", 0x1.8a3f789d0369cp+24},
    {"editdist-256-band128-cap/3-i3-540", "d511:[0,127)cpub8s84x1;[127,384)gpu1t1s84x1;[384,511)cpub8s84x1", 0x1.575477d5e6fdcp+24},
    {"editdist-256-band128-cap/3-i7-2600K", "d511:[0,127)cpub8s84x1;[127,384)gpu1t1s84x1;[384,511)cpub8s84x1", 0x1.5249aa03f044bp+24},
    {"editdist-256-band128-cap/3-i7-3820", "d511:[0,127)cpub8s84x1;[127,384)gpu1t1s84x1;[384,511)cpub8s84x1", 0x1.201447465dff8p+24},
    {"editdist-256-band128-cap/6-i3-540", "d511:[0,127)cpub8s41x1;[127,384)gpu1t1s41x1;[384,511)cpub8s41x1", 0x1.20a85937c04aap+25},
    {"editdist-256-band128-cap/6-i7-2600K", "d511:[0,127)cpub8s41x1;[127,384)gpu1t1s41x1;[384,511)cpub8s41x1", 0x1.1e232f4ad4af6p+25},
    {"editdist-256-band128-cap/6-i7-3820", "d511:[0,127)cpub8s41x1;[127,384)gpu1t1s41x1;[384,511)cpub8s41x1", 0x1.edd214a1bd4f2p+24},
    {"editdist-256-band128-cap/16-i3-540", "d511:[0,127)cpub8s15x1;[127,384)gpu1t1s15x1;[384,511)cpub8s15x1", 0x1.5acf0044d5cep+26},
    {"editdist-256-band128-cap/16-i7-2600K", "d511:[0,127)cpub8s15x1;[127,384)gpu1t1s15x1;[384,511)cpub8s15x1", 0x1.59977b66664dbp+26},
    {"editdist-256-band128-cap/16-i7-3820", "d511:[0,127)cpub8s15x1;[127,384)gpu1t1s15x1;[384,511)cpub8s15x1", 0x1.2d7fd7d555556p+26},
    {"synthetic-64-band8-cap/3-i3-540", "d127:[0,55)cpub8s20x1;[55,72)gpu1t1s20x1;[72,127)cpub8s20x1", 0x1.df1e320a53d8fp+20},
    {"synthetic-64-band8-cap/3-i7-2600K", "d127:[0,55)cpub8s20x1;[55,72)gpu1t1s20x1;[72,127)cpub8s20x1", 0x1.d7d0ed61bed6ap+20},
    {"synthetic-64-band8-cap/3-i7-3820", "d127:[0,55)cpub8s20x1;[55,72)gpu1t1s20x1;[72,127)cpub8s20x1", 0x1.8f4074e81b4e8p+20},
    {"synthetic-64-band8-cap/6-i3-540", "d127:[0,55)cpub8s9x1;[55,72)gpu1t1s9x1;[72,127)cpub8s9x1", 0x1.d7af47654321fp+21},
    {"synthetic-64-band8-cap/6-i7-2600K", "d127:[0,55)cpub8s9x1;[55,72)gpu1t1s9x1;[72,127)cpub8s9x1", 0x1.d38449e4129f5p+21},
    {"synthetic-64-band8-cap/6-i7-3820", "d127:[0,55)cpub8s9x1;[55,72)gpu1t1s9x1;[72,127)cpub8s9x1", 0x1.8f44f17e4b17ep+21},
    {"synthetic-64-band8-cap/16-i3-540", "d127:[0,55)cpub8s3x1;[55,72)gpu1t1s3x1;[72,127)cpub8s3x1", 0x1.3cfc1654320ep+23},
    {"synthetic-64-band8-cap/16-i7-2600K", "d127:[0,55)cpub8s3x1;[55,72)gpu1t1s3x1;[72,127)cpub8s3x1", 0x1.3aee88df6b0bfp+23},
    {"synthetic-64-band8-cap/16-i7-3820", "d127:[0,55)cpub8s3x1;[55,72)gpu1t1s3x1;[72,127)cpub8s3x1", 0x1.0e8524b17e4b2p+23},
    {"synthetic-64-band32-cap/3-i3-540", "d127:[0,31)cpub8s20x1;[31,96)gpu1t1s20x1;[96,127)cpub8s20x1", 0x1.6095bddb10e3ap+22},
    {"synthetic-64-band32-cap/3-i7-2600K", "d127:[0,31)cpub8s20x1;[31,96)gpu1t1s20x1;[96,127)cpub8s20x1", 0x1.5f66106fb5866p+22},
    {"synthetic-64-band32-cap/3-i7-3820", "d127:[0,31)cpub8s20x1;[31,96)gpu1t1s20x1;[96,127)cpub8s20x1", 0x1.2e4e944444443p+22},
    {"synthetic-64-band32-cap/6-i3-540", "d127:[0,31)cpub8s9x1;[31,96)gpu1t1s9x1;[96,127)cpub8s9x1", 0x1.4b92f71357994p+23},
    {"synthetic-64-band32-cap/6-i7-2600K", "d127:[0,31)cpub8s9x1;[31,96)gpu1t1s9x1;[96,127)cpub8s9x1", 0x1.4ba4ddd1745a8p+23},
    {"synthetic-64-band32-cap/6-i7-3820", "d127:[0,31)cpub8s9x1;[31,96)gpu1t1s9x1;[96,127)cpub8s9x1", 0x1.1f78bb69d036ap+23},
    {"synthetic-64-band32-cap/16-i3-540", "d127:[0,31)cpub8s3x1;[31,96)gpu1t1s3x1;[96,127)cpub8s3x1", 0x1.b7bb307f6e654p+24},
    {"synthetic-64-band32-cap/16-i7-2600K", "d127:[0,31)cpub8s3x1;[31,96)gpu1t1s3x1;[96,127)cpub8s3x1", 0x1.b8dc83b58703cp+24},
    {"synthetic-64-band32-cap/16-i7-3820", "d127:[0,31)cpub8s3x1;[31,96)gpu1t1s3x1;[96,127)cpub8s3x1", 0x1.80221258bf258p+24},
    {"synthetic-256-band32-cap/3-i3-540", "d511:[0,223)cpub8s84x1;[223,288)gpu1t1s84x1;[288,511)cpub8s84x1", 0x1.f73c40b60b5edp+22},
    {"synthetic-256-band32-cap/3-i7-2600K", "d511:[0,223)cpub8s84x1;[223,288)gpu1t1s84x1;[288,511)cpub8s84x1", 0x1.d42225e9cd268p+22},
    {"synthetic-256-band32-cap/3-i7-3820", "d511:[0,223)cpub8s84x1;[223,288)gpu1t1s84x1;[288,511)cpub8s84x1", 0x1.7925772bd924p+22},
    {"synthetic-256-band32-cap/6-i3-540", "d511:[0,223)cpub8s41x1;[223,288)gpu1t1s41x1;[288,511)cpub8s41x1", 0x1.a32a9054b87b8p+23},
    {"synthetic-256-band32-cap/6-i7-2600K", "d511:[0,223)cpub8s41x1;[223,288)gpu1t1s41x1;[288,511)cpub8s41x1", 0x1.92460d536c798p+23},
    {"synthetic-256-band32-cap/6-i7-3820", "d511:[0,223)cpub8s41x1;[223,288)gpu1t1s41x1;[288,511)cpub8s41x1", 0x1.4ef6323b56e8bp+23},
    {"synthetic-256-band32-cap/16-i3-540", "d511:[0,223)cpub8s15x1;[223,288)gpu1t1s15x1;[288,511)cpub8s15x1", 0x1.e9b00667ccec7p+24},
    {"synthetic-256-band32-cap/16-i7-2600K", "d511:[0,223)cpub8s15x1;[223,288)gpu1t1s15x1;[288,511)cpub8s15x1", 0x1.e5bb754f209ep+24},
    {"synthetic-256-band32-cap/16-i7-3820", "d511:[0,223)cpub8s15x1;[223,288)gpu1t1s15x1;[288,511)cpub8s15x1", 0x1.9d65dd3a06d3bp+24},
    {"synthetic-256-band128-cap/3-i3-540", "d511:[0,127)cpub8s84x1;[127,384)gpu1t1s84x1;[384,511)cpub8s84x1", 0x1.7e19c2981cb9dp+24},
    {"synthetic-256-band128-cap/3-i7-2600K", "d511:[0,127)cpub8s84x1;[127,384)gpu1t1s84x1;[384,511)cpub8s84x1", 0x1.74a2c76a56a9bp+24},
    {"synthetic-256-band128-cap/3-i7-3820", "d511:[0,127)cpub8s84x1;[127,384)gpu1t1s84x1;[384,511)cpub8s84x1", 0x1.3340b2b41e751p+24},
    {"synthetic-256-band128-cap/6-i3-540", "d511:[0,127)cpub8s41x1;[127,384)gpu1t1s41x1;[384,511)cpub8s41x1", 0x1.37427f346ce96p+25},
    {"synthetic-256-band128-cap/6-i7-2600K", "d511:[0,127)cpub8s41x1;[127,384)gpu1t1s41x1;[384,511)cpub8s41x1", 0x1.336448e46e4fdp+25},
    {"synthetic-256-band128-cap/6-i7-3820", "d511:[0,127)cpub8s41x1;[127,384)gpu1t1s41x1;[384,511)cpub8s41x1", 0x1.03a5f18e0c13ep+25},
    {"synthetic-256-band128-cap/16-i3-540", "d511:[0,127)cpub8s15x1;[127,384)gpu1t1s15x1;[384,511)cpub8s15x1", 0x1.6be60c3ae6d35p+26},
    {"synthetic-256-band128-cap/16-i7-2600K", "d511:[0,127)cpub8s15x1;[127,384)gpu1t1s15x1;[384,511)cpub8s15x1", 0x1.6b9de74cccbe6p+26},
    {"synthetic-256-band128-cap/16-i7-3820", "d511:[0,127)cpub8s15x1;[127,384)gpu1t1s15x1;[384,511)cpub8s15x1", 0x1.397868aaaaaaap+26},
    {"nash-256-band64-h4-gpus4-cap/2-i7-2600K", "d511:[0,191)cpub8;[191,320)gpu4h4;[320,511)cpub8", 0x1.4d4871008f378p+29},
};
// clang-format on

std::vector<std::unique_ptr<HybridExecutor>> executors() {
  std::vector<std::unique_ptr<HybridExecutor>> out;
  for (sim::SystemProfile& p : sim::paper_systems()) {
    out.push_back(std::make_unique<HybridExecutor>(std::move(p), 1));
  }
  return out;
}

TEST(GoldenDecisions, CappedPlansAndEstimatesMatchThePinnedTable) {
  const auto execs = executors();
  const std::vector<Case> all = cases();
  ASSERT_EQ(all.size(), std::size(kGolden));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Case& c = all[i];
    const Golden& g = kGolden[i];
    SCOPED_TRACE(c.name);
    ASSERT_EQ(c.name, g.name);
    const Decision d = decide(c, *execs[c.profile]);
    EXPECT_EQ(d.program, g.program);
    EXPECT_EQ(d.rtime_ns, g.rtime_ns);
  }
}

/// Prints kGolden as it would be recorded now.
TEST(GoldenDecisions, DISABLED_PrintTable) {
  const auto execs = executors();
  for (const Case& c : cases()) {
    const Decision d = decide(c, *execs[c.profile]);
    std::printf("    {\"%s\", \"%s\", %a},\n", c.name.c_str(), d.program.c_str(), d.rtime_ns);
  }
}

}  // namespace
}  // namespace wavetune::core
