// Golden simulated schedule: pins, bit for bit, what the executor charges
// for a fixed set of GPU programs, so that a change to how a GPU phase is
// walked cannot move the simulated schedule unnoticed.
//
// Every other suite checks parity (run and estimate charge the same) or
// shape (launch counts, ratios); a charge that moved in both modes at once
// passes all of them. This suite compares absolute values instead: every
// simulated PhaseTiming field as exact double bits, every ocl::Trace
// record, and a digest of the computed grid, for both estimate and run.
// The programs cover whole-grid single-GPU phases untiled and tiled,
// split sub-bands, streamed strips with every pool size, and dual- and
// quad-GPU halo bands, on nash and editdist.
//
// The expected values were recorded from the executor's own output. To
// print the table again after a deliberate change of the cost model, run
// test_golden_schedule with --gtest_also_run_disabled_tests and
// --gtest_filter='*DISABLED_PrintTable', and review every line that moved.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "core/executor.hpp"
#include "core/phase_program.hpp"
#include "ocl/trace.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::core {
namespace {

constexpr std::size_t kDim = 24;

std::uint64_t fnv1a(const void* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s) { return fnv1a(s.data(), s.size()); }

/// Exact text of a double: hexadecimal floating point keeps every bit.
std::string bits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every simulated field of every phase (wall_ns is measured, not
/// simulated, and is left out), one line per phase.
std::string dump_phases(const RunResult& r) {
  std::string s;
  for (const PhaseTiming& t : r.breakdown.phases) {
    s += std::string(phase_device_name(t.device)) + " [" + std::to_string(t.d_begin) + "," +
         std::to_string(t.d_end) + ") ns=" + bits(t.ns) + " in=" + bits(t.transfer_in_ns) +
         " out=" + bits(t.transfer_out_ns) + " swap=" + bits(t.swap_ns) +
         " launches=" + std::to_string(t.kernel_launches) +
         " swaps=" + std::to_string(t.swap_count) +
         " redundant=" + std::to_string(t.redundant_cells) +
         " strips=" + std::to_string(t.strips) + " serialized=" + bits(t.serialized_ns) +
         " busy=" + bits(t.kernel_busy_ns) + "\n";
  }
  s += "rtime=" + bits(r.rtime_ns) + "\n";
  return s;
}

/// Every trace record, one line each.
std::string dump_trace(const ocl::Trace& trace) {
  std::string s;
  for (const ocl::TraceRecord& rec : trace.records()) {
    s += std::to_string(rec.device) + " " + ocl::to_string(rec.kind) + " " +
         bits(rec.start_ns) + " " + bits(rec.end_ns) + " " + std::to_string(rec.bytes) + " " +
         std::to_string(rec.items) + "\n";
  }
  return s;
}

// --- programs -------------------------------------------------------------

PhaseDesc cpu_phase(std::size_t d0, std::size_t d1) {
  PhaseDesc p;
  p.d_begin = d0;
  p.d_end = d1;
  p.cpu_tile = 4;
  return p;
}

PhaseDesc gpu_phase(std::size_t d0, std::size_t d1, int gpus, std::size_t tile, long long halo) {
  PhaseDesc p;
  p.device = gpus >= 2 ? PhaseDevice::kGpuMulti : PhaseDevice::kGpuSingle;
  p.d_begin = d0;
  p.d_end = d1;
  p.gpu_count = gpus;
  p.gpu_tile = tile;
  p.halo = halo;
  return p;
}

/// CPU before the band (if any), the GPU band, CPU after it (if any).
PhaseProgram band_program(const PhaseDesc& band) {
  PhaseProgram prog;
  prog.dim = kDim;
  if (band.d_begin > 0) prog.phases.push_back(cpu_phase(0, band.d_begin));
  prog.phases.push_back(band);
  if (band.d_end < num_diagonals(kDim)) {
    prog.phases.push_back(cpu_phase(band.d_end, num_diagonals(kDim)));
  }
  prog.validate();
  return prog;
}

struct NamedProgram {
  std::string name;
  PhaseProgram program;
};

std::vector<NamedProgram> programs() {
  const std::size_t all = num_diagonals(kDim);  // 47
  const std::size_t lo = 14;                    // band of 9 around diagonal 23
  const std::size_t hi = 33;
  std::vector<NamedProgram> out;
  out.push_back({"gpu1-whole", band_program(gpu_phase(0, all, 1, 1, 0))});
  out.push_back({"gpu1-whole-t4", band_program(gpu_phase(0, all, 1, 4, 0))});
  out.push_back({"gpu1-from1", band_program(gpu_phase(1, 40, 1, 1, 0))});
  for (std::size_t tile : {1, 2, 4, 16}) {
    out.push_back({"gpu1-t" + std::to_string(tile), band_program(gpu_phase(lo, hi, 1, tile, 0))});
  }
  for (std::size_t tile : {1, 4}) {
    out.push_back({"gpu1-t" + std::to_string(tile) + "-split3",
                   split_gpu_band(band_program(gpu_phase(lo, hi, 1, tile, 0)), 3)});
  }
  for (std::size_t tile : {1, 4}) {
    for (std::size_t buffers : {1, 2}) {
      out.push_back({"strips-t" + std::to_string(tile) + "-b" + std::to_string(buffers),
                     apply_strips(band_program(gpu_phase(lo, hi, 1, tile, 0)), 5, buffers)});
    }
  }
  for (int gpus : {2, 4}) {
    for (long long halo = 0; halo <= 3; ++halo) {
      out.push_back({"gpu" + std::to_string(gpus) + "-h" + std::to_string(halo),
                     band_program(gpu_phase(lo, hi, gpus, 1, halo))});
    }
  }
  out.push_back({"gpu2-from1-h1", band_program(gpu_phase(1, 40, 2, 1, 1))});
  out.push_back({"gpu4-whole-h2", band_program(gpu_phase(0, all, 4, 1, 2))});
  return out;
}

WavefrontSpec nash_spec() {
  apps::NashParams p;
  p.dim = kDim;
  p.strategies = 4;
  p.fp_iterations = 8;
  p.seed = 11;
  return apps::make_nash_spec(p);
}

WavefrontSpec editdist_spec() {
  apps::EditDistParams p;
  for (std::size_t i = 0; i < kDim; ++i) {
    p.str_a += "ACGT"[(i * 7 + 3) % 5 % 4];
    p.str_b += "ACGT"[(i * 3 + 1) % 6 % 4];
  }
  return apps::make_editdist_spec(p);
}

// --- the golden table -----------------------------------------------------

struct Golden {
  const char* app;
  const char* program;
  std::uint64_t phases;  ///< fnv1a of dump_phases
  std::uint64_t trace;   ///< fnv1a of dump_trace
  std::size_t records;   ///< trace records
};

// clang-format off
const Golden kGolden[] = {
    {"nash", "gpu1-whole", 0x91a58d8d21e5851aULL, 0x1e4eddfbfb1760b9ULL, 49},
    {"nash", "gpu1-whole-t4", 0x0701a42617a86addULL, 0x0ab4bf631a6ccd43ULL, 13},
    {"nash", "gpu1-from1", 0x71cd64437b9a295cULL, 0xec27ec0e1b8a51c9ULL, 41},
    {"nash", "gpu1-t1", 0x50d6ff4a1673b56aULL, 0xf0d99bdf443ec0fcULL, 21},
    {"nash", "gpu1-t2", 0xf7f7c8c37dd817b0ULL, 0xd413e43813e20029ULL, 13},
    {"nash", "gpu1-t4", 0x8c81104719606266ULL, 0x250d954d14749c8cULL, 9},
    {"nash", "gpu1-t16", 0xbdb7caaaaa679b67ULL, 0x518085f372fe9c19ULL, 5},
    {"nash", "gpu1-t1-split3", 0xb044afd45806d246ULL, 0xdb1c0bd45412d073ULL, 25},
    {"nash", "gpu1-t4-split3", 0x639f219026e08f8eULL, 0x66660de159ebc534ULL, 16},
    {"nash", "strips-t1-b1", 0x668969d24648ad4eULL, 0xa6c91b909c4f76caULL, 97},
    {"nash", "strips-t1-b2", 0x17ef4ad64800f6bdULL, 0x5a20706d8448bc85ULL, 97},
    {"nash", "strips-t4-b1", 0xfc2e7862a3d32020ULL, 0x6572b2b24641cfb4ULL, 42},
    {"nash", "strips-t4-b2", 0x3f05f31717eb9e32ULL, 0x93d66ea9abfa95a9ULL, 42},
    {"nash", "gpu2-h0", 0xf09c57a104e377cbULL, 0xbb232a43105cd789ULL, 78},
    {"nash", "gpu2-h1", 0x937d49ab49c2ff38ULL, 0x68a5b77c06a548c7ULL, 60},
    {"nash", "gpu2-h2", 0x1d293a8c2047d234ULL, 0xf29480400f792b85ULL, 54},
    {"nash", "gpu2-h3", 0x0e3a05772492644fULL, 0x6c554d89043a5e8aULL, 50},
    {"nash", "gpu4-h0", 0x5b5b09fc97185ee7ULL, 0xb5d55858e400d643ULL, 172},
    {"nash", "gpu4-h1", 0xd867981c952d908aULL, 0x8656b51472450609ULL, 124},
    {"nash", "gpu4-h2", 0xc6aeef0bd35c4469ULL, 0xcb2b7de6b11eb85cULL, 108},
    {"nash", "gpu4-h3", 0xf6f0fb98a837f436ULL, 0x2a409b0c6d6e32acULL, 98},
    {"nash", "gpu2-from1-h1", 0xc9ae5fc93da66a59ULL, 0x8f7b3866dbc0eefeULL, 90},
    {"nash", "gpu4-whole-h2", 0x7ffd8f478507d60bULL, 0x5fd51a4e4d1baa9dULL, 172},
    {"editdist", "gpu1-whole", 0x80414966a250c03aULL, 0x714450057325d2beULL, 49},
    {"editdist", "gpu1-whole-t4", 0x3d221ff1469471b9ULL, 0x86b6eacb77f10470ULL, 13},
    {"editdist", "gpu1-from1", 0x21365758e5e466e0ULL, 0x1a86fc1520ce4e38ULL, 41},
    {"editdist", "gpu1-t1", 0x94611cd6d355ce1aULL, 0xfc2c35d3cfcffa44ULL, 21},
    {"editdist", "gpu1-t2", 0x8c99633117737f5aULL, 0x6941535f3a168bb1ULL, 13},
    {"editdist", "gpu1-t4", 0x0513166a0917ad0aULL, 0x1a84909146b186d0ULL, 9},
    {"editdist", "gpu1-t16", 0x20538e83a8a164dbULL, 0x7eb55e737d046c40ULL, 5},
    {"editdist", "gpu1-t1-split3", 0xfeb958f936345efbULL, 0x9532ada5614e3036ULL, 25},
    {"editdist", "gpu1-t4-split3", 0xe78724558a612710ULL, 0xd7dc314d0e87794bULL, 16},
    {"editdist", "strips-t1-b1", 0x89ecb834af4cb861ULL, 0xd1b672aa036a2533ULL, 97},
    {"editdist", "strips-t1-b2", 0x862903faa275bf3aULL, 0x43d3189d5c505b5fULL, 97},
    {"editdist", "strips-t4-b1", 0x497337f8bc2fee89ULL, 0x05759cc2a6e365a8ULL, 42},
    {"editdist", "strips-t4-b2", 0x635ce5696e775238ULL, 0x52bbcbc2a55e1121ULL, 42},
    {"editdist", "gpu2-h0", 0x732c876840d525f5ULL, 0xd541536cc1ff71dfULL, 78},
    {"editdist", "gpu2-h1", 0xbf72c460ce8d0cb3ULL, 0x8d97669f805ed001ULL, 60},
    {"editdist", "gpu2-h2", 0x983a061b2653194dULL, 0x3b2588370513e907ULL, 54},
    {"editdist", "gpu2-h3", 0xf24481ab323888aeULL, 0xeea9297114b7739fULL, 50},
    {"editdist", "gpu4-h0", 0x5bd7f30318f14734ULL, 0x28c449f553d744e7ULL, 172},
    {"editdist", "gpu4-h1", 0xf6ccb6c6b0a99398ULL, 0xa08bd02d270fd42cULL, 124},
    {"editdist", "gpu4-h2", 0xe3463d2bcc7f439aULL, 0xb55cd4b3724f8428ULL, 108},
    {"editdist", "gpu4-h3", 0x0904f759adc96153ULL, 0x08ad67b98a7c10fbULL, 98},
    {"editdist", "gpu2-from1-h1", 0x1233dc8440e854b7ULL, 0x749867b93fc15410ULL, 90},
    {"editdist", "gpu4-whole-h2", 0x0316dd04c6cb614cULL, 0x6b1da57c412a1a2dULL, 172},
};
// clang-format on

/// Digest of the computed grid per app; every program computes the same grid.
struct GoldenGrid {
  const char* app;
  std::uint64_t digest;
};
const GoldenGrid kGoldenGrid[] = {
    {"nash", 0x6a90e6464d7b1141ULL},
    {"editdist", 0x2e1e2023fb877d82ULL},
};

struct App {
  const char* name;
  WavefrontSpec spec;
};

std::vector<App> apps_under_test() {
  return {{"nash", nash_spec()}, {"editdist", editdist_spec()}};
}

/// One program's schedule, estimated and run.
struct Observed {
  std::string phases;
  std::string trace;
  std::size_t records = 0;
  std::string run_phases;
  std::string run_trace;
  std::uint64_t grid = 0;
};

Observed observe(HybridExecutor& exec, const WavefrontSpec& spec, const PhaseProgram& prog) {
  Observed o;
  ocl::Trace est_trace;
  o.phases = dump_phases(exec.estimate(spec.inputs(), prog, &est_trace));
  o.trace = dump_trace(est_trace);
  o.records = est_trace.size();
  ocl::Trace run_trace;
  Grid grid(spec.dim, spec.elem_bytes);
  o.run_phases = dump_phases(exec.run(spec, prog, grid, &run_trace));
  o.run_trace = dump_trace(run_trace);
  o.grid = fnv1a(grid.data(), grid.size_bytes());
  return o;
}

const Golden* find_golden(const std::string& app, const std::string& program) {
  for (const Golden& g : kGolden) {
    if (app == g.app && program == g.program) return &g;
  }
  return nullptr;
}

const GoldenGrid* find_golden_grid(const std::string& app) {
  for (const GoldenGrid& g : kGoldenGrid) {
    if (app == g.app) return &g;
  }
  return nullptr;
}

TEST(GoldenSchedule, EstimateAndRunChargeThePinnedSchedule) {
  HybridExecutor exec(sim::make_i7_2600k(), 2);
  std::size_t checked = 0;
  for (const App& app : apps_under_test()) {
    const GoldenGrid* grid = find_golden_grid(app.name);
    ASSERT_NE(grid, nullptr) << app.name;
    for (const NamedProgram& np : programs()) {
      SCOPED_TRACE(std::string(app.name) + "/" + np.name + " " + np.program.describe());
      const Golden* golden = find_golden(app.name, np.name);
      ASSERT_NE(golden, nullptr);
      const Observed o = observe(exec, app.spec, np.program);
      EXPECT_EQ(fnv1a(o.phases), golden->phases) << o.phases;
      EXPECT_EQ(o.records, golden->records);
      EXPECT_EQ(fnv1a(o.trace), golden->trace) << o.trace;
      // run charges exactly what estimate does, record for record.
      EXPECT_EQ(o.run_phases, o.phases);
      EXPECT_EQ(o.run_trace, o.trace);
      EXPECT_EQ(o.grid, grid->digest);
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

TEST(GoldenSchedule, SerialRunComputesThePinnedGrid) {
  HybridExecutor exec(sim::make_i7_2600k(), 1);
  for (const App& app : apps_under_test()) {
    const GoldenGrid* golden = find_golden_grid(app.name);
    ASSERT_NE(golden, nullptr) << app.name;
    Grid grid(app.spec.dim, app.spec.elem_bytes);
    exec.run_serial(app.spec, grid);
    EXPECT_EQ(fnv1a(grid.data(), grid.size_bytes()), golden->digest) << app.name;
  }
}

/// Prints kGolden and kGoldenGrid as they would be recorded now.
TEST(GoldenSchedule, DISABLED_PrintTable) {
  HybridExecutor exec(sim::make_i7_2600k(), 2);
  std::string table;
  std::string grids;
  char line[256];
  for (const App& app : apps_under_test()) {
    Grid serial(app.spec.dim, app.spec.elem_bytes);
    exec.run_serial(app.spec, serial);
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016" PRIx64 "ULL},\n", app.name,
                  fnv1a(serial.data(), serial.size_bytes()));
    grids += line;
    for (const NamedProgram& np : programs()) {
      const Observed o = observe(exec, app.spec, np.program);
      std::snprintf(line, sizeof line,
                    "    {\"%s\", \"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, %zu},\n",
                    app.name, np.name.c_str(), fnv1a(o.phases), fnv1a(o.trace), o.records);
      table += line;
    }
  }
  std::printf("kGolden:\n%skGoldenGrid:\n%s", table.c_str(), grids.c_str());
}

}  // namespace
}  // namespace wavetune::core
