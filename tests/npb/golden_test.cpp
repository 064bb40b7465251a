// Golden checksum tests: pin the exact KernelResult values for every
// kernel at two problem sizes x two rank counts. The values were
// recorded from a known-good build (hexfloat, bit-exact); any kernel
// or runtime optimization that perturbs the math — reordered
// reductions, fused multiplies, changed message schedules — fails
// here loudly instead of silently shifting modeled results.
//
// Regenerating (only after an INTENTIONAL semantic change): run each
// config below through Runtime::run at 1000 MHz on
// ClusterConfig::paper_testbed(4) and print result.values with "%a".
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "pas/mpi/runtime.hpp"
#include "pas/npb/cg.hpp"
#include "pas/npb/ep.hpp"
#include "pas/npb/ft.hpp"
#include "pas/npb/lu.hpp"
#include "pas/npb/mg.hpp"

namespace pas::npb {
namespace {

struct GoldenCase {
  const char* kernel;
  int variant;  // 0 = small config, 1 = larger / asymmetric config
  int nranks;
  bool verified;
  std::map<std::string, double> values;
};

// gtest prints each parameter next to its test name (--gtest_list_tests,
// and so in the ctest names gtest_discover_tests registers). Left to its
// default, it dumps the struct's raw bytes, `kernel` pointer included —
// an address that ASLR moves on every run, so the registered test names
// would differ from one build to the next.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.kernel << " variant " << c.variant << " on " << c.nranks
      << " ranks";
}

std::unique_ptr<Kernel> make_kernel(const std::string& name, int variant) {
  if (name == "EP") {
    EpConfig cfg;
    cfg.log2_pairs = variant == 0 ? 12 : 14;
    return std::make_unique<EpKernel>(cfg);
  }
  if (name == "FT") {
    FtConfig cfg;
    if (variant == 0) {
      cfg.nx = cfg.ny = cfg.nz = 16;
      cfg.niter = 2;
    } else {
      cfg.nx = 32;
      cfg.ny = 16;
      cfg.nz = 16;
      cfg.niter = 1;
    }
    return std::make_unique<FtKernel>(cfg);
  }
  if (name == "LU") {
    LuConfig cfg;
    cfg.n = variant == 0 ? 16 : 24;
    cfg.iterations = variant == 0 ? 3 : 2;
    return std::make_unique<LuKernel>(cfg);
  }
  if (name == "CG") {
    CgConfig cfg;
    cfg.n = variant == 0 ? 12 : 16;
    cfg.iterations = variant == 0 ? 8 : 10;
    return std::make_unique<CgKernel>(cfg);
  }
  MgConfig cfg;
  if (variant == 0) {
    cfg.n = 16;
    cfg.levels = 3;
    cfg.cycles = 2;
  } else {
    cfg.n = 32;
    cfg.levels = 4;
    cfg.cycles = 1;
  }
  return std::make_unique<MgKernel>(cfg);
}

// Recorded from the pre-optimization build; see header comment.
const std::vector<GoldenCase>& golden_table() {
  static const std::vector<GoldenCase> table = {
    {"EP", 0, 2, true,
     {{"accepted", 0x1.8d4p+11},
      {"q0", 0x1.6fp+10},
      {"q1", 0x1.614p+10},
      {"q2", 0x1.18p+8},
      {"q3", 0x1p+4},
      {"q4", 0x1p+0},
      {"q5", 0x0p+0},
      {"q6", 0x0p+0},
      {"q7", 0x0p+0},
      {"q8", 0x0p+0},
      {"q9", 0x0p+0},
      {"sx", -0x1.b37726f3e3c76p+6},
      {"sy", 0x1.0de4eaf7ac31ap+6}}},
    {"EP", 0, 4, true,
     {{"accepted", 0x1.8d4p+11},
      {"q0", 0x1.6fp+10},
      {"q1", 0x1.614p+10},
      {"q2", 0x1.18p+8},
      {"q3", 0x1p+4},
      {"q4", 0x1p+0},
      {"q5", 0x0p+0},
      {"q6", 0x0p+0},
      {"q7", 0x0p+0},
      {"q8", 0x0p+0},
      {"q9", 0x0p+0},
      {"sx", -0x1.b37726f3e3c82p+6},
      {"sy", 0x1.0de4eaf7ac31bp+6}}},
    {"EP", 1, 2, true,
     {{"accepted", 0x1.8ff8p+13},
      {"q0", 0x1.7a2p+12},
      {"q1", 0x1.5cfp+12},
      {"q2", 0x1.13cp+10},
      {"q3", 0x1.fp+5},
      {"q4", 0x1p+0},
      {"q5", 0x0p+0},
      {"q6", 0x0p+0},
      {"q7", 0x0p+0},
      {"q8", 0x0p+0},
      {"q9", 0x0p+0},
      {"sx", 0x1.f62c6f1d2a1a3p+6},
      {"sy", 0x1.0ab99fbd162b5p+7}}},
    {"EP", 1, 4, true,
     {{"accepted", 0x1.8ff8p+13},
      {"q0", 0x1.7a2p+12},
      {"q1", 0x1.5cfp+12},
      {"q2", 0x1.13cp+10},
      {"q3", 0x1.fp+5},
      {"q4", 0x1p+0},
      {"q5", 0x0p+0},
      {"q6", 0x0p+0},
      {"q7", 0x0p+0},
      {"q8", 0x0p+0},
      {"q9", 0x0p+0},
      {"sx", 0x1.f62c6f1d2a18bp+6},
      {"sy", 0x1.0ab99fbd162abp+7}}},
    {"FT", 0, 2, true,
     {{"checksum_im_1", 0x1.14eafba629db6p+9},
      {"checksum_im_2", 0x1.14bfb01539949p+9},
      {"checksum_re_1", 0x1.17015db1f8318p+9},
      {"checksum_re_2", 0x1.16e629d903555p+9},
      {"roundtrip_err", 0x1.854bfb363dc39p-52}}},
    {"FT", 0, 4, true,
     {{"checksum_im_1", 0x1.14eafba629dc3p+9},
      {"checksum_im_2", 0x1.14bfb01539944p+9},
      {"checksum_re_1", 0x1.17015db1f832p+9},
      {"checksum_re_2", 0x1.16e629d903554p+9},
      {"roundtrip_err", 0x1.854bfb363dc39p-52}}},
    {"FT", 1, 2, true,
     {{"checksum_im_1", 0x1.136e5762264b6p+9},
      {"checksum_re_1", 0x1.244b7d87125bdp+9},
      {"roundtrip_err", 0x1.07e0f66afed07p-51}}},
    {"FT", 1, 4, true,
     {{"checksum_im_1", 0x1.136e5762264b8p+9},
      {"checksum_re_1", 0x1.244b7d87125bdp+9},
      {"roundtrip_err", 0x1.07e0f66afed07p-51}}},
    {"LU", 0, 2, true,
     {{"error_inf", 0x1.a1cc03fb26f46p-2},
      {"residual_0", 0x1.6ee0468e18ec7p+3},
      {"residual_1", 0x1.225a9d301e90ap+3},
      {"residual_2", 0x1.b70db20a6175bp+2},
      {"residual_3", 0x1.4da26608647cp+2}}},
    {"LU", 0, 4, true,
     {{"error_inf", 0x1.a1cc03fb26f46p-2},
      {"residual_0", 0x1.6ee0468e18edp+3},
      {"residual_1", 0x1.225a9d301e908p+3},
      {"residual_2", 0x1.b70db20a61764p+2},
      {"residual_3", 0x1.4da26608647bcp+2}}},
    {"LU", 1, 2, true,
     {{"error_inf", 0x1.746c3983b8624p-1},
      {"residual_0", 0x1.642380082426ap+3},
      {"residual_1", 0x1.37eaa69c52b3dp+3},
      {"residual_2", 0x1.0b868cf5d071p+3}}},
    {"LU", 1, 4, true,
     {{"error_inf", 0x1.746c3983b8624p-1},
      {"residual_0", 0x1.642380082425dp+3},
      {"residual_1", 0x1.37eaa69c52b4p+3},
      {"residual_2", 0x1.0b868cf5d071p+3}}},
    {"CG", 0, 2, true,
     {{"error_inf", 0x1.3p-49},
      {"residual_0", 0x1.71d3f305b2a62p+1},
      {"residual_1", 0x1.5e915d7dfc073p-42},
      {"residual_2", 0x1.d0a8be7b1c1c7p-44},
      {"residual_3", 0x1.7012ee1abaeacp-45},
      {"residual_4", 0x1.2109290b2d844p-46},
      {"residual_5", 0x1.847302252780dp-47},
      {"residual_6", 0x1.4dc28604cf417p-47},
      {"residual_7", 0x1.049cf5184818dp-47},
      {"residual_8", 0x1.8c4cd7a9c0cccp-48}}},
    {"CG", 0, 4, true,
     {{"error_inf", 0x1.9p-49},
      {"residual_0", 0x1.71d3f305b2a66p+1},
      {"residual_1", 0x1.5e8b8b28a1bafp-42},
      {"residual_2", 0x1.d0658bf80cb97p-44},
      {"residual_3", 0x1.6eb6153a57038p-45},
      {"residual_4", 0x1.1a96f0c455a56p-46},
      {"residual_5", 0x1.698bec11fb342p-47},
      {"residual_6", 0x1.21f243fcb016p-47},
      {"residual_7", 0x1.9fc797f6f75e1p-48},
      {"residual_8", 0x1.166781bf8a697p-48}}},
    {"CG", 1, 2, true,
     {{"error_inf", 0x1.1p-48},
      {"residual_0", 0x1.440f5120bc5d7p+1},
      {"residual_1", 0x1.fb111984411fep-41},
      {"residual_10", 0x1.388c2bb031428p-45},
      {"residual_2", 0x1.797972250422dp-42},
      {"residual_3", 0x1.72ec74de83d02p-43},
      {"residual_4", 0x1.41c919c1a2769p-44},
      {"residual_5", 0x1.9051aef1470d5p-45},
      {"residual_6", 0x1.2778cf4df8565p-45},
      {"residual_7", 0x1.db67b8566ff12p-46},
      {"residual_8", 0x1.cedb9d2e7cab5p-46},
      {"residual_9", 0x1.0ecc56cd7a0fp-45}}},
    {"CG", 1, 4, true,
     {{"error_inf", 0x1.4p-50},
      {"residual_0", 0x1.440f5120bc5d3p+1},
      {"residual_1", 0x1.fafd982ea76ebp-41},
      {"residual_10", 0x1.352ba50dc89e4p-48},
      {"residual_2", 0x1.78fb1b145dce7p-42},
      {"residual_3", 0x1.7096d536d62a4p-43},
      {"residual_4", 0x1.37eb23f73667ep-44},
      {"residual_5", 0x1.67e449b119ee6p-45},
      {"residual_6", 0x1.c3fe3a6b93751p-46},
      {"residual_7", 0x1.0adae1b56b72p-46},
      {"residual_8", 0x1.38a6f58b1c83bp-47},
      {"residual_9", 0x1.929b2314416e5p-48}}},
    {"MG", 0, 2, true,
     {{"residual_0", 0x1.440f5120bc5d7p+1},
      {"residual_1", 0x1.fb51e5520a33dp+0},
      {"residual_2", 0x1.ff6f5014d766dp-1}}},
    {"MG", 0, 4, true,
     {{"residual_0", 0x1.440f5120bc5d3p+1},
      {"residual_1", 0x1.fb51e5520a339p+0},
      {"residual_2", 0x1.ff6f5014d766ep-1}}},
    {"MG", 1, 2, false,
     {{"residual_0", 0x1.d227da5d51bafp+0},
      {"residual_1", 0x1.c4184db567c6p+1}}},
    {"MG", 1, 4, false,
     {{"residual_0", 0x1.d227da5d51ba2p+0},
      {"residual_1", 0x1.c4184db567c55p+1}}},
  };
  return table;
}

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, BitExactKernelResult) {
  const GoldenCase& expected = GetParam();
  const auto kernel = make_kernel(expected.kernel, expected.variant);
  mpi::Runtime rt(sim::ClusterConfig::paper_testbed(4));
  KernelResult result;
  rt.run(expected.nranks, 1000.0, [&](mpi::Comm& comm) {
    const KernelResult r = kernel->run(comm);
    if (comm.rank() == 0) result = r;
  });

  EXPECT_EQ(result.verified, expected.verified);
  ASSERT_EQ(result.values.size(), expected.values.size());
  for (const auto& [key, want] : expected.values) {
    ASSERT_TRUE(result.values.count(key)) << "missing value: " << key;
    const double got = result.values.at(key);
    // Bit-exact, not approximate: == on doubles is the whole point.
    EXPECT_EQ(got, want) << key << " drifted: expected "
                         << testing::PrintToString(want) << ", got "
                         << testing::PrintToString(got);
  }
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return std::string(info.param.kernel) + "v" +
         std::to_string(info.param.variant) + "n" +
         std::to_string(info.param.nranks);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, Golden,
                         ::testing::ValuesIn(golden_table()), case_name);

TEST(GoldenTable, ParamPrintsWithoutAddresses) {
  const GoldenCase c{"CG", 1, 4, true, {}};
  EXPECT_EQ(::testing::PrintToString(c), "CG variant 1 on 4 ranks");
}

}  // namespace
}  // namespace pas::npb
