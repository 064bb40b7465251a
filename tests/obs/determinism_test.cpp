// Golden determinism of the observability artifacts (DESIGN.md §8):
// run_report.json, trace.json, metrics.csv and power_timeline.csv are
// pure functions of the sweep's virtual-time results, so their bytes
// must be identical at any --jobs — including under fault injection.
// (metrics_volatile.csv is the one artifact exempted by design.)
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/fault/fault.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/obs/observer.hpp"
#include "test_scratch.hpp"

namespace pas::analysis {
namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

constexpr const char* kArtifacts[] = {"run_report.json", "trace.json",
                                      "metrics.csv", "power_timeline.csv"};

// One fully-observed sweep into `dir`; returns artifact name -> bytes.
// The golden runs use --no-cache semantics: cached points carry no
// detail events, so caching across runs would change trace.json.
std::map<std::string, std::string> run_observed_sweep(
    const std::string& kernel_name, int jobs, const std::string& dir,
    std::optional<fault::FaultConfig> fault_cfg) {
  // Stable counters live in the process-wide registry and would
  // accumulate across the runs of this binary otherwise.
  obs::registry().reset();
  std::filesystem::remove_all(dir);

  obs::ObsOptions o;
  o.trace = true;
  o.metrics = true;
  o.dir = dir;
  o.timeline_samples = 16;

  SweepSpec spec;
  spec.cluster = sim::ClusterConfig::paper_testbed(4);
  spec.fault = std::move(fault_cfg);
  spec.options.jobs = jobs;
  spec.options.use_cache = false;
  spec.observer = std::make_shared<obs::Observer>(o);
  SweepExecutor exec(spec);

  const auto kernel = make_kernel(kernel_name, Scale::kSmall);
  (void)exec.run({kernel.get(), {1, 2, 4}, {600, 1400}});
  for (const obs::WriteResult& r : exec.observer()->export_all())
    EXPECT_TRUE(r.ok()) << r.to_string();

  std::map<std::string, std::string> files;
  for (const char* name : kArtifacts)
    files[name] = slurp(std::filesystem::path(dir) / name);
  return files;
}

TEST(ObsDeterminism, ArtifactsAreByteIdenticalAcrossJobs) {
  const std::string base = pas::test::scratch_path("pasim_obs_det");
  const auto j1 = run_observed_sweep("EP", 1, base + "_j1", std::nullopt);
  const auto j8 = run_observed_sweep("EP", 8, base + "_j8", std::nullopt);
  for (const char* name : kArtifacts) {
    ASSERT_FALSE(j1.at(name).empty()) << name;
    EXPECT_TRUE(j1.at(name) == j8.at(name))
        << name << " differs between --jobs 1 and --jobs 8";
  }
}

TEST(ObsDeterminism, FaultySweepArtifactsAreByteIdenticalAcrossJobs) {
  const std::string base = pas::test::scratch_path("pasim_obs_det_fault");
  const fault::FaultConfig faults = fault::FaultConfig::scaled(0.05, 42);
  const auto j1 = run_observed_sweep("FT", 1, base + "_j1", faults);
  const auto j8 = run_observed_sweep("FT", 8, base + "_j8", faults);
  for (const char* name : kArtifacts) {
    ASSERT_FALSE(j1.at(name).empty()) << name;
    EXPECT_TRUE(j1.at(name) == j8.at(name))
        << name << " differs between --jobs 1 and --jobs 8 under faults";
  }
}

TEST(ObsDeterminism, ArtifactsHaveExpectedStructure) {
  const std::string dir = pas::test::scratch_path("pasim_obs_struct");
  const auto files = run_observed_sweep("EP", 2, dir, std::nullopt);

  const std::string& report = files.at("run_report.json");
  EXPECT_NE(report.find("\"pasim-run-report/1\""), std::string::npos);
  EXPECT_NE(report.find("\"kernel\":\"EP\""), std::string::npos);
  EXPECT_NE(report.find("\"summary\""), std::string::npos);
  // Stable sweep counters surface in the report's metrics section.
  EXPECT_NE(report.find("sweep.points"), std::string::npos);
  // Volatile diagnostics must not leak into the deterministic report.
  EXPECT_EQ(report.find("sweep.point_wall_seconds"), std::string::npos);
  EXPECT_EQ(report.find("mpi.runs"), std::string::npos);

  EXPECT_EQ(files.at("trace.json").front(), '[');
  EXPECT_EQ(files.at("metrics.csv").rfind("metric,kind,stability,value\n", 0),
            0u);
  EXPECT_EQ(files.at("power_timeline.csv")
                .rfind("track,node,t_s,cpu_w,memory_w,network_w,idle_w,"
                       "total_w\n",
                       0),
            0u);
}

}  // namespace
}  // namespace pas::analysis
