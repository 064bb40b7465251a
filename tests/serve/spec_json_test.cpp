// SweepSpec JSON document tests (DESIGN.md §13): the schema-versioned
// round-trip is a byte-stable fixpoint, the parser is strict (unknown
// keys, wrong types and out-of-range values all throw naming the
// field), and --spec/flag layering follows flag > file > default.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/sweep_spec.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/json.hpp"
#include "test_scratch.hpp"

namespace pas::analysis {
namespace {

util::Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return util::Cli(static_cast<int>(argv.size()), argv.data());
}

std::string dump(const SweepSpec& spec) { return spec.to_json().dump(); }

SweepSpec populated_spec() {
  SweepSpec spec;
  spec.kernel = "LU";
  spec.scale = "small";
  spec.nodes = {1, 2, 4};
  spec.freqs_mhz = {600.0, 800.0, 1400.0};
  spec.comm_dvfs_mhz = 600.0;
  spec.options.jobs = 3;
  spec.options.cache_dir = "/tmp/spec_cache";
  spec.options.run_retries = 2;
  spec.options.journal_path = "/tmp/spec.journal";
  spec.options.resume = true;
  spec.options.isolate = true;
  spec.options.isolate_timeout_s = 17.5;
  spec.options.isolate_retries = 3;
  spec.options.cache_cap_bytes = 4ULL << 20;
  spec.fault = fault::FaultConfig::scaled(0.05, 7);
  return spec;
}

TEST(SpecJson, DefaultDocumentIsAFixpoint) {
  const SweepSpec spec;
  const std::string first = dump(spec);
  EXPECT_EQ(first, dump(SweepSpec::parse(first)));
}

TEST(SpecJson, MinimalDocumentIsRunnable) {
  const SweepSpec spec = SweepSpec::parse(R"({"version": 1})");
  EXPECT_EQ(spec.kernel, "EP");
  EXPECT_EQ(spec.scale, "paper");
  EXPECT_FALSE(spec.resolved_nodes().empty());
  EXPECT_FALSE(spec.resolved_freqs().empty());
  EXPECT_EQ(spec.base_f_mhz(), 600.0);
}

TEST(SpecJson, PopulatedRoundTripPreservesEveryField) {
  const SweepSpec spec = populated_spec();
  const SweepSpec back = SweepSpec::parse(dump(spec));
  EXPECT_EQ(back.kernel, spec.kernel);
  EXPECT_EQ(back.scale, spec.scale);
  EXPECT_EQ(back.nodes, spec.nodes);
  EXPECT_EQ(back.freqs_mhz, spec.freqs_mhz);
  EXPECT_EQ(back.comm_dvfs_mhz, spec.comm_dvfs_mhz);
  EXPECT_EQ(back.options.jobs, spec.options.jobs);
  EXPECT_EQ(back.options.cache_dir, spec.options.cache_dir);
  EXPECT_EQ(back.options.use_cache, spec.options.use_cache);
  EXPECT_EQ(back.options.run_retries, spec.options.run_retries);
  EXPECT_EQ(back.options.journal_path, spec.options.journal_path);
  EXPECT_EQ(back.options.resume, spec.options.resume);
  EXPECT_EQ(back.options.isolate, spec.options.isolate);
  EXPECT_EQ(back.options.isolate_timeout_s, spec.options.isolate_timeout_s);
  EXPECT_EQ(back.options.isolate_retries, spec.options.isolate_retries);
  EXPECT_EQ(back.options.cache_cap_bytes, spec.options.cache_cap_bytes);
  ASSERT_TRUE(back.fault.has_value());
  EXPECT_EQ(back.fault->seed, spec.fault->seed);
  EXPECT_EQ(back.fault->straggler_fraction, spec.fault->straggler_fraction);
  EXPECT_EQ(back.fault->message_drop_prob, spec.fault->message_drop_prob);
  EXPECT_EQ(back.fault->node_failure_prob, spec.fault->node_failure_prob);
  EXPECT_EQ(dump(spec), dump(back));
}

// Property: for arbitrary valid documents, dump ∘ parse is the
// identity on bytes. Seeded, so a failure reproduces.
TEST(SpecJson, RandomizedDocumentsAreFixpoints) {
  std::mt19937 rng(20260807);
  const char* kernels[] = {"EP", "FT", "LU", "CG", "MG"};
  const char* scales[] = {"paper", "small"};
  for (int iter = 0; iter < 200; ++iter) {
    SweepSpec spec;
    spec.kernel = kernels[rng() % 5];
    spec.scale = scales[rng() % 2];
    const int n_nodes = static_cast<int>(rng() % 4);
    for (int i = 0; i < n_nodes; ++i)
      spec.nodes.push_back(1 + static_cast<int>(rng() % 16));
    const int n_freqs = static_cast<int>(rng() % 4);
    for (int i = 0; i < n_freqs; ++i)
      spec.freqs_mhz.push_back(600.0 + 100.0 * static_cast<double>(rng() % 9));
    if (rng() % 2) spec.comm_dvfs_mhz = 600.0;
    spec.options.jobs = static_cast<int>(rng() % 5);
    spec.options.run_retries = static_cast<int>(rng() % 3);
    if (rng() % 2) spec.options.cache_dir = "cache_dir";
    if (rng() % 2) spec.options.journal_path = "sweep.journal";
    if (rng() % 3 == 0) spec.fault = fault::FaultConfig::scaled(
        0.01 * static_cast<double>(1 + rng() % 50), rng() % 1000);
    const std::string first = dump(spec);
    const std::string second = dump(SweepSpec::parse(first));
    ASSERT_EQ(first, second) << "iteration " << iter;
  }
}

TEST(SpecJson, RejectsMissingOrWrongVersion) {
  EXPECT_THROW(SweepSpec::parse(R"({"kernel": "EP"})"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 3})"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": "1"})"),
               std::invalid_argument);
  // Both live schema versions parse.
  EXPECT_EQ(SweepSpec::parse(R"({"version": 1})").kernel, "EP");
  EXPECT_EQ(SweepSpec::parse(R"({"version": 2})").kernel, "EP");
}

TEST(SpecJson, RejectsV2FieldsInV1Documents) {
  // v1 predates sampled estimation and checkpoint warm-starts: a v1
  // document using any v2 field is rejected, not silently accepted.
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "iterations": 8})"),
               std::invalid_argument);
  EXPECT_THROW(
      SweepSpec::parse(R"({"version": 1, "options": {"sampling": true}})"),
      std::invalid_argument);
  EXPECT_THROW(
      SweepSpec::parse(R"({"version": 1, "options": {"sample_period": 5}})"),
      std::invalid_argument);
  EXPECT_THROW(
      SweepSpec::parse(R"({"version": 1, "options": {"warmup_iters": 1}})"),
      std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(
                   R"({"version": 1, "options": {"verify_sampling": 0.5}})"),
               std::invalid_argument);
  EXPECT_THROW(
      SweepSpec::parse(R"({"version": 1, "options": {"checkpoints": true}})"),
      std::invalid_argument);
  EXPECT_THROW(
      SweepSpec::parse(R"({"version": 1, "options": {"checkpoints": false}})"),
      std::invalid_argument);
  // The same fields parse in a v2 document.
  const SweepSpec v2 = SweepSpec::parse(
      R"({"version": 2, "iterations": 8,
          "options": {"sampling": true, "sample_period": 5,
                      "warmup_iters": 1, "verify_sampling": 0.5}})");
  EXPECT_EQ(v2.iterations, 8);
  EXPECT_TRUE(v2.options.sampling);
  EXPECT_EQ(v2.options.sample_period, 5);
  EXPECT_EQ(v2.options.warmup_iters, 1);
  EXPECT_DOUBLE_EQ(v2.options.verify_sampling, 0.5);
}

// Checkpoint warm-starts were removed. Every document an earlier build
// wrote carries "checkpoints": false, so false still parses (and is not
// written back); true names the removal.
TEST(SpecJson, RemovedCheckpointsMemberParsesOnlyAsFalse) {
  const SweepSpec old_doc = SweepSpec::parse(
      R"({"version": 2, "options": {"checkpoints": false}})");
  EXPECT_EQ(old_doc.to_json().find("options")->find("checkpoints"), nullptr);
  const SweepSpec defaults;
  EXPECT_EQ(dump(old_doc), dump(defaults));
  try {
    SweepSpec::parse(R"({"version": 2, "options": {"checkpoints": true}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "options.checkpoints: checkpoint warm-starts were removed"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpecJson, RejectsUnknownKeysAtEveryLevel) {
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "kernal": "EP"})"),
               std::invalid_argument);
  EXPECT_THROW(
      SweepSpec::parse(R"({"version": 1, "options": {"job": 2}})"),
      std::invalid_argument);
  EXPECT_THROW(
      SweepSpec::parse(R"({"version": 1, "fault": {"seeed": 3}})"),
      std::invalid_argument);
}

TEST(SpecJson, RejectsWrongTypes) {
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "kernel": 5})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "nodes": "1,2"})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "nodes": [1.5]})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "freqs_mhz": ["600"]})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "options": []})"),
               std::invalid_argument);
}

TEST(SpecJson, RejectsOutOfRangeValues) {
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "kernel": "XX"})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "scale": "huge"})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "nodes": [0]})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "freqs_mhz": [-600]})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "comm_dvfs_mhz": -1})"),
               std::invalid_argument);
  EXPECT_THROW(
      SweepSpec::parse(R"({"version": 1, "options": {"run_retries": -1}})"),
      std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "options":
      {"verify_replay": true, "use_cache": false}})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "options":
      {"cache_cap_bytes": 1048576}})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "fault":
      {"message_drop_prob": 1.5}})"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse(R"({"version": 1, "fault":
      {"max_send_attempts": 0}})"),
               std::invalid_argument);
}

TEST(SpecJson, FlagsOverrideSpecFileWhichOverridesDefaults) {
  const std::string path =
      pas::test::scratch_path("spec_json_test_layering.json");
  {
    SweepSpec file_spec;
    file_spec.kernel = "FT";
    file_spec.scale = "small";
    file_spec.nodes = {1, 2};
    file_spec.options.run_retries = 3;
    std::ofstream out(path);
    out << file_spec.to_json().dump(2);
  }
  const std::string spec_flag = "--spec=" + path;
  const util::Cli cli =
      make_cli({spec_flag.c_str(), "--kernel", "LU", "--nodes", "4,8"});
  const SweepSpec merged = SweepSpec::from_cli(cli);
  EXPECT_EQ(merged.kernel, "LU");                      // flag wins
  EXPECT_EQ(merged.nodes, (std::vector<int>{4, 8}));   // flag wins
  EXPECT_EQ(merged.scale, "small");                    // file survives
  EXPECT_EQ(merged.options.run_retries, 3);            // file survives
  std::filesystem::remove(path);
}

// A merged spec its kernel rejects, or a flag value the sweep rejects,
// is reported like an unknown option: "<program>: <reason>" on stderr
// and exit status 2, never an uncaught exception. A pinned kernel is
// the one checked.
TEST(SpecJson, FromCliReportsRejectedValuesAsUsageErrors) {
  EXPECT_EXIT(SweepSpec::from_cli(make_cli({"--iterations", "48"})),
              testing::ExitedWithCode(2),
              "^prog: .*kernel EP does not support an iteration override");
  EXPECT_EXIT(
      SweepSpec::from_cli(make_cli({"--kernel", "FT", "--iterations", "48"}),
                          "EP"),
      testing::ExitedWithCode(2), "kernel EP does not support");
  EXPECT_EXIT(SweepSpec::from_cli(make_cli({"--retries", "-1"})),
              testing::ExitedWithCode(2), "^prog: --retries must be >= 0");
  EXPECT_EQ(SweepSpec::from_cli(make_cli({"--iterations", "48"}), "FT")
                .iterations,
            48);
  // --checkpoints left the shared flag set with checkpoint warm-starts:
  // Cli::check_usage rejects it like any unknown option.
  EXPECT_EXIT(make_cli({"--checkpoints"})
                  .check_usage(SweepSpec::cli_option_names()),
              testing::ExitedWithCode(2),
              "^prog: unknown option --checkpoints");
}

// Eq 1 divides by T_1: a binary that prints speedups rejects a node
// axis without N=1 as a usage error naming it, before anything runs.
TEST(SpecJson, GridWithoutBaseNodeIsAUsageError) {
  const util::Cli cli = make_cli({"--small", "--nodes", "2,4"});
  const ExperimentEnv env = env_for_spec(SweepSpec::from_cli(cli));
  EXPECT_EXIT(require_base_node(cli, env), testing::ExitedWithCode(2),
              "^prog: nodes: the grid 2,4 has no N=1");
  const util::Cli with_base = make_cli({"--small", "--nodes", "4,1"});
  require_base_node(with_base, env_for_spec(SweepSpec::from_cli(with_base)));

  // Grids with N=1 that still lack what an analysis reads off them.
  const GridNeeds shape{1, 1, "the shape check"};
  const auto rejected = [](std::initializer_list<const char*> args,
                           const GridNeeds& needs, const char* message) {
    const util::Cli c = make_cli(args);
    EXPECT_EXIT(require_base_node(c, env_for_spec(SweepSpec::from_cli(c)),
                                  needs),
                testing::ExitedWithCode(2), message);
  };
  rejected({"--small", "--nodes", "1,4"}, kWorkloadFitNeeds,
           "^prog: nodes: the grid 1,4 has 1 node count above 1, but the "
           "workload fit .* needs 2");
  rejected({"--small", "--nodes", "1,4,4"}, kWorkloadFitNeeds,
           "^prog: nodes: the grid 1,4,4 has 1 node count above 1");
  rejected({"--small", "--nodes", "1,2", "--freqs", "600"}, kWorkloadFitNeeds,
           "^prog: nodes: the grid 1,2 has 1 node count above 1");
  rejected({"--small", "--nodes", "1,2,4", "--freqs", "600"},
           kWorkloadFitNeeds,
           "^prog: freqs: the grid 600 has 1 distinct frequency, but the "
           "workload fit .* needs 2");
  rejected({"--small", "--nodes", "1", "--freqs", "600,1400"}, shape,
           "^prog: nodes: the grid 1 has 0 node counts above 1, but the "
           "shape check needs 1");
  const util::Cli fits = make_cli({"--small", "--nodes", "1,2,4",
                                   "--freqs", "1400,600"});
  require_base_node(fits, env_for_spec(SweepSpec::from_cli(fits)),
                    kWorkloadFitNeeds);
  const util::Cli one_above = make_cli({"--small", "--nodes", "1,4"});
  const ExperimentEnv env14 = env_for_spec(SweepSpec::from_cli(one_above));
  require_base_node(one_above, env14, shape);
  EXPECT_EQ(env14.min_parallel_nodes(), 4);
}

TEST(SpecJson, LoadNamesThePathOnError) {
  try {
    SweepSpec::load("/nonexistent/spec.json");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/spec.json"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace pas::analysis
