// analysis::ColumnSupervisor on its own: the stop drain that kills a
// busy worker, a launch with nothing left to run, the deadline kill
// with its retry and give-up, and one worker running column after
// column. The end-to-end oracles are IsolateSupervisor.* and
// ServeBroker.*. Forks on purpose — this binary runs under ASan, never
// TSan.
#include "pas/analysis/column_supervisor.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pas/util/fs.hpp"
#include "test_scratch.hpp"

namespace pas::analysis {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir =
      pas::test::scratch_path("pasim_column_supervisor/" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A supervisor over a fresh journal, with counters of its own.
struct Rig {
  Rig(const std::string& dir, double timeout_s, int retries,
      ColumnSupervisor::Body body)
      : journal(dir + "/sweep.journal", SweepJournal::Mode::kFresh),
        supervisor(journal, {"test", timeout_s, retries},
                   {crashes, timeouts, retried}, std::move(body)) {}

  obs::Counter crashes;
  obs::Counter timeouts;
  obs::Counter retried;
  SweepJournal journal;
  ColumnSupervisor supervisor;
};

std::shared_ptr<ColumnSupervisor::Column> two_point_column() {
  auto col = std::make_shared<ColumnSupervisor::Column>();
  col->points = {{1, 600.0, 0.0}, {1, 1000.0, 0.0}};
  col->keys = {"TEST|N=1|f=600", "TEST|N=1|f=1000"};
  col->label = "TEST N=1";
  return col;
}

/// A child that never finishes — after publishing its pid, when asked.
ColumnSupervisor::Body hang(const std::string& pid_file = "") {
  return [pid_file](const std::string&,
                    const std::vector<SweepExecutor::Point>&) {
    if (!pid_file.empty())
      util::atomic_write_file(pid_file, std::to_string(::getpid()));
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  };
}

/// Sleeps in the supervisor until reap() reports at least one exit.
std::vector<ColumnSupervisor::Exit> next_exits(ColumnSupervisor& s) {
  for (;;) {
    std::vector<ColumnSupervisor::Exit> exits = s.reap();
    if (!exits.empty()) return exits;
    s.wait(-1.0);
  }
}

TEST(ColumnSupervisor, KillAllReapsALiveHangingChildAndReturnsItsColumn) {
  const std::string dir = temp_dir("kill_all");
  Rig rig(dir, 600.0, 0, hang(dir + "/child.pid"));
  const auto col = two_point_column();
  ASSERT_TRUE(rig.supervisor.launch(col));
  ASSERT_EQ(rig.supervisor.live(), 1u);

  std::optional<std::string> pid_text;
  const auto t0 = std::chrono::steady_clock::now();
  while (!(pid_text = util::read_file(dir + "/child.pid")) &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(60))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(pid_text.has_value()) << "the child never started";
  const pid_t pid = static_cast<pid_t>(std::stol(*pid_text));
  EXPECT_TRUE(rig.supervisor.reap().empty());  // alive, far from its deadline

  const std::vector<std::shared_ptr<ColumnSupervisor::Column>> drained =
      rig.supervisor.kill_all();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], col);
  EXPECT_EQ(rig.supervisor.live(), 0u);
  EXPECT_FALSE(rig.supervisor.complete(*col));
  // Reaped, not just killed: even a zombie would still answer kill(pid, 0).
  EXPECT_NE(::kill(pid, 0), 0);
  // A stop drain counts nothing.
  EXPECT_EQ(rig.crashes.value() + rig.timeouts.value() + rig.retried.value(),
            0u);
}

TEST(ColumnSupervisor, LaunchOfAFullyJournaledColumnForksNothing) {
  const std::string dir = temp_dir("journaled");
  const std::string marker = dir + "/forked";
  Rig rig(dir, 600.0, 0,
          [&marker](const std::string&,
                    const std::vector<SweepExecutor::Point>&) {
            util::atomic_write_file(marker, "forked\n");
          });
  const auto col = two_point_column();
  for (std::size_t i = 0; i < col->keys.size(); ++i) {
    RunRecord rec;
    rec.nodes = col->points[i].nodes;
    rec.frequency_mhz = col->points[i].frequency_mhz;
    ASSERT_TRUE(rig.journal.append(col->keys[i], rec));
  }
  EXPECT_FALSE(rig.supervisor.launch(col));
  EXPECT_EQ(rig.supervisor.live(), 0u);
  EXPECT_EQ(col->attempts, 0);
  EXPECT_TRUE(rig.supervisor.complete(*col));
  EXPECT_TRUE(rig.supervisor.reap().empty());
  EXPECT_FALSE(std::filesystem::exists(marker));
}

TEST(ColumnSupervisor, ChildPastItsDeadlineIsKilledReapedAndTimedOut) {
  const std::string dir = temp_dir("deadline");
  Rig rig(dir, 0.2, 1, hang());
  const auto col = two_point_column();

  // First attempt: killed at the deadline, granted the one retry.
  ASSERT_TRUE(rig.supervisor.launch(col));
  const double t0 = ColumnSupervisor::now();
  std::vector<ColumnSupervisor::Exit> exits = next_exits(rig.supervisor);
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0].column, col);
  EXPECT_EQ(exits[0].outcome, ColumnSupervisor::Outcome::kRetry);
  EXPECT_TRUE(exits[0].result.timed_out);
  EXPECT_TRUE(exits[0].result.signaled);
  EXPECT_EQ(exits[0].result.term_signal, SIGKILL);
  EXPECT_GE(exits[0].elapsed_s, 0.2);
  EXPECT_EQ(rig.supervisor.live(), 0u);
  // fault::backoff_s(0.05, 0): 50 ms past the reap, itself past t0 + 0.2.
  EXPECT_GE(col->not_before, t0 + 0.25);
  EXPECT_EQ(rig.timeouts.value(), 1u);
  EXPECT_EQ(rig.crashes.value(), 0u);
  EXPECT_EQ(rig.retried.value(), 1u);

  // Second attempt: the retries are spent, so the column is given up.
  ASSERT_TRUE(rig.supervisor.launch(col));
  exits = next_exits(rig.supervisor);
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0].outcome, ColumnSupervisor::Outcome::kGaveUp);
  EXPECT_TRUE(exits[0].result.timed_out);
  EXPECT_EQ(col->attempts, 2);
  EXPECT_EQ(rig.timeouts.value(), 2u);
  EXPECT_EQ(rig.retried.value(), 1u);
}

}  // namespace
}  // namespace pas::analysis
