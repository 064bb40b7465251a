#include "pas/util/subprocess.hpp"

#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pas/util/fs.hpp"
#include "test_scratch.hpp"

namespace pas::util {
namespace {

TEST(Subprocess, ExitCodeRoundTrips) {
  const Subprocess::Result ok = Subprocess::call([] { return 0; }, 10.0);
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.exited);
  EXPECT_EQ(ok.exit_code, 0);
  EXPECT_FALSE(ok.signaled);
  EXPECT_FALSE(ok.timed_out);

  const Subprocess::Result seven = Subprocess::call([] { return 7; }, 10.0);
  EXPECT_FALSE(seven.ok());
  EXPECT_TRUE(seven.exited);
  EXPECT_EQ(seven.exit_code, 7);
}

TEST(Subprocess, SignalDeathIsClassified) {
  const Subprocess::Result res = Subprocess::call(
      [] {
        ::raise(SIGKILL);
        return 0;
      },
      10.0);
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.signaled);
  EXPECT_EQ(res.term_signal, SIGKILL);
  EXPECT_FALSE(res.timed_out);
  // The supervisor surfaces describe() in fail-soft RunRecords, and
  // the SIGKILL case must point at the OOM killer as a suspect.
  EXPECT_NE(res.describe().find("signal 9"), std::string::npos)
      << res.describe();
}

TEST(Subprocess, DeadlineKillSetsTimedOut) {
  const Subprocess::Result res = Subprocess::call(
      [] {
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
        return 0;
      },
      0.2);
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.timed_out);
  EXPECT_TRUE(res.signaled);
  EXPECT_EQ(res.term_signal, SIGKILL);
}

TEST(Subprocess, ThrownExceptionBecomesExit125) {
  const Subprocess::Result res = Subprocess::call(
      []() -> int { throw std::runtime_error("child blew up"); }, 10.0);
  EXPECT_TRUE(res.exited);
  EXPECT_EQ(res.exit_code, 125);
}

TEST(Subprocess, DestructorReapsARunningChild) {
  pid_t pid = -1;
  {
    Subprocess::Handle h = Subprocess::spawn([] {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
      return 0;
    });
    ASSERT_TRUE(h.running());
    pid = h.pid();
  }
  // The handle's destructor SIGKILLed and reaped the child: the pid
  // must be gone (kill(pid, 0) fails, and not with EPERM).
  EXPECT_NE(::kill(pid, 0), 0);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Subprocess, WaitAnyReturnsOnExitNotAtTheTimeout) {
  Subprocess::Handle h = Subprocess::spawn([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return 4;
  });
  const auto t0 = std::chrono::steady_clock::now();
  while (!h.poll()) Subprocess::wait_any({&h}, 60.0);
  EXPECT_LT(seconds_since(t0), 30.0);
  EXPECT_EQ(h.result().exit_code, 4);

  // wait() with no deadline blocks on the child itself.
  Subprocess::Handle g = Subprocess::spawn([] { return 6; });
  const Subprocess::Result res = g.wait();
  EXPECT_TRUE(res.exited);
  EXPECT_EQ(res.exit_code, 6);
}

TEST(Subprocess, WakeupInterruptsAWaitAndCoalesces) {
  Wakeup bell;
  // A ring from another thread ends a wait that has no children.
  std::thread ringer([&bell] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bell.notify();
  });
  auto t0 = std::chrono::steady_clock::now();
  Subprocess::wait_any({}, 60.0, &bell);
  EXPECT_LT(seconds_since(t0), 30.0);
  ringer.join();

  // Rings before the wait make it return at once; they coalesce, so the
  // wait after that sleeps until its own timeout.
  bell.notify();
  bell.notify();
  t0 = std::chrono::steady_clock::now();
  Subprocess::wait_any({}, 60.0, &bell);
  EXPECT_LT(seconds_since(t0), 30.0);
  t0 = std::chrono::steady_clock::now();
  Subprocess::wait_any({}, 0.05, &bell);
  EXPECT_GE(seconds_since(t0), 0.04);
}

// A spawned child dies with its parent. A helper process (so this
// process keeps its own attributes) becomes a subreaper, forks an
// intermediate that spawns a 60 s sleeper and reports its pid, then
// SIGKILLs the intermediate: the orphaned sleeper, re-parented to the
// helper, must be reaped within 5 s, killed by SIGKILL.
TEST(Subprocess, ChildDiesWithItsParent) {
  const Subprocess::Result res = Subprocess::call([]() -> int {
    if (::prctl(PR_SET_CHILD_SUBREAPER, 1) != 0) return 10;
    int fds[2];
    if (::pipe(fds) != 0) return 11;
    const pid_t mid = ::fork();
    if (mid < 0) return 12;
    if (mid == 0) {
      ::close(fds[0]);
      Subprocess::Handle sleeper = Subprocess::spawn([] {
        std::this_thread::sleep_for(std::chrono::seconds(60));
        return 0;
      });
      const pid_t pid = sleeper.pid();
      if (::write(fds[1], &pid, sizeof pid) != sizeof pid) _exit(1);
      for (;;) ::pause();
    }
    ::close(fds[1]);
    pid_t sleeper = -1;
    const bool told = ::read(fds[0], &sleeper, sizeof sleeper) ==
                          static_cast<ssize_t>(sizeof sleeper) &&
                      sleeper > 0;
    ::kill(mid, SIGKILL);
    ::waitpid(mid, nullptr, 0);
    if (!told) return 13;
    // Re-parenting is asynchronous: until it lands, waitpid says ECHILD.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    int status = 0;
    while (::waitpid(sleeper, &status, WNOHANG) != sleeper) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(sleeper, SIGKILL);
        ::waitpid(sleeper, nullptr, 0);
        return 14;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL ? 0 : 15;
  }, 30.0);
  EXPECT_TRUE(res.ok()) << res.describe();
}

TEST(Subprocess, PollIsNonBlockingAndConverges) {
  Subprocess::Handle h = Subprocess::spawn([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return 3;
  });
  ASSERT_TRUE(h.running());
  while (!h.poll())
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(h.result().exited);
  EXPECT_EQ(h.result().exit_code, 3);
}

// --- WorkerPool ----------------------------------------------------------

/// A pool whose workers write their pid to the file a request names,
/// then die by SIGKILL when the name ends in ".die" and hang when it
/// ends in ".hang". Workers close inherited descriptors, so files are
/// their only way out.
WorkerPool pid_pool() {
  return WorkerPool([](const std::string& path) {
    atomic_write_file(path, std::to_string(::getpid()));
    if (path.size() > 4 && path.compare(path.size() - 4, 4, ".die") == 0)
      ::raise(SIGKILL);
    if (path.size() > 5 && path.compare(path.size() - 5, 5, ".hang") == 0)
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  });
}

std::string pool_dir(const std::string& name) {
  const std::string dir = pas::test::scratch_path("pasim_worker_pool/" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Sleeps in the pool until it reports at least one ended job.
std::vector<WorkerPool::Event> next_events(WorkerPool& pool) {
  for (;;) {
    std::vector<WorkerPool::Event> events = pool.poll();
    if (!events.empty()) return events;
    pool.wait(-1.0);
  }
}

pid_t pid_in(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  return text ? static_cast<pid_t>(std::stol(*text)) : -1;
}

TEST(WorkerPool, OneWorkerRunsJobAfterJobWithoutAFork) {
  const std::string dir = pool_dir("reuse");
  WorkerPool pool = pid_pool();
  EXPECT_EQ(pool.workers(), 0u);  // workers start on demand
  for (int i = 0; i < 3; ++i) {
    const std::string path = dir + "/job" + std::to_string(i);
    const int job = pool.submit(path);
    const std::vector<WorkerPool::Event> events = next_events(pool);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].job, job);
    EXPECT_TRUE(events[0].done);
    EXPECT_EQ(pool.workers(), 1u);
  }
  const pid_t first = pid_in(dir + "/job0");
  EXPECT_GT(first, 0);
  EXPECT_NE(first, ::getpid());
  EXPECT_EQ(pid_in(dir + "/job1"), first);
  EXPECT_EQ(pid_in(dir + "/job2"), first);
}

TEST(WorkerPool, ADeadWorkerEndsItsJobAndIsReplaced) {
  const std::string dir = pool_dir("replace");
  WorkerPool pool = pid_pool();
  const int doomed = pool.submit(dir + "/a.die");
  std::vector<WorkerPool::Event> events = next_events(pool);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].job, doomed);
  EXPECT_FALSE(events[0].done);
  EXPECT_TRUE(events[0].result.started);
  EXPECT_TRUE(events[0].result.signaled);
  EXPECT_EQ(events[0].result.term_signal, SIGKILL);
  EXPECT_EQ(pool.workers(), 0u);

  const int next = pool.submit(dir + "/b");
  events = next_events(pool);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].job, next);
  EXPECT_TRUE(events[0].done);
  EXPECT_NE(pid_in(dir + "/b"), pid_in(dir + "/a.die"));
}

TEST(WorkerPool, KillEndsABusyJobAndTheDestructorReapsEveryWorker) {
  const std::string dir = pool_dir("kill");
  pid_t idle = -1, hung = -1;
  {
    WorkerPool pool = pid_pool();
    pool.submit(dir + "/idle");
    ASSERT_TRUE(next_events(pool)[0].done);
    const int a = pool.submit(dir + "/a.hang");  // the idle worker takes it
    const int b = pool.submit(dir + "/b.hang");  // a second worker is forked
    EXPECT_EQ(pool.workers(), 2u);
    const auto t0 = std::chrono::steady_clock::now();
    while ((pid_in(dir + "/a.hang") <= 0 || pid_in(dir + "/b.hang") <= 0) &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(60))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    idle = pid_in(dir + "/idle");
    hung = pid_in(dir + "/b.hang");
    ASSERT_GT(hung, 0) << "the second worker never started";
    EXPECT_EQ(pid_in(dir + "/a.hang"), idle);

    pool.kill(a);
    const std::vector<WorkerPool::Event> events = next_events(pool);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].job, a);
    EXPECT_TRUE(events[0].result.signaled);
    EXPECT_EQ(events[0].result.term_signal, SIGKILL);
    // Reaped by the zygote before it reported: not even a zombie.
    EXPECT_NE(::kill(idle, 0), 0);
    (void)b;
  }
  // The pool's end took the still-busy worker along, reaped.
  EXPECT_NE(::kill(hung, 0), 0);
}

}  // namespace
}  // namespace pas::util
