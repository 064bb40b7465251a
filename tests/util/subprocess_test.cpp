#include "pas/util/subprocess.hpp"

#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <stdexcept>
#include <string>
#include <thread>

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

}  // namespace
}  // namespace pas::util
