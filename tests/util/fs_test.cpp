#include "pas/util/fs.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <filesystem>
#include <string>

#include "pas/util/subprocess.hpp"
#include "test_scratch.hpp"

namespace pas::util {
namespace {

std::string temp_path(const std::string& name) {
  const std::string dir = pas::test::scratch_path("pasim_fs_test");
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

TEST(Fnv1a, MatchesPublishedConstants) {
  // Offset basis and a couple of spot checks. The journal schema
  // checker (scripts/check_journal_schema.py) re-implements these
  // exact constants, so any drift breaks cross-validation.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a("pasim"), fnv1a("pasin"));
}

TEST(AtomicWriteFile, RoundTripsAndReplaces) {
  const std::string path = temp_path("atomic.txt");
  ASSERT_EQ(atomic_write_file(path, "first\n"), 0);
  EXPECT_EQ(read_file(path), std::optional<std::string>("first\n"));
  ASSERT_EQ(atomic_write_file(path, "second\n"), 0);
  EXPECT_EQ(read_file(path), std::optional<std::string>("second\n"));
  // No temp file may survive a successful publish.
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::path(path).parent_path()))
    EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
        << e.path();
}

TEST(AtomicWriteFile, FailureLeavesOldBytesAndNoTempFile) {
  const std::string path = temp_path("atomic_keep.txt");
  ASSERT_EQ(atomic_write_file(path, "precious\n"), 0);
  set_write_fault_after(0);  // every durable write now gets ENOSPC
  EXPECT_EQ(atomic_write_file(path, "lost\n"), ENOSPC);
  set_write_fault_after(-1);
  EXPECT_EQ(read_file(path), std::optional<std::string>("precious\n"));
}

TEST(AppendDurable, AppendsAreCumulative) {
  const std::string path = temp_path("journal_like.txt");
  std::filesystem::remove(path);
  ASSERT_EQ(append_durable(path, "one\n"), 0);
  ASSERT_EQ(append_durable(path, "two\n"), 0);
  EXPECT_EQ(read_file(path), std::optional<std::string>("one\ntwo\n"));
}

TEST(WriteFaultInjection, BudgetCountsDownThenFails) {
  const std::string path = temp_path("budget.txt");
  set_write_fault_after(2);
  EXPECT_EQ(append_durable(path, "a"), 0);
  EXPECT_EQ(append_durable(path, "b"), 0);
  EXPECT_EQ(append_durable(path, "c"), ENOSPC);
  EXPECT_EQ(atomic_write_file(path, "d"), ENOSPC);
  set_write_fault_after(-1);
  EXPECT_EQ(append_durable(path, "e"), 0);
}

TEST(ReadFile, MissingFileIsNullopt) {
  EXPECT_FALSE(read_file(temp_path("does_not_exist")).has_value());
}

TEST(FileLock, ExcludesWithinAProcess) {
  const std::string path = temp_path("lock_a");
  FileLock held = FileLock::acquire(path);
  ASSERT_TRUE(held.held());
  // flock exclusion is per open file description, so a second fd in
  // the same process contends exactly like another process would.
  EXPECT_FALSE(FileLock::try_acquire(path).has_value());
  held.release();
  EXPECT_TRUE(FileLock::try_acquire(path).has_value());
}

TEST(FileLock, DiesWithItsHolder) {
  // Stale-lock recovery: a child takes the lock and SIGKILLs itself
  // while holding it. The kernel releases flock locks with the owning
  // process, so the parent must acquire immediately — no timeout, no
  // PID-file cleanup, no hang.
  const std::string path = temp_path("lock_stale");
  const Subprocess::Result res = Subprocess::call(
      [&path]() {
        const FileLock lock = FileLock::acquire(path);
        if (!lock.held()) return 1;
        ::raise(SIGKILL);
        return 2;  // unreachable
      },
      /*timeout_s=*/30.0);
  ASSERT_TRUE(res.signaled);
  EXPECT_EQ(res.term_signal, SIGKILL);
  const std::optional<FileLock> reclaimed = FileLock::try_acquire(path);
  EXPECT_TRUE(reclaimed.has_value());
}

TEST(FileLock, MoveTransfersOwnership) {
  const std::string path = temp_path("lock_move");
  FileLock a = FileLock::acquire(path);
  ASSERT_TRUE(a.held());
  FileLock b = std::move(a);
  EXPECT_FALSE(a.held());
  EXPECT_TRUE(b.held());
  EXPECT_FALSE(FileLock::try_acquire(path).has_value());
}

}  // namespace
}  // namespace pas::util
