#include "pas/analysis/sweep_journal.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <string>

#include "pas/util/format.hpp"
#include "pas/util/fs.hpp"
#include "pas/util/subprocess.hpp"
#include "test_scratch.hpp"

namespace pas::analysis {
namespace {

std::string temp_journal(const std::string& name) {
  const std::string dir = pas::test::scratch_path("pasim_journal_test");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name;
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
  return path;
}

RunRecord sample_record(int nodes, double f) {
  RunRecord r;
  r.nodes = nodes;
  r.frequency_mhz = f;
  r.seconds = 1.25 + nodes * 0.5;
  r.mean_overhead_s = 0.03125;
  r.mean_cpu_s = 0.75;
  r.mean_memory_s = 0.125;
  r.verified = true;
  r.energy.cpu_j = 10.5;
  r.energy.memory_j = 2.25;
  r.energy.network_j = 0.5;
  r.energy.idle_j = 1.0;
  r.messages_per_rank = 42.0;
  r.doubles_per_message = 128.0;
  r.executed_per_rank.reg_ops = 1e6;
  r.executed_per_rank.l1_ops = 2e5;
  r.executed_per_rank.l2_ops = 3e4;
  r.executed_per_rank.mem_ops = 4e3;
  r.attempts = 2;
  r.send_retries = 3.0;
  return r;
}

void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.frequency_mhz, b.frequency_mhz);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.mean_overhead_s, b.mean_overhead_s);
  EXPECT_EQ(a.mean_cpu_s, b.mean_cpu_s);
  EXPECT_EQ(a.mean_memory_s, b.mean_memory_s);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.energy.cpu_j, b.energy.cpu_j);
  EXPECT_EQ(a.energy.memory_j, b.energy.memory_j);
  EXPECT_EQ(a.energy.network_j, b.energy.network_j);
  EXPECT_EQ(a.energy.idle_j, b.energy.idle_j);
  EXPECT_EQ(a.messages_per_rank, b.messages_per_rank);
  EXPECT_EQ(a.doubles_per_message, b.doubles_per_message);
  EXPECT_EQ(a.executed_per_rank.reg_ops, b.executed_per_rank.reg_ops);
  EXPECT_EQ(a.executed_per_rank.l1_ops, b.executed_per_rank.l1_ops);
  EXPECT_EQ(a.executed_per_rank.l2_ops, b.executed_per_rank.l2_ops);
  EXPECT_EQ(a.executed_per_rank.mem_ops, b.executed_per_rank.mem_ops);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.send_retries, b.send_retries);
}

TEST(SweepJournal, RoundTripsRecordsAcrossReopen) {
  const std::string path = temp_journal("roundtrip.journal");
  const RunRecord a = sample_record(2, 1000);
  RunRecord b = sample_record(4, 600);
  b.status = RunStatus::kNodeFailure;  // failed outcomes are journaled too
  b.error = "node 3 died\nwith a multi-line\tstory";
  b.verified = false;
  {
    SweepJournal w(path, /*resume=*/false);
    EXPECT_TRUE(w.append("v3|point-a", a));
    EXPECT_TRUE(w.append("v3|point-b", b));
    EXPECT_EQ(w.entries(), 2u);
  }
  SweepJournal r(path, /*resume=*/true);
  EXPECT_EQ(r.entries(), 2u);
  const auto got_a = r.find("v3|point-a");
  const auto got_b = r.find("v3|point-b");
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  expect_identical(*got_a, a);
  expect_identical(*got_b, b);
  EXPECT_FALSE(r.find("v3|point-c").has_value());
}

TEST(SweepJournal, AppendIsIdempotentPerKey) {
  const std::string path = temp_journal("idempotent.journal");
  SweepJournal j(path, false);
  ASSERT_TRUE(j.append("k", sample_record(1, 600)));
  const auto size_after_first = std::filesystem::file_size(path);
  ASSERT_TRUE(j.append("k", sample_record(1, 600)));
  EXPECT_EQ(std::filesystem::file_size(path), size_after_first);
  EXPECT_EQ(j.entries(), 1u);
}

TEST(SweepJournal, FreshOpenDiscardsExistingRecords) {
  const std::string path = temp_journal("fresh.journal");
  {
    SweepJournal w(path, false);
    w.append("old", sample_record(1, 600));
  }
  SweepJournal fresh(path, /*resume=*/false);
  EXPECT_EQ(fresh.entries(), 0u);
  EXPECT_FALSE(fresh.find("old").has_value());
}

TEST(SweepJournal, TornTailIsTruncatedOnResume) {
  const std::string path = temp_journal("torn.journal");
  {
    SweepJournal w(path, false);
    w.append("good-1", sample_record(1, 600));
    w.append("good-2", sample_record(2, 800));
  }
  const auto intact_size = std::filesystem::file_size(path);
  // A crashed writer left half a frame: header promising more payload
  // bytes than exist.
  pas::util::append_durable(path, "J 9999 0123456789abcdef\nkey v3|half");
  ASSERT_GT(std::filesystem::file_size(path), intact_size);

  SweepJournal r(path, /*resume=*/true);
  EXPECT_EQ(r.entries(), 2u);
  EXPECT_TRUE(r.find("good-1").has_value());
  // repair_tail cut the garbage, so the file is byte-identical to the
  // pre-crash journal and future appends are reachable.
  EXPECT_EQ(std::filesystem::file_size(path), intact_size);
  SweepJournal again(path, true);
  EXPECT_TRUE(again.append("good-3", sample_record(4, 1000)));
  SweepJournal verify(path, true);
  EXPECT_EQ(verify.entries(), 3u);
}

TEST(SweepJournal, BitFlipStopsHarvestAtTheBadFrame) {
  const std::string path = temp_journal("bitflip.journal");
  {
    SweepJournal w(path, false);
    w.append("frame-1", sample_record(1, 600));
    w.append("frame-2", sample_record(2, 800));
  }
  // Flip one payload byte of the LAST frame (safely past frame 1).
  auto bytes = pas::util::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  std::string mutated = *bytes;
  mutated[mutated.size() - 2] ^= 0x40;
  ASSERT_EQ(pas::util::atomic_write_file(path, mutated), 0);

  SweepJournal r(path, /*resume=*/true);
  // The checksum catches the flip; the bad frame (and anything after
  // it) is dropped and truncated, the prefix survives.
  EXPECT_EQ(r.entries(), 1u);
  EXPECT_TRUE(r.find("frame-1").has_value());
  EXPECT_FALSE(r.find("frame-2").has_value());
  EXPECT_LT(std::filesystem::file_size(path), mutated.size());
}

TEST(SweepJournal, NonJournalFileIsReplacedNotTrusted) {
  const std::string path = temp_journal("imposter.journal");
  ASSERT_EQ(pas::util::atomic_write_file(path, "this is not a journal\n"), 0);
  SweepJournal r(path, /*resume=*/true);
  EXPECT_EQ(r.entries(), 0u);
  EXPECT_TRUE(r.append("k", sample_record(1, 600)));
  SweepJournal verify(path, true);
  EXPECT_EQ(verify.entries(), 1u);
}

TEST(SweepJournal, RefreshHarvestsAnotherProcessesAppends) {
  const std::string path = temp_journal("cross_process.journal");
  SweepJournal parent(path, /*resume=*/false);
  ASSERT_TRUE(parent.append("parent-point", sample_record(1, 600)));

  // An isolated worker appends to the same file from its own process —
  // exactly the supervisor's harvest path.
  const pas::util::Subprocess::Result res = pas::util::Subprocess::call(
      [&path]() {
        SweepJournal child(path, /*resume=*/true);
        RunRecord r = sample_record(8, 1400);
        r.error = "";
        return child.append("child-point", r) ? 0 : 1;
      },
      /*timeout_s=*/30.0);
  ASSERT_TRUE(res.ok()) << res.describe();

  EXPECT_FALSE(parent.find("child-point").has_value());
  EXPECT_EQ(parent.refresh(), 1u);
  const auto got = parent.find("child-point");
  ASSERT_TRUE(got.has_value());
  expect_identical(*got, sample_record(8, 1400));
  EXPECT_TRUE(parent.find("parent-point").has_value());
}

TEST(SweepJournal, RefreshReadsOnlyTheNewFrames) {
  const std::string path = temp_journal("incremental.journal");
  SweepJournal reader(path, /*resume=*/false);
  SweepJournal writer(path, /*resume=*/true);
  for (int i = 0; i < 40; ++i)
    ASSERT_TRUE(writer.append(pas::util::strf("old-%d", i),
                              sample_record(1 + i % 4, 600)));
  ASSERT_EQ(reader.refresh(), 40u);

  // An idle refresh reads no frame bytes at all.
  const std::uint64_t before = reader.bytes_read();
  const auto size_before = std::filesystem::file_size(path);
  EXPECT_EQ(reader.refresh(), 0u);
  EXPECT_EQ(reader.bytes_read(), before);

  // After K appends from another handle, a refresh reads exactly their
  // frames — not the 40 it already parsed.
  constexpr int kNew = 3;
  for (int i = 0; i < kNew; ++i)
    ASSERT_TRUE(writer.append(pas::util::strf("new-%d", i),
                              sample_record(8, 1400)));
  EXPECT_EQ(reader.refresh(), static_cast<std::size_t>(kNew));
  EXPECT_EQ(reader.bytes_read() - before,
            std::filesystem::file_size(path) - size_before);
  EXPECT_TRUE(reader.find("new-2").has_value());
  EXPECT_EQ(reader.refresh(), 0u);
  EXPECT_EQ(reader.bytes_read() - before,
            std::filesystem::file_size(path) - size_before);
}

TEST(SweepJournal, AttachedWorkerDecodesNoHistoryAndIsHarvested) {
  const std::string path = temp_journal("attach.journal");
  SweepJournal supervisor(path, /*resume=*/false);
  constexpr int kHistory = 25;
  for (int i = 0; i < kHistory; ++i)
    ASSERT_TRUE(supervisor.append(pas::util::strf("history-%d", i),
                                  sample_record(2, 600 + i)));
  supervisor.refresh();  // cursor to the end of the history
  const std::uint64_t before = supervisor.bytes_read();
  const auto size_before = std::filesystem::file_size(path);

  // A supervised worker attaches in its own process: it reads and
  // indexes none of the history, and appends what it was handed.
  const pas::util::Subprocess::Result res = pas::util::Subprocess::call(
      [&path]() {
        SweepJournal worker(path, SweepJournal::Mode::kAttach);
        if (worker.entries() != 0 || worker.bytes_read() != 0) return 2;
        if (worker.find("history-0").has_value()) return 3;
        return worker.append("worker-point", sample_record(8, 1400)) ? 0 : 1;
      },
      /*timeout_s=*/30.0);
  ASSERT_TRUE(res.ok()) << res.describe();

  EXPECT_EQ(supervisor.refresh(), 1u);
  const auto got = supervisor.find("worker-point");
  ASSERT_TRUE(got.has_value());
  expect_identical(*got, sample_record(8, 1400));
  EXPECT_EQ(supervisor.bytes_read() - before,
            std::filesystem::file_size(path) - size_before);
  EXPECT_EQ(supervisor.entries(), static_cast<std::size_t>(kHistory + 1));
}

TEST(SweepJournal, ReplacedFileIsReReadAndNeverTruncated) {
  const std::string path = temp_journal("replaced.journal");
  // A long-lived reader (a server) has parsed two frames of the file.
  SweepJournal server(path, /*resume=*/true);
  ASSERT_TRUE(server.append("served-a", sample_record(1, 600)));
  ASSERT_TRUE(server.append("served-bb", sample_record(2, 800)));
  server.refresh();

  // A sweep without --resume publishes a fresh journal by rename and
  // fills it while the server lives on.
  {
    SweepJournal offline(path, /*resume=*/false);
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE(offline.append(pas::util::strf("offline-point-%d", i),
                                 sample_record(4, 1000 + 100 * i)));
  }
  const auto offline_size = std::filesystem::file_size(path);

  // The server notices the new file and reads it from its first frame,
  // instead of parsing it from the old file's offset.
  EXPECT_EQ(server.refresh(), 5u);
  EXPECT_TRUE(server.find("offline-point-0").has_value());
  EXPECT_TRUE(server.find("offline-point-4").has_value());
  EXPECT_TRUE(server.find("served-a").has_value());
  // Nothing of the new file is torn: repair must not cut a byte of it.
  server.repair_tail();
  EXPECT_EQ(std::filesystem::file_size(path), offline_size);
  SweepJournal verify(path, /*resume=*/true);
  EXPECT_EQ(verify.entries(), 5u);
}

TEST(SweepJournal, FileCutBelowTheCursorIsReReadFromItsFirstFrame) {
  const std::string path = temp_journal("cut.journal");
  SweepJournal writer(path, /*resume=*/false);
  ASSERT_TRUE(writer.append("keep", sample_record(1, 600)));
  const auto one_frame = std::filesystem::file_size(path);
  ASSERT_TRUE(writer.append("cut-1", sample_record(2, 800)));
  ASSERT_TRUE(writer.append("cut-2", sample_record(4, 1000)));
  SweepJournal reader(path, /*resume=*/true);
  ASSERT_EQ(reader.entries(), 3u);

  // Cut in place (same inode) below the reader's cursor, then grow the
  // file again with frames the reader has never seen.
  std::filesystem::resize_file(path, one_frame);
  EXPECT_EQ(reader.refresh(), 0u);
  SweepJournal other(path, /*resume=*/true);
  ASSERT_TRUE(other.append("later-point", sample_record(8, 1400)));
  ASSERT_TRUE(other.append("latest-point", sample_record(8, 1200)));
  EXPECT_EQ(reader.refresh(), 2u);
  EXPECT_TRUE(reader.find("later-point").has_value());
  EXPECT_TRUE(reader.find("latest-point").has_value());
}

TEST(SweepJournal, CrashAfterAppendsKillsTheArmedProcess) {
  const std::string path = temp_journal("crash_hook.journal");
  const pas::util::Subprocess::Result res = pas::util::Subprocess::call(
      [&path]() {
        SweepJournal j(path, false);
        SweepJournal::set_crash_after_appends(2);
        j.append("one", sample_record(1, 600));
        j.append("two", sample_record(2, 800));  // dies here
        j.append("three", sample_record(4, 1000));
        return 0;
      },
      /*timeout_s=*/30.0);
  ASSERT_TRUE(res.signaled);
  EXPECT_EQ(res.term_signal, SIGKILL);
  // Both appends before the kill are durable; the third never ran.
  SweepJournal r(path, /*resume=*/true);
  EXPECT_EQ(r.entries(), 2u);
  EXPECT_TRUE(r.find("two").has_value());
  EXPECT_FALSE(r.find("three").has_value());
}

TEST(SweepJournal, CrashMidAppendLeavesRepairableTornTail) {
  const std::string path = temp_journal("crash_mid.journal");
  const pas::util::Subprocess::Result res = pas::util::Subprocess::call(
      [&path]() {
        SweepJournal j(path, false);
        j.append("whole", sample_record(1, 600));
        SweepJournal::set_crash_mid_append(1);
        j.append("torn", sample_record(2, 800));  // dies mid-frame
        return 0;
      },
      /*timeout_s=*/30.0);
  ASSERT_TRUE(res.signaled);
  EXPECT_EQ(res.term_signal, SIGKILL);
  SweepJournal r(path, /*resume=*/true);
  EXPECT_EQ(r.entries(), 1u);
  EXPECT_TRUE(r.find("whole").has_value());
  EXPECT_FALSE(r.find("torn").has_value());
}

}  // namespace
}  // namespace pas::analysis
