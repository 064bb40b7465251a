// SweepJournal under threads (DESIGN.md §12–13): a server's connection
// threads and its scheduler share one journal handle — its read cursor
// and its index — while another handle (a worker) appends. Thread-only
// on purpose, so tier-1 can run it under ThreadSanitizer; the fork-based
// journal tests live in robustness_test.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "pas/analysis/sweep_journal.hpp"
#include "pas/util/format.hpp"
#include "test_scratch.hpp"

namespace pas::analysis {
namespace {

RunRecord record_of(int i) {
  RunRecord r;
  r.nodes = 1 + i % 8;
  r.frequency_mhz = 600.0 + i;
  r.seconds = 0.5 + i * 0.25;
  r.verified = true;
  r.attempts = 1;
  return r;
}

std::string key_of(int i) { return pas::util::strf("v5|point-%d", i); }

TEST(SweepJournalConcurrency, ReadersRefreshAndFindWhileAnotherHandleAppends) {
  const std::string dir =
      pas::test::scratch_path("pasim_journal_concurrency_test");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/shared.journal";
  std::filesystem::remove(path);

  SweepJournal shared(path, /*resume=*/false);
  SweepJournal writer(path, SweepJournal::Mode::kAttach);
  constexpr int kRecords = 120;
  constexpr int kReaders = 4;
  std::atomic<int> appended{0};
  std::atomic<int> misses{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (;;) {
        const int n = appended.load(std::memory_order_acquire);
        shared.refresh();
        // Every append that returned before this refresh began must be
        // findable once it returns, whichever thread read the frames.
        for (int i = 0; i < n; ++i) {
          const std::optional<RunRecord> rec = shared.find(key_of(i));
          if (!rec || rec->frequency_mhz != record_of(i).frequency_mhz)
            misses.fetch_add(1);
        }
        if (n == kRecords) return;
      }
    });
  }
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(writer.append(key_of(i), record_of(i)));
    appended.store(i + 1, std::memory_order_release);
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(misses.load(), 0);
  EXPECT_EQ(shared.entries(), static_cast<std::size_t>(kRecords));
  EXPECT_EQ(shared.refresh(), 0u);
}

}  // namespace
}  // namespace pas::analysis
