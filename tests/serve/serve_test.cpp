// pasim_serve end-to-end torture tests (DESIGN.md §13): broker
// cold/warm behavior, in-flight dedup of concurrent identical
// submissions, SIGKILLed workers mid-column (journaled points survive,
// unfinished members fail soft and are retried for real later), a
// restarted server answering from its predecessor's journal, and the
// byte-identity oracle — served records equal an offline
// SweepExecutor run of the same document, byte for byte through the
// cache encoding. Forks on purpose — excluded from TSan like the other
// fork-based binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "pas/analysis/run_cache.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/analysis/sweep_journal.hpp"
#include "pas/fault/fault.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/serve/broker.hpp"
#include "pas/serve/client.hpp"
#include "pas/serve/protocol.hpp"
#include "pas/serve/server.hpp"
#include "pas/util/json.hpp"
#include "test_scratch.hpp"

namespace pas::serve {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = pas::test::scratch_path("pasim_serve_test/" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

analysis::SweepSpec small_spec(const std::string& kernel = "FT") {
  analysis::SweepSpec spec;
  spec.kernel = kernel;
  spec.scale = "small";
  spec.nodes = {1, 2};
  spec.freqs_mhz = {600.0, 1000.0};
  return spec;
}

/// The oracle: an offline, single-process, uncached executor run of
/// the same document half.
std::vector<analysis::RunRecord> offline_records(
    const analysis::SweepSpec& document) {
  analysis::SweepSpec spec = document;
  spec.options.jobs = 1;
  spec.options.cache_dir.clear();
  spec.options.journal_path.clear();
  spec.options.resume = false;
  analysis::SweepExecutor exec(spec);
  return exec.run().records;
}

void expect_byte_identical(const std::vector<analysis::RunRecord>& got,
                           const std::vector<analysis::RunRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(analysis::RunCache::encode_record(got[i]),
              analysis::RunCache::encode_record(want[i]))
        << "record " << i;
  }
}

TEST(ServeBroker, ColdRunsThenWarmHitsAndMatchesOfflineBytes) {
  const std::string dir = temp_dir("cold_warm");
  BrokerOptions opts;
  opts.cache_dir = dir;
  opts.workers = 2;
  Broker broker(opts);
  const analysis::SweepSpec spec = small_spec();

  const Broker::SweepResult cold = broker.run(spec);
  ASSERT_EQ(cold.records.size(), 4u);
  EXPECT_EQ(cold.cache_hits, 0u);
  for (const analysis::RunRecord& rec : cold.records)
    EXPECT_FALSE(rec.failed()) << rec.error;

  const Broker::SweepResult warm = broker.run(spec);
  ASSERT_EQ(warm.records.size(), 4u);
  EXPECT_EQ(warm.cache_hits, 4u);
  for (char hit : warm.from_cache) EXPECT_TRUE(hit);

  const std::vector<analysis::RunRecord> offline = offline_records(spec);
  expect_byte_identical(cold.records, offline);
  expect_byte_identical(warm.records, offline);
}

TEST(ServeBroker, ConcurrentDuplicateSubmissionsShareColumns) {
  const std::string dir = temp_dir("dedup");
  BrokerOptions opts;
  opts.cache_dir = dir;
  opts.workers = 2;
  Broker broker(opts);
  const analysis::SweepSpec spec = small_spec("EP");

  // Freeze dispatch so every submission arrives before anything runs:
  // the first creates the columns, the rest must join them in flight.
  broker.set_hold(true);
  constexpr int kClients = 3;
  std::vector<Broker::SweepResult> results(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> arrived{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      results[i] = broker.run(spec);
    });
  }
  while (arrived.load() < kClients) std::this_thread::yield();
  // Brief grace so each run() past the atomic reaches the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  broker.set_hold(false);
  for (std::thread& t : threads) t.join();

  // 2 node columns; submissions 2 and 3 joined both of submission 1's
  // in-flight columns instead of enqueueing their own.
  std::uint64_t dedup_total = 0;
  for (const Broker::SweepResult& r : results) {
    ASSERT_EQ(r.records.size(), 4u);
    for (const analysis::RunRecord& rec : r.records)
      EXPECT_FALSE(rec.failed()) << rec.error;
    dedup_total += r.dedup_hits;
  }
  EXPECT_EQ(dedup_total, 4u);
  expect_byte_identical(results[1].records, results[0].records);
  expect_byte_identical(results[2].records, results[0].records);
}

TEST(ServeBroker, SigkilledWorkersResumePastJournaledPoints) {
  const std::string dir = temp_dir("sigkill_resume");
  BrokerOptions opts;
  opts.cache_dir = dir;
  opts.workers = 1;
  opts.worker_retries = 3;
  Broker broker(opts);
  const analysis::SweepSpec spec = small_spec();

  // Every forked worker SIGKILLs itself right after its first journal
  // append (children inherit the armed counter at fork; the parent
  // never appends, so it stays armed for every re-fork). Each attempt
  // therefore lands exactly one more point — the column only finishes
  // because re-forked workers resume past journaled points.
  analysis::SweepJournal::set_crash_after_appends(1);
  const Broker::SweepResult result = broker.run(spec);
  analysis::SweepJournal::set_crash_after_appends(0);

  ASSERT_EQ(result.records.size(), 4u);
  for (const analysis::RunRecord& rec : result.records)
    EXPECT_FALSE(rec.failed()) << rec.error;
  expect_byte_identical(result.records, offline_records(spec));
}

TEST(ServeBroker, ExhaustedRetriesFailSoftAndHealOnResubmit) {
  const std::string dir = temp_dir("fail_soft");
  BrokerOptions opts;
  opts.cache_dir = dir;
  opts.workers = 1;
  opts.worker_retries = 0;  // one attempt per column, no re-forks
  Broker broker(opts);
  const analysis::SweepSpec spec = small_spec();

  analysis::SweepJournal::set_crash_after_appends(1);
  const Broker::SweepResult crashed = broker.run(spec);
  analysis::SweepJournal::set_crash_after_appends(0);

  // Each 2-point column landed one journaled point before its worker
  // died; the other member fails soft as kCrashed.
  ASSERT_EQ(crashed.records.size(), 4u);
  int ok = 0, failed = 0;
  for (const analysis::RunRecord& rec : crashed.records) {
    if (!rec.failed())
      ++ok;
    else {
      EXPECT_EQ(rec.status, analysis::RunStatus::kCrashed);
      ++failed;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(failed, 2);

  // Crash records were never journaled or cached: resubmitting runs
  // those points for real and the sweep heals to offline bytes.
  const Broker::SweepResult healed = broker.run(spec);
  ASSERT_EQ(healed.records.size(), 4u);
  EXPECT_EQ(healed.cache_hits, 2u);  // the two that did land
  expect_byte_identical(healed.records, offline_records(spec));
}

TEST(ServeBroker, JournalReplacedByAnOfflineSweepKeepsServing) {
  const std::string dir = temp_dir("journal_replaced");
  BrokerOptions opts;
  opts.cache_dir = dir + "/cache";
  opts.journal_path = dir + "/serve.journal";
  opts.workers = 1;
  Broker broker(opts);
  obs::Counter& crashes = obs::registry().counter("serve.worker_crashes");
  const std::uint64_t crashes0 = crashes.value();
  for (const analysis::RunRecord& rec : broker.run(small_spec("EP")).records)
    EXPECT_FALSE(rec.failed()) << rec.error;

  // An offline sweep without --resume publishes a fresh journal by
  // rename over the live server's and fills it.
  analysis::SweepSpec offline = small_spec("FT");
  offline.options.jobs = 1;
  offline.options.use_cache = false;
  offline.options.journal_path = opts.journal_path;
  offline.options.resume = false;
  analysis::SweepExecutor(offline).run();
  const auto offline_size = std::filesystem::file_size(opts.journal_path);

  // The next cold submission still reaches a healthy worker whose
  // results the server harvests from the new file...
  const analysis::SweepSpec next = small_spec("MG");
  const Broker::SweepResult cold = broker.run(next);
  for (const analysis::RunRecord& rec : cold.records)
    EXPECT_FALSE(rec.failed()) << rec.error;
  EXPECT_EQ(crashes.value(), crashes0);
  expect_byte_identical(cold.records, offline_records(next));
  // ... and not one byte of the offline sweep's journal was cut.
  EXPECT_GE(std::filesystem::file_size(opts.journal_path), offline_size);
  analysis::SweepJournal verify(opts.journal_path, /*resume=*/true);
  EXPECT_EQ(verify.entries(), 8u);
}

TEST(ServeBroker, UnwritableJournalIsRejectedAtConstruction) {
  const std::string dir = temp_dir("unwritable_journal");
  BrokerOptions opts;
  opts.cache_dir = dir + "/cache";
  // The journal's directory does not exist, so it cannot be created —
  // and the broker's workers report through nothing else.
  opts.journal_path = dir + "/missing/serve.journal";
  try {
    Broker broker(opts);
    FAIL() << "a broker started on a journal it could not create";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(opts.journal_path), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos) << what;
  }
}

TEST(ServeServer, EndToEndOverUnixSocketWithConcurrentClients) {
  const std::string dir = temp_dir("server_e2e");
  ServerOptions opts;
  opts.unix_socket = dir + "/serve.sock";
  opts.broker.cache_dir = dir + "/cache";
  opts.broker.workers = 2;
  opts.metrics_csv = dir + "/metrics.csv";
  Server server(opts);

  ClientOptions copts;
  copts.unix_socket = opts.unix_socket;
  ASSERT_TRUE(Client::wait_ready(copts, 10.0));

  Client probe(copts);
  EXPECT_TRUE(probe.ping());

  const analysis::SweepSpec spec = small_spec();
  constexpr int kClients = 3;
  std::vector<SweepReply> replies(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(copts);
      replies[i] = client.sweep(spec);
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<analysis::RunRecord> offline = offline_records(spec);
  for (const SweepReply& reply : replies) {
    ASSERT_EQ(reply.records.size(), 4u);
    expect_byte_identical(reply.records, offline);
  }

  // Warm pass: every point is a cache hit now.
  Client warm(copts);
  const SweepReply hit = warm.sweep(spec);
  EXPECT_EQ(hit.cache_hits, 4u);
  for (char c : hit.from_cache) EXPECT_TRUE(c);
  expect_byte_identical(hit.records, offline);

  const util::Json stats = probe.stats();
  ASSERT_TRUE(stats.is_object());
  EXPECT_GE(stats.find("journal_entries")->as_number(), 4.0);

  // A malformed line costs an error response, not the connection.
  Fd raw = connect_unix(opts.unix_socket);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_all(raw, "this is not json\n"));
  LineReader reader(raw);
  std::string line;
  ASSERT_TRUE(reader.next(&line));
  const util::Json err = util::Json::parse(line);
  EXPECT_FALSE(err.find("ok")->as_bool());
  ASSERT_TRUE(send_all(raw, "{\"op\":\"ping\"}\n"));
  ASSERT_TRUE(reader.next(&line));
  EXPECT_TRUE(util::Json::parse(line).find("ok")->as_bool());

  EXPECT_TRUE(probe.shutdown_server());
  EXPECT_TRUE(server.wait_for(10.0));
  server.stop();
  EXPECT_TRUE(std::filesystem::exists(opts.metrics_csv));
}

TEST(ServeServer, RestartedServerAnswersFromItsPredecessorsJournal) {
  const std::string dir = temp_dir("server_restart");
  ServerOptions opts;
  opts.unix_socket = dir + "/serve.sock";
  opts.broker.cache_dir = dir + "/cache";
  opts.broker.workers = 1;
  ClientOptions copts;
  copts.unix_socket = opts.unix_socket;

  // Every send is dropped with probability 0.5 and never retried, so
  // every point fails deterministically with kMessageLoss: journal
  // material, never cache material. Only the journal can answer them.
  analysis::SweepSpec spec = small_spec("EP");
  spec.nodes = {2, 4};
  spec.freqs_mhz = {600.0, 800.0, 1000.0};
  spec.fault = fault::FaultConfig{};
  spec.fault->message_drop_prob = 0.5;
  spec.fault->max_send_attempts = 1;
  const std::vector<analysis::RunRecord> offline = offline_records(spec);
  ASSERT_EQ(offline.size(), 6u);
  const auto expect_offline = [&offline](const SweepReply& reply) {
    ASSERT_EQ(reply.records.size(), offline.size());
    for (std::size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(reply.records[i].status, analysis::RunStatus::kMessageLoss)
          << "record " << i;
      EXPECT_EQ(reply.records[i].error, offline[i].error) << "record " << i;
      EXPECT_EQ(cas_encode_record(reply.records[i]),
                cas_encode_record(offline[i]))
          << "record " << i;
    }
  };

  {
    Server first(opts);
    ASSERT_TRUE(Client::wait_ready(copts, 10.0));
    Client client(copts);
    const SweepReply cold = client.sweep(spec);
    EXPECT_EQ(cold.cache_hits, 0u);
    expect_offline(cold);
    first.stop();
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(opts.broker.cache_dir))
    EXPECT_NE(entry.path().extension(), ".run") << entry.path();

  obs::Counter& columns = obs::registry().counter("serve.columns");
  const std::uint64_t columns0 = columns.value();
  Server second(opts);
  ASSERT_TRUE(Client::wait_ready(copts, 10.0));
  Client client(copts);
  const SweepReply warm = client.sweep(spec);
  EXPECT_EQ(warm.cache_hits, 6u);
  for (char hit : warm.from_cache) EXPECT_TRUE(hit);
  expect_offline(warm);
  EXPECT_EQ(columns.value(), columns0);
  second.stop();
}

TEST(ServeServer, RejectsInvalidSpecWithoutDying) {
  const std::string dir = temp_dir("server_reject");
  ServerOptions opts;
  opts.unix_socket = dir + "/serve.sock";
  opts.broker.cache_dir = dir + "/cache";
  Server server(opts);
  ClientOptions copts;
  copts.unix_socket = opts.unix_socket;
  ASSERT_TRUE(Client::wait_ready(copts, 10.0));

  Client client(copts);
  analysis::SweepSpec bad = small_spec();
  bad.kernel = "FT";
  Fd raw = connect_unix(opts.unix_socket);
  ASSERT_TRUE(raw.valid());
  // Hand-rolled sweep request with an invalid document.
  ASSERT_TRUE(send_all(
      raw, "{\"op\":\"sweep\",\"spec\":{\"version\":1,\"kernel\":\"XX\"}}\n"));
  LineReader reader(raw);
  std::string line;
  ASSERT_TRUE(reader.next(&line));
  EXPECT_FALSE(util::Json::parse(line).find("ok")->as_bool());

  // The server still answers real work afterwards.
  EXPECT_TRUE(client.ping());
  const SweepReply reply = client.sweep(small_spec("EP"));
  EXPECT_EQ(reply.records.size(), 4u);
  server.stop();
}

}  // namespace
}  // namespace pas::serve
