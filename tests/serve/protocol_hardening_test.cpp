// Protocol hardening for the pasim_serve line protocol (DESIGN.md §13,
// §15): a hostile or confused peer costs an error line (or, when
// framing itself is lost, one connection) — never the server, never a
// poisoned journal. Covers oversized frames, unknown ops, and every
// malformed-cas.put shape a bad peer can send: missing members, wrong
// kind, checksum mismatch, checksummed garbage, and a correctly
// checksummed record carrying an environmental (crash) status.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "pas/analysis/run_cache.hpp"
#include "pas/serve/client.hpp"
#include "pas/serve/protocol.hpp"
#include "pas/serve/server.hpp"
#include "pas/serve/socket.hpp"
#include "pas/util/json.hpp"

namespace pas::serve {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/pasim_hardening/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A server on a Unix socket plus a raw line-protocol connection to it.
struct Harness {
  explicit Harness(const std::string& dir)
      : opts(make_opts(dir)), server(opts) {
    ClientOptions copts;
    copts.unix_socket = opts.unix_socket;
    EXPECT_TRUE(Client::wait_ready(copts, 10.0));
  }

  static ServerOptions make_opts(const std::string& dir) {
    ServerOptions o;
    o.unix_socket = dir + "/serve.sock";
    o.broker.cache_dir = dir + "/cache";
    return o;
  }

  Fd connect() const { return connect_unix(opts.unix_socket); }

  /// One request line in, one response line out (parsed).
  util::Json round_trip(const Fd& conn, LineReader& reader,
                        const std::string& line) const {
    EXPECT_TRUE(send_all(conn, line + "\n"));
    std::string reply;
    EXPECT_TRUE(reader.next(&reply));
    return util::Json::parse(reply);
  }

  std::size_t journal_entries() { return server.broker().journal_entries(); }

  ServerOptions opts;
  Server server;
};

bool is_error(const util::Json& reply) {
  const util::Json* ok = reply.find("ok");
  return ok != nullptr && ok->is_bool() && !ok->as_bool();
}

TEST(ServeHardening, OversizedFrameCostsTheConnectionNotTheServer) {
  Harness h(temp_dir("oversized"));
  Fd conn = h.connect();
  ASSERT_TRUE(conn.valid());

  // One "line" past the 8 MiB frame cap, never newline-terminated.
  // The server's LineReader gives up on the stream (framing is lost —
  // there is no way to resynchronize), so the connection dies; the
  // send may also fail part-way once the server shuts the socket.
  const std::string flood(kMaxLineBytes + (1u << 20), 'x');
  send_all(conn, flood);
  LineReader reader(conn);
  std::string line;
  EXPECT_FALSE(reader.next(&line));  // EOF, not a reply

  // The listener is unharmed: a fresh connection works immediately.
  Fd again = h.connect();
  ASSERT_TRUE(again.valid());
  LineReader reader2(again);
  const util::Json pong = h.round_trip(again, reader2, "{\"op\":\"ping\"}");
  EXPECT_TRUE(pong.find("ok")->as_bool());
}

TEST(ServeHardening, UnknownOpIsAnErrorLineOnALiveConnection) {
  Harness h(temp_dir("unknown_op"));
  Fd conn = h.connect();
  ASSERT_TRUE(conn.valid());
  LineReader reader(conn);

  EXPECT_TRUE(is_error(h.round_trip(conn, reader, "{\"op\":\"cas.del\"}")));
  // Missing / mistyped op members are equally survivable.
  EXPECT_TRUE(is_error(h.round_trip(conn, reader, "{\"op\":7}")));
  EXPECT_TRUE(is_error(h.round_trip(conn, reader, "{}")));
  EXPECT_TRUE(is_error(h.round_trip(conn, reader, "[1,2,3]")));

  // Same connection, still in protocol.
  EXPECT_TRUE(h.round_trip(conn, reader, "{\"op\":\"ping\"}")
                  .find("ok")
                  ->as_bool());
}

TEST(ServeHardening, CasGetValidatesMembersAndMissesCleanly) {
  Harness h(temp_dir("cas_get"));
  Fd conn = h.connect();
  ASSERT_TRUE(conn.valid());
  LineReader reader(conn);

  EXPECT_TRUE(is_error(h.round_trip(conn, reader, "{\"op\":\"cas.get\"}")));
  EXPECT_TRUE(is_error(h.round_trip(
      conn, reader, "{\"op\":\"cas.get\",\"kind\":\"record\",\"key\":3}")));

  // An unknown key is a miss, not an error — and an unknown kind too.
  util::Json miss = h.round_trip(
      conn, reader,
      "{\"op\":\"cas.get\",\"kind\":\"record\",\"key\":\"no-such-key\"}");
  EXPECT_TRUE(miss.find("ok")->as_bool());
  EXPECT_FALSE(miss.find("hit")->as_bool());
  miss = h.round_trip(
      conn, reader,
      "{\"op\":\"cas.get\",\"kind\":\"checkpoint\",\"key\":\"k\"}");
  EXPECT_TRUE(miss.find("ok")->as_bool());
  EXPECT_FALSE(miss.find("hit")->as_bool());
}

TEST(ServeHardening, MalformedCasPutNeverReachesTheJournal) {
  Harness h(temp_dir("cas_put"));
  Fd conn = h.connect();
  ASSERT_TRUE(conn.valid());
  LineReader reader(conn);

  auto put = [&](const std::string& payload, const std::string& sum) {
    util::Json req = util::Json::object();
    req.set("op", util::Json("cas.put"));
    req.set("kind", util::Json("record"));
    req.set("key", util::Json("some-key"));
    req.set("payload", util::Json(payload));
    req.set("sum", util::Json(sum));
    return h.round_trip(conn, reader, req.dump());
  };

  // Missing payload/sum members.
  EXPECT_TRUE(is_error(h.round_trip(
      conn, reader,
      "{\"op\":\"cas.put\",\"kind\":\"record\",\"key\":\"k\"}")));
  // Only records may be pushed.
  EXPECT_TRUE(is_error(h.round_trip(
      conn, reader,
      "{\"op\":\"cas.put\",\"kind\":\"ledger\",\"key\":\"k\","
      "\"payload\":\"x\",\"sum\":\"0\"}")));
  // Checksum mismatch: the canonical corruption case.
  EXPECT_TRUE(is_error(put("plausible payload", "0000000000000000")));
  // Correct checksum over garbage that does not decode as a record.
  const std::string garbage = "not a record at all";
  EXPECT_TRUE(is_error(put(garbage, cas_checksum(garbage))));
  // ... or over bare encode_record bytes missing the status framing —
  // an unframed record cannot prove it was not a failure.
  analysis::RunRecord crashed;
  crashed.nodes = 2;
  crashed.frequency_mhz = 800.0;
  crashed.status = analysis::RunStatus::kCrashed;
  crashed.error = "synthesized by a confused peer";
  const std::string bare = analysis::RunCache::encode_record(crashed);
  EXPECT_TRUE(is_error(put(bare, cas_checksum(bare))));
  // Correct checksum over a well-framed record with an environmental
  // status — crash records must never cross hosts into a journal.
  const std::string env = cas_encode_record(crashed);
  EXPECT_TRUE(is_error(put(env, cas_checksum(env))));

  EXPECT_EQ(h.journal_entries(), 0u);

  // A genuine record with a matching checksum is accepted, journaled,
  // and served back byte-identically by cas.get.
  analysis::RunRecord good = crashed;
  good.status = analysis::RunStatus::kOk;
  good.error.clear();
  good.seconds = 1.5;
  const std::string payload = cas_encode_record(good);
  const util::Json accepted = put(payload, cas_checksum(payload));
  EXPECT_TRUE(accepted.find("ok")->as_bool());
  EXPECT_EQ(h.journal_entries(), 1u);
  const util::Json hit = h.round_trip(
      conn, reader,
      "{\"op\":\"cas.get\",\"kind\":\"record\",\"key\":\"some-key\"}");
  ASSERT_TRUE(hit.find("hit")->as_bool());
  EXPECT_EQ(hit.find("payload")->as_string(), payload);
  EXPECT_EQ(hit.find("sum")->as_string(), cas_checksum(payload));

  // A deterministic failure (a fault abort, not a crash) IS journal
  // material and must round-trip with status and diagnostic intact.
  analysis::RunRecord aborted = good;
  aborted.status = analysis::RunStatus::kDeadlock;
  aborted.error = "rank 1 deadlocked";
  const std::string det = cas_encode_record(aborted);
  util::Json req = util::Json::object();
  req.set("op", util::Json("cas.put"));
  req.set("kind", util::Json("record"));
  req.set("key", util::Json("failed-key"));
  req.set("payload", util::Json(det));
  req.set("sum", util::Json(cas_checksum(det)));
  EXPECT_TRUE(h.round_trip(conn, reader, req.dump()).find("ok")->as_bool());
  const util::Json back = h.round_trip(
      conn, reader,
      "{\"op\":\"cas.get\",\"kind\":\"record\",\"key\":\"failed-key\"}");
  ASSERT_TRUE(back.find("hit")->as_bool());
  EXPECT_EQ(back.find("payload")->as_string(), det);
}

TEST(ServeHardening, StealAgainstAnIdleBrokerReturnsNull) {
  Harness h(temp_dir("steal_idle"));
  Fd conn = h.connect();
  ASSERT_TRUE(conn.valid());
  LineReader reader(conn);

  const util::Json reply = h.round_trip(conn, reader, "{\"op\":\"steal\"}");
  EXPECT_TRUE(reply.find("ok")->as_bool());
  ASSERT_NE(reply.find("column"), nullptr);
  EXPECT_TRUE(reply.find("column")->is_null());
}

}  // namespace
}  // namespace pas::serve
