// Protocol hardening for the pasim_serve line protocol (DESIGN.md §13):
// a hostile or confused client costs an error line (or, when framing
// itself is lost, one connection) — never the server. Covers oversized
// frames, unknown ops, and the status framing of point lines: a record
// survives the wire with its status and diagnostic intact, and a line
// whose record lacks that framing is refused.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "pas/analysis/run_cache.hpp"
#include "pas/serve/client.hpp"
#include "pas/serve/protocol.hpp"
#include "pas/serve/server.hpp"
#include "pas/serve/socket.hpp"
#include "pas/util/json.hpp"
#include "test_scratch.hpp"

namespace pas::serve {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = pas::test::scratch_path("pasim_hardening/" + name);
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

TEST(ServeHardening, PointLinesKeepStatusAndRejectUnframedRecords) {
  analysis::RunRecord ok;
  ok.nodes = 4;
  ok.frequency_mhz = 800.0;
  ok.seconds = 1.5;
  ok.mean_cpu_s = 0.25;
  ok.energy.cpu_j = 12.0;
  analysis::RunRecord deadlock = ok;
  deadlock.status = analysis::RunStatus::kDeadlock;
  deadlock.error = "rank 1 deadlocked\nwaiting on rank 0";
  analysis::RunRecord lost = ok;
  lost.status = analysis::RunStatus::kMessageLoss;
  lost.error = "message lost after 1 attempt(s)";
  lost.send_retries = 3.0;

  std::size_t index = 0;
  for (const analysis::RunRecord& rec : {ok, deadlock, lost}) {
    const std::string line = encode_point_line(index, rec, index == 1);
    ASSERT_EQ(line.back(), '\n');
    PointLine back;
    ASSERT_TRUE(decode_point_line(util::Json::parse(line), &back)) << line;
    EXPECT_EQ(back.index, index);
    EXPECT_EQ(back.from_cache, index == 1);
    EXPECT_EQ(back.record.status, rec.status);
    EXPECT_EQ(back.record.error, rec.error);
    EXPECT_EQ(analysis::RunCache::encode_record(back.record),
              analysis::RunCache::encode_record(rec));
    EXPECT_EQ(cas_encode_record(back.record), cas_encode_record(rec));
    ++index;
  }

  // A line whose `record` member is not status-framed is refused: bare
  // encode_record bytes cannot say whether the run failed, and garbage
  // is garbage.
  const util::Json good = util::Json::parse(encode_point_line(0, lost, false));
  // `good` with `key` set to `value`, or dropped when `value` is null.
  const auto edit = [&good](const std::string& key, const util::Json* value) {
    util::Json j = util::Json::object();
    for (const auto& [k, v] : good.members())
      if (k != key) j.set(k, v);
    if (value != nullptr) j.set(key, *value);
    return j;
  };
  PointLine out;
  const util::Json bare(analysis::RunCache::encode_record(lost));
  EXPECT_FALSE(decode_point_line(edit("record", &bare), &out));
  for (const char* junk : {"not a record at all", "status 3\nerror x"}) {
    const util::Json garbage(junk);
    EXPECT_FALSE(decode_point_line(edit("record", &garbage), &out)) << junk;
  }
  EXPECT_FALSE(decode_point_line(edit("from_cache", nullptr), &out));
  // The untouched line still decodes: the refusals above are the edits'.
  EXPECT_TRUE(decode_point_line(good, &out));
  EXPECT_EQ(out.record.status, analysis::RunStatus::kMessageLoss);
}

}  // namespace
}  // namespace pas::serve
