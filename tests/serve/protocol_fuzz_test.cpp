// Seeded protocol fuzzing for the pasim_serve line protocol (DESIGN.md
// §13): valid sweep, ping and stats frames, mutated by truncation, bit
// flips, splicing and segment reordering, go down one connection to a
// live serve::Server. Every line that is not a request the server
// serves gets its own error reply, the connection and the server
// survive, serve.protocol_errors counts exactly those lines, and a
// valid sweep sent afterwards on the same connection still matches an
// offline run byte for byte. Fixed seeds: a failure replays exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/serve/client.hpp"
#include "pas/serve/protocol.hpp"
#include "pas/serve/server.hpp"
#include "pas/serve/socket.hpp"
#include "pas/util/json.hpp"
#include "test_scratch.hpp"

namespace pas::serve {
namespace {

analysis::SweepSpec fuzz_spec(const std::string& kernel) {
  analysis::SweepSpec spec;
  spec.kernel = kernel;
  spec.scale = "small";
  spec.nodes = {1, 2};
  spec.freqs_mhz = {600.0, 1000.0};
  return spec;
}

std::string sweep_line(const analysis::SweepSpec& spec) {
  util::Json j = util::Json::object();
  j.set("op", util::Json("sweep"));
  j.set("spec", spec.to_json());
  return j.dump();
}

/// What the server makes of `line`, by the checks it runs: kServed for
/// a request it answers with "ok", kBad for one it answers with an
/// error line. kSkip: a line the test does not send — empty (no reply),
/// split by a newline, a shutdown, or a valid sweep (real work).
enum class Verdict { kServed, kBad, kSkip };

Verdict classify(const std::string& line) {
  if (line.empty() || line.find('\n') != std::string::npos)
    return Verdict::kSkip;
  try {
    const util::Json request = util::Json::parse(line);
    if (!request.is_object()) return Verdict::kBad;
    const util::Json* op = request.find("op");
    if (op == nullptr || !op->is_string()) return Verdict::kBad;
    if (op->as_string() == "ping" || op->as_string() == "stats")
      return Verdict::kServed;
    if (op->as_string() == "shutdown") return Verdict::kSkip;
    if (op->as_string() != "sweep") return Verdict::kBad;
    const util::Json* spec_json = request.find("spec");
    if (spec_json == nullptr) return Verdict::kBad;
    const analysis::SweepSpec spec = analysis::SweepSpec::from_json(*spec_json);
    spec.validate();
    analysis::make_spec_kernel(spec);
    return Verdict::kSkip;
  } catch (const std::exception&) {
    return Verdict::kBad;
  }
}

/// One mutant of a random frame: a truncation, one to four bit flips, a
/// splice of two frames, or two adjacent segments swapped.
std::string mutate(const std::vector<std::string>& frames,
                   std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::string s = frames[pick(frames.size())];
  switch (pick(4)) {
    case 0:  // truncate
      s.resize(pick(s.size()));
      break;
    case 1:  // bit flips
      for (std::size_t k = 1 + pick(4); k > 0; --k)
        s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 2: {  // splice: a head of this frame, a tail of another
      const std::string& other = frames[pick(frames.size())];
      s = s.substr(0, pick(s.size())) + other.substr(pick(other.size()));
      break;
    }
    default: {  // reorder: swap two adjacent segments
      std::size_t a = pick(s.size()), b = pick(s.size());
      if (a > b) std::swap(a, b);
      const std::size_t c = b + pick(s.size() - b + 1);
      s = s.substr(0, a) + s.substr(b, c - b) + s.substr(a, b - a) +
          s.substr(c);
      break;
    }
  }
  return s;
}

bool reply_ok(const std::string& reply) {
  const util::Json j = util::Json::parse(reply);
  const util::Json* ok = j.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

TEST(ServeServer, SeededProtocolFuzzCostsOneErrorLinePerBadLine) {
  const std::string dir = pas::test::scratch_path("pasim_protocol_fuzz");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServerOptions opts;
  opts.unix_socket = dir + "/serve.sock";
  opts.broker.cache_dir = dir + "/cache";
  opts.broker.workers = 2;
  Server server(opts);
  ClientOptions copts;
  copts.unix_socket = opts.unix_socket;
  ASSERT_TRUE(Client::wait_ready(copts, 10.0));

  const analysis::SweepSpec spec = fuzz_spec("FT");
  const std::vector<std::string> frames{
      "{\"op\":\"ping\"}", "{\"op\":\"stats\"}", sweep_line(spec),
      sweep_line(fuzz_spec("EP"))};
  obs::Counter& protocol_errors =
      obs::registry().counter("serve.protocol_errors");

  Fd conn = connect_unix(opts.unix_socket);
  ASSERT_TRUE(conn.valid());
  LineReader reader(conn);
  std::string reply;
  constexpr int kBadPerSeed = 500;
  for (const std::uint64_t seed : {11u, 29u}) {
    std::mt19937_64 rng(seed);
    const std::uint64_t errors0 = protocol_errors.value();
    int bad = 0;
    while (bad < kBadPerSeed) {
      const std::string line = mutate(frames, rng);
      const Verdict verdict = classify(line);
      if (verdict == Verdict::kSkip) continue;
      ASSERT_TRUE(send_all(conn, line + "\n")) << "seed " << seed;
      ASSERT_TRUE(reader.next(&reply)) << "seed " << seed << ": " << line;
      EXPECT_EQ(reply_ok(reply), verdict == Verdict::kServed)
          << "seed " << seed << ": " << line << "\n-> " << reply;
      if (verdict == Verdict::kBad) ++bad;
    }
    EXPECT_EQ(protocol_errors.value() - errors0,
              static_cast<std::uint64_t>(kBadPerSeed))
        << "seed " << seed;
  }

  // The same connection still serves a real sweep, byte-identical to an
  // offline run of the document.
  ASSERT_TRUE(send_all(conn, sweep_line(spec) + "\n"));
  ASSERT_TRUE(reader.next(&reply));
  ASSERT_TRUE(reply_ok(reply)) << reply;
  analysis::SweepSpec offline = spec;
  offline.options.jobs = 1;
  analysis::SweepExecutor exec(offline);
  const std::vector<analysis::RunRecord> want = exec.run().records;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(reader.next(&reply));
    PointLine point;
    ASSERT_TRUE(decode_point_line(util::Json::parse(reply), &point)) << reply;
    EXPECT_EQ(point.index, i);
    EXPECT_EQ(cas_encode_record(point.record), cas_encode_record(want[i]))
        << "record " << i;
  }
  ASSERT_TRUE(reader.next(&reply));
  EXPECT_TRUE(util::Json::parse(reply).find("done")->as_bool()) << reply;

  // And the server takes new connections.
  Client fresh(copts);
  EXPECT_TRUE(fresh.ping());
  server.stop();
}

}  // namespace
}  // namespace pas::serve
