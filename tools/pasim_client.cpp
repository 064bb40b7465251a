// pasim_client — submits SweepSpec documents to a running pasim_serve
// and renders the streamed RunRecords (DESIGN.md §13).
//
//   ./tools/pasim_client [--socket PATH | --tcp PORT [--host H]]
//                        [--spec FILE] [--kernel K] [--small]
//                        [--nodes LIST] [--freqs LIST] [--comm-dvfs MHZ]
//                        [--faults RATE] [--fault-seed N] [--retries N]
//                        [--out DIR] [--wait S] [--connect-retries N]
//                        [--ping | --stats | --shutdown | --print-spec]
//
// --connect-retries N retries a refused/reset connect with bounded
// exponential backoff before giving up — the polite way to race a
// broker that is still binding its sockets.
//
// The spec is built exactly like every bench builds one: `--spec FILE`
// first, flags override (SweepSpec::from_cli). --print-spec dumps the
// canonical JSON document and exits without connecting — the way to
// author spec files. --out DIR writes `<kernel>_time.csv` and
// `<kernel>_speedup.csv` from the returned records, byte-identical to
// an offline full_report of the same grid.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/figures.hpp"
#include "pas/serve/client.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"

namespace {

using namespace pas;

int write_artifacts(const std::string& dir, const analysis::SweepSpec& spec,
                    const serve::SweepReply& reply) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "pasim_client: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  analysis::MatrixResult m;
  for (const analysis::RunRecord& rec : reply.records) m.add(rec);
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  // Same titles as bench/full_report.cpp, so the CSVs byte-match.
  const util::TextTable time_table = analysis::execution_time_table(
      m.times, env.nodes, env.freqs_mhz,
      util::strf("%s execution time (s)", spec.kernel.c_str()));
  const util::TextTable speedup_table = analysis::speedup_surface(
      m.times, env.nodes, env.freqs_mhz, env.base_f_mhz,
      util::strf("%s power-aware speedup", spec.kernel.c_str()));
  int rc = 0;
  for (const auto& [name, table] :
       {std::pair<std::string, const util::TextTable&>(
            util::strf("%s_time.csv", spec.kernel.c_str()), time_table),
        std::pair<std::string, const util::TextTable&>(
            util::strf("%s_speedup.csv", spec.kernel.c_str()),
            speedup_table)}) {
    if (const obs::WriteResult r = table.write_csv(dir + "/" + name); !r) {
      std::fprintf(stderr, "pasim_client: %s\n", r.to_string().c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  cli.check_usage({"socket", "tcp", "host", "wait", "connect-retries", "ping",
                   "stats", "shutdown", "print-spec", "out",
                   // SweepSpec::from_cli surface:
                   "spec", "small", "kernel", "nodes", "freqs", "comm-dvfs",
                   "faults", "fault-seed", "jobs", "cache", "no-cache",
                   "retries", "verify-replay", "journal", "resume", "isolate",
                   "isolate-timeout", "isolate-retries", "cache-cap", "trace",
                   "metrics"});
  try {
    const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli);
    if (cli.get_bool("print-spec", false)) {
      std::printf("%s\n", spec.to_json().dump(2).c_str());
      return 0;
    }
    // --out writes the speedup surface: check its base before the sweep.
    if (cli.has("out"))
      analysis::require_base_node(cli, analysis::env_for_spec(spec));

    serve::ClientOptions opts;
    opts.unix_socket =
        cli.get("socket", cli.has("tcp") ? "" : "pasim_serve.sock");
    opts.tcp_port = cli.has("tcp") ? static_cast<int>(cli.get_int("tcp", -1))
                                   : -1;
    opts.host = cli.get("host", "127.0.0.1");
    opts.connect_retries =
        static_cast<int>(cli.get_int("connect-retries", 0));
    if (const double wait_s = cli.get_double("wait", 0.0); wait_s > 0.0) {
      if (!serve::Client::wait_ready(opts, wait_s)) {
        std::fprintf(stderr, "pasim_client: server not ready after %.1fs\n",
                     wait_s);
        return 1;
      }
    }
    serve::Client client(opts);

    if (cli.get_bool("ping", false)) {
      const bool ok = client.ping();
      std::printf("%s\n", ok ? "pong" : "no pong");
      return ok ? 0 : 1;
    }
    if (cli.get_bool("stats", false)) {
      std::printf("%s\n", client.stats().dump(2).c_str());
      return 0;
    }
    if (cli.get_bool("shutdown", false)) {
      const bool ok = client.shutdown_server();
      std::printf("%s\n", ok ? "server shutting down" : "shutdown refused");
      return ok ? 0 : 1;
    }

    const serve::SweepReply reply = client.sweep(spec);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < reply.records.size(); ++i) {
      const analysis::RunRecord& rec = reply.records[i];
      if (rec.failed()) ++failed;
      std::printf("N=%-3d f=%-6.0f %-12s %s%12.6f s\n", rec.nodes,
                  rec.frequency_mhz, analysis::run_status_name(rec.status),
                  reply.from_cache[i] ? "[cached] " : "         ",
                  rec.seconds);
    }
    std::printf(
        "pasim_client: %zu point(s), %zu failed, cache_hits=%llu, "
        "dedup_hits=%llu\n",
        reply.records.size(), failed,
        static_cast<unsigned long long>(reply.cache_hits),
        static_cast<unsigned long long>(reply.dedup_hits));
    if (cli.has("out"))
      if (const int rc = write_artifacts(cli.get("out", "pasim_served"),
                                         spec, reply))
        return rc;
    return failed == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pasim_client: %s\n", e.what());
    return 1;
  }
}
