// pasim_serve — the sweep broker daemon (DESIGN.md §13).
//
// Accepts SweepSpec submissions over a newline-delimited JSON protocol
// (Unix-domain socket and/or localhost TCP), answers from the shared
// run cache / journal first, dedups identical in-flight columns, and
// shards cold columns across persistent worker processes under the
// crash-safe supervisor policy (deadlines, bounded retries, fail-soft
// records). The server forks once, while it has one thread: the
// Broker, built before any listener, forks the zygote that forks every
// worker on demand. Stop with SIGINT/SIGTERM or a client's
// {"op":"shutdown"}: the server then reaps the zygote, which reaps
// every worker, before it exits; a SIGKILLed server takes them along
// (PR_SET_PDEATHSIG).
//
//   ./tools/pasim_serve --cache DIR [--socket PATH] [--tcp PORT]
//                       [--workers N] [--worker-timeout S]
//                       [--worker-retries N] [--journal FILE]
//                       [--cache-cap MB] [--metrics-csv FILE]
//
// --tcp 0 picks an ephemeral port (printed on stdout — scripts parse
// the "listening" line). The TCP listener binds 127.0.0.1: one server
// serves one host, and --workers is how it grows. --workers defaults
// to the cores the process may run on (its CPU affinity mask).
#include <csignal>
#include <cstdio>
#include <stdexcept>

#include "pas/serve/server.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/thread_pool.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  cli.check_usage({"socket", "tcp", "cache", "workers", "worker-timeout",
                   "worker-retries", "journal", "cache-cap",
                   "metrics-csv"});
  serve::ServerOptions opts;
  opts.unix_socket = cli.get("socket", cli.has("tcp") ? "" : "pasim_serve.sock");
  opts.tcp_port = cli.has("tcp") ? static_cast<int>(cli.get_int("tcp", 0)) : -1;
  opts.metrics_csv = cli.get("metrics-csv", "");
  opts.broker.cache_dir = cli.get("cache", ".pasim_cache");
  opts.broker.workers = static_cast<int>(
      cli.get_int("workers", util::ThreadPool::default_jobs()));
  opts.broker.worker_timeout_s = cli.get_double("worker-timeout", 300.0);
  opts.broker.worker_retries =
      static_cast<int>(cli.get_int("worker-retries", 1));
  opts.broker.journal_path = cli.get("journal", "");
  opts.broker.cache_cap_bytes =
      static_cast<std::uint64_t>(cli.get_int("cache-cap", 0)) * 1024u * 1024u;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    serve::Server server(opts);
    if (!opts.unix_socket.empty())
      std::printf("pasim_serve: listening on %s\n", opts.unix_socket.c_str());
    if (server.tcp_port() >= 0)
      std::printf("pasim_serve: listening on 127.0.0.1:%d\n",
                  server.tcp_port());
    std::printf("pasim_serve: cache %s, %d worker(s)\n",
                opts.broker.cache_dir.c_str(), opts.broker.workers);
    std::fflush(stdout);
    while (g_signal == 0 && !server.wait_for(0.2)) {
    }
    server.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pasim_serve: %s\n", e.what());
    return 1;
  }
  std::printf("pasim_serve: stopped\n");
  return 0;
}
