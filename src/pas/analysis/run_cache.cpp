#include "pas/analysis/run_cache.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <vector>

#include "pas/obs/metrics.hpp"
#include "pas/util/format.hpp"
#include "pas/util/fs.hpp"
#include "pas/util/log.hpp"

namespace pas::analysis {
namespace {

constexpr const char* kRunHeader = "pasim-run-cache v5";
constexpr const char* kLedgerHeader = "pasim-run-ledger v5";

// Live cache traffic is schedule-dependent (duplicate points racing in
// one batch resolve as hit-vs-miss by timing), so these are volatile
// diagnostics, never part of deterministic artifacts.
obs::Counter& hit_counter() {
  static obs::Counter& c = obs::registry().counter("runcache.hits");
  return c;
}
obs::Counter& miss_counter() {
  static obs::Counter& c = obs::registry().counter("runcache.misses");
  return c;
}

// Quarantines ARE stable: they count actual bad files found on disk
// (racing readers settle by who wins the rename), not schedule noise —
// the torture harness asserts on this through metrics.csv.
obs::Counter& quarantine_counter() {
  static obs::Counter& c = obs::registry().counter(
      "runcache.quarantined", obs::Stability::kStable);
  return c;
}

// %.17g identifies a binary64 uniquely; used for *key* strings (human-
// greppable). Record payloads use %a for guaranteed bit-exact parsing.
std::string d17(double x) { return pas::util::strf("%.17g", x); }

void put(std::ostream& out, const char* field, double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  out << field << ' ' << buf << '\n';
}

bool get(std::istream& in, const char* field, double* x) {
  std::string name, value;
  if (!(in >> name >> value) || name != field) return false;
  char* end = nullptr;
  *x = std::strtod(value.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// One disk entry, parsed up to (but not through) its payload.
struct EntryView {
  enum class State { kMissing, kCollision, kCorrupt, kOk };
  State state = State::kMissing;
  std::string payload;
};

/// Loads and validates a v4 entry: header line, `key <key>` line,
/// `sum <16-hex fnv1a(payload)>` line, payload. The collision check
/// runs before the checksum: a well-formed entry holding a *different*
/// key is an fnv1a filename collision, not corruption — leave it alone
/// and miss. Anything else malformed (old v3 headers included) is
/// corrupt and gets quarantined by the caller.
EntryView load_entry(const std::string& path, const char* header,
                     const std::string& key, const char* key_prefix) {
  EntryView v;
  const std::optional<std::string> bytes = util::read_file(path);
  if (!bytes) return v;  // kMissing
  v.state = EntryView::State::kCorrupt;
  const std::string& s = *bytes;
  const std::size_t nl1 = s.find('\n');
  if (nl1 == std::string::npos) return v;
  const std::size_t nl2 = s.find('\n', nl1 + 1);
  if (nl2 == std::string::npos) return v;
  const std::size_t nl3 = s.find('\n', nl2 + 1);
  if (nl3 == std::string::npos) return v;
  if (s.compare(0, nl1, header) != 0) return v;
  const std::string key_line = s.substr(nl1 + 1, nl2 - nl1 - 1);
  if (key_line != "key " + key) {
    if (key_line.rfind(key_prefix, 0) == 0)
      v.state = EntryView::State::kCollision;
    return v;
  }
  const std::string sum_line = s.substr(nl2 + 1, nl3 - nl2 - 1);
  if (sum_line.rfind("sum ", 0) != 0) return v;
  char* end = nullptr;
  const std::uint64_t expect =
      std::strtoull(sum_line.c_str() + 4, &end, 16);
  if (end == nullptr || *end != '\0') return v;
  v.payload = s.substr(nl3 + 1);
  if (util::fnv1a(v.payload) != expect) {
    v.payload.clear();
    return v;  // bit rot or torn write: checksum caught it
  }
  v.state = EntryView::State::kOk;
  return v;
}

void quarantine(const std::string& path, const char* what) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".bad", ec);
  // Count only the winning rename: concurrent readers of one bad file
  // must produce one quarantine, or the stable metric would be racy.
  if (!ec) {
    quarantine_counter().add();
    util::fsync_parent_dir(path);
  }
  pas::util::log_warn(
      "run cache: corrupt " + std::string(what) + " " + path +
      (ec ? " (quarantine failed: " + ec.message() + ")"
          : " quarantined to " + path + ".bad") +
      "; treating as a miss");
}

/// Read hits refresh the entry's LRU position. Best-effort: an mtime
/// we cannot touch only makes eviction less accurate, never wrong.
void touch(const std::string& path) {
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ec);
}

}  // namespace

std::string cluster_signature(const sim::ClusterConfig& c) {
  std::ostringstream out;
  out << "nodes=" << c.num_nodes;
  out << ";cpu=" << d17(c.cpu.reg_cpi) << ',' << d17(c.cpu.l1_cpi) << ','
      << d17(c.cpu.l2_cpi) << ',' << d17(c.cpu.issue_overhead_cpi);
  const auto cache_sig = [&](const sim::CacheConfig& l) {
    return pas::util::strf("%zu/%zu/%zu/%s", l.capacity_bytes, l.line_bytes,
                           l.associativity, d17(l.access_cycles).c_str());
  };
  out << ";l1=" << cache_sig(c.memory.l1) << ";l2=" << cache_sig(c.memory.l2);
  out << ";dram=" << d17(c.memory.dram_latency_s) << ','
      << (c.memory.bus_slowdown_at_low_freq ? 1 : 0) << ','
      << d17(c.memory.slow_dram_latency_s) << ','
      << d17(c.memory.bus_slowdown_threshold_hz);
  out << ";opts=";
  for (const sim::OperatingPoint& p : c.operating_points.points())
    out << d17(p.frequency_hz) << '@' << d17(p.voltage_v) << ',';
  out << ";net=" << d17(c.network.bandwidth_bps) << ','
      << d17(c.network.switch_latency_s) << ','
      << d17(c.network.per_message_cpu_cycles) << ','
      << d17(c.network.cpu_cycles_per_byte) << ','
      << (c.network.model_port_contention ? 1 : 0);
  out << ";dvfs_tr=" << d17(c.dvfs_transition_s);
  out << ";fault=" << c.fault.signature();
  return out.str();
}

std::string power_signature(const power::PowerModel& power) {
  const power::PowerModelConfig& p = power.config();
  return pas::util::strf(
      "ceff=%s;leak=%s;base=%s;mem=%s;net=%s;netf=%s;idlef=%s",
      d17(p.c_eff_farad).c_str(), d17(p.leakage_w_per_v).c_str(),
      d17(p.base_w).c_str(), d17(p.memory_active_w).c_str(),
      d17(p.network_active_w).c_str(), d17(p.network_cpu_factor).c_str(),
      d17(p.idle_cpu_factor).c_str());
}

RunCache::RunCache(std::string dir, std::uint64_t cap_bytes)
    : dir_(std::move(dir)), cap_bytes_(cap_bytes) {}

std::string RunCache::key(const npb::Kernel& kernel,
                          const sim::ClusterConfig& cluster,
                          const power::PowerModel& power, int nodes,
                          double frequency_mhz, double comm_dvfs_mhz) {
  return pas::util::strf(
      "v5|%s|%s|%s|N=%d|f=%s|comm=%s", kernel.signature().c_str(),
      cluster_signature(cluster).c_str(), power_signature(power).c_str(),
      nodes, d17(frequency_mhz).c_str(), d17(comm_dvfs_mhz).c_str());
}

std::string RunCache::sampled_key_suffix(int sample_period, int warmup_iters) {
  return pas::util::strf("|sampled(p=%d,w=%d)", sample_period, warmup_iters);
}

std::string RunCache::ledger_key(const npb::Kernel& kernel,
                                 const sim::ClusterConfig& cluster, int nodes,
                                 double comm_dvfs_mhz) {
  // Faults change priced seconds and aborts, never the op stream, so
  // every fault config of a column signs as the clean cluster: one
  // ledger serves them all, under the clean column's key.
  sim::ClusterConfig clean = cluster;
  clean.fault = fault::FaultConfig{};
  return pas::util::strf("ledger-v5|%s|%s|N=%d|comm=%s",
                         kernel.signature().c_str(),
                         cluster_signature(clean).c_str(), nodes,
                         d17(comm_dvfs_mhz).c_str());
}

std::string RunCache::path_for(const std::string& key) const {
  return (std::filesystem::path(dir_) /
          pas::util::strf("%016" PRIx64 ".run", util::fnv1a(key)))
      .string();
}

std::string RunCache::ledger_path_for(const std::string& key) const {
  return (std::filesystem::path(dir_) /
          pas::util::strf("%016" PRIx64 ".ledger", util::fnv1a(key)))
      .string();
}

std::string RunCache::encode_record(const RunRecord& record) {
  std::ostringstream out;
  out << "nodes " << record.nodes << '\n';
  put(out, "frequency_mhz", record.frequency_mhz);
  put(out, "seconds", record.seconds);
  put(out, "mean_overhead_s", record.mean_overhead_s);
  put(out, "mean_cpu_s", record.mean_cpu_s);
  put(out, "mean_memory_s", record.mean_memory_s);
  put(out, "verified", record.verified ? 1.0 : 0.0);
  put(out, "energy_cpu_j", record.energy.cpu_j);
  put(out, "energy_memory_j", record.energy.memory_j);
  put(out, "energy_network_j", record.energy.network_j);
  put(out, "energy_idle_j", record.energy.idle_j);
  put(out, "messages_per_rank", record.messages_per_rank);
  put(out, "doubles_per_message", record.doubles_per_message);
  put(out, "exec_reg", record.executed_per_rank.reg_ops);
  put(out, "exec_l1", record.executed_per_rank.l1_ops);
  put(out, "exec_l2", record.executed_per_rank.l2_ops);
  put(out, "exec_mem", record.executed_per_rank.mem_ops);
  put(out, "attempts", static_cast<double>(record.attempts));
  put(out, "send_retries", record.send_retries);
  put(out, "sampled", record.sampled ? 1.0 : 0.0);
  put(out, "total_iters", static_cast<double>(record.total_iters));
  put(out, "sampled_iters", static_cast<double>(record.sampled_iters));
  put(out, "ci_seconds", record.ci_seconds);
  put(out, "ci_energy_j", record.ci_energy_j);
  return out.str();
}

bool RunCache::decode_record(std::istream& in, RunRecord* rec) {
  int n = 0;
  std::string name;
  if (!(in >> name >> n) || name != "nodes") return false;
  rec->nodes = n;
  double verified = 0.0;
  double attempts = 1.0;
  const bool ok =
      get(in, "frequency_mhz", &rec->frequency_mhz) &&
      get(in, "seconds", &rec->seconds) &&
      get(in, "mean_overhead_s", &rec->mean_overhead_s) &&
      get(in, "mean_cpu_s", &rec->mean_cpu_s) &&
      get(in, "mean_memory_s", &rec->mean_memory_s) &&
      get(in, "verified", &verified) &&
      get(in, "energy_cpu_j", &rec->energy.cpu_j) &&
      get(in, "energy_memory_j", &rec->energy.memory_j) &&
      get(in, "energy_network_j", &rec->energy.network_j) &&
      get(in, "energy_idle_j", &rec->energy.idle_j) &&
      get(in, "messages_per_rank", &rec->messages_per_rank) &&
      get(in, "doubles_per_message", &rec->doubles_per_message) &&
      get(in, "exec_reg", &rec->executed_per_rank.reg_ops) &&
      get(in, "exec_l1", &rec->executed_per_rank.l1_ops) &&
      get(in, "exec_l2", &rec->executed_per_rank.l2_ops) &&
      get(in, "exec_mem", &rec->executed_per_rank.mem_ops) &&
      get(in, "attempts", &attempts) &&
      get(in, "send_retries", &rec->send_retries);
  if (!ok) return false;
  double sampled = 0.0;
  double total_iters = 0.0;
  double sampled_iters = 0.0;
  if (!get(in, "sampled", &sampled) ||
      !get(in, "total_iters", &total_iters) ||
      !get(in, "sampled_iters", &sampled_iters) ||
      !get(in, "ci_seconds", &rec->ci_seconds) ||
      !get(in, "ci_energy_j", &rec->ci_energy_j))
    return false;
  rec->sampled = sampled != 0.0;
  rec->total_iters = static_cast<int>(total_iters);
  rec->sampled_iters = static_cast<int>(sampled_iters);
  rec->verified = verified != 0.0;
  rec->attempts = static_cast<int>(attempts);
  return true;
}

std::optional<RunRecord> RunCache::lookup(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = memory_.find(key);
    if (it != memory_.end()) {
      ++hits_;
      hit_counter().add();
      return it->second;
    }
  }
  if (!dir_.empty()) {
    const std::string path = path_for(key);
    const EntryView v = load_entry(path, kRunHeader, key, "key v");
    if (v.state == EntryView::State::kOk) {
      std::istringstream in(v.payload);
      RunRecord rec;
      if (decode_record(in, &rec)) {
        touch(path);
        std::lock_guard<std::mutex> lock(mutex_);
        memory_.emplace(key, rec);
        ++hits_;
        hit_counter().add();
        return rec;
      }
      quarantine(path, "entry");
    } else if (v.state == EntryView::State::kCorrupt) {
      quarantine(path, "entry");
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  miss_counter().add();
  return std::nullopt;
}

void RunCache::publish(const std::string& path, const std::string& key,
                       const std::string& header,
                       const std::string& payload) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    pas::util::log_warn("run cache: cannot create " + dir_ + ": " +
                        ec.message());
    return;
  }
  std::string content;
  content.reserve(header.size() + key.size() + payload.size() + 32);
  content += header;
  content += "\nkey ";
  content += key;
  content += pas::util::strf("\nsum %016" PRIx64 "\n",
                             util::fnv1a(payload));
  content += payload;
  if (const int err = util::atomic_write_file(path, content)) {
    pas::util::log_warn("run cache: cannot write " + path + ": " +
                        std::strerror(err));
    return;
  }
  maybe_evict();
}

void RunCache::store(const std::string& key, const RunRecord& record) {
  // Failed runs are never cached: a retry with different settings (or
  // a fixed kernel) must re-simulate the point.
  if (record.failed()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    memory_.emplace(key, record);
    ++stores_;
    static obs::Counter& stored = obs::registry().counter("runcache.stores");
    stored.add();
  }
  if (dir_.empty()) return;
  publish(path_for(key), key, kRunHeader, encode_record(record));
}

void RunCache::maybe_evict() {
  if (cap_bytes_ == 0) return;
  // Cross-process exclusion: only one evictor scans at a time. flock
  // dies with its holder, so a SIGKILLed evictor leaves no stale lock.
  const util::FileLock lock =
      util::FileLock::acquire((std::filesystem::path(dir_) / ".lock").string());
  if (!lock.held()) return;
  struct File {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    std::uintmax_t size = 0;
  };
  std::vector<File> files;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir_, ec)) {
    // `.ckpt`: checkpoint entries older builds wrote; nothing reads
    // them any more, so they only age out.
    const std::string ext = de.path().extension().string();
    if (ext != ".run" && ext != ".ledger" && ext != ".ckpt" && ext != ".bad")
      continue;
    File f;
    f.path = de.path();
    f.mtime = de.last_write_time(ec);
    f.size = de.file_size(ec);
    total += f.size;
    files.push_back(std::move(f));
  }
  if (total <= cap_bytes_) return;
  std::sort(files.begin(), files.end(), [](const File& a, const File& b) {
    // mtime, then name: a total order even when timestamps collide.
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path.native() < b.path.native();
  });
  static obs::Counter& evicted = obs::registry().counter("runcache.evicted");
  for (const File& f : files) {
    if (total <= cap_bytes_) break;
    if (std::filesystem::remove(f.path, ec) && !ec) {
      total -= f.size;
      evicted.add();
    }
  }
}

namespace {

obs::Counter& ledger_hit_counter() {
  static obs::Counter& c = obs::registry().counter("runcache.ledger_hits");
  return c;
}
obs::Counter& ledger_miss_counter() {
  static obs::Counter& c = obs::registry().counter("runcache.ledger_misses");
  return c;
}

/// One op per line, first token selecting the kind. Doubles are %a so
/// a loaded ledger replays bit-identically to the freshly recorded one.
void put_op(std::ostream& out, const sim::WorkOp& op) {
  char a[64], b[64], c[64], d[64];
  switch (op.kind) {
    case sim::WorkOp::Kind::kCompute:
      std::snprintf(a, sizeof a, "%a", op.mix.reg_ops);
      std::snprintf(b, sizeof b, "%a", op.mix.l1_ops);
      std::snprintf(c, sizeof c, "%a", op.mix.l2_ops);
      std::snprintf(d, sizeof d, "%a", op.mix.mem_ops);
      out << "C " << a << ' ' << b << ' ' << c << ' ' << d << '\n';
      break;
    case sim::WorkOp::Kind::kRawSeconds:
      std::snprintf(a, sizeof a, "%a", op.seconds);
      out << "T " << a << ' ' << static_cast<int>(op.activity) << '\n';
      break;
    case sim::WorkOp::Kind::kSend:
      out << "S " << op.peer << ' ' << op.tag << ' ' << op.bytes << ' '
          << (op.blocking ? 1 : 0) << '\n';
      break;
    case sim::WorkOp::Kind::kSendWait:
      out << "W " << op.ordinal << '\n';
      break;
    case sim::WorkOp::Kind::kRecv:
      out << "R " << op.peer << ' ' << op.tag << '\n';
      break;
    case sim::WorkOp::Kind::kCommDvfs:
      std::snprintf(a, sizeof a, "%a", op.mhz);
      out << "D " << a << '\n';
      break;
  }
}

bool get_hexdouble(std::istream& in, double* x) {
  std::string value;
  if (!(in >> value)) return false;
  char* end = nullptr;
  *x = std::strtod(value.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool get_op(std::istream& in, sim::WorkOp* op) {
  std::string kind;
  if (!(in >> kind) || kind.size() != 1) return false;
  switch (kind[0]) {
    case 'C': {
      sim::InstructionMix mix;
      if (!get_hexdouble(in, &mix.reg_ops) || !get_hexdouble(in, &mix.l1_ops) ||
          !get_hexdouble(in, &mix.l2_ops) || !get_hexdouble(in, &mix.mem_ops))
        return false;
      *op = sim::WorkOp::compute(mix);
      return true;
    }
    case 'T': {
      double s = 0.0;
      int act = 0;
      if (!get_hexdouble(in, &s) || !(in >> act) || act < 0 ||
          act >= static_cast<int>(sim::kNumActivities))
        return false;
      *op = sim::WorkOp::raw_seconds(s, static_cast<sim::Activity>(act));
      return true;
    }
    case 'S': {
      int dst = 0, tag = 0, blocking = 0;
      std::size_t bytes = 0;
      if (!(in >> dst >> tag >> bytes >> blocking)) return false;
      *op = sim::WorkOp::send(dst, tag, bytes, blocking != 0);
      return true;
    }
    case 'W': {
      int ordinal = 0;
      if (!(in >> ordinal)) return false;
      *op = sim::WorkOp::send_wait(ordinal);
      return true;
    }
    case 'R': {
      int src = 0, tag = 0;
      if (!(in >> src >> tag)) return false;
      *op = sim::WorkOp::recv(src, tag);
      return true;
    }
    case 'D': {
      double mhz = 0.0;
      if (!get_hexdouble(in, &mhz)) return false;
      *op = sim::WorkOp::comm_dvfs(mhz);
      return true;
    }
    default:
      return false;
  }
}

/// Ledger payload parse (everything after the `sum` line). A truncated
/// file fails an op parse mid-span and the whole ledger is rejected
/// (then quarantined by the caller) — though v4's checksum catches
/// truncation before we ever get here.
bool decode_ledger_payload(std::istream& in, sim::WorkLedger* ledger) {
  std::string name;
  int nranks = 0;
  double verified = 0.0;
  if (!(in >> name >> nranks) || name != "nranks" || nranks < 1) return false;
  if (!(in >> name) || name != "comm_dvfs" ||
      !get_hexdouble(in, &ledger->comm_dvfs_mhz))
    return false;
  if (!(in >> name) || name != "verified" || !get_hexdouble(in, &verified))
    return false;
  ledger->nranks = nranks;
  ledger->verified = verified != 0.0;
  ledger->rank_spans.assign(static_cast<std::size_t>(nranks), {});
  for (int r = 0; r < nranks; ++r) {
    int rank = -1;
    std::size_t nops = 0;
    if (!(in >> name >> rank >> nops) || name != "rank" || rank != r)
      return false;
    auto& span = ledger->rank_spans[static_cast<std::size_t>(r)];
    span.offset = ledger->arena.size();
    span.count = nops;
    ledger->arena.resize(span.offset + nops);
    for (std::size_t i = 0; i < nops; ++i) {
      if (!get_op(in, &ledger->arena[span.offset + i])) return false;
    }
  }
  if (!(in >> name) || name != "end") return false;
  return true;
}

std::string encode_ledger_payload(const sim::WorkLedger& ledger) {
  std::ostringstream out;
  out << "nranks " << ledger.nranks << '\n';
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", ledger.comm_dvfs_mhz);
  out << "comm_dvfs " << buf << '\n';
  out << "verified " << (ledger.verified ? 1 : 0) << '\n';
  for (int r = 0; r < ledger.nranks; ++r) {
    const std::size_t nops = ledger.rank_size(r);
    out << "rank " << r << ' ' << nops << '\n';
    const sim::WorkOp* ops = ledger.rank_ops(r);
    for (std::size_t i = 0; i < nops; ++i) put_op(out, ops[i]);
  }
  out << "end\n";
  return out.str();
}

}  // namespace

std::string RunCache::encode_ledger(const sim::WorkLedger& ledger) {
  return encode_ledger_payload(ledger);
}

bool RunCache::decode_ledger(std::istream& in, sim::WorkLedger* ledger) {
  return decode_ledger_payload(in, ledger);
}

std::shared_ptr<const sim::WorkLedger> RunCache::lookup_ledger(
    const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = ledgers_.find(key);
    if (it != ledgers_.end()) {
      ledger_hit_counter().add();
      return it->second;
    }
  }
  if (!dir_.empty()) {
    const std::string path = ledger_path_for(key);
    const EntryView v = load_entry(path, kLedgerHeader, key, "key ledger-v");
    if (v.state == EntryView::State::kOk) {
      std::istringstream in(v.payload);
      auto ledger = std::make_shared<sim::WorkLedger>();
      if (decode_ledger_payload(in, ledger.get())) {
        touch(path);
        std::shared_ptr<const sim::WorkLedger> shared = std::move(ledger);
        std::lock_guard<std::mutex> lock(mutex_);
        ledgers_.emplace(key, shared);
        ledger_hit_counter().add();
        return shared;
      }
      quarantine(path, "ledger");
    } else if (v.state == EntryView::State::kCorrupt) {
      quarantine(path, "ledger");
    }
  }
  ledger_miss_counter().add();
  return nullptr;
}

std::shared_ptr<const sim::WorkLedger> RunCache::store_ledger(
    const std::string& key, sim::WorkLedger ledger) {
  if (!ledger.replayable || ledger.nranks < 1) return nullptr;
  auto shared =
      std::make_shared<const sim::WorkLedger>(std::move(ledger));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ledgers_.emplace(key, shared);
    static obs::Counter& stored =
        obs::registry().counter("runcache.ledger_stores");
    stored.add();
  }
  if (dir_.empty()) return shared;
  publish(ledger_path_for(key), key, kLedgerHeader,
          encode_ledger_payload(*shared));
  return shared;
}

std::uint64_t RunCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t RunCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t RunCache::stores() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stores_;
}

std::string RunCache::stats_string() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string where =
      dir_.empty() ? " (in-memory)" : " (dir: " + dir_ + ")";
  return pas::util::strf("%" PRIu64 " hits / %" PRIu64 " misses%s", hits_,
                         misses_, where.c_str());
}

}  // namespace pas::analysis
