// Run-result cache for the sweep engine.
//
// A simulated run is a pure function of (kernel configuration, cluster
// configuration, power model, rank count, DVFS point, comm-DVFS point)
// — Runtime::run starts from a reset cluster, so nothing else can leak
// in. The cache keys on a canonical string spelling out every one of
// those parameters (doubles printed with 17 significant digits, which
// identifies a binary64 uniquely) and stores the resulting RunRecord.
//
// With a directory the cache also persists across processes: the table
// and figure benches stop re-simulating operating points full_report
// already covered. Records are serialized with hex floats (%a), so a
// cache hit returns a RunRecord bit-identical to the fresh run that
// produced it — REPORT.md and the CSVs are byte-identical either way.
//
// Hardened on-disk format (v4, DESIGN.md §12): every entry is published
// atomically (temp + fsync + rename via util::atomic_write_file) and
// carries an fnv1a checksum of its payload, verified on every disk
// read. Unreadable or colliding entries are treated as misses; corrupt,
// truncated or checksum-mismatched files are additionally quarantined
// to `<file>.bad` (rename + directory fsync, counted in the stable
// `runcache.quarantined` metric) so garbage can never satisfy a later
// lookup. Multi-process sharing of one directory is safe by
// construction — publishes are atomic renames of per-process temp
// files and both processes compute identical bytes for identical keys;
// the only cross-process mutual exclusion needed is the LRU eviction
// pass, which holds an advisory flock on `<dir>/.lock` (flock dies with
// its holder, so a crashed evictor can never wedge the cache). Failed
// runs (RunRecord::failed()) are never stored.
//
// Besides RunRecords, the cache stores charged-work ledgers
// (sim::WorkLedger) keyed by the frequency-independent part of the run
// identity — kernel, cluster, rank count, comm-DVFS point, but *not*
// the operating point, the power model or the fault config — so the
// frequency-collapse fast path (DESIGN.md §10) can re-price a whole
// DVFS column, under any fault config, from one simulated run, across
// processes.
//
// The `.ckpt` mid-run checkpoint entries older builds wrote are never
// read; they still count toward the cap, so the eviction pass ages
// them out.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "pas/analysis/run_matrix.hpp"
#include "pas/sim/work_ledger.hpp"

namespace pas::analysis {

/// Canonical spelling of every cluster parameter that affects a run
/// (node count, CPU CPIs, cache geometry, DRAM latencies, operating
/// points, network cost model, DVFS transition cost).
std::string cluster_signature(const sim::ClusterConfig& cluster);

/// Canonical spelling of the power model (affects RunRecord::energy).
std::string power_signature(const power::PowerModel& power);

class RunCache {
 public:
  /// `dir` empty: in-memory only. Otherwise entries are also written to
  /// `dir` (created on first store) and looked up there on miss.
  /// `cap_bytes` > 0 bounds the directory: after a store pushes the
  /// total size of cache files past the cap, least-recently-used
  /// entries (by mtime; read hits touch it) are evicted until it fits.
  explicit RunCache(std::string dir = "", std::uint64_t cap_bytes = 0);

  /// The canonical cache key of one operating point.
  static std::string key(const npb::Kernel& kernel,
                         const sim::ClusterConfig& cluster,
                         const power::PowerModel& power, int nodes,
                         double frequency_mhz, double comm_dvfs_mhz);

  /// The key suffix that separates sampled estimates from exact
  /// records (DESIGN.md §14). Appended to key() by every sampled-mode
  /// consumer — SweepExecutor::point_key and the serve broker alike —
  /// so the two record populations can never satisfy each other's
  /// cache or journal lookups.
  static std::string sampled_key_suffix(int sample_period, int warmup_iters);

  /// Thread-safe. Counts a hit or a miss.
  std::optional<RunRecord> lookup(const std::string& key);

  /// Thread-safe. Records the result in memory and, if configured, on
  /// disk (atomically: temp + fsync + rename).
  void store(const std::string& key, const RunRecord& record);

  /// The canonical serialized form of a record — the exact bytes
  /// store() persists (hex-float fields). --verify-replay compares a
  /// repriced record against a fresh simulation through this encoding,
  /// so "equal" means equal in every field the cache round-trips.
  static std::string encode_record(const RunRecord& record);

  /// Parses exactly what encode_record produced (the sweep journal
  /// embeds record payloads in this encoding too). False on any
  /// malformed or truncated field; `record` is unspecified then.
  static bool decode_record(std::istream& in, RunRecord* record);

  /// Ledger key: the frequency-independent slice of the run identity.
  /// Deliberately excludes the operating point (that is what replay
  /// varies), the power model (energy is priced at replay time) and
  /// cluster.fault (faults never change the op stream; the replay
  /// re-draws them per lane), so a fault-armed column's key equals its
  /// clean twin's.
  static std::string ledger_key(const npb::Kernel& kernel,
                                const sim::ClusterConfig& cluster, int nodes,
                                double comm_dvfs_mhz);

  /// Thread-safe ledger lookup (memory, then disk). Ledgers are shared
  /// immutably: concurrent column tasks re-price from one instance.
  std::shared_ptr<const sim::WorkLedger> lookup_ledger(
      const std::string& key);

  /// Thread-safe. Stores a replayable ledger (non-replayable ledgers
  /// are dropped — there is nothing to replay) and returns the shared
  /// instance. Disk writes are atomic like store().
  std::shared_ptr<const sim::WorkLedger> store_ledger(
      const std::string& key, sim::WorkLedger ledger);

  /// The canonical serialized ledger payload — the exact bytes
  /// store_ledger persists after the entry header.
  static std::string encode_ledger(const sim::WorkLedger& ledger);

  /// Parses exactly what encode_ledger produced. False on any
  /// malformed or truncated field; `ledger` is unspecified then.
  static bool decode_ledger(std::istream& in, sim::WorkLedger* ledger);

  const std::string& dir() const { return dir_; }
  std::uint64_t cap_bytes() const { return cap_bytes_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t stores() const;

  std::string stats_string() const;

 private:
  std::string path_for(const std::string& key) const;
  std::string ledger_path_for(const std::string& key) const;
  /// Publishes one v4 entry (header + key + checksum + payload) via
  /// util::atomic_write_file, then runs the eviction pass if capped.
  void publish(const std::string& path, const std::string& key,
               const std::string& header, const std::string& payload);
  void maybe_evict();

  std::string dir_;
  std::uint64_t cap_bytes_ = 0;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, RunRecord> memory_;
  std::unordered_map<std::string, std::shared_ptr<const sim::WorkLedger>>
      ledgers_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
};

}  // namespace pas::analysis
