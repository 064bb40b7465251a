// SweepJournal — the write-ahead journal behind `--resume` and the
// `--isolate` supervisor (DESIGN.md §12).
//
// One append-only file records every point a sweep has finished
// (successfully OR fail-soft), keyed by the point's RunCache content
// hash key. Each record is framed, checksummed and fsync'd before
// append() returns, so after a SIGKILL at ANY instruction the journal
// holds a prefix of the completed points plus at most one torn tail
// frame — which repair_tail() truncates away. A resumed sweep replays
// the journal instead of the simulator and converges to byte-identical
// artifacts.
//
// On-disk format (validated by scripts/check_journal_schema.py):
//
//   pasim-sweep-journal v1\n
//   J <payload_bytes> <fnv1a_hex_16>\n<payload>      (repeated)
//
// with payload:
//
//   key <cache key>\n
//   status <RunStatus int>\n
//   error <bytes>\n<raw error text>\n
//   <RunCache::encode_record bytes>
//   end\n
//
// The journal is also the supervisor's IPC: workers attach to the
// shared file (Mode::kAttach — they never read its history), append
// (O_APPEND single-write() frames never interleave; an advisory flock
// serializes them anyway), and the parent harvests their results with
// refresh(). The journal deliberately stores failed records — they are
// deterministic outcomes a resume must not re-roll — but
// supervisor-synthesized crash records are NEVER journaled: a crash is
// an environmental accident, and a resume should retry the point for
// real.
//
// Reading contract. A handle keeps a read cursor: an open descriptor on
// the file it parsed and the offset just past that file's last good
// frame. Opening reads the file once (kResume), only its magic line
// (kAttach) or not at all (kFresh). After that, refresh() costs one
// stat() when nothing was appended, and otherwise one pread() of
// exactly the bytes past the cursor. A file replaced under the handle
// (a new inode at `path`, as a non-resuming sweep publishes) or cut
// shorter than the cursor is re-read from its first frame. Records
// already in the index stay: they are content-addressed and
// deterministic, so a replaced file can add records but never make one
// wrong. repair_tail() only ever cuts the tail of the file the cursor
// belongs to. refresh() and find() are safe from any number of
// threads; refresh() does its file I/O outside the index lock, so
// find() never waits on the disk.
//
// Torture hooks: set_crash_after_appends(n) SIGKILLs the process right
// after the n-th successful append (the journaled point survives, the
// rest of the sweep dies — the resume test's crash point), and
// set_crash_mid_append(n) kills mid-write of the n-th frame, leaving
// exactly the torn tail repair_tail() must handle. Both also read
// $PASIM_CRASH_AFTER_APPENDS / $PASIM_CRASH_MID_APPEND at first use so
// the shell-level harness can arm them in a child process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pas/analysis/run_matrix.hpp"

namespace pas::analysis {

class SweepJournal {
 public:
  enum class Mode {
    /// Discard any existing journal at `path`: a fresh one (magic line
    /// only) is published atomically.
    kFresh,
    /// Load the existing records with one read of the file (tolerating
    /// — and truncating — a torn tail) so find() serves them. No
    /// journal yet, or a file that is not one: same as kFresh.
    kResume,
    /// Append to the existing journal without reading or decoding its
    /// history: the cursor starts at the current end of the file. For
    /// supervised workers, whose supervisor hands them only unresolved
    /// points and harvests their appends. No journal yet: as kFresh.
    kAttach,
  };

  SweepJournal(std::string path, Mode mode);
  /// kResume when `resume`, else kFresh.
  SweepJournal(std::string path, bool resume)
      : SweepJournal(std::move(path), resume ? Mode::kResume : Mode::kFresh) {}
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// The journaled record of `key`, if that point already completed.
  std::optional<RunRecord> find(const std::string& key) const;

  /// Journals one completed point: frame + checksum + fsync before
  /// returning. Idempotent per key. Fail-soft on I/O errors (ENOSPC):
  /// logs once, returns false, and the sweep carries on — a sweep
  /// without a journal is degraded, not dead.
  bool append(const std::string& key, const RunRecord& record);

  /// Harvests frames appended since the last load/refresh — by this
  /// handle, other handles or other processes (the supervisor's
  /// harvest step). Reads only the bytes past the cursor, or the whole
  /// file when it was replaced or cut short (see the header comment).
  /// Returns the number of new records. Stops at the first
  /// torn/corrupt frame.
  std::size_t refresh();

  /// Truncates a torn/corrupt tail (under the journal flock) so later
  /// appends are reachable by every reader. Only the file this handle
  /// parsed is ever cut, and only past its last good frame. Call only
  /// while no writer is live — the ctor does on resume, and the
  /// supervisor does after reaping a dead worker.
  void repair_tail();

  std::size_t entries() const;
  const std::string& path() const { return path_; }
  /// The errno that kept this handle from creating its journal file, or
  /// 0. Such a handle journals nothing (a sweep degrades to running
  /// without one); a supervisor, whose workers report only through the
  /// journal, refuses it.
  int create_error() const { return create_error_; }
  /// Frame bytes (everything past the magic line) this handle has read
  /// from journal files so far. The cost model of refresh(), made
  /// observable for tests.
  std::uint64_t bytes_read() const;

  /// SIGKILL the process immediately after the n-th successful append
  /// from now (n >= 1); n <= 0 disarms. Process-wide.
  static void set_crash_after_appends(long n);
  /// SIGKILL the process halfway through writing the n-th frame from
  /// now (n >= 1), leaving a torn tail; n <= 0 disarms. Process-wide.
  static void set_crash_mid_append(long n);

 private:
  using Harvest = std::vector<std::pair<std::string, RunRecord>>;

  /// Publishes an empty journal and points the cursor past its magic.
  void init_fresh();
  /// (Re)opens the cursor's descriptor on whatever `path_` names now;
  /// returns that file's size, or -1 when it cannot be opened.
  long long reopen_locked();
  /// The read step of refresh(): decodes every whole frame past the
  /// cursor into `out` and advances the cursor. Caller holds
  /// read_mutex_ (never mutex_).
  void read_new_frames_locked(Harvest* out);
  /// Moves harvested records into the index; returns how many were new.
  std::size_t index(Harvest&& harvest);

  std::string path_;

  /// Guards the index. Lock order: read_mutex_, then mutex_, then the
  /// journal flock (append holds mutex_ across its flock'd write), so
  /// neither refresh nor repair ever takes mutex_ under the flock.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, RunRecord> records_;
  bool write_failed_ = false;  ///< first failure already logged
  int create_error_ = 0;       ///< errno of a failed init_fresh()

  /// Guards the read cursor below.
  mutable std::mutex read_mutex_;
  int fd_ = -1;  ///< read-only descriptor of the file the cursor is in
  std::uint64_t dev_ = 0;  ///< identity of that file, to detect a
  std::uint64_t ino_ = 0;  ///< replacement at `path_`
  std::size_t read_offset_ = 0;  ///< end of its last good frame
  std::uint64_t bytes_read_ = 0;
};

}  // namespace pas::analysis
