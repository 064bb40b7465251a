#include "pas/analysis/sweep_journal.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "pas/analysis/run_cache.hpp"
#include "pas/util/format.hpp"
#include "pas/util/fs.hpp"
#include "pas/util/log.hpp"

namespace pas::analysis {
namespace {

constexpr char kMagic[] = "pasim-sweep-journal v1\n";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;

long env_count(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  return (end != v && *end == '\0' && n > 0) ? n : 0;
}

std::atomic<long>& crash_after_counter() {
  static std::atomic<long> v{env_count("PASIM_CRASH_AFTER_APPENDS")};
  return v;
}

std::atomic<long>& crash_mid_counter() {
  static std::atomic<long> v{env_count("PASIM_CRASH_MID_APPEND")};
  return v;
}

/// Counts one append against an armed crash trigger; true exactly when
/// this append is the n-th (the one that must die).
bool take_trigger(std::atomic<long>& v) {
  long cur = v.load(std::memory_order_relaxed);
  while (cur > 0) {
    if (v.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed))
      return cur == 1;
  }
  return false;
}

std::string encode_payload(const std::string& key, const RunRecord& rec) {
  std::ostringstream out;
  out << "key " << key << '\n';
  out << "status " << static_cast<int>(rec.status) << '\n';
  // Length-prefixed raw bytes: the error text of a failed run is free
  // text and must not be able to break the line framing.
  out << "error " << rec.error.size() << '\n' << rec.error << '\n';
  out << RunCache::encode_record(rec);
  out << "end\n";
  return out.str();
}

bool decode_payload(const std::string& p, std::string* key, RunRecord* rec) {
  std::size_t off = 0;
  const auto line = [&](std::string* out) {
    const std::size_t nl = p.find('\n', off);
    if (nl == std::string::npos) return false;
    *out = p.substr(off, nl - off);
    off = nl + 1;
    return true;
  };
  std::string l;
  if (!line(&l) || l.rfind("key ", 0) != 0) return false;
  *key = l.substr(4);
  if (key->empty()) return false;
  if (!line(&l) || l.rfind("status ", 0) != 0) return false;
  char* end = nullptr;
  const long status = std::strtol(l.c_str() + 7, &end, 10);
  if (end == nullptr || *end != '\0' || status < 0 ||
      status > static_cast<long>(RunStatus::kCrashed))
    return false;
  rec->status = static_cast<RunStatus>(status);
  if (!line(&l) || l.rfind("error ", 0) != 0) return false;
  const long err_len = std::strtol(l.c_str() + 6, &end, 10);
  if (end == nullptr || *end != '\0' || err_len < 0 ||
      off + static_cast<std::size_t>(err_len) + 1 > p.size())
    return false;
  rec->error = p.substr(off, static_cast<std::size_t>(err_len));
  off += static_cast<std::size_t>(err_len);
  if (p[off] != '\n') return false;
  ++off;
  std::istringstream rest(p.substr(off));
  if (!RunCache::decode_record(rest, rec)) return false;
  std::string tail;
  if (!(rest >> tail) || tail != "end") return false;
  return true;
}

/// Decodes the whole frames of `s` from position `at` on into `out`
/// and returns the position just past the last good one: parsing stops
/// at the first torn or corrupt frame.
std::size_t parse_frames(const std::string& s, std::size_t at,
                         std::vector<std::pair<std::string, RunRecord>>* out) {
  std::size_t off = at;
  while (off < s.size()) {
    const std::size_t nl = s.find('\n', off);
    if (nl == std::string::npos) break;  // torn header line
    const std::string header = s.substr(off, nl - off);
    std::size_t payload_len = 0;
    std::uint64_t sum = 0;
    {
      std::istringstream in(header);
      std::string tag, hex;
      if (!(in >> tag >> payload_len >> hex) || tag != "J" || hex.size() != 16)
        break;
      char* end = nullptr;
      sum = std::strtoull(hex.c_str(), &end, 16);
      if (end == nullptr || *end != '\0') break;
    }
    const std::size_t payload_at = nl + 1;
    if (payload_len > s.size() - payload_at) break;  // torn payload
    const std::string payload = s.substr(payload_at, payload_len);
    if (util::fnv1a(payload) != sum) break;  // bit rot / interleave
    std::string key;
    RunRecord rec;
    if (!decode_payload(payload, &key, &rec)) break;
    out->emplace_back(std::move(key), std::move(rec));
    off = payload_at + payload_len;
  }
  return off;
}

/// Up to `len` bytes of `fd` from offset `off` (fewer at end of file or
/// on a read error).
std::string pread_bytes(int fd, std::size_t off, std::size_t len) {
  std::string buf(len, '\0');
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, buf.data() + got, len - got,
                              static_cast<off_t>(off + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  buf.resize(got);
  return buf;
}

}  // namespace

SweepJournal::SweepJournal(std::string path, Mode mode)
    : path_(std::move(path)) {
  // No other thread can reach this handle yet, so the ctor works on the
  // cursor without taking read_mutex_.
  const auto not_a_journal = [&] {
    pas::util::log_warn("sweep journal: " + path_ +
                        " is not a journal (bad magic); starting fresh");
    init_fresh();
  };
  switch (mode) {
    case Mode::kFresh:
      init_fresh();
      return;
    case Mode::kAttach: {
      // Appends hold the flock across their write(), so the end of the
      // file seen under it is a frame boundary. Only the magic is read.
      const util::FileLock fl = util::FileLock::acquire(path_ + ".lock");
      const long long size = reopen_locked();
      if (size < 0) {
        init_fresh();  // no journal yet: same as a fresh sweep
      } else if (pread_bytes(fd_, 0, kMagicLen) != kMagic) {
        not_a_journal();
      } else {
        read_offset_ = static_cast<std::size_t>(size);
      }
      return;
    }
    case Mode::kResume: {
      // The one full read: the cursor starts at offset 0.
      Harvest harvest;
      read_new_frames_locked(&harvest);
      if (fd_ < 0) {
        init_fresh();  // --resume with no journal yet: a fresh sweep
        return;
      }
      if (read_offset_ == 0) {
        not_a_journal();
        return;
      }
      index(std::move(harvest));
      repair_tail();
      return;
    }
  }
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void SweepJournal::init_fresh() {
  if (const int err = util::atomic_write_file(path_, kMagic)) {
    pas::util::log_warn("sweep journal: cannot create " + path_ + ": " +
                        std::string(std::strerror(err)) +
                        "; journaling disabled for this run");
    write_failed_ = true;
    create_error_ = err;
    return;
  }
  reopen_locked();
  read_offset_ = kMagicLen;
}

long long SweepJournal::reopen_locked() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (fd_ >= 0 && ::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (fd_ < 0) return -1;
  dev_ = static_cast<std::uint64_t>(st.st_dev);
  ino_ = static_cast<std::uint64_t>(st.st_ino);
  return static_cast<long long>(st.st_size);
}

void SweepJournal::read_new_frames_locked(Harvest* out) {
  struct stat st {};
  if (::stat(path_.c_str(), &st) != 0) return;  // gone: nothing new
  long long size = static_cast<long long>(st.st_size);
  if (fd_ < 0 || static_cast<std::uint64_t>(st.st_dev) != dev_ ||
      static_cast<std::uint64_t>(st.st_ino) != ino_ ||
      size < static_cast<long long>(read_offset_)) {
    // First read, a file replaced under us (a non-resuming sweep
    // published a new journal) or one cut short: the cursor means
    // nothing there, so start over at the first frame.
    size = reopen_locked();
    read_offset_ = 0;
    if (size < 0) return;
  }
  const std::size_t from = read_offset_;
  if (static_cast<std::size_t>(size) <= from) return;  // idle: no reads
  const std::string bytes =
      pread_bytes(fd_, from, static_cast<std::size_t>(size) - from);
  std::size_t at = 0;
  if (from == 0) {
    if (bytes.compare(0, kMagicLen, kMagic) != 0) return;
    at = kMagicLen;
  }
  bytes_read_ += bytes.size() - at;
  read_offset_ = from + parse_frames(bytes, at, out);
}

std::size_t SweepJournal::index(Harvest&& harvest) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t added = 0;
  for (auto& [key, rec] : harvest)
    if (records_.emplace(std::move(key), std::move(rec)).second) ++added;
  return added;
}

std::size_t SweepJournal::refresh() {
  // The cursor lock is held through index(): a concurrent refresh that
  // finds nothing new must not return before these records are
  // findable.
  std::lock_guard<std::mutex> rlock(read_mutex_);
  Harvest harvest;
  read_new_frames_locked(&harvest);
  return index(std::move(harvest));
}

void SweepJournal::repair_tail() {
  std::lock_guard<std::mutex> rlock(read_mutex_);
  Harvest harvest;
  std::size_t dropped = 0;
  {
    const util::FileLock fl = util::FileLock::acquire(path_ + ".lock");
    // Harvest any frames a still-exiting writer got in before the lock;
    // whatever remains past the cursor is torn or unreachable garbage,
    // and appending after it would hide every later record. Cut it —
    // in the file the cursor parsed, never in one that replaced it.
    read_new_frames_locked(&harvest);
    const int wfd = read_offset_ > 0
                        ? ::open(path_.c_str(), O_WRONLY | O_CLOEXEC)
                        : -1;
    struct stat st {};
    if (wfd >= 0 && ::fstat(wfd, &st) == 0 &&
        static_cast<std::uint64_t>(st.st_dev) == dev_ &&
        static_cast<std::uint64_t>(st.st_ino) == ino_ &&
        static_cast<std::size_t>(st.st_size) > read_offset_) {
      if (::ftruncate(wfd, static_cast<off_t>(read_offset_)) == 0) {
        ::fsync(wfd);
        dropped = static_cast<std::size_t>(st.st_size) - read_offset_;
      } else {
        pas::util::log_warn("sweep journal: cannot truncate torn tail of " +
                            path_);
      }
    }
    if (wfd >= 0) ::close(wfd);
  }
  index(std::move(harvest));
  if (dropped == 0) return;
  pas::util::log_warn(pas::util::strf(
      "sweep journal: truncated %zu torn tail byte(s) of %s (crashed "
      "writer); %zu record(s) intact",
      dropped, path_.c_str(), entries()));
}

std::optional<RunRecord> SweepJournal::find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

bool SweepJournal::append(const std::string& key, const RunRecord& rec) {
  const std::string payload = encode_payload(key, rec);
  const std::string frame =
      pas::util::strf("J %zu %016" PRIx64 "\n", payload.size(),
                      util::fnv1a(payload)) +
      payload;
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.find(key) != records_.end()) return true;
  const util::FileLock fl = util::FileLock::acquire(path_ + ".lock");
  if (take_trigger(crash_mid_counter())) {
    // Torture hook: die halfway through the frame, leaving exactly the
    // torn tail repair_tail() exists for.
    util::append_durable(
        path_, std::string_view(frame).substr(0, frame.size() / 2));
    ::raise(SIGKILL);
  }
  if (const int err = util::append_durable(path_, frame)) {
    if (!write_failed_) {
      pas::util::log_warn("sweep journal: append to " + path_ + " failed: " +
                          std::string(std::strerror(err)) +
                          "; continuing without journaling");
      write_failed_ = true;
    }
    return false;
  }
  records_.emplace(key, rec);
  if (take_trigger(crash_after_counter())) ::raise(SIGKILL);
  return true;
}

std::size_t SweepJournal::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::uint64_t SweepJournal::bytes_read() const {
  std::lock_guard<std::mutex> lock(read_mutex_);
  return bytes_read_;
}

void SweepJournal::set_crash_after_appends(long n) {
  crash_after_counter().store(n > 0 ? n : 0, std::memory_order_relaxed);
}

long SweepJournal::crash_after_appends() {
  return crash_after_counter().load(std::memory_order_relaxed);
}

void SweepJournal::set_crash_mid_append(long n) {
  crash_mid_counter().store(n > 0 ? n : 0, std::memory_order_relaxed);
}

}  // namespace pas::analysis
