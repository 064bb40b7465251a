// Process-wide metrics registry.
//
// Counters, gauges and histograms are registered once by name (a mutex
// protects the name table) and then updated lock-free: the idiomatic
// call site is
//
//   static obs::Counter& drops =
//       obs::registry().counter("fault.message_drops");
//   drops.add();
//
// so hot paths pay one relaxed atomic increment and never a lock.
//
// Every metric carries a Stability tag that decides whether it may
// appear in exported artifacts:
//
//   * kStable   — derived from virtual-time-deterministic data (the
//     canonical RunRecords of a sweep). Identical at any --jobs; these
//     are what metrics.csv and run_report.json contain.
//   * kVolatile — wall-clock or schedule dependent (per-point wall
//     time, live cache hit counts, watchdog latches). Diagnostics
//     only; exporters keep them out of the deterministic artifacts
//     (see DESIGN.md §8).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pas::obs {

enum class Stability {
  kStable = 0,   ///< deterministic at any --jobs; exported
  kVolatile = 1  ///< wall-clock / schedule dependent; diagnostics only
};

const char* stability_name(Stability s);

/// Monotonic event count. Lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  void reset() { v_.store(0, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written value. Lock-free.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  void reset() { v_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> v_{0.0};
};

/// Count / sum / min / max of observed samples plus a fixed geometric
/// bucket array for percentile estimates (per-point wall times,
/// request latencies). observe() takes a short histogram-local lock —
/// it is meant for per-run events, not per-message hot paths.
///
/// Buckets: 20 per decade over [1e-6, 1e3) (sub-microsecond samples
/// land in the first bucket, anything above 1000 in the last), so a
/// percentile estimate carries at most one bucket (~12% relative)
/// of error — plenty for latency reporting, constant memory.
class Histogram {
 public:
  // 9 decades x 20 buckets per decade.
  static constexpr int kBuckets = 180;

  void observe(double x);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double mean() const {
      return count ? sum / static_cast<double>(count) : 0.0;
    }
  };
  Snapshot snapshot() const;

 private:
  friend class Registry;
  void reset();
  /// Rank-based estimate from the bucket array; caller holds mutex_.
  double percentile_locked(double p) const;
  mutable std::mutex mutex_;
  Snapshot snap_;
  std::uint64_t buckets_[kBuckets] = {};
};

/// One exported row of the registry (histograms expand to seven rows:
/// .count/.sum/.min/.max/.p50/.p90/.p99).
struct MetricRow {
  std::string name;
  std::string kind;  ///< "counter", "gauge" or "histogram"
  Stability stability = Stability::kVolatile;
  std::string value;  ///< canonical spelling (%llu / %.17g)
};

class Registry {
 public:
  /// Registers (first call) or finds (later calls) a metric. The
  /// returned reference stays valid for the process lifetime. A name
  /// re-registered as a different kind throws std::logic_error; the
  /// stability of the first registration wins.
  Counter& counter(const std::string& name,
                   Stability stability = Stability::kVolatile);
  Gauge& gauge(const std::string& name,
               Stability stability = Stability::kVolatile);
  Histogram& histogram(const std::string& name,
                       Stability stability = Stability::kVolatile);

  /// Deterministic snapshot: rows sorted by name. `max_stability`
  /// filters: kStable returns only stable rows (the artifact set),
  /// kVolatile returns everything.
  std::vector<MetricRow> rows(Stability max_stability) const;

  /// "metric,kind,stability,value\n..." over rows(max_stability), sorted.
  std::string to_csv(Stability max_stability) const;

  /// Zeroes every value, keeping registrations. For tests that need a
  /// clean process-wide slate (determinism golden runs).
  void reset();

 private:
  struct Entry {
    std::string kind;
    Stability stability = Stability::kVolatile;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(const std::string& name, const char* kind, Stability stability);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

/// The process-wide registry.
Registry& registry();

/// One-line bench-footer summary of the sweep engine's stable
/// acceleration counters — repriced / sampled points and
/// the maximum sampled CI half-width (DESIGN.md §10, §14). Reads the
/// registry without registering anything, so rows only appear for
/// features that actually ran; empty when none of them did.
std::string sweep_counters_summary();

}  // namespace pas::obs
