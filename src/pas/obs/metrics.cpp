#include "pas/obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <stdexcept>

#include "pas/util/format.hpp"

namespace pas::obs {

const char* stability_name(Stability s) {
  return s == Stability::kStable ? "stable" : "volatile";
}

namespace {

// 20 geometric buckets per decade starting at 1e-6: index i covers
// [1e-6 * 10^(i/20), 1e-6 * 10^((i+1)/20)).
int bucket_index(double x) {
  if (!(x > 1e-6)) return 0;
  const int i = static_cast<int>(20.0 * (std::log10(x) + 6.0));
  return std::clamp(i, 0, Histogram::kBuckets - 1);
}

double bucket_upper_bound(int i) {
  return 1e-6 * std::pow(10.0, (i + 1) / 20.0);
}

}  // namespace

void Histogram::observe(double x) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (snap_.count == 0) {
    snap_.min = x;
    snap_.max = x;
  } else {
    snap_.min = std::min(snap_.min, x);
    snap_.max = std::max(snap_.max, x);
  }
  ++snap_.count;
  snap_.sum += x;
  ++buckets_[bucket_index(x)];
}

double Histogram::percentile_locked(double p) const {
  if (snap_.count == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p * static_cast<double>(snap_.count))));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank)
      return std::clamp(bucket_upper_bound(i), snap_.min, snap_.max);
  }
  return snap_.max;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s = snap_;
  s.p50 = percentile_locked(0.50);
  s.p90 = percentile_locked(0.90);
  s.p99 = percentile_locked(0.99);
  return s;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  snap_ = Snapshot{};
  for (std::uint64_t& b : buckets_) b = 0;
}

Registry::Entry& Registry::entry(const std::string& name, const char* kind,
                                 Stability stability) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
    it->second.stability = stability;
  } else if (it->second.kind != kind) {
    throw std::logic_error("metric '" + name + "' already registered as a " +
                           it->second.kind + ", requested as a " + kind);
  }
  return it->second;
}

Counter& Registry::counter(const std::string& name, Stability stability) {
  Entry& e = entry(name, "counter", stability);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, Stability stability) {
  Entry& e = entry(name, "gauge", stability);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name, Stability stability) {
  Entry& e = entry(name, "histogram", stability);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>();
  return *e.histogram;
}

std::vector<MetricRow> Registry::rows(Stability max_stability) const {
  std::vector<MetricRow> out;
  std::lock_guard<std::mutex> lock(mutex_);
  // std::map iterates in name order, so the rows are already sorted.
  for (const auto& [name, e] : entries_) {
    if (max_stability == Stability::kStable &&
        e.stability != Stability::kStable)
      continue;
    auto row = [&](const std::string& n, std::string value) {
      out.push_back(MetricRow{n, e.kind, e.stability, std::move(value)});
    };
    if (e.counter) {
      row(name, util::strf("%" PRIu64, e.counter->value()));
    } else if (e.gauge) {
      row(name, util::strf("%.17g", e.gauge->value()));
    } else if (e.histogram) {
      const Histogram::Snapshot s = e.histogram->snapshot();
      row(name + ".count", util::strf("%" PRIu64, s.count));
      row(name + ".sum", util::strf("%.17g", s.sum));
      row(name + ".min", util::strf("%.17g", s.min));
      row(name + ".max", util::strf("%.17g", s.max));
      row(name + ".p50", util::strf("%.17g", s.p50));
      row(name + ".p90", util::strf("%.17g", s.p90));
      row(name + ".p99", util::strf("%.17g", s.p99));
    }
  }
  return out;
}

std::string Registry::to_csv(Stability max_stability) const {
  std::string out = "metric,kind,stability,value\n";
  for (const MetricRow& r : rows(max_stability)) {
    out += r.name;
    out += ',';
    out += r.kind;
    out += ',';
    out += stability_name(r.stability);
    out += ',';
    out += r.value;
    out += '\n';
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, e] : entries_) {
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.histogram) e.histogram->reset();
  }
}

Registry& registry() {
  static Registry instance;
  return instance;
}

std::string sweep_counters_summary() {
  std::string out, ci;
  const auto append = [&out](const char* label, const std::string& value) {
    if (value == "0") return;
    if (!out.empty()) out += ", ";
    out += label;
    out += ' ';
    out += value;
  };
  bool sampled = false;
  for (const MetricRow& r : registry().rows(Stability::kStable)) {
    if (r.name == "sweep.points_repriced") {
      append("repriced", r.value);
    } else if (r.name == "sweep.points_sampled") {
      sampled = r.value != "0";
      append("sampled", r.value);
    } else if (r.name == "sampling.ci_halfwidth_max") {
      ci = r.value;
    }
  }
  if (sampled && !ci.empty())
    out += util::strf(", max CI half-width %ss", ci.c_str());
  if (!out.empty()) out = "sweep points: " + out;
  return out;
}

}  // namespace pas::obs
