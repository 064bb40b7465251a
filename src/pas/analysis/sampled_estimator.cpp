#include "pas/analysis/sampled_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

namespace pas::analysis {

SampledEstimate estimate_sampled_run(const sim::SampleProbe& probe,
                                     int total_iters, int warmup_iters,
                                     double measured_seconds) {
  SampledEstimate est;
  est.total_iters = total_iters;
  if (probe.nranks() < 1) return est;

  // Cluster series: max-over-ranks `now` at each recorded boundary.
  // Lanes are append-only per rank; boundaries are shared (every rank
  // follows the same sampling plan), so keying by iteration aligns
  // them without assuming identical lane lengths mid-run.
  std::map<int, double> series;
  for (int r = 0; r < probe.nranks(); ++r) {
    for (const sim::RankSample& s : probe.lane(r)) {
      auto [it, inserted] = series.emplace(s.iter, s.now);
      if (!inserted) it->second = std::max(it->second, s.now);
    }
  }
  // Every boundary but the iteration-0 baseline closes a detailed
  // iteration.
  est.sampled_iters = static_cast<int>(series.size() - series.count(0));

  // The detailed subset covers every iteration the run executed; the
  // remainder is what the estimator must account for.
  const int skipped = total_iters - est.sampled_iters;
  if (skipped <= 0) {
    // Nothing was skipped (trivial plan or short loop): the measured
    // makespan is already the full-run makespan.
    est.valid = true;
    est.seconds = measured_seconds;
    return est;
  }

  // Post-warmup deltas between consecutive recorded boundaries: each
  // spans exactly one detailed iteration (skipped iterations between
  // them executed nothing).
  std::vector<double> deltas;
  const double* prev = nullptr;
  for (const auto& [iter, now] : series) {
    if (prev != nullptr && iter > warmup_iters)
      deltas.push_back(now - *prev);
    prev = &now;
  }
  if (deltas.empty()) return est;  // cannot extrapolate: no samples

  double mean = 0.0;
  for (double d : deltas) mean += d;
  mean /= static_cast<double>(deltas.size());
  double var = 0.0;
  for (double d : deltas) var += (d - mean) * (d - mean);
  const std::size_t n = deltas.size();
  const double sd = n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;

  est.valid = true;
  est.seconds =
      measured_seconds + mean * static_cast<double>(skipped);
  est.ci_seconds = 1.96 * sd / std::sqrt(static_cast<double>(n)) *
                   static_cast<double>(skipped);
  return est;
}

}  // namespace pas::analysis
