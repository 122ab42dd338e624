// Order statistics shared by every bench_e2e metric: exact nearest-rank
// percentiles with the "at least ten samples beyond" validity rule, and
// quartiles computed the way Python's statistics.quantiles(n=4) computes
// them, so the C++ report and compare.py describe spread identically.

#ifndef CONFORMER_BENCH_E2E_STATS_H_
#define CONFORMER_BENCH_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace conformer::bench_e2e {

/// A percentile is reported only when at least this many samples rank above
/// it; with fewer, the tail it claims to describe is a handful of outliers.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// \brief One nearest-rank percentile.
struct Percentile {
  double value = 0.0;
  int64_t rank = 0;    ///< 1-based rank in the sorted samples (0 if empty).
  int64_t beyond = 0;  ///< Samples ranked above `rank`.
  /// beyond >= kMinSamplesBeyond; an invalid percentile is not reported.
  bool valid = false;
};

/// Exact nearest-rank percentile, p in (0, 100]: the sample at 1-based rank
/// ceil(p/100 * n) of the sorted samples. No interpolation, so the value is
/// always one that was measured.
inline Percentile NearestRank(std::vector<double> samples, double p) {
  Percentile out;
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0) return out;
  std::sort(samples.begin(), samples.end());
  out.rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(p * static_cast<double>(n) / 100.0)), 1,
      n);
  out.value = samples[out.rank - 1];
  out.beyond = n - out.rank;
  out.valid = out.beyond >= kMinSamplesBeyond;
  return out;
}

/// \brief First quartile, median and third quartile.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double iqr() const { return q3 - q1; }
};

/// Quartiles by Python's statistics.quantiles(data, n=4) ("exclusive"
/// method, clamped to the sample range). A single sample is its own
/// quartiles; an empty input gives zeros.
inline Quartiles ComputeQuartiles(std::vector<double> samples) {
  Quartiles out;
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0) return out;
  std::sort(samples.begin(), samples.end());
  if (n == 1) return {samples[0], samples[0], samples[0]};
  const int64_t m = n + 1;
  double cut[3];
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const int64_t delta = i * m - j * 4;
    cut[i - 1] = (samples[j - 1] * static_cast<double>(4 - delta) +
                  samples[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

inline double Median(std::vector<double> samples) {
  return ComputeQuartiles(std::move(samples)).median;
}

/// \brief `amount` units of work finished at `at_ns`.
struct Completion {
  int64_t at_ns = 0;
  int64_t amount = 0;
};

/// Work per second in each whole `window_ns` window from `start_ns` up to
/// `end_ns`. Each completion's amount is spread evenly over the time since
/// the previous completion (the first: since `start_ns`), so a window that
/// holds part of a step gets that part, and the rates are not quantised to
/// whole steps. Empty when the span holds no whole window.
inline std::vector<double> WindowRates(std::vector<Completion> done,
                                       int64_t start_ns, int64_t end_ns,
                                       int64_t window_ns) {
  const int64_t windows = std::max<int64_t>(0, (end_ns - start_ns) / window_ns);
  std::vector<double> rates(windows, 0.0);
  std::sort(done.begin(), done.end(),
            [](const Completion& a, const Completion& b) {
              return a.at_ns < b.at_ns;
            });
  int64_t previous = start_ns;
  for (const Completion& c : done) {
    const int64_t from = std::max(previous, start_ns);
    const int64_t to = std::max(c.at_ns, from);
    previous = to;
    const double amount = static_cast<double>(c.amount);
    if (to == from) {  // Finished together with the previous completion.
      const int64_t w = (to - start_ns) / window_ns;
      if (w < windows) rates[w] += amount;
      continue;
    }
    const int64_t last = std::min((to - 1 - start_ns) / window_ns, windows - 1);
    for (int64_t w = (from - start_ns) / window_ns; w <= last; ++w) {
      const int64_t lo = std::max(from, start_ns + w * window_ns);
      const int64_t hi = std::min(to, start_ns + (w + 1) * window_ns);
      rates[w] += amount * static_cast<double>(hi - lo) /
                  static_cast<double>(to - from);
    }
  }
  for (double& r : rates) r /= static_cast<double>(window_ns) * 1e-9;
  return rates;
}

}  // namespace conformer::bench_e2e

#endif  // CONFORMER_BENCH_E2E_STATS_H_
