#include "fft/autocorrelation.h"

#include <algorithm>
#include <complex>

#include "fft/fft.h"
#include "fft/plan.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace conformer::fft {

namespace {

bool IsPowerOfTwo(int64_t n) { return n > 0 && (n & (n - 1)) == 0; }

// Transform length used for the circular correlation of a length-n series:
// n itself when the circular FFT applies directly, otherwise the padded
// power of two >= 2n that holds the full linear correlation.
int64_t CircularPlanLength(int64_t n) {
  return IsPowerOfTwo(n) ? n : NextPowerOfTwo(2 * n);
}

// Circular auto-correlation of x[0..n) into out[0..n) using `plan` (whose
// length must be CircularPlanLength(n)). For padded plans the linear
// correlation lin[k] comes back in buffer[k] (k >= 0) and buffer[m - k]
// (k < 0), and the circular result is the wrap-around fold
// circ[lag] = lin[lag] + lin[lag - n].
void CircularAutoCorrelationInto(const double* x, int64_t n,
                                 const FftPlan& plan, double* out) {
  const int64_t m = plan.length();
  std::vector<std::complex<double>> buffer(m, {0.0, 0.0});
  for (int64_t i = 0; i < n; ++i) buffer[i] = {x[i], 0.0};
  plan.Forward(buffer.data());
  for (auto& c : buffer) c *= std::conj(c);
  plan.Inverse(buffer.data());
  if (m == n) {
    for (int64_t lag = 0; lag < n; ++lag) out[lag] = buffer[lag].real();
    return;
  }
  out[0] = buffer[0].real();
  for (int64_t lag = 1; lag < n; ++lag) {
    out[lag] = buffer[lag].real() + buffer[m - n + lag].real();
  }
}

}  // namespace

std::vector<double> AutoCorrelationBatch(const std::vector<double>& series,
                                         int64_t count, int64_t length) {
  CONFORMER_CHECK_GE(count, 0);
  CONFORMER_CHECK_GT(length, 0);
  CONFORMER_CHECK_EQ(static_cast<int64_t>(series.size()), count * length);
  std::vector<double> out(series.size());
  if (count == 0) return out;
  // Warm the plan before fanning out so workers never contend on the cache
  // mutex (and the one-time build is attributed to the dispatching thread).
  std::shared_ptr<const FftPlan> plan = GetPlan(CircularPlanLength(length));
  // Disjoint writes: row i is written by exactly one chunk, and chunk
  // boundaries depend only on (0, count, 1) — bitwise identical at any
  // thread count (docs/THREADING.md contract 1).
  ParallelFor(0, count, /*grain=*/1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      CircularAutoCorrelationInto(series.data() + i * length, length, *plan,
                                  out.data() + i * length);
    }
  });
  return out;
}

std::vector<double> CrossCorrelation(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  CONFORMER_CHECK_EQ(a.size(), b.size());
  const int64_t n = static_cast<int64_t>(a.size());
  CONFORMER_CHECK_GT(n, 0);
  const int64_t m = CircularPlanLength(n);
  std::shared_ptr<const FftPlan> plan = GetPlan(m);
  std::vector<std::complex<double>> fa(m, {0.0, 0.0});
  std::vector<std::complex<double>> fb(m, {0.0, 0.0});
  for (int64_t i = 0; i < n; ++i) {
    fa[i] = {a[i], 0.0};
    fb[i] = {b[i], 0.0};
  }
  plan->Forward(fa.data());
  plan->Forward(fb.data());
  for (int64_t i = 0; i < m; ++i) fa[i] *= std::conj(fb[i]);
  plan->Inverse(fa.data());
  std::vector<double> out(n);
  if (m == n) {
    for (int64_t lag = 0; lag < n; ++lag) out[lag] = fa[lag].real();
    return out;
  }
  // Fold the padded linear correlation back to circular:
  // circ[lag] = lin[lag] + lin[lag - n], with lin[-j] stored at fa[m - j].
  out[0] = fa[0].real();
  for (int64_t lag = 1; lag < n; ++lag) {
    out[lag] = fa[lag].real() + fa[m - n + lag].real();
  }
  return out;
}

std::vector<int64_t> TopKLags(const std::vector<double>& correlation, int64_t k) {
  const int64_t n = static_cast<int64_t>(correlation.size());
  std::vector<int64_t> lags;
  for (int64_t i = 1; i < n; ++i) lags.push_back(i);
  k = std::clamp<int64_t>(k, 0, static_cast<int64_t>(lags.size()));
  // Equal correlations break toward the lower lag: partial_sort's order
  // among tied elements is otherwise implementation-defined, and downstream
  // consumers (lag selection, period dedup) rely on a stable answer.
  std::partial_sort(lags.begin(), lags.begin() + k, lags.end(),
                    [&](int64_t x, int64_t y) {
                      if (correlation[x] != correlation[y]) {
                        return correlation[x] > correlation[y];
                      }
                      return x < y;
                    });
  lags.resize(k);
  return lags;
}

std::vector<PeriodCandidate> TopKPeriods(const std::vector<double>& amplitude,
                                         int64_t length, int64_t k) {
  CONFORMER_CHECK_GT(length, 0);
  // Usable bins: [1, Nyquist]. Bin 0 (DC) carries the mean, not a period;
  // bins past length/2 mirror the lower half for real input.
  const int64_t max_freq = std::min<int64_t>(
      static_cast<int64_t>(amplitude.size()) - 1, length / 2);
  std::vector<int64_t> freqs;
  for (int64_t f = 1; f <= max_freq; ++f) freqs.push_back(f);
  std::sort(freqs.begin(), freqs.end(), [&](int64_t x, int64_t y) {
    if (amplitude[x] != amplitude[y]) return amplitude[x] > amplitude[y];
    return x < y;  // Tie: prefer the lower frequency (longer period).
  });
  std::vector<PeriodCandidate> out;
  std::vector<bool> seen(length + 1, false);
  for (int64_t f : freqs) {
    if (static_cast<int64_t>(out.size()) >= std::max<int64_t>(k, 0)) break;
    const int64_t period = length / f;
    // Integer rounding maps several high bins to the same period; keep the
    // strongest (first in amplitude order).
    if (seen[period]) continue;
    seen[period] = true;
    out.push_back({f, period});
  }
  return out;
}

}  // namespace conformer::fft
