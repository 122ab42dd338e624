// FFT-based auto-correlation (Wiener–Khinchin), implementing Eq. (1) of the
// paper:  MR_XX = F^{-1}( F(X) conj(F(X)) ).
//
// Every entry point is O(n log n) at every length. Power-of-two lengths use
// the length-n circular FFT directly; other lengths compute the linear
// correlation at the next power of two >= 2n and fold the wrap-around term
// (circ[lag] = lin[lag] + lin[lag - n]), which is exact — no O(n^2) fallback
// and no spectral-leakage approximation. Transform plans come from the
// process-wide cache in fft/plan.h.

#ifndef CONFORMER_FFT_AUTOCORRELATION_H_
#define CONFORMER_FFT_AUTOCORRELATION_H_

#include <cstdint>
#include <vector>

namespace conformer::fft {

/// Circular auto-correlation of `count` series of length `length`, stored
/// back-to-back in `series` (row-major [count, length]), at all lags
/// [0, length): the inverse FFT of each row's power spectrum. Returns the
/// same layout; one series is a batch of one. Rows fan out across
/// util::ParallelFor under the determinism contract of docs/THREADING.md:
/// each row is one disjoint output slice, so row i is bitwise identical to
/// that row run alone at any thread count. The FFT plan is warmed once
/// before the parallel region.
std::vector<double> AutoCorrelationBatch(const std::vector<double>& series,
                                         int64_t count, int64_t length);

/// Circular cross-correlation of `a` against `b` at all lags [0, n):
/// F^{-1}(F(a) conj(F(b))). Both inputs must have the same length.
std::vector<double> CrossCorrelation(const std::vector<double>& a,
                                     const std::vector<double>& b);

/// Lags of the `k` largest auto-correlation values (lag 0 excluded) —
/// the period candidates used by the Autoformer-style baseline. `k` is
/// clamped into [0, n-1]; ties are deterministic (equal correlation →
/// lower lag wins), so the result is a pure function of `correlation`
/// independent of the sort implementation.
std::vector<int64_t> TopKLags(const std::vector<double>& correlation, int64_t k);

/// One dominant-period candidate from a real-FFT amplitude spectrum.
struct PeriodCandidate {
  int64_t frequency;  ///< DFT bin index (cycles over the window), >= 1.
  int64_t period;     ///< length / frequency (integer division), >= 2.
};

/// The `k` dominant periods of a length-`length` series given its per-bin
/// spectrum `amplitude` (amplitude[f] = |X[f]|; any size up to `length` —
/// bins past Nyquist are ignored since they mirror). The TimesNet-lite
/// `FFT_for_Period` recipe with its implicit assumptions made explicit:
/// the DC bin is excluded, amplitude ties break toward the lower frequency
/// (the longer period), periods that collide after the `length / frequency`
/// rounding are deduplicated (keeping the higher-amplitude bin), and `k` is
/// clamped to the number of distinct candidates.
std::vector<PeriodCandidate> TopKPeriods(const std::vector<double>& amplitude,
                                         int64_t length, int64_t k);

}  // namespace conformer::fft

#endif  // CONFORMER_FFT_AUTOCORRELATION_H_
