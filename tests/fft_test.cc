// FFT correctness against the naive DFT oracle — at power-of-two lengths
// (radix-2 path) and arbitrary lengths (Bluestein chirp-z path) including
// every benchmark length the paper uses — plus auto-correlation properties
// used by the Conformer input representation, plan-cache accounting, and the
// batched parallel path's bitwise-determinism contract (tsan-labeled).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "fft/autocorrelation.h"
#include "fft/fft.h"
#include "fft/plan.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace conformer::fft {
namespace {

using Complex = std::complex<double>;

// Relative tolerance for FFT-vs-oracle comparisons: |a - b| <= tol * scale
// with scale = max(1, |b|), so large-energy lags are judged relatively and
// near-zero lags absolutely.
void ExpectNearRel(double actual, double expected, double tol,
                   const std::string& label) {
  const double scale = std::max(1.0, std::fabs(expected));
  EXPECT_NEAR(actual, expected, tol * scale) << label;
}

// O(n^2) circular correlation oracle: out[lag] = sum_t a[(t+lag) % n] * b[t].
std::vector<double> DirectCircularCorrelation(const std::vector<double>& a,
                                              const std::vector<double>& b) {
  const int64_t n = static_cast<int64_t>(a.size());
  std::vector<double> out(n, 0.0);
  for (int64_t lag = 0; lag < n; ++lag) {
    for (int64_t t = 0; t < n; ++t) out[lag] += a[(t + lag) % n] * b[t];
  }
  return out;
}

// The auto-correlation of one series: a batch of one.
std::vector<double> AutoCorrelationOf(const std::vector<double>& signal) {
  return AutoCorrelationBatch(signal, 1, static_cast<int64_t>(signal.size()));
}

TEST(FftTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo(2), 2);
  EXPECT_EQ(NextPowerOfTwo(3), 4);
  EXPECT_EQ(NextPowerOfTwo(96), 128);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024);
}

TEST(FftTest, MatchesNaiveDft) {
  Rng rng(1);
  for (int64_t n : {2, 4, 8, 32, 128}) {
    std::vector<Complex> signal(n);
    for (auto& x : signal) x = {rng.Normal(), rng.Normal()};
    std::vector<Complex> expected = NaiveDft(signal, false);
    std::vector<Complex> actual = signal;
    Transform(&actual, false);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(actual[i].real(), expected[i].real(), 1e-8) << "n=" << n;
      EXPECT_NEAR(actual[i].imag(), expected[i].imag(), 1e-8) << "n=" << n;
    }
  }
}

TEST(FftTest, ArbitraryLengthMatchesNaiveDft) {
  // Non-power-of-two lengths take the Bluestein path; the spectrum must be
  // the exact DFT of the unpadded signal — including the paper's benchmark
  // lengths 96/192/336/720.
  Rng rng(11);
  for (int64_t n : {1, 2, 3, 5, 6, 7, 12, 51, 96, 192, 336, 720}) {
    std::vector<Complex> signal(n);
    for (auto& x : signal) x = {rng.Normal(), rng.Normal()};
    std::vector<Complex> expected = NaiveDft(signal, false);
    std::vector<Complex> actual = signal;
    Transform(&actual, false);
    for (int64_t i = 0; i < n; ++i) {
      ExpectNearRel(actual[i].real(), expected[i].real(), 1e-9,
                    "re n=" + std::to_string(n) + " k=" + std::to_string(i));
      ExpectNearRel(actual[i].imag(), expected[i].imag(), 1e-9,
                    "im n=" + std::to_string(n) + " k=" + std::to_string(i));
    }
  }
}

TEST(FftTest, ArbitraryLengthInverseMatchesNaiveDft) {
  Rng rng(12);
  for (int64_t n : {3, 5, 96, 336}) {
    std::vector<Complex> signal(n);
    for (auto& x : signal) x = {rng.Normal(), rng.Normal()};
    std::vector<Complex> expected = NaiveDft(signal, true);
    std::vector<Complex> actual = signal;
    Transform(&actual, true);
    for (int64_t i = 0; i < n; ++i) {
      ExpectNearRel(actual[i].real(), expected[i].real(), 1e-9, "n=" + std::to_string(n));
      ExpectNearRel(actual[i].imag(), expected[i].imag(), 1e-9, "n=" + std::to_string(n));
    }
  }
}

TEST(FftTest, ArbitraryLengthRoundTrip) {
  Rng rng(13);
  for (int64_t n : {5, 30, 336, 720}) {
    std::vector<Complex> signal(n);
    for (auto& x : signal) x = {rng.Normal(), rng.Normal()};
    std::vector<Complex> copy = signal;
    Transform(&copy, false);
    Transform(&copy, true);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(copy[i].real(), signal[i].real(), 1e-9) << "n=" << n;
      EXPECT_NEAR(copy[i].imag(), signal[i].imag(), 1e-9) << "n=" << n;
    }
  }
}

TEST(FftTest, InverseMatchesNaive) {
  Rng rng(7);
  std::vector<Complex> signal(16);
  for (auto& x : signal) x = {rng.Normal(), rng.Normal()};
  std::vector<Complex> expected = NaiveDft(signal, true);
  std::vector<Complex> actual = signal;
  Transform(&actual, true);
  for (size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(actual[i].real(), expected[i].real(), 1e-9);
    EXPECT_NEAR(actual[i].imag(), expected[i].imag(), 1e-9);
  }
}

TEST(FftTest, InverseRoundTrip) {
  Rng rng(2);
  std::vector<Complex> signal(64);
  for (auto& x : signal) x = {rng.Normal(), rng.Normal()};
  std::vector<Complex> copy = signal;
  Transform(&copy, false);
  Transform(&copy, true);
  for (size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(copy[i].real(), signal[i].real(), 1e-9);
    EXPECT_NEAR(copy[i].imag(), signal[i].imag(), 1e-9);
  }
}

TEST(FftTest, ImpulseHasFlatSpectrum) {
  std::vector<Complex> impulse(16, {0.0, 0.0});
  impulse[0] = {1.0, 0.0};
  Transform(&impulse, false);
  for (const auto& x : impulse) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, PureToneHasSingleBin) {
  const int64_t n = 64;
  const int64_t freq = 5;
  std::vector<Complex> tone(n);
  for (int64_t t = 0; t < n; ++t) {
    const double angle = 2.0 * std::numbers::pi * freq * t / n;
    tone[t] = {std::cos(angle), 0.0};
  }
  Transform(&tone, false);
  for (int64_t k = 0; k < n; ++k) {
    const double mag = std::abs(tone[k]);
    if (k == freq || k == n - freq) {
      EXPECT_NEAR(mag, n / 2.0, 1e-8);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-8);
    }
  }
}

TEST(FftTest, PureToneHasSingleBinAtNonPowerOfTwoLength) {
  // The old RealFft zero-padded 96 to 128, leaking a pure 96-periodic tone
  // across every bin. Bluestein keeps it in exactly one conjugate pair.
  const int64_t n = 96;
  const int64_t freq = 4;
  std::vector<double> tone(n);
  for (int64_t t = 0; t < n; ++t) {
    tone[t] = std::cos(2.0 * std::numbers::pi * freq * t / n);
  }
  auto spectrum = RealFft(tone);
  ASSERT_EQ(spectrum.size(), static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) {
    const double mag = std::abs(spectrum[k]);
    if (k == freq || k == n - freq) {
      EXPECT_NEAR(mag, n / 2.0, 1e-8) << "k=" << k;
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-8) << "k=" << k;
    }
  }
}

TEST(FftTest, LinearityHolds) {
  Rng rng(8);
  std::vector<Complex> a(32), b(32), combo(32);
  for (int64_t i = 0; i < 32; ++i) {
    a[i] = {rng.Normal(), 0.0};
    b[i] = {rng.Normal(), 0.0};
    combo[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  Transform(&a, false);
  Transform(&b, false);
  Transform(&combo, false);
  for (int64_t i = 0; i < 32; ++i) {
    const Complex expected = 2.0 * a[i] + 3.0 * b[i];
    EXPECT_NEAR(combo[i].real(), expected.real(), 1e-8);
    EXPECT_NEAR(combo[i].imag(), expected.imag(), 1e-8);
  }
}

TEST(FftTest, RealFftReturnsExactBinCountForAnyLength) {
  // Contract: exactly signal.size() bins, each the true unpadded DFT
  // coefficient, with Hermitian symmetry X[n-k] = conj(X[k]).
  Rng rng(9);
  for (int64_t n : {1, 2, 5, 50, 96, 720}) {
    std::vector<double> signal(n);
    double sum = 0.0;
    for (auto& x : signal) {
      x = rng.Normal();
      sum += x;
    }
    auto spectrum = RealFft(signal);
    ASSERT_EQ(spectrum.size(), static_cast<size_t>(n)) << "n=" << n;
    ExpectNearRel(spectrum[0].real(), sum, 1e-9, "DC n=" + std::to_string(n));
    EXPECT_NEAR(spectrum[0].imag(), 0.0, 1e-8);
    for (int64_t k = 1; k < n; ++k) {
      EXPECT_NEAR(spectrum[k].real(), spectrum[n - k].real(), 1e-8);
      EXPECT_NEAR(spectrum[k].imag(), -spectrum[n - k].imag(), 1e-8);
    }
  }
}

// -- plan cache -------------------------------------------------------------

TEST(FftPlanTest, CacheCountsHitsAndMisses) {
  ClearPlanCacheForTesting();
  metrics::Counter& hits =
      metrics::Registry::Global().GetCounter("fft.plan_hits");
  metrics::Counter& misses =
      metrics::Registry::Global().GetCounter("fft.plan_misses");
  hits.Reset();
  misses.Reset();

  auto a = GetPlan(336);
  EXPECT_EQ(misses.value(), 1);
  EXPECT_EQ(hits.value(), 0);
  auto b = GetPlan(336);
  EXPECT_EQ(misses.value(), 1);
  EXPECT_EQ(hits.value(), 1);
  EXPECT_EQ(a.get(), b.get()) << "same length must share one plan";
  auto c = GetPlan(1024);
  EXPECT_EQ(misses.value(), 2);
  EXPECT_EQ(PlanCacheSize(), 2);

  // A length-336 correlation uses only the padded 1024-point plan: hit.
  Rng rng(10);
  std::vector<double> signal(336);
  for (auto& x : signal) x = rng.Normal();
  (void)AutoCorrelationOf(signal);
  EXPECT_EQ(misses.value(), 2);
  EXPECT_GE(hits.value(), 2);
}

TEST(FftPlanTest, PlanTransformMatchesOracleBothPaths) {
  Rng rng(14);
  for (int64_t n : {8, 13}) {  // radix-2 and Bluestein
    FftPlan plan(n);
    EXPECT_EQ(plan.length(), n);
    std::vector<Complex> signal(n);
    for (auto& x : signal) x = {rng.Normal(), rng.Normal()};
    std::vector<Complex> expected = NaiveDft(signal, false);
    std::vector<Complex> actual = signal;
    plan.Forward(actual.data());
    for (int64_t i = 0; i < n; ++i) {
      ExpectNearRel(actual[i].real(), expected[i].real(), 1e-9, "fwd");
      ExpectNearRel(actual[i].imag(), expected[i].imag(), 1e-9, "fwd");
    }
    plan.Inverse(actual.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(actual[i].real(), signal[i].real(), 1e-9);
      EXPECT_NEAR(actual[i].imag(), signal[i].imag(), 1e-9);
    }
  }
}

// -- auto-correlation -------------------------------------------------------

TEST(AutoCorrTest, LagZeroIsEnergy) {
  std::vector<double> signal = {1.0, -2.0, 3.0, 0.5};
  auto ac = AutoCorrelationOf(signal);
  EXPECT_NEAR(ac[0], 1.0 + 4.0 + 9.0 + 0.25, 1e-9);
}

TEST(AutoCorrTest, MatchesDirectComputation) {
  Rng rng(3);
  std::vector<double> signal(32);
  for (auto& x : signal) x = rng.Normal();
  auto ac = AutoCorrelationOf(signal);  // power-of-two path (circular FFT)
  auto expected = DirectCircularCorrelation(signal, signal);
  for (int64_t lag = 0; lag < 32; ++lag) {
    EXPECT_NEAR(ac[lag], expected[lag], 1e-8) << "lag=" << lag;
  }
}

TEST(AutoCorrTest, MatchesDirectOracleAtEveryBenchmarkLength) {
  // Exactness of the linear-correlation + wrap-around-fold path at L = 1, 2,
  // 5 and the paper's 96/192/336/720 — the lengths that used to silently
  // degrade to the O(L^2) loop.
  Rng rng(4);
  for (int64_t n : {1, 2, 5, 96, 192, 336, 720}) {
    std::vector<double> signal(n);
    for (auto& x : signal) x = rng.Normal();
    auto ac = AutoCorrelationOf(signal);
    ASSERT_EQ(ac.size(), static_cast<size_t>(n));
    auto expected = DirectCircularCorrelation(signal, signal);
    for (int64_t lag = 0; lag < n; ++lag) {
      ExpectNearRel(ac[lag], expected[lag], 1e-9,
                    "n=" + std::to_string(n) + " lag=" + std::to_string(lag));
    }
  }
}

TEST(AutoCorrTest, CrossCorrelationMatchesDirectOracleAtAnyLength) {
  Rng rng(15);
  for (int64_t n : {2, 5, 96, 336}) {
    std::vector<double> a(n), b(n);
    for (auto& x : a) x = rng.Normal();
    for (auto& x : b) x = rng.Normal();
    auto cross = CrossCorrelation(a, b);
    auto expected = DirectCircularCorrelation(a, b);
    for (int64_t lag = 0; lag < n; ++lag) {
      ExpectNearRel(cross[lag], expected[lag], 1e-9,
                    "n=" + std::to_string(n) + " lag=" + std::to_string(lag));
    }
  }
}

TEST(AutoCorrTest, PeriodicSignalPeaksAtPeriod) {
  const int64_t n = 128;
  const int64_t period = 16;
  std::vector<double> signal(n);
  for (int64_t t = 0; t < n; ++t) {
    signal[t] = std::sin(2.0 * std::numbers::pi * t / period);
  }
  auto ac = AutoCorrelationOf(signal);
  auto lags = TopKLags(ac, 1);
  EXPECT_EQ(lags[0] % period, 0) << "top lag " << lags[0];
}

TEST(AutoCorrTest, PeriodicSignalPeaksAtPeriodNonPowerOfTwo) {
  // 336 = 14 daily cycles of an hourly series: the top lag must be a
  // multiple of 24 now that the FFT path covers this length.
  const int64_t n = 336;
  const int64_t period = 24;
  std::vector<double> signal(n);
  for (int64_t t = 0; t < n; ++t) {
    signal[t] = std::sin(2.0 * std::numbers::pi * t / period);
  }
  auto ac = AutoCorrelationOf(signal);
  auto lags = TopKLags(ac, 1);
  EXPECT_EQ(lags[0] % period, 0) << "top lag " << lags[0];
}

TEST(AutoCorrTest, CrossCorrelationOfSelfIsAutoCorrelation) {
  Rng rng(5);
  for (int64_t n : {16, 30}) {
    std::vector<double> a(n);
    for (auto& x : a) x = rng.Normal();
    auto cross = CrossCorrelation(a, a);
    auto ac = AutoCorrelationOf(a);
    for (int64_t i = 0; i < n; ++i) EXPECT_NEAR(cross[i], ac[i], 1e-8);
  }
}

TEST(AutoCorrTest, CrossCorrelationFindsShift) {
  const int64_t n = 64;
  Rng rng(6);
  std::vector<double> a(n);
  for (auto& x : a) x = rng.Normal();
  std::vector<double> b(n);
  for (int64_t t = 0; t < n; ++t) b[t] = a[(t + 5) % n];
  auto cross = CrossCorrelation(a, b);
  int64_t best = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (cross[i] > cross[best]) best = i;
  }
  EXPECT_EQ(best, 5);
}

TEST(AutoCorrTest, TopKLagsExcludesZeroAndSorts) {
  std::vector<double> corr = {100.0, 1.0, 9.0, 3.0, 7.0};
  auto lags = TopKLags(corr, 3);
  EXPECT_EQ(lags, (std::vector<int64_t>{2, 4, 3}));
  auto all = TopKLags(corr, 10);  // clamped to n-1
  EXPECT_EQ(all.size(), 4u);
}

TEST(AutoCorrTest, TopKLagsTiesBreakTowardLowerLag) {
  // All four lags tie: the contract pins the order to ascending lag. The
  // pre-fix comparator left tied order to partial_sort's heap internals,
  // which returns {2, 4, 1, 3} for this input on libstdc++.
  std::vector<double> corr = {0.0, 5.0, 5.0, 5.0, 5.0};
  EXPECT_EQ(TopKLags(corr, 4), (std::vector<int64_t>{1, 2, 3, 4}));
  // A tie below the top: lags 2 and 4 share 7.0, lower lag first.
  std::vector<double> partial = {100.0, 1.0, 7.0, 3.0, 7.0, 9.0};
  EXPECT_EQ(TopKLags(partial, 3), (std::vector<int64_t>{5, 2, 4}));
}

TEST(AutoCorrTest, TopKLagsClampsOutOfRangeK) {
  std::vector<double> corr = {3.0, 2.0, 1.0};
  // Negative k was undefined behaviour (partial_sort past begin) pre-fix.
  EXPECT_TRUE(TopKLags(corr, -1).empty());
  EXPECT_TRUE(TopKLags(corr, 0).empty());
  EXPECT_EQ(TopKLags(corr, 99), (std::vector<int64_t>{1, 2}));
  EXPECT_TRUE(TopKLags({42.0}, 3).empty());  // No usable lag at n=1.
}

// -- top-k period selection (TimesNet-lite FFT_for_Period audit) -----------

TEST(TopKPeriodsTest, ExcludesDcAndRanksByAmplitude) {
  // Length 24; bins 1..12 usable. DC dominates but must be excluded.
  std::vector<double> amp(13, 0.0);
  amp[0] = 1e6;
  amp[3] = 9.0;   // period 8
  amp[1] = 7.0;   // period 24
  amp[12] = 5.0;  // period 2
  auto periods = TopKPeriods(amp, 24, 3);
  ASSERT_EQ(periods.size(), 3u);
  EXPECT_EQ(periods[0].frequency, 3);
  EXPECT_EQ(periods[0].period, 8);
  EXPECT_EQ(periods[1].frequency, 1);
  EXPECT_EQ(periods[1].period, 24);
  EXPECT_EQ(periods[2].frequency, 12);
  EXPECT_EQ(periods[2].period, 2);
}

TEST(TopKPeriodsTest, DedupesPeriodsCollidingAfterRounding) {
  // Length 16: frequencies 6, 7, 8 all round to period 2 (16/6 = 2, 16/7 =
  // 2, 16/8 = 2). Only the strongest survives; the next distinct period
  // fills the remaining slot.
  std::vector<double> amp(9, 0.0);
  amp[6] = 9.0;
  amp[7] = 8.0;
  amp[8] = 7.0;
  amp[5] = 1.0;  // period 3
  auto periods = TopKPeriods(amp, 16, 2);
  ASSERT_EQ(periods.size(), 2u);
  EXPECT_EQ(periods[0].frequency, 6);
  EXPECT_EQ(periods[0].period, 2);
  EXPECT_EQ(periods[1].frequency, 5);
  EXPECT_EQ(periods[1].period, 3);
}

TEST(TopKPeriodsTest, TiesPreferLowerFrequencyAndKClamps) {
  std::vector<double> amp = {0.0, 4.0, 4.0, 4.0};
  auto periods = TopKPeriods(amp, 8, 99);  // k clamped to the candidates
  ASSERT_EQ(periods.size(), 3u);
  EXPECT_EQ(periods[0].frequency, 1);  // Tie: longer period wins.
  EXPECT_EQ(periods[0].period, 8);
  EXPECT_EQ(periods[1].period, 4);
  EXPECT_EQ(periods[2].period, 2);
  EXPECT_TRUE(TopKPeriods(amp, 8, 0).empty());
  EXPECT_TRUE(TopKPeriods(amp, 8, -2).empty());
  EXPECT_TRUE(TopKPeriods({1.0}, 1, 3).empty());  // DC only.
  // Bins past Nyquist mirror the lower half and are ignored: bin 7 at
  // length 8 must never outrank the in-range bins despite its amplitude.
  std::vector<double> long_amp(8, 0.0);
  long_amp[7] = 100.0;  // Mirrors bin 1 — not a candidate.
  long_amp[2] = 1.0;
  auto nyq = TopKPeriods(long_amp, 8, 8);
  ASSERT_FALSE(nyq.empty());
  EXPECT_EQ(nyq[0].frequency, 2);
  for (const auto& c : nyq) EXPECT_LE(c.frequency, 4);
}

// -- batched auto-correlation (threaded; tsan-labeled suite) ----------------

TEST(AutoCorrBatchTest, RowEqualsBatchOfOneBitwise) {
  Rng rng(16);
  const int64_t count = 7;
  for (int64_t length : {96, 336}) {
    std::vector<double> series(count * length);
    for (auto& x : series) x = rng.Normal();
    auto batch = AutoCorrelationBatch(series, count, length);
    ASSERT_EQ(batch.size(), series.size());
    for (int64_t i = 0; i < count; ++i) {
      std::vector<double> row(series.begin() + i * length,
                              series.begin() + (i + 1) * length);
      auto single = AutoCorrelationOf(row);
      EXPECT_EQ(std::memcmp(batch.data() + i * length, single.data(),
                            length * sizeof(double)),
                0)
          << "row " << i << " length " << length
          << " differs from that row run alone";
    }
  }
}

TEST(AutoCorrBatchTest, BitwiseIdenticalAcrossThreadCounts) {
  Rng rng(17);
  const int64_t count = 13;
  const int64_t length = 336;
  std::vector<double> series(count * length);
  for (auto& x : series) x = rng.Normal();

  ThreadPool::Global().SetNumThreads(1);
  auto one_thread = AutoCorrelationBatch(series, count, length);
  ThreadPool::Global().SetNumThreads(8);
  auto eight_threads = AutoCorrelationBatch(series, count, length);
  ThreadPool::Global().SetNumThreads(1);

  ASSERT_EQ(one_thread.size(), eight_threads.size());
  EXPECT_EQ(std::memcmp(one_thread.data(), eight_threads.data(),
                        one_thread.size() * sizeof(double)),
            0)
      << "AutoCorrelationBatch must be bitwise identical at any thread count";
}

TEST(AutoCorrBatchTest, EmptyBatchIsNoop) {
  auto out = AutoCorrelationBatch({}, 0, 8);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace conformer::fft
