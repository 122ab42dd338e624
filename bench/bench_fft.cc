// FFT subsystem benchmark: the Eq. 1-2 input-representation correlation path
// at the paper's non-power-of-two benchmark lengths (96/192/336/720), the
// arbitrary-length (Bluestein) transform, and the thread scaling of the
// batched auto-correlation. Emits the bench_parallel_kernels JSON schema so
// CI can diff runs against bench/baselines/bench_fft.json:
//
//   {"host": {"hardware_concurrency": N, "simd": ..., "compiler": ...},
//    "results": [{"kernel": "input_corr_fft_336", "threads": 1,
//                 "ops_per_sec": ...}]}
//
// The input_corr_direct_* rows time a faithful replica of the pre-PR O(L^2)
// fallback over the same (batch, variable) columns, so the in-run ratio
// input_corr_fft_* / input_corr_direct_* is the rewrite's speedup; CI
// asserts it stays >= 5x at L = 336 and 720 (single thread).

#include <algorithm>
#include <complex>
#include <vector>

#include "bench/bench_util.h"
#include "fft/autocorrelation.h"
#include "fft/fft.h"
#include "fft/plan.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace conformer::bench {
namespace {

// Faithful replica of the pre-PR non-power-of-two fallback in
// fft::AutoCorrelation (direct O(n^2) circular correlation).
void DirectAutoCorrelation(const double* signal, int64_t n, double* out) {
  for (int64_t lag = 0; lag < n; ++lag) {
    double acc = 0.0;
    for (int64_t t = 0; t < n; ++t) acc += signal[t] * signal[(t + lag) % n];
    out[lag] = acc;
  }
}

// The input-representation correlation workload: every (batch, variable)
// column of a [batch, length, dims] window, as one contiguous row batch.
std::vector<double> MakeColumns(int64_t count, int64_t length, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> columns(count * length);
  for (auto& x : columns) x = rng.Normal();
  return columns;
}

int Main() {
  const int64_t hw = HardwareThreads();
  // The paper's window: 4 batch rows x 7 ETT variables = 28 columns per step.
  const int64_t kBatchDims = 28;
  std::vector<BenchRow> results;

  ThreadPool::Global().SetNumThreads(1);

  // Direct-vs-FFT on the two acceptance lengths (single thread), plus the
  // shorter paper lengths FFT-only for coverage.
  for (int64_t length : {336, 720}) {
    std::vector<double> columns = MakeColumns(kBatchDims, length, 7);
    std::vector<double> out(columns.size());
    results.push_back(
        {"input_corr_direct_" + std::to_string(length), 1,
         MeasureOpsPerSec([&] {
           for (int64_t i = 0; i < kBatchDims; ++i) {
             DirectAutoCorrelation(columns.data() + i * length, length,
                                   out.data() + i * length);
           }
         })});
    results.push_back({"input_corr_fft_" + std::to_string(length), 1,
                       MeasureOpsPerSec([&] {
                         out = fft::AutoCorrelationBatch(columns, kBatchDims,
                                                         length);
                       })});
  }
  for (int64_t length : {96, 192}) {
    std::vector<double> columns = MakeColumns(kBatchDims, length, 7);
    std::vector<double> out(columns.size());
    results.push_back({"input_corr_fft_" + std::to_string(length), 1,
                       MeasureOpsPerSec([&] {
                         out = fft::AutoCorrelationBatch(columns, kBatchDims,
                                                         length);
                       })});
  }

  // Arbitrary-length transform (Bluestein) vs the radix-2 core at the
  // nearest power of two, one signal per iteration.
  for (int64_t length : {336, 720, 1024}) {
    Rng rng(11);
    std::vector<std::complex<double>> signal(length);
    for (auto& x : signal) x = {rng.Normal(), rng.Normal()};
    results.push_back({"transform_" + std::to_string(length), 1,
                       MeasureOpsPerSec([&] {
                         std::vector<std::complex<double>> copy = signal;
                         fft::Transform(&copy, false);
                       })});
  }

  // Thread scaling of the batched path (static-stripe ParallelFor; on a
  // single-core host the >1-thread rows measure oversubscription overhead).
  {
    const int64_t length = 336;
    std::vector<double> columns = MakeColumns(kBatchDims, length, 7);
    std::vector<int64_t> counts = {1, 2, 4, hw};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
    for (int64_t t : counts) {
      ThreadPool::Global().SetNumThreads(t);
      results.push_back({"autocorr_batch_336", t, MeasureOpsPerSec([&] {
                           std::vector<double> out = fft::AutoCorrelationBatch(
                               columns, kBatchDims, length);
                           (void)out;
                         })});
    }
  }
  ThreadPool::Global().SetNumThreads(hw);

  PrintBenchJson(results);
  return 0;
}

}  // namespace
}  // namespace conformer::bench

int main() { return conformer::bench::Main(); }
