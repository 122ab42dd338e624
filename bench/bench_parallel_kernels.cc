// Thread-scaling microbenchmark for the parallel kernel layer: Gemm, Conv1d
// and sliding-window attention at 1, 2, 4 and hardware_concurrency threads
// (deduplicated), plus per-SIMD-level rows (docs/SIMD.md) — the same Gemm /
// elementwise / softmax work pinned to 1 thread under each available
// CONFORMER_SIMD_LEVEL, and a `gemm_dispatch` row at the auto-detected
// level. CI's bench-smoke job asserts gemm_dispatch >= 1.5x gemm_scalar.
// Emits one JSON document on stdout so CI can diff runs:
//
//   {"host": {"hardware_concurrency": N, "simd": ..., "compiler": ...},
//    "results": [{"kernel": "gemm_512", "threads": 1, "ops_per_sec": ...,
//                 "ops_per_sec_iqr": ..., "reps": 5}]}
//
// Each row is the median (and IQR) of five steady_clock windows of ~100ms
// (bench/bench_util.h, MeasureOpsPerSec). Thread counts are pinned via
// ThreadPool::SetNumThreads; on a single-core machine the >1-thread rows
// measure oversubscription overhead rather than speedup.

#include <algorithm>
#include <string>
#include <vector>

#include "attention/attention.h"
#include "bench/bench_util.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/thread_pool.h"

namespace conformer::bench {
namespace {

void BenchAtThreadCount(int64_t threads, std::vector<BenchRow>* results) {
  ThreadPool::Global().SetNumThreads(threads);
  NoGradGuard guard;
  Rng rng(7);

  {
    const int64_t n = 512;
    Tensor a = Tensor::Randn({n, n}, &rng);
    Tensor b = Tensor::Randn({n, n}, &rng);
    std::vector<float> c(n * n);
    results->push_back({"gemm_512", threads, MeasureOpsPerSec([&] {
                          kernels::Gemm(false, false, n, n, n, a.data(),
                                        b.data(), c.data(),
                                        /*accumulate=*/false);
                        })});
  }

  {
    Tensor input = Tensor::Randn({8, 16, 256}, &rng);
    Tensor weight = Tensor::Randn({32, 16, 3}, &rng);
    Tensor bias = Tensor::Randn({32}, &rng);
    results->push_back({"conv1d_8x16x256", threads, MeasureOpsPerSec([&] {
                          Tensor out = Conv1d(input, weight, bias,
                                              /*padding=*/1, PadMode::kZeros,
                                              /*dilation=*/1);
                          (void)out;
                        })});
  }

  {
    // The TimesNet-lite grid shape: [B, M, cycles, period] with a 3x3 kernel.
    Tensor input = Tensor::Randn({4, 32, 8, 24}, &rng);
    Tensor weight = Tensor::Randn({32, 32, 3, 3}, &rng);
    Tensor bias = Tensor::Randn({32}, &rng);
    results->push_back({"conv2d_4x32x8x24", threads, MeasureOpsPerSec([&] {
                          Tensor out = Conv2d(input, weight, bias,
                                              /*padding_h=*/1,
                                              /*padding_w=*/1);
                          (void)out;
                        })});
  }

  {
    attention::AttentionConfig config;
    config.window = 8;
    auto mech = attention::MakeAttention(
        attention::AttentionKind::kSlidingWindow, config);
    Tensor q = Tensor::Randn({8, 256, 32}, &rng);
    Tensor k = Tensor::Randn({8, 256, 32}, &rng);
    Tensor v = Tensor::Randn({8, 256, 32}, &rng);
    results->push_back({"sliding_window_8x256x32", threads,
                        MeasureOpsPerSec([&] {
                          Tensor out = mech->Forward(q, k, v, false);
                          (void)out;
                        })});
  }
}

// Per-SIMD-level rows, all pinned to 1 thread so the ratio between levels
// isolates vectorization (no pool dispatch in the numerator or denominator).
// The raw span kernels are benched directly; Gemm goes through
// kernels::Gemm, whose inner loops dispatch per level.
void BenchSimdLevels(std::vector<BenchRow>* results) {
  ThreadPool::Global().SetNumThreads(1);
  NoGradGuard guard;
  Rng rng(11);
  const vec::SimdLevel ambient = vec::ActiveSimdLevel();

  const int64_t gn = 256;
  Tensor ga = Tensor::Randn({gn, gn}, &rng);
  Tensor gb = Tensor::Randn({gn, gn}, &rng);
  std::vector<float> gc(gn * gn);
  auto gemm = [&] {
    kernels::Gemm(false, false, gn, gn, gn, ga.data(), gb.data(), gc.data(),
                  /*accumulate=*/false);
  };

  const int64_t en = 1 << 20;
  Tensor ea = Tensor::Randn({en}, &rng);
  Tensor eb = Tensor::Randn({en}, &rng);
  std::vector<float> eo(en);
  auto elementwise = [&] { vec::AddN(ea.data(), eb.data(), eo.data(), en); };

  const int64_t rows = 256, cols = 512;
  Tensor sa = Tensor::Randn({rows, cols}, &rng);
  std::vector<float> so(rows * cols);
  auto softmax = [&] {
    for (int64_t r = 0; r < rows; ++r) {
      vec::SoftmaxRowN(sa.data() + r * cols, so.data() + r * cols, cols);
    }
  };

  for (vec::SimdLevel level : vec::AvailableSimdLevels()) {
    vec::SetSimdLevel(level);
    const std::string name = vec::SimdLevelName(level);
    results->push_back({"gemm_" + name, 1, MeasureOpsPerSec(gemm)});
    results->push_back(
        {"elementwise_" + name, 1, MeasureOpsPerSec(elementwise)});
    results->push_back({"softmax_" + name, 1, MeasureOpsPerSec(softmax)});
  }
  vec::SetSimdLevel(vec::DetectedSimdLevel());
  results->push_back({"gemm_dispatch", 1, MeasureOpsPerSec(gemm)});
  vec::SetSimdLevel(ambient);
}

int Main() {
  const int64_t hw = HardwareThreads();
  std::vector<int64_t> counts = {1, 2, 4, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  std::vector<BenchRow> results;
  for (int64_t t : counts) BenchAtThreadCount(t, &results);
  BenchSimdLevels(&results);
  ThreadPool::Global().SetNumThreads(hw);

  PrintBenchJson(results);
  return 0;
}

}  // namespace
}  // namespace conformer::bench

int main() { return conformer::bench::Main(); }
