// Persistent worker thread pool behind the kernel layer's ParallelFor.
//
// Determinism contract (see docs/THREADING.md): a parallel loop splits
// [begin, end) into grain-sized chunks whose boundaries depend only on
// (begin, end, grain) — never on the number of threads — and every chunk is
// executed by exactly one thread. Kernels that only write disjoint indices
// are therefore bitwise identical at any thread count; a loop whose writes
// overlap across chunks runs serially instead of sharing accumulators.

#ifndef CONFORMER_UTIL_THREAD_POOL_H_
#define CONFORMER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace conformer {

/// \brief A persistent pool of worker threads executing chunked loops.
///
/// One job runs at a time and the dispatching thread participates in the
/// work, so `num_threads() == 1` means "no extra workers, run inline".
/// Chunks are assigned to threads by a static stripe (chunk c belongs to
/// thread c % num_threads), which keeps the execution exactly-once without
/// any shared work counter. Construction reads CONFORMER_NUM_THREADS
/// (falling back to hardware_concurrency); tests pin the count with
/// SetNumThreads.
class ThreadPool {
 public:
  /// The process-wide pool used by the tensor kernels.
  static ThreadPool& Global();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resizes the pool to `n` total threads (dispatcher + n-1 workers).
  /// Clamped to >= 1. Blocks until the old workers have exited; must not be
  /// called from inside a parallel region.
  void SetNumThreads(int64_t n);

  /// Total threads that participate in a loop (including the caller).
  int64_t num_threads() const;

  /// Runs `fn(chunk_begin, chunk_end)` over grain-sized chunks of
  /// [begin, end). Chunk boundaries are begin + i*grain, independent of the
  /// thread count. `fn` must only write locations disjoint across chunks.
  /// Empty or inverted ranges are a no-op. Nested calls (from inside a
  /// parallel region) run sequentially on the calling thread.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

 private:
  struct Job {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    int64_t num_chunks = 0;
    int64_t num_threads = 1;
  };

  ThreadPool();

  void StartWorkers(int64_t workers);
  void StopWorkers();
  /// `start_epoch` is the epoch at spawn time; the worker only reacts to
  /// later epochs (the job slot may still hold a completed historic job).
  void WorkerLoop(int64_t stripe, uint64_t start_epoch);
  /// Runs every chunk c of `job` with c % job.num_threads == stripe.
  static void RunStripe(const Job& job, int64_t stripe);

  std::vector<std::thread> workers_;
  int64_t num_threads_ = 1;

  std::mutex dispatch_mutex_;  // serializes dispatchers and resizing
  mutable std::mutex mutex_;   // guards job_, epoch_, pending_, shutdown_
  std::condition_variable job_cv_;   // workers wait for a new epoch
  std::condition_variable done_cv_;  // dispatcher waits for pending_ == 0
  Job job_;
  uint64_t epoch_ = 0;
  int64_t pending_ = 0;  // workers that have not finished the current epoch
  bool shutdown_ = false;
};

/// Convenience wrapper over ThreadPool::Global().
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace conformer

#endif  // CONFORMER_UTIL_THREAD_POOL_H_
